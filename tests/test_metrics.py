import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphvar.graphs import (
    AdjacencyGraph,
    er_sample,
    num_pairs,
)
from graphvar.metrics import (
    EXACT_PERM_LIMIT,
    HEAD_POSITIONS,
    RELABEL_BATCH,
    partial_zeta,
    perm_prefix_power,
    prefix_distances,
    prefix_power_series,
    relabelings,
    slln_statistic,
)
from oracles import (
    InjectiveMap,
    apply_map,
    edit_density,
    prefix_agreement,
    prefix_metric,
    project,
    restrict,
)


def perm_average(h, f, g, m, k=1000, seed=0):
    """Brute-force oracle: average of h(f^sigma, g^sigma) over permutations
    sigma of [m], one apply_map per relabeling.

    Exact enumeration whenever m! <= EXACT_PERM_LIMIT (stderr 0); otherwise a
    Monte Carlo estimate from k uniform permutations, as (mean, stderr).
    """
    if not (1 <= m <= min(f.n, g.n)):
        raise ValueError("window m out of range")
    if math.factorial(m) <= EXACT_PERM_LIMIT:
        vals = [
            h(apply_map(f, InjectiveMap(perm)), apply_map(g, InjectiveMap(perm)))
            for perm in itertools.permutations(range(1, m + 1))
        ]
        return float(np.mean(vals)), 0.0
    rng = np.random.default_rng(seed)
    vals = np.empty(k)
    for r in range(k):
        phi = InjectiveMap(tuple(int(v) + 1 for v in rng.permutation(m)))
        vals[r] = h(apply_map(f, phi), apply_map(g, phi))
    return float(vals.mean()), float(np.std(vals, ddof=1) / math.sqrt(k))


def test_edit_density_values():
    f = AdjacencyGraph.from_edges(4, [(1, 2), (2, 3)])
    g = AdjacencyGraph.from_edges(4, [(2, 3), (3, 4)])
    assert edit_density(f, g) == pytest.approx(2 * 2 / 12)
    assert edit_density(f, f) == 0.0
    assert edit_density(AdjacencyGraph.empty(3), AdjacencyGraph.complete(3)) == 1.0


def test_edit_density_errors():
    with pytest.raises(ValueError):
        edit_density(AdjacencyGraph.empty(3), AdjacencyGraph.empty(4))
    with pytest.raises(ValueError):
        edit_density(AdjacencyGraph.empty(1), AdjacencyGraph.empty(1))


def test_prefix_agreement_first_disagreement():
    f = AdjacencyGraph.empty(6)
    g = AdjacencyGraph.from_edges(6, [(2, 5)])
    # graphs agree on the first four vertices, disagree once vertex 5 enters
    assert prefix_agreement(f, g) == 4
    assert prefix_metric(f, g) == pytest.approx(0.25)
    assert prefix_agreement(f, f) == 6
    assert prefix_metric(f, f) == 0.0
    h = AdjacencyGraph.from_edges(6, [(1, 2)])
    assert prefix_agreement(f, h) == 1
    assert prefix_metric(f, h) == 1.0


def test_prefix_metric_bounds():
    f = er_sample(9, 0.5, 0)
    g = er_sample(9, 0.5, 1)
    d = prefix_metric(f, g)
    assert 0.0 < d <= 1.0


graphs9 = st.builds(
    AdjacencyGraph,
    st.just(9),
    st.integers(min_value=0, max_value=(1 << num_pairs(9)) - 1),
)


@given(graphs9, graphs9, graphs9)
def test_property_prefix_metric_is_ultrametric(f, g, h):
    assert prefix_metric(f, h) <= max(prefix_metric(f, g), prefix_metric(g, h)) + 1e-12
    assert prefix_metric(f, g) == prefix_metric(g, f)
    assert (prefix_metric(f, g) == 0.0) == (f == g)


def test_perm_average_exact_for_invariant_h():
    f = er_sample(9, 0.4, 5)
    g = er_sample(9, 0.4, 6)
    # edit density is relabeling-invariant, so the average over the window
    # is exactly the edit density of the window restriction
    for m in (2, 3, 4):
        mean, se = perm_average(edit_density, f, g, m)
        assert se == 0.0
        assert mean == pytest.approx(edit_density(restrict(f, m), restrict(g, m)))


def test_perm_average_window_out_of_range():
    f = er_sample(5, 0.5, 0)
    with pytest.raises(ValueError):
        perm_average(edit_density, f, f, 6)
    with pytest.raises(ValueError):
        perm_average(edit_density, f, f, 0)


def relabeled(g, row):
    """g under the relabeling `row`: position q holds the vertex row[q]."""
    return apply_map(g, InjectiveMap(tuple(int(v) + 1 for v in row)))


@pytest.mark.parametrize("n,k", [(2, 0), (4, 0), (6, 0), (7, 0), (9, 60), (10, 600), (64, 24), (64, 600)])
def test_prefix_distances_match_scalar_oracle(n, k):
    f, g, h = (er_sample(n, 0.4, [80, n, r]) for r in range(3))
    empty = AdjacencyGraph.empty(n)
    # every pair among the last 20 vertices: at n=64 its 190 pairs take the head
    # block, and relabelings with at most one of them in the first 16 positions
    # have q >= 16 and fall back to the exact gather
    clique = AdjacencyGraph.from_edges(n, itertools.combinations(range(max(1, n - 19), n + 1), 2))
    # one disagreeing pair: a sparse segment that takes the exact gather directly
    pairs = [(f, g), (h, h), (empty, AdjacencyGraph.from_edges(n, [(n - 1, n)])), (empty, clique)]
    if n < 7:
        pairs.append((g, h))
    perms, exact = relabelings(n, k, seed=[81, n])
    assert exact == (math.factorial(n) <= EXACT_PERM_LIMIT)
    assert len({tuple(row) for row in perms}) == (math.factorial(n) if exact else k)
    windows = range(1, n + 1)
    ids = [np.flatnonzero(a.to_pair_vector() ^ b.to_pair_vector()) for a, b in pairs]
    dist = prefix_distances(ids, n, windows, perms)
    for s, (a, b) in enumerate(pairs):
        for r, row in enumerate(perms):
            ra, rb = relabeled(a, row), relabeled(b, row)
            for m in windows:
                assert dist[m][s, r] == prefix_metric(project(ra, m), project(rb, m))
    if k == 600 and n == 64:  # 600 rows cross a batch boundary and meet fallbacks
        assert ((0 < dist[n][3]) & (dist[n][3] <= 1 / 16)).any()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(8, 48), density=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
# near the head rule's crossover: 394 disagreeing pairs take the head step,
# and 2 of the 8 relabelings meet none in the head and take the gather
@example(n=256, density=384 / num_pairs(256), seed=3)
def test_prefix_distances_match_scalar_oracle_at_any_density(n, density, seed):
    g = er_sample(n, density, [82, seed])
    empty = AdjacencyGraph.empty(n)
    perms, _ = relabelings(n, 8, seed=[83, seed])
    windows = sorted({m for m in (2, 15, 16, 17) if m < n} | {n})
    dist = prefix_distances([np.flatnonzero(g.to_pair_vector())], n, windows, perms)
    for r, row in enumerate(perms):
        re_, rg = relabeled(empty, row), relabeled(g, row)
        for m in windows:
            assert dist[m][0, r] == prefix_metric(project(re_, m), project(rg, m))


def test_prefix_distances_build_one_inverse_table_per_call(monkeypatch):
    n, k = 256, 2 * RELABEL_BATCH
    perms, _ = relabelings(n, k, seed=7)
    rng = np.random.default_rng(8)
    # 600 pairs take the head step and leave about a tenth of the rows of each
    # batch open; 5 pairs skip the head, so every row takes the gather
    dense, sparse = (rng.choice(num_pairs(n), size, replace=False) for size in (600, 5))
    argsort, calls = np.argsort, []
    monkeypatch.setattr(np, "argsort",
                        lambda a, **kw: calls.append(a.shape) or argsort(a, **kw))
    got = prefix_distances([dense, sparse], n, [n], perms)[n]
    assert calls == [(k, n)]  # one table of every row, never a subset of them
    q = np.rint(1 / got[0]).astype(int)
    for lo in (0, RELABEL_BATCH):  # the head left rows open in both batches
        assert (q[lo : lo + RELABEL_BATCH] >= HEAD_POSITIONS).any()


@pytest.mark.parametrize("n", [8, 64])
def test_relabelings_rows_are_successive_permutation_draws(n):
    k = 600
    perms, exact = relabelings(n, k, seed=[3, n])
    assert not exact and perms.shape == (k, n)
    rng = np.random.default_rng([3, n])
    expect = np.array([rng.permutation(n) for _ in range(k)])
    assert np.array_equal(perms, expect)


def test_relabelings_need_two_draws():
    with pytest.raises(ValueError, match="at least two"):
        relabelings(8, 1, seed=0)
    assert relabelings(7, 1, seed=0)[0].shape == (5040, 7)  # enumeration ignores k


def single_pair_power(n: int, alpha: float) -> float:
    """E over relabelings of prefix_metric**alpha when exactly one pair differs.

    The relabeled pair is uniform over position pairs, so the larger endpoint
    lands at 0-indexed position q with probability q / C(n,2).
    """
    return sum(
        (q / num_pairs(n)) * (1.0 / max(q, 1)) ** alpha for q in range(1, n)
    )


@pytest.mark.parametrize("n,alpha", [(4, 2.5), (5, 3.0), (6, 2.5), (7, 4.0)])
def test_perm_prefix_power_exact_single_pair(n, alpha):
    f = AdjacencyGraph.empty(n)
    g = AdjacencyGraph.from_edges(n, [(1, 2)])
    val, se = perm_prefix_power(f, g, alpha)
    assert se == 0.0
    assert val == pytest.approx(single_pair_power(n, alpha), rel=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_perm_prefix_power_exact_matches_bruteforce(seed):
    # independent slow path: average prefix_metric**alpha over all relabelings
    # via the generic permutation-average code (matrix gather, no argsort batch)
    f = er_sample(6, 0.5, [90, seed])
    g = er_sample(6, 0.5, [91, seed])
    alpha = 2.5
    fast, se_fast = perm_prefix_power(f, g, alpha)
    slow, se_slow = perm_average(
        lambda a, b: prefix_metric(a, b) ** alpha, f, g, 6
    )
    assert se_fast == se_slow == 0.0
    assert fast == pytest.approx(slow, rel=1e-12)


def test_perm_prefix_power_mc_single_pair():
    n, alpha = 9, 2.5  # 9! forces Monte Carlo
    f = AdjacencyGraph.empty(n)
    g = AdjacencyGraph.from_edges(n, [(1, 2)])
    val, se = perm_prefix_power(f, g, alpha, k=20_000, seed=7)
    assert se > 0.0
    assert abs(val - single_pair_power(n, alpha)) <= 4 * se


def test_perm_prefix_power_equal_graphs():
    f = er_sample(12, 0.5, 0)
    assert perm_prefix_power(f, f, 3.0) == (0.0, 0.0)


def test_perm_prefix_power_determinism():
    f = er_sample(12, 0.5, 1)
    g = er_sample(12, 0.5, 2)
    assert perm_prefix_power(f, g, 2.5, k=500, seed=3) == perm_prefix_power(
        f, g, 2.5, k=500, seed=3
    )


def test_slln_statistic_values():
    x = AdjacencyGraph.from_edges(5, [(1, 2), (1, 3), (2, 3)])
    assert slln_statistic(x, (2, 3, 5)) == (1.0, 1.0, 0.3)
    with pytest.raises(ValueError):
        slln_statistic(x, (1, 3))


def test_slln_statistic_concentrates():
    # one large sample: window densities should settle near the edge rate
    x = er_sample(512, 0.35, 42)
    values = slln_statistic(x, (64, 128, 256, 512))
    sd = math.sqrt(0.35 * 0.65 / num_pairs(512))
    assert abs(values[-1] - 0.35) <= 4 * sd
    assert abs(values[-1] - values[-2]) <= 2e-2


@given(
    n=st.integers(2, 40),
    p=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_slln_statistic_matches_restrict_oracle(n, p, seed, data):
    x = er_sample(n, p, seed)
    levels = data.draw(st.lists(st.integers(2, n), min_size=1, unique=True).map(sorted))
    want = tuple(2 * restrict(x, m).edge_count / (m * (m - 1)) for m in levels)
    assert slln_statistic(x, levels) == want


def test_prefix_power_series_edge_cases():
    assert prefix_power_series(0.0, 3.0, 50) == 0.0
    assert prefix_power_series(1.0, 3.0, 50) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        prefix_power_series(1.5, 3.0, 50)


def test_prefix_power_series_hand_sum():
    p, alpha = 0.3, 2.5
    q = 1 - p
    expect = sum(
        n ** (-alpha) * q ** (n * (n - 1) / 2) * (1 - q**n) for n in (1, 2, 3)
    )
    assert prefix_power_series(p, alpha, 3) == pytest.approx(expect, rel=1e-12)


def test_partial_zeta_hand_sums():
    assert partial_zeta(3.0, 4) == pytest.approx(1 + 1 / 4 + 1 / 9 + 1 / 16)
    assert partial_zeta(2.0, 3) == pytest.approx(1 + 1 / 2 + 1 / 3)
    assert partial_zeta(2.5, 1) == 1.0


def test_perm_prefix_power_against_series_small():
    # iid disagreement with probability p: averaging the exact per-pattern
    # value over many pattern draws should reproduce the closed-form series,
    # up to the final term that the fixed truncation cannot see
    n, p, alpha = 6, 0.4, 3.0
    rng = np.random.default_rng(77)
    draws = 400
    vals = np.empty(draws)
    for r in range(draws):
        bits = int.from_bytes(
            np.packbits(
                (rng.random(num_pairs(n)) < p).astype(np.uint8), bitorder="little"
            ).tobytes(),
            "little",
        )
        vals[r] = perm_prefix_power(AdjacencyGraph(n, bits), AdjacencyGraph(n, 0), alpha)[0]
    est = vals.mean()
    se = vals.std(ddof=1) / math.sqrt(draws)
    # the series counts "all pairs agree" as a 1/n**alpha contribution, the
    # finite-window metric as 0; remove that term before comparing
    target = prefix_power_series(p, alpha, n) - n ** (-alpha) * (1 - p) ** num_pairs(
        n
    ) * (1 - (1 - p) ** n)
    assert abs(est - target) <= 4 * se
