import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphvar import density
from graphvar.density import (
    DensityLevel,
    DensityVector,
    WeightFunction,
    _closed_form_counts,
    _degrees_and_triangles,
    _exact_cost,
    _exact_level_counts,
    _level4_counts,
    _mc_codes,
    bound_constant,
    density_exact,
    finite_dim_variation,
    limit_metric,
    limit_metric_error_budget,
    limit_vector,
    lipschitz_check,
    load_density_vector,
    save_density_vector,
    total_variation_check,
    weight_admissibility,
    weight_family,
)
from graphvar.graphs import AdjacencyGraph, DataError, er_sample, num_pairs, pair_endpoints, pair_index
from graphvar.process import EdgeEvent, EventLogPath
from graphvar.variation import stopping_ladder
from oracles import density_mc, has_edge


def brute_density(pattern, host):
    """Reference count over all injective tuples, one pair check at a time."""
    k, m = pattern.n, host.n
    hits = 0
    for tup in itertools.permutations(range(1, m + 1), k):
        if all(
            has_edge(host, tup[x], tup[y]) == has_edge(pattern, x + 1, y + 1)
            for x in range(k)
            for y in range(x + 1, k)
        ):
            hits += 1
    return Fraction(hits, math.perm(m, k))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_density_exact_matches_bruteforce(k):
    host = er_sample(8, 0.5, 50)
    for bits in range(1 << num_pairs(k)):
        pattern = AdjacencyGraph(k, bits)
        assert density_exact(pattern, host) == brute_density(pattern, host)


def test_density_exact_level5_spot_checks():
    host = er_sample(7, 0.5, 51)
    for bits in (0, 1, 0b1111111111, (1 << num_pairs(5)) - 1):
        pattern = AdjacencyGraph(5, bits)
        assert density_exact(pattern, host) == brute_density(pattern, host)


def test_density_closed_forms():
    host = er_sample(9, 0.4, 52)
    edge = AdjacencyGraph.from_edges(2, [(1, 2)])
    assert density_exact(edge, host) == Fraction(2 * host.edge_count, 9 * 8)
    vertex = AdjacencyGraph(1, 0)
    assert density_exact(vertex, host) == 1
    triangle = AdjacencyGraph.complete(3)
    bipartite = AdjacencyGraph.from_edges(
        4, [(1, 3), (1, 4), (2, 3), (2, 4)]
    )  # triangle-free host
    assert density_exact(triangle, bipartite) == 0
    assert density_exact(triangle, AdjacencyGraph.complete(6)) == 1


def test_density_exact_budget_refusal():
    host = er_sample(12, 0.5, 53)
    with pytest.raises(ValueError, match=r'use --mode mc \(mode="mc"\) instead'):
        density_exact(AdjacencyGraph.complete(3), host, budget=10)


def test_density_level_guards():
    host = er_sample(5, 0.5, 54)
    with pytest.raises(ValueError, match="exceeds host"):
        density_exact(AdjacencyGraph.empty(6), host)
    big_host = er_sample(12, 0.5, 54)
    with pytest.raises(ValueError, match="not supported"):
        density_exact(AdjacencyGraph.empty(7), big_host)


def assert_closed_form_matches_walker(host):
    """Levels 1-3 in closed form against the tuple walker, kept as the oracle."""
    assert _closed_form_counts(host, 1).tolist() == [host.n]
    for k in (2, 3):
        got, want = _closed_form_counts(host, k), _exact_level_counts(host, k)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want), (host, k, got, want)


@given(m=st.integers(3, 70), p=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
@example(m=3, p=1.0, seed=0)
@example(m=70, p=0.5, seed=1)
@settings(max_examples=80, deadline=None)
def test_closed_form_counts_match_walker(m, p, seed):
    assert_closed_form_matches_walker(er_sample(m, p, seed))


@pytest.mark.parametrize("m", [3, 4, 7, 9, 63, 64, 65, 127, 129])
def test_closed_form_counts_across_packing_padding(m):
    # m not a multiple of 8 or 64 leaves pad bits in the packed rows
    for host in (AdjacencyGraph.empty(m), AdjacencyGraph.complete(m), er_sample(m, 0.5, m)):
        assert_closed_form_matches_walker(host)
    assert _closed_form_counts(AdjacencyGraph.complete(m), 3)[-1] == math.perm(m, 3)


@pytest.mark.parametrize("gather_bytes", [1, 100, 1300, 4500])
def test_closed_form_counts_over_many_gather_chunks(monkeypatch, gather_bytes):
    # a block holds _GATHER_BYTES // 8 edges (at least one), so these sizes take
    # 1, 12, 162 and 562 edges at a time; the hosts at m = 70 hold 713
    # (p = 0.3) and 2,156 (p = 0.9) edges, split into 2 to 2,156 blocks.  At
    # m = 130 rows span 3 word columns, read from edge 0, from the first edge
    # with i >= 64 (1,913 of 2,560 and 5,587 of 7,534 edges) and from the one
    # edge with i >= 128, if there is one (none at p = 0.3, 7,533 at p = 0.9)
    monkeypatch.setattr(density, "_GATHER_BYTES", gather_bytes)
    for m, p in [(70, 0.3), (70, 0.9), (130, 0.3), (130, 0.9)]:
        host = er_sample(m, p, 80)
        assert host.edge_count > 7 * m
        assert_closed_form_matches_walker(host)


@pytest.mark.parametrize("m", [4, 5, 63, 64, 65])
def test_level4_counts_match_walker(m):
    # the tuple walker is the level-4 oracle; m = 64 fills one word column
    # exactly, 63 leaves a pad bit, 65 spills into a second column
    hosts = [AdjacencyGraph.empty(m), AdjacencyGraph.complete(m)]
    hosts += [er_sample(m, p, [m, k, 4]) for k, p in enumerate((0.1, 0.5, 0.9))]
    for host in hosts:
        got, want = _level4_counts(host), _exact_level_counts(host, 4)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want), (host, got, want)
    assert _level4_counts(AdjacencyGraph.complete(m))[-1] == math.perm(m, 4)


@pytest.mark.parametrize("gather_bytes", [1, 20_000])
def test_level4_counts_over_many_gather_blocks(monkeypatch, gather_bytes):
    # a block holds _GATHER_BYTES // (8 * words * m) pairs, at least one: at m = 70
    # (two word columns) these sizes take 1 and 17 of the 2,415 pairs at a time
    monkeypatch.setattr(density, "_GATHER_BYTES", gather_bytes)
    host = er_sample(70, 0.6, 84)
    assert np.array_equal(_level4_counts(host), _exact_level_counts(host, 4))


def brute_degrees_and_triangles(host):
    """Degrees from the dense matrix, triangles from every vertex triple."""
    adj = host.to_matrix().tolist()
    triangles = sum(adj[a][b] and adj[a][c] and adj[b][c]
                    for a, b, c in itertools.combinations(range(host.n), 3))
    return [sum(row) for row in adj], triangles


@pytest.mark.parametrize("m", [3, 63, 64, 65, 127, 128, 129])
def test_degrees_and_triangles_against_brute_force(m):
    # m = 64 fills its word columns exactly; the others leave pad bits
    hosts = [AdjacencyGraph.empty(m), AdjacencyGraph.complete(m)]
    hosts += [er_sample(m, p, [m, k]) for k, p in enumerate((0.1, 0.5, 0.9))]
    for host in hosts:
        deg, t = _degrees_and_triangles(host)
        assert (deg.tolist(), t) == brute_degrees_and_triangles(host), host
    assert _degrees_and_triangles(AdjacencyGraph.complete(m))[1] == math.comb(m, 3)


def test_each_single_triangle_across_word_boundaries():
    # the triangle k < i < j is counted once, at edge (i, j), from word column
    # k // 64, which only the edges with i >= 64 (k // 64) read; these vertices
    # put k, i and j on each side of the boundaries at 64 and 128
    near = [62, 63, 64, 65, 127, 128, 129]
    for k, i, j in itertools.combinations(near, 3):
        host = AdjacencyGraph.from_edges(130, [(k + 1, i + 1), (k + 1, j + 1), (i + 1, j + 1)])
        deg, t = _degrees_and_triangles(host)
        assert t == 1 and (deg.tolist(), t) == brute_degrees_and_triangles(host), (k, i, j)


def test_popcount_matches_int_bit_count():
    # the density kernels count set bits with np.bitwise_count, one uint8 per word
    rng = np.random.default_rng(83)
    words = [0, 2**64 - 1] + [1 << b for b in range(64)]
    words += rng.integers(0, 2**64 - 1, size=500, dtype=np.uint64, endpoint=True).tolist()
    got = np.bitwise_count(np.array(words, dtype=np.uint64))
    assert got.dtype == np.uint8
    assert got.tolist() == [w.bit_count() for w in words]


def test_exact_cost_units():
    # levels 1-2 are free; level 3 is packed-row word ANDs, C(m, 2) * ceil(m / 64);
    # level 4 is word ANDs too, at most C(m, 2) * ceil(m / 64) * (m - 1), which the
    # default budget of 10^7 covers up to m = 188; levels 5-6 are tuples
    assert _exact_cost(256, 1) == _exact_cost(256, 2) == 0
    assert _exact_cost(256, 3) == 32_640 * 4 == 130_560
    assert _exact_cost(65, 3) == num_pairs(65) * 2
    assert _exact_cost(256, 4) == 130_560 * 255
    assert _exact_cost(64, 4) == 2_016 * 63 == 127_008
    assert _exact_cost(188, 4) <= 10**7 < _exact_cost(189, 4)
    assert _exact_cost(256, 5) == math.perm(256, 5)
    vec = limit_vector(er_sample(256, 0.5, 81), n_max=3)  # default budget 10^7
    assert [lv.mode for lv in vec.levels] == ["exact"] * 3
    with pytest.raises(ValueError, match=r'130560 word ANDs at level 3 .* use --mode mc \(mode="mc"\)'):
        limit_vector(er_sample(256, 0.5, 81), n_max=3, mode="exact", budget=130_559)
    with pytest.raises(ValueError, match="127008 word ANDs at level 4 on 64 vertices"):
        density_exact(AdjacencyGraph.empty(4), er_sample(64, 0.5, 82), budget=127_007)
    with pytest.raises(ValueError, match="tuples at level 5"):
        density_exact(AdjacencyGraph.empty(5), er_sample(64, 0.5, 82), budget=10**6)


def test_density_mc_within_error_of_exact():
    host = er_sample(30, 0.3, 55)
    pattern = AdjacencyGraph.from_edges(3, [(1, 2), (2, 3)])
    exact = float(density_exact(pattern, host))
    est, se = density_mc(pattern, host, n_samples=40_000, seed=56)
    assert se > 0
    assert abs(est - exact) <= 4 * se
    # deterministic under the seed
    assert density_mc(pattern, host, n_samples=1000, seed=1) == density_mc(
        pattern, host, n_samples=1000, seed=1
    )


def sorted_mc_codes(host, k, n_samples, seed):
    """Reference sampler: rows checked for distinctness by sorting, codes by 2-D indexing."""
    m = host.n
    rng = np.random.default_rng(seed)
    rows = np.empty((n_samples, k), dtype=np.int64)
    have = 0
    while have < n_samples:
        want = n_samples - have
        batch = rng.integers(0, m, size=(int(want * 1.4) + 16, k))
        srt = np.sort(batch, axis=1)
        distinct = np.all(srt[:, 1:] != srt[:, :-1], axis=1)
        good = batch[distinct][:want]
        rows[have : have + good.shape[0]] = good
        have += good.shape[0]
    a = host.to_matrix().astype(np.int64)
    codes = np.zeros(n_samples, dtype=np.int64)
    for x in range(k):
        for y in range(x + 1, k):
            codes += a[rows[:, x], rows[:, y]] << pair_index(x + 1, y + 1, k)
    return codes


def assert_codes_match_oracle(host, k, n_samples, seed):
    got = _mc_codes(host.to_matrix(), k, n_samples, seed)
    want = sorted_mc_codes(host, k, n_samples, seed)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("host_size", ["k", "k+1", "9", "256"])
def test_mc_codes_match_sorting_oracle(k, host_size):
    # m == k rejects all but k!/k^k of the rows, so the draw loop runs many
    # passes; m == 256 is the analyze host size
    m = {"k": k, "k+1": k + 1, "9": 9, "256": 256}[host_size]
    host = er_sample(m, 0.5, 100 + m)
    for seed in (0, 1, [7, k]):
        assert_codes_match_oracle(host, k, 3_000, seed)


@given(
    k=st.integers(1, 6),
    extra=st.integers(0, 20),
    n_samples=st.integers(1, 400),
    graph_seed=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_mc_codes_match_sorting_oracle_random(k, extra, n_samples, graph_seed, seed):
    host = er_sample(k + extra, 0.5, graph_seed)
    assert_codes_match_oracle(host, k, n_samples, seed)


def test_mc_values_pinned():
    # the values the sort-based sampler gave, before the rewrite
    vec = limit_vector(er_sample(12, 0.5, 60), n_max=3, mode="mc", n_samples=2000, seed=7)
    assert vec.level(1).t == (1.0,) and vec.level(1).stderr == (0.0,)
    assert [round(t * 2000) for t in vec.level(2).t] == [926, 1074]
    assert [round(t * 2000) for t in vec.level(3).t] == [222, 234, 233, 284, 226, 249, 265, 287]
    assert vec.level(3).stderr[:2] == (0.007024208140424087, 0.007187176079657434)
    vec = limit_vector(er_sample(64, 0.4, 59), n_max=4, mode="mc", n_samples=3000, seed=[3, 1])
    assert [round(t * 3000) for t in vec.level(4).t] == [
        113, 95, 86, 58, 80, 56, 62, 39, 101, 57, 60, 53, 62, 39, 42, 30,
        100, 73, 56, 34, 60, 48, 45, 24, 45, 38, 52, 24, 44, 40, 28, 13,
        95, 55, 69, 44, 63, 38, 42, 34, 56, 54, 53, 32, 60, 26, 31, 17,
        56, 49, 36, 26, 39, 26, 20, 19, 44, 27, 25, 20, 34, 20, 21, 12,
    ]
    path3 = AdjacencyGraph.from_edges(3, [(1, 2), (2, 3)])
    assert density_mc(path3, er_sample(30, 0.3, 55), n_samples=40_000, seed=56) == (
        0.0658, 0.0012396608407141043
    )
    assert density_mc(AdjacencyGraph.empty(1), er_sample(9, 0.5, 1), 500, seed=1) == (1.0, 0.0)


def test_limit_vector_levels_sum_to_one():
    host = er_sample(40, 0.4, 57)
    vec = limit_vector(host, n_max=3, mode="auto")
    for lv in vec.levels:
        assert lv.mode == "exact"
        assert sum(lv.counts) == lv.denominator
        assert sum(lv.fraction(b) for b in range(len(lv.t))) == 1
    mc = limit_vector(host, n_max=3, mode="mc", n_samples=5_000, seed=58)
    for lv in mc.levels:
        assert lv.mode == "mc"
        assert sum(lv.t) == pytest.approx(1.0, abs=1e-9)
        assert lv.stderr is not None


def test_limit_vector_auto_switches_to_mc():
    host = er_sample(64, 0.4, 59)
    vec = limit_vector(host, n_max=5, mode="auto", n_samples=2_000)
    assert [lv.mode for lv in vec.levels] == ["exact"] * 4 + ["mc"]
    with pytest.raises(ValueError, match=r'use --mode mc \(mode="mc"\) instead'):
        limit_vector(host, n_max=5, mode="exact", budget=10**6)
    # level 4 samples on a host over its exact range at the default budget
    vec = limit_vector(er_sample(189, 0.4, 59), n_max=4, mode="auto", n_samples=2_000)
    assert [lv.mode for lv in vec.levels] == ["exact"] * 3 + ["mc"]
    with pytest.raises(ValueError, match="n_max"):
        limit_vector(host, n_max=7)
    with pytest.raises(ValueError, match="mode"):
        limit_vector(host, n_max=2, mode="nope")


def test_density_vector_roundtrip(tmp_path):
    vec = limit_vector(er_sample(12, 0.5, 60), n_max=3)
    d = vec.to_dict()
    assert d["n_max"] == 3
    assert [lv["n"] for lv in d["levels"]] == [1, 2, 3]
    back = DensityVector.from_dict(d)
    assert back.n_max == 3
    assert all(
        tuple(a.t) == tuple(b.t) for a, b in zip(back.levels, vec.levels)
    )
    f = tmp_path / "vec.json"
    save_density_vector(vec, f)
    again = load_density_vector(f)
    assert again.level(2).t == vec.level(2).t
    f.write_text("{'s broken")
    with pytest.raises(ValueError, match="bad density vector"):
        load_density_vector(f)
    # out-of-range levels are refused before 2^C(n,2) or range(n_max) is built
    for bad in ('{"n_max": 1, "levels": [{"n": 10000000000, "mode": "mc", "t": []}]}',
                '{"n_max": 1, "levels": [{"n": 100000, "mode": "mc", "t": []}]}',
                '{"n_max": 1, "levels": [{"n": 0, "mode": "mc", "t": [1.0]}]}',
                '{"n_max": 10000000000, "levels": []}',
                '{"n_max": 0, "levels": []}'):
        f.write_text(bad)
        with pytest.raises(DataError, match="bad density vector.* must lie in"):
            load_density_vector(f)
    f.write_text('{"n_max": 1, "levels": [{"n": 1e400, "mode": "mc", "t": []}]}')
    with pytest.raises(DataError, match="bad density vector.*infinity"):
        load_density_vector(f)
    f.write_text("[" * 100_000 + "]" * 100_000)  # nested too deeply for json
    with pytest.raises(DataError, match="bad density vector"):
        load_density_vector(f)


def test_density_level_validation():
    with pytest.raises(ValueError, match="slots"):
        DensityLevel(n=2, mode="exact", t=(1.0,), stderr=None)
    with pytest.raises(ValueError, match="mode"):
        DensityLevel(n=1, mode="nope", t=(1.0,), stderr=None)
    with pytest.raises(ValueError, match="levels"):
        DensityVector(2, (DensityLevel(n=2, mode="mc", t=(0.5, 0.5), stderr=None),))
    lv = DensityLevel(n=1, mode="mc", t=(1.0,), stderr=(0.0,))
    with pytest.raises(ValueError, match="exact"):
        lv.fraction(0)


# ---------------------------------------------------------------------------
# weights and the limit metric


def test_weight_families_and_positivity():
    f = weight_family("two_pow_neg_nsq")
    assert f(2) == pytest.approx(2.0**-4)
    with pytest.raises(ValueError, match="unknown weight family"):
        weight_family("nope")
    zero = WeightFunction("zero", lambda n: 0.0)
    with pytest.raises(ValueError):
        zero(3)


def test_limit_metric_hand_value():
    # complete vs empty on three vertices, weights 2^-n, levels up to 2:
    # level 1 agrees, level 2 puts all mass on opposite patterns
    a = limit_vector(AdjacencyGraph.complete(3), n_max=2)
    b = limit_vector(AdjacencyGraph.empty(3), n_max=2)
    w = weight_family("two_pow_neg_n")
    assert limit_metric(a, b, w) == pytest.approx(0.5)
    assert limit_metric(a, a, w) == 0.0


def test_limit_metric_pseudometric_properties():
    w = weight_family("two_pow_neg_nsq")
    vecs = [limit_vector(er_sample(10, 0.5, s), n_max=3) for s in (61, 62, 63)]
    a, b, c = vecs
    assert limit_metric(a, b, w) == pytest.approx(limit_metric(b, a, w))
    assert limit_metric(a, c, w) <= limit_metric(a, b, w) + limit_metric(b, c, w) + 1e-12
    with pytest.raises(ValueError, match="n_max"):
        limit_metric(a, limit_vector(er_sample(10, 0.5, 61), n_max=2), w)


def test_limit_metric_error_budget():
    host = er_sample(20, 0.5, 64)
    exact = limit_vector(host, n_max=3, mode="exact")
    mc = limit_vector(host, n_max=3, mode="mc", n_samples=2_000, seed=65)
    w = weight_family("two_pow_neg_nsq")
    assert limit_metric_error_budget(exact, exact, w) == 0.0
    assert limit_metric_error_budget(exact, mc, w) > 0.0


def test_bound_constant_hand_values():
    assert bound_constant(weight_family("two_pow_neg_nsq"), 3) == pytest.approx(
        0.171875
    )
    assert bound_constant(weight_family("two_pow_neg_n"), 3) == pytest.approx(3.5)


def test_weight_classification():
    good = weight_admissibility(weight_family("two_pow_neg_nsq"))
    assert good.classification == "convergent"
    assert good.tail_bound is not None
    assert good.tail_bound >= good.partial_sums[-1]
    bad = weight_admissibility(weight_family("two_pow_neg_n"))
    assert bad.classification == "divergent"
    assert bad.tail_bound is None


# ---------------------------------------------------------------------------
# Lipschitz continuity and ladder movement


def test_lipschitz_exact_tight_case():
    g = er_sample(10, 0.4, 66)
    extra = AdjacencyGraph(10, g.bits | (1 << 0))  # force pair (1,2) on
    if extra == g:
        g = AdjacencyGraph(10, g.bits & ~1)
    edge = AdjacencyGraph.from_edges(2, [(1, 2)])
    rep = lipschitz_check(edge, g, extra)
    # a single added edge moves the edge density by exactly one quantum
    assert rep.ok
    assert rep.margin == 0.0
    assert rep.lhs == pytest.approx(rep.rhs)


def test_lipschitz_exact_random_patterns():
    rng = np.random.default_rng(67)
    for _ in range(10):
        g = er_sample(9, 0.5, int(rng.integers(1 << 30)))
        h = er_sample(9, 0.5, int(rng.integers(1 << 30)))
        bits = int(rng.integers(1 << num_pairs(3)))
        rep = lipschitz_check(AdjacencyGraph(3, bits), g, h)
        assert rep.ok and rep.margin >= 0.0


def test_lipschitz_refuses_mismatched_hosts():
    with pytest.raises(ValueError, match="host"):
        lipschitz_check(AdjacencyGraph.complete(3), er_sample(30, 0.5, 68), er_sample(8, 0.5, 1))


def complete_jump_path():
    """Empty to complete on three vertices in one simultaneous batch."""
    ev = [
        EdgeEvent(0.5, 1, 2, 1),
        EdgeEvent(0.5, 1, 3, 1),
        EdgeEvent(0.5, 2, 3, 1),
    ]
    return EventLogPath.from_events(3, 1.0, AdjacencyGraph.empty(3), ev)


def test_total_variation_hand_value():
    rep = total_variation_check(stopping_ladder(complete_jump_path(), 0.5), n_max=3,
                                mode="exact")
    # level 2 and level 3 each move their full mass across disjoint patterns
    f2, f3 = 2.0**-4, 2.0**-9
    assert rep.tv == pytest.approx(2 * f2 + 2 * f3)
    assert rep.per_segment == (pytest.approx(2 * f2 + 2 * f3), 0.0)
    assert rep.n_p == 2
    assert rep.bound == pytest.approx(0.5 * 2 * 0.171875)
    assert rep.ok and rep.allowance == 0.0 and rep.mode == "exact"
    assert rep.type_a_count == 1


def test_total_variation_auto_is_exact_at_analyze_size():
    from graphvar.process import simulate_edge_flip

    path = simulate_edge_flip(256, 0.05, seed=72)
    rep = total_variation_check(stopping_ladder(path, 0.2), n_max=3, mode="auto")
    assert rep.mode == "exact" and rep.allowance == 0.0
    assert rep.ok and rep.tv <= rep.bound
    # a budget below the level-3 cost leaves only level 3 to Monte Carlo
    mixed = total_variation_check(stopping_ladder(path, 0.2), n_max=3, mode="auto",
                                  n_samples=2_000, budget=100_000)
    assert mixed.mode == "mc" and mixed.allowance > 0.0


def test_total_variation_flip_path_exact():
    from graphvar.process import simulate_edge_flip

    path = simulate_edge_flip(24, 3.0, seed=71)
    rep = total_variation_check(stopping_ladder(path, 0.2), n_max=3, mode="exact")
    assert rep.ok
    assert rep.tv <= rep.bound
    assert len(rep.per_segment) == rep.n_p


def test_finite_dim_variation_tight_for_edge_pattern():
    edge = AdjacencyGraph.from_edges(2, [(1, 2)])
    rep = finite_dim_variation(stopping_ladder(complete_jump_path(), 0.5), edge)
    # the edge density goes 0 -> 1 in one crossing: variation 1, ceiling
    # p * n_p * C(2,2) = 0.5 * 2 * 1 = 1, met with equality
    assert rep.tv == pytest.approx(1.0)
    assert rep.bound == pytest.approx(1.0)
    assert rep.ok
    assert rep.per_segment == (pytest.approx(1.0), 0.0)
    triangle_rep = finite_dim_variation(stopping_ladder(complete_jump_path(), 0.5),
                                        AdjacencyGraph.complete(3))
    assert triangle_rep.tv == pytest.approx(1.0)
    assert triangle_rep.bound == pytest.approx(3.0)
