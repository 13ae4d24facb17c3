import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphvar.graphs import AdjacencyGraph, _unpack, density_quantum, num_pairs
from graphvar.metrics import partial_zeta
from graphvar.process import (
    EdgeEvent,
    EventLogPath,
    StepGraphon,
    simulate_edge_flip,
    simulate_graphon_jump,
)
from graphvar.variation import (
    default_windows,
    dyadic_diagnostic,
    jump_bound_check,
    np_profile,
    stopping_ladder,
    variation_bound_check,
    variation_grid,
)
from oracles import InjectiveMap, apply_map, events


def naive_ladder(path, p):
    """Reference scanner: replay edge sets batch by batch, recomputing the
    disagreement count from scratch after every batch of equal timestamps."""
    npairs = num_pairs(path.n)
    cur = set(path.initial.edges())
    anchor = set(cur)
    taus, anchors, steps, type_a = [0.0], [frozenset(cur)], [], []
    for t, group in itertools.groupby(events(path), key=lambda e: e.time):
        batch = list(group)
        for ev in batch:
            if ev.new_value:
                cur.add((ev.i, ev.j))
            else:
                cur.discard((ev.i, ev.j))
        diff = len(cur ^ anchor)
        if diff >= p * npairs:
            taus.append(t)
            anchors.append(frozenset(cur))
            steps.append(diff / npairs)
            type_a.append(len(batch) >= p * npairs)
            anchor = set(cur)
    return taus, anchors, steps, len(cur ^ anchor) / npairs, type_a, frozenset(cur)


def assert_matches_naive(path, p):
    lad = stopping_ladder(path, p)
    taus, anchors, steps, fdens, type_a, final = naive_ladder(path, p)
    assert list(lad.taus) == taus
    assert [frozenset(g.edges()) for g in lad.snapshots()] == anchors + [final]
    assert list(lad.densities) == steps + [fdens]
    assert list(lad.type_a) == type_a


@pytest.mark.parametrize("p", [0.05, 0.1, 0.2, 0.5])
def test_ladder_matches_naive_replay_edge_flip(p):
    path = simulate_edge_flip(16, 3.0, seed=30)
    assert_matches_naive(path, p)


@pytest.mark.parametrize("seed", [31, 32])
def test_ladder_matches_naive_replay_batched(seed):
    path = simulate_graphon_jump(
        14, [StepGraphon.constant(0.5), StepGraphon.constant(0.2)], 6.0, seed=seed
    )
    for p in (0.05, 0.2, 0.6):
        assert_matches_naive(path, p)


@st.composite
def ladder_cases(draw):
    """(path, p): a small path with same-timestamp batches and a threshold,
    half the time exactly k / C(n,2)."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 7))
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        init = draw(st.sets(st.sampled_from(pairs)))
        # few distinct times, so batches of simultaneous events are common
        slots = st.integers(1, 8).map(lambda k: k / 8)
        keys = draw(st.lists(st.tuples(slots, st.sampled_from(pairs)), max_size=40, unique=True))
        state = {pair: pair in init for pair in pairs}
        events = []
        for t, (i, j) in sorted(keys):
            state[(i, j)] = not state[(i, j)]
            events.append(EdgeEvent(t, i, j, int(state[(i, j)])))
        path = EventLogPath.from_events(n, 1.0, AdjacencyGraph.from_edges(n, init), events)
    elif draw(st.booleans()):
        path = simulate_edge_flip(draw(st.integers(2, 9)), 3.0, seed=draw(st.integers(0, 99)))
    else:
        grids = [StepGraphon.constant(0.5), StepGraphon.constant(0.2)]
        path = simulate_graphon_jump(draw(st.integers(2, 9)), grids, 5.0,
                                     seed=draw(st.integers(0, 99)))
    npairs = num_pairs(path.n)
    if npairs < 2:
        return path, 0.5  # skipped: below the density quantum 1.0 at n=2
    if draw(st.booleans()):
        return path, draw(st.integers(1, npairs - 1)) / npairs
    return path, draw(st.floats(1 / npairs, 1.0, exclude_max=True))


@given(ladder_cases())
@settings(max_examples=200, deadline=None)
def test_ladder_matches_naive_replay_random(case):
    path, p = case
    if p < density_quantum(path.n):
        with pytest.raises(ValueError, match="quantum"):
            stopping_ladder(path, p)
    else:
        assert_matches_naive(path, p)


@pytest.mark.parametrize("events", [[], [EdgeEvent(0.5, 2, 4, 1)]], ids=["empty", "one-event"])
@pytest.mark.parametrize("p", [1 / 6, 0.5])
def test_ladder_matches_naive_replay_tiny(events, p):
    path = EventLogPath.from_events(4, 1.0, AdjacencyGraph.from_edges(4, [(1, 2)]), events)
    assert_matches_naive(path, p)


def test_ladder_segment_longer_than_first_chunk():
    # n=5, p=0.3: a crossing needs 3 disagreements.  One flip, then 50 toggles
    # of (1, 2) holding the count at 1 or 2, then two flips: the only crossing
    # is event 52, past the first scanned chunk (37 events:
    # int(1.1 * 10/2 * ln(1/0.4)) + 32), with a running count of 2 carried
    # across the chunk boundary.
    events = [EdgeEvent(0.001, 1, 3, 1)]
    events += [EdgeEvent(0.002 * (k + 1), 1, 2, (k + 1) % 2) for k in range(50)]
    events += [EdgeEvent(0.5, 1, 4, 1), EdgeEvent(0.6, 1, 5, 1), EdgeEvent(0.7, 2, 3, 1)]
    path = EventLogPath.from_events(5, 1.0, AdjacencyGraph.empty(5), events)
    assert_matches_naive(path, 0.3)
    lad = stopping_ladder(path, 0.3)
    assert lad.taus == (0.0, 0.6)
    assert lad.densities == (0.3, 0.1)


@pytest.mark.parametrize("n,seed", [(32, 40), (48, 41)])
@pytest.mark.parametrize("p", [0.025, 0.2, 0.44, 0.46])
def test_ladder_matches_naive_replay_on_both_sides_of_the_chunk_rule(n, seed, p):
    # p < 0.45 sizes the first chunk to the expected segment, p >= 0.45 to 2 * need
    assert_matches_naive(simulate_edge_flip(n, 3.0, seed=seed), p)


@pytest.mark.parametrize("p", [0.2, 0.46])
def test_ladder_segment_longer_than_first_chunk_at_n32(p):
    # n=32 (496 pairs): p=0.2 needs 100 disagreements and scans a first chunk
    # of int(1.1 * 248 * ln(1/0.6)) + 32 = 171 events; p=0.46 needs 229 and
    # scans 2 * 229 + 32 = 490.  Flip need - 2 pairs on, toggle one more pair
    # 600 times (the count stays at need - 1 or need - 2), then flip more
    # pairs: the first crossing is the second of those, event need + 599,
    # beyond both first chunks.
    pairs = [(i, j) for i in range(1, 33) for j in range(i + 1, 33)]
    need = int(np.ceil(p * 496))
    t = iter(np.linspace(0.001, 0.9, need + 604))
    events = [EdgeEvent(next(t), i, j, 1) for i, j in pairs[:need - 2]]
    events += [EdgeEvent(next(t), 31, 32, (k + 1) % 2) for k in range(600)]
    events += [EdgeEvent(next(t), i, j, 1) for i, j in pairs[need - 2:need + 4]]
    path = EventLogPath.from_events(32, 1.0, AdjacencyGraph.empty(32), events)
    assert_matches_naive(path, p)
    assert stopping_ladder(path, p).ends[0] == need + 600


def rewritten_edge_path():
    """Unvalidated: (1, 2) is written 1, 1, 0, so its second event is no jump."""
    return EventLogPath(
        3, 1.0, AdjacencyGraph.empty(3), np.array([0.1, 0.2, 0.3]),
        np.array([1, 1, 1], dtype=np.int32), np.array([2, 2, 2], dtype=np.int32),
        np.array([1, 1, 0], dtype=np.int8),
    )


def test_ladder_counts_against_the_state_before_each_event():
    # The scan moves the count by +1 when the pair's state just before the
    # event (initial 0, then 1, then 1) equals the anchor's (0), else by -1:
    # +1, -1, -1.  These are the numbers of the per-event loop the vectorized
    # scan replaced.
    path = rewritten_edge_path()
    lad = stopping_ladder(path, 2 / 3)
    assert lad.taus == (0.0,)
    assert lad.densities == (-1 / 3,)
    assert tuple(lad.snapshots()) == (AdjacencyGraph.empty(3),) * 2
    # at p = 1/3 every event crosses, each measured against the anchor the
    # event before it left: +1 each time
    lad = stopping_ladder(path, 1 / 3)
    assert lad.taus == (0.0, 0.1, 0.2, 0.3)
    assert lad.densities == (1 / 3,) * 3 + (0.0,)
    assert lad.type_a == (True,) * 3
    edge = AdjacencyGraph.from_edges(3, [(1, 2)])
    empty = AdjacencyGraph.empty(3)
    assert tuple(lad.snapshots())[1:] == (edge, edge, empty, empty)


@pytest.mark.parametrize("tie", [True, False], ids=["batch", "distinct"])
def test_ladder_crosses_only_at_a_batch_end(tie):
    # need = 3 of C(5,2) = 10 pairs.  The first event of the batch at t = 0.3
    # already brings the count to 3, yet the crossing waits for the batch's
    # last event; at distinct times the same events cross one event earlier.
    times = [0.1, 0.2, 0.3, 0.3 if tie else 0.35, 0.4, 0.5]
    pairs = [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4)]
    path = EventLogPath.from_events(
        5, 1.0, AdjacencyGraph.empty(5), [EdgeEvent(t, i, j, 1) for t, (i, j) in zip(times, pairs)])
    lad = stopping_ladder(path, 0.3)
    assert lad.ends[0] == (4 if tie else 3)
    assert lad.taus[1] == 0.3
    assert lad.densities[0] == (0.4 if tie else 0.3)
    assert not any(lad.type_a)  # the two-event batch is below need
    assert_matches_naive(path, 0.3)


LADDER_PATHS = {
    "rewritten-edge": rewritten_edge_path,
    "edge-flip": lambda: simulate_edge_flip(24, 3.0, seed=36),
    "graphon-jump": lambda: simulate_graphon_jump(
        14, [StepGraphon.constant(0.5), StepGraphon.constant(0.2)], 6.0, seed=37),
}


@pytest.mark.parametrize("name,p", [
    ("rewritten-edge", 1 / 3), ("rewritten-edge", 2 / 3), ("edge-flip", 0.02),
    ("edge-flip", 0.2), ("graphon-jump", 0.05), ("graphon-jump", 0.6),
])
def test_segment_pairs_are_the_xor_of_consecutive_snapshots(name, p):
    # on the rewritten edge, the segment holding only the 1 -> 1 write has an
    # odd event count on (1, 2) but no change there
    lad = stopping_ladder(LADDER_PATHS[name](), p)
    graphs = list(lad.snapshots())
    npairs = num_pairs(lad.path.n)
    expect = [np.flatnonzero(_unpack(a.bits ^ b.bits, npairs)) for a, b in zip(graphs, graphs[1:])]
    got = list(lad.segment_pairs())
    assert len(got) == len(expect) == lad.n_p
    for pairs, ref in zip(got, expect):
        assert np.array_equal(np.sort(pairs), ref)


def test_ladder_retains_no_graph():
    # n=512: one packed graph is C(512, 2) / 8 bytes, about 16 KB; a ladder
    # keeps a few numbers per rung and replays its graphs from the path
    path = simulate_edge_flip(512, 0.03, seed=38)
    path.event_index  # shared by every scan of the path, so built beforehand
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        lad = stopping_ladder(path, 2 / num_pairs(512))
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert lad.n_p >= 1000
    assert retained / lad.n_p < 256


def test_ladder_scan_reads_only_the_touched_pairs():
    # C(4096, 2) is about 8.4 million pairs; a scan keeps its anchor over the
    # pairs the events touch, so a few-event path costs a few events, not a
    # pair-sized vector per call
    initial = AdjacencyGraph.from_edges(4096, [(1, 2), (2, 4), (9, 4000)])
    ev = [EdgeEvent(0.1, 1, 2, 0), EdgeEvent(0.2, 2, 4, 0), EdgeEvent(0.3, 1, 2, 1),
          EdgeEvent(0.4, 5, 6, 1), EdgeEvent(0.5, 7, 8, 1), EdgeEvent(0.6, 2, 4, 1)]
    path = EventLogPath.from_events(4096, 1.0, initial, ev)  # builds the event index
    for p in (1.2e-7, 3e-7):
        tracemalloc.start()
        try:
            stopping_ladder(path, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert_matches_naive(path, p)


def two_step_path():
    ev = [EdgeEvent(0.2, 1, 2, 1), EdgeEvent(0.6, 3, 4, 1)]
    return EventLogPath.from_events(4, 1.0, AdjacencyGraph.empty(4), ev)


def test_ladder_hand_case_every_event_crosses():
    lad = stopping_ladder(two_step_path(), 1 / 6)
    assert lad.taus == (0.0, 0.2, 0.6)
    assert lad.n_p == 3
    assert lad.densities == (1 / 6, 1 / 6, 0.0)
    segs = lad.segments()
    assert len(segs) == 3  # two crossings plus the capped final segment
    assert segs[-1][0] == segs[-1][1]
    assert [p.tolist() for p in lad.segment_pairs()] == [[0], [5], []]


def test_ladder_hand_case_needs_two_events():
    lad = stopping_ladder(two_step_path(), 0.3)
    assert lad.taus == (0.0, 0.6)
    assert lad.n_p == 2
    assert lad.densities == (2 / 6, 0.0)
    assert lad.type_a == (False,)  # one event cannot cross 0.3 * 6 = 1.8 alone


def test_ladder_single_batch_is_type_a():
    ev = [EdgeEvent(0.5, 1, 2, 1), EdgeEvent(0.5, 1, 3, 1), EdgeEvent(0.5, 2, 3, 1)]
    path = EventLogPath.from_events(3, 1.0, AdjacencyGraph.empty(3), ev)
    lad = stopping_ladder(path, 0.5)
    assert lad.n_p == 2
    assert lad.type_a == (True,)
    assert lad.densities == (1.0, 0.0)
    assert list(lad.snapshots())[1] == AdjacencyGraph.complete(3)


def test_ladder_threshold_validation():
    path = two_step_path()
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            stopping_ladder(path, bad)
    with pytest.raises(ValueError, match="quantum"):
        stopping_ladder(path, 0.1)  # quantum at n=4 is 1/6


def relabeled(path, perm):
    """The path whose edge (k, l) tracks the original (perm[k-1], perm[l-1])."""
    position = {v: k for k, v in enumerate(perm, start=1)}
    moved = [EdgeEvent(ev.time, *sorted((position[ev.i], position[ev.j])), ev.new_value)
             for ev in events(path)]
    initial = apply_map(path.initial, InjectiveMap(tuple(perm)))
    return EventLogPath.from_events(path.n, path.horizon, initial, moved)


def test_ladder_relabel_invariant():
    path = simulate_edge_flip(20, 2.0, seed=33)
    rng = np.random.default_rng(34)
    perm = (rng.permutation(20) + 1).tolist()
    moved = relabeled(path, perm)
    assert moved.event_count == path.event_count
    assert not np.array_equal(moved.edge_i, path.edge_i)
    for p in (0.05, 0.15):
        a, b = stopping_ladder(path, p), stopping_ladder(moved, p)
        assert a.taus == b.taus
        assert a.densities == b.densities
        assert a.type_a == b.type_a


def test_np_profile_skips_subquantum():
    path = simulate_edge_flip(16, 2.0, seed=35)
    prof = np_profile(path, [0.2, 0.1, 1e-4])
    assert prof.skipped == (1e-4,)
    assert [lad.p for lad in prof.ladders] == [0.2, 0.1]
    assert prof.sup_product == max(lad.product for lad in prof.ladders)
    for lad in prof.ladders:
        assert lad.product == pytest.approx(lad.p * lad.n_p)


def test_jump_bound_on_flip_paths():
    path = simulate_edge_flip(128, 4.0, seed=36)
    rep = jump_bound_check(path, [0.2, 0.1, 0.05, 0.025])
    assert rep.ok
    assert rep.lower_bound == pytest.approx(rep.sup_product - 1.0)
    assert rep.margin == pytest.approx(rep.max_jumps - rep.lower_bound)
    assert rep.quantum == pytest.approx(density_quantum(128))
    assert rep.max_jumps >= 4  # rate-4 clocks flip a few times somewhere


def test_dyadic_diagnostic_slack_rule():
    path = simulate_edge_flip(128, 4.0, seed=37)
    diag = dyadic_diagnostic(path, 0.2, 3)
    assert diag.ps == (0.2, 0.1, 0.05, 0.025)
    assert len(diag.a_values) == 4
    assert diag.slack_violations == 0
    # recompute the slack comparisons from the raw values
    for k in range(3):
        expected = diag.a_values[k + 1] >= diag.a_values[k] - diag.ps[k + 1]
        assert diag.slack_ok[k] == expected


def test_dyadic_diagnostic_refuses_subquantum_tail():
    path = two_step_path()  # quantum 1/6 at n=4
    with pytest.raises(ValueError, match="quantum"):
        dyadic_diagnostic(path, 0.5, 4)
    with pytest.raises(ValueError):
        dyadic_diagnostic(path, 0.5, 0)


def test_graphon_rungs_flagged_type_a():
    path = simulate_graphon_jump(
        32, [StepGraphon.constant(0.5), StepGraphon.constant(0.1)], 4.0, seed=38
    )
    prof = np_profile(path, [0.2])
    assert prof.ladders[0].type_a_count > 0


# ---------------------------------------------------------------------------
# permutation-averaged variation


def single_pair_power(n, alpha):
    return sum((q / num_pairs(n)) * (1.0 / max(q, 1)) ** alpha for q in range(1, n))


def test_variation_exact_hand_case_full_window():
    path = two_step_path()
    for alpha in (2.5, 3.0):
        cell = variation_grid(np_profile(path, [1 / 6]), [4], [alpha]).cell(1 / 6, 4, alpha)
        assert cell.exact and cell.stderr == 0.0
        assert cell.n_p == 3
        # two one-pair segments plus an identical-endpoints final segment
        assert cell.value == pytest.approx(2 * single_pair_power(4, alpha), rel=1e-12)


def test_variation_exact_hand_case_window_two():
    path = two_step_path()
    # in a 2-vertex window a lone disagreeing pair is either at positions
    # {0, 1} (probability 1/6, distance 1) or outside (distance 0)
    for alpha in (2.5, 4.0):
        cell = variation_grid(np_profile(path, [1 / 6]), [2], [alpha]).cell(1 / 6, 2, alpha)
        assert cell.value == pytest.approx(2 / 6, rel=1e-12)


def test_variation_monotone_in_window_and_alpha():
    path = simulate_edge_flip(7, 4.0, seed=39)  # 7! permutations: exact
    grid = variation_grid(np_profile(path, [0.1, 0.3]), windows=(2, 4, 7), alphas=(2.5, 3.0))
    for p in (0.1, 0.3):
        for a in (2.5, 3.0):
            prof = [grid.cell(p, m, a) for m in (2, 4, 7)]
            vals = [c.value for c in prof]
            assert all(c.exact for c in prof)
            assert vals == sorted(vals)  # wider windows see more disagreements
        for m in (2, 4, 7):
            lo = grid.cell(p, m, 2.5).value
            hi = grid.cell(p, m, 3.0).value
            assert lo >= hi  # distances are <= 1, so larger alpha shrinks them
    assert grid.cell(0.1, 7, 2.5).n_p >= grid.cell(0.3, 7, 2.5).n_p


def test_variation_grid_validation():
    profile = np_profile(simulate_edge_flip(10, 2.0, seed=40), [0.1])
    with pytest.raises(ValueError):
        variation_grid(profile, windows=(4, 2))
    with pytest.raises(ValueError):
        variation_grid(profile, windows=(1, 4))
    with pytest.raises(ValueError):
        variation_grid(profile, windows=(2, 40))
    with pytest.raises(ValueError):
        variation_grid(profile, alphas=(0.0,))
    grid = variation_grid(profile, windows=(2, 10), alphas=(2.5,))
    with pytest.raises(KeyError):
        grid.cell(0.2, 2, 2.5)


def test_variation_grid_deterministic_and_coupled():
    profile = np_profile(simulate_edge_flip(24, 2.0, seed=41), [0.1])
    g1 = variation_grid(profile, k_perm=64, seed=5)
    g2 = variation_grid(profile, k_perm=64, seed=5)
    g3 = variation_grid(profile, k_perm=64, seed=6)
    assert [c.value for c in g1.cells] == [c.value for c in g2.cells]
    assert [c.value for c in g1.cells] != [c.value for c in g3.cells]
    assert all(not c.exact and c.stderr > 0 for c in g1.cells)


def test_default_windows():
    assert default_windows(64) == (16, 32, 64)
    assert default_windows(4) == (2, 4)
    assert default_windows(2) == (2,)


# ---------------------------------------------------------------------------
# the closed-form ceiling


def test_variation_bound_rejects_small_alpha():
    path = simulate_edge_flip(10, 2.0, seed=43)
    with pytest.raises(ValueError, match="alpha"):
        variation_bound_check(path, [0.2], alphas=(2.0,))


def test_variation_bound_exact_single_step():
    # one lone flip: the lone segment's relabeling average must sit below
    # its edit density times the zeta constant, exactly, with no Monte Carlo
    ev = [EdgeEvent(0.5, 1, 2, 1)]
    path = EventLogPath.from_events(6, 1.0, AdjacencyGraph.empty(6), ev)
    rep = variation_bound_check(path, [1 / 15], alphas=(2.5,))
    assert rep.ok
    row = rep.rows[0]
    assert row.constant == pytest.approx(partial_zeta(2.5, 6))
    assert row.stderr == 0.0
    assert len(row.steps) == 2  # crossing segment plus empty final segment
    assert row.steps[0].lhs == pytest.approx(single_pair_power(6, 2.5), rel=1e-12)
    assert row.steps[0].rhs == pytest.approx((1 / 15) * partial_zeta(2.5, 6))
    assert row.steps[1].lhs == 0.0


def test_variation_bound_holds_on_flip_paths():
    path = simulate_edge_flip(48, 3.0, seed=44)
    rep = variation_bound_check(
        path, [0.1, 0.05], alphas=(2.5, 3.0), k_perm=128, seed=1,
        grid_for_sup=[0.2, 0.1, 0.05, 0.025],
    )
    assert rep.ok
    for row in rep.rows:
        assert row.steps_ok
        assert row.rhs == pytest.approx(row.constant * row.sup_product)
        assert len(row.steps) == stopping_ladder(path, row.p).n_p


def test_variation_bound_reuses_sup_grid_ladders(ladder_scans):
    path = simulate_edge_flip(48, 3.0, seed=44)
    grid = (0.2, 0.1, 0.05, 0.025)
    variation_bound_check(path, (0.1, 0.05), k_perm=16, grid_for_sup=grid)
    assert ladder_scans == list(grid)
    ladder_scans.clear()
    variation_bound_check(path, (0.15, 0.075), k_perm=16, grid_for_sup=grid)
    assert ladder_scans == [*grid, 0.15, 0.075]
    with pytest.raises(ValueError, match="density quantum"):
        variation_bound_check(path, (1e-4,), grid_for_sup=grid)
