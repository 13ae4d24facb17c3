import io
import json
import math
import re
import timeit
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from graphvar.graphs import (
    MAX_VERTEX_PAIRS,
    AdjacencyGraph,
    DataError,
    Refused,
    num_pairs,
    pair_endpoints,
    pair_index,
    seed_list,
)
from graphvar import process
from graphvar.process import (
    _CHUNK_CHARS,
    _draw_edge_flip,
    _EVENT_LINE,
    _ks_two_sample,
    _SAVE_CHUNK,
    MODELS,
    EdgeEvent,
    EventLogPath,
    ExchangeabilityReport,
    PiecewiseRate,
    StepGraphon,
    exchangeability_check,
    jump_counts,
    load_path,
    save_path,
    simulate,
    simulate_edge_flip,
    simulate_graphon_jump,
    snapshot,
    _event_records,
    _events,
    _init_record,
    _pair_order,
)
from oracles import InjectiveMap, apply_map, events, has_edge, ks_null_tail, restrict


def replay(path, t):
    """Reference snapshot: walk the event list with a plain edge dict."""
    state = {(i, j): True for i, j in path.initial.edges()}
    for ev in events(path):
        if ev.time > t:
            break
        if ev.new_value:
            state[(ev.i, ev.j)] = True
        else:
            state.pop((ev.i, ev.j), None)
    return AdjacencyGraph.from_edges(path.n, state.keys())


# ---------------------------------------------------------------------------
# rate and graphon plumbing


def test_piecewise_rate_validation():
    with pytest.raises(ValueError):
        PiecewiseRate((0.0, 0.5), (1.0,))
    with pytest.raises(ValueError):
        PiecewiseRate((0.1,), (1.0,))
    with pytest.raises(ValueError):
        PiecewiseRate((0.0, 0.5, 0.5), (1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        PiecewiseRate((0.0,), (-1.0,))


def test_piecewise_rate_pieces_clip_to_horizon():
    r = PiecewiseRate((0.0, 0.5, 2.0), (1.0, 3.0, 9.0))
    assert r.pieces(1.0) == [(0.0, 0.5, 1.0), (0.5, 1.0, 3.0)]
    assert r.pieces(0.25) == [(0.0, 0.25, 1.0)]
    assert PiecewiseRate.constant(2.0).pieces(1.0) == [(0.0, 1.0, 2.0)]


def test_step_graphon_validation():
    with pytest.raises(ValueError):
        StepGraphon(np.array([[0.1, 0.9], [0.2, 0.1]]))  # not symmetric
    with pytest.raises(ValueError):
        StepGraphon(np.array([[1.5]]))
    with pytest.raises(ValueError):
        StepGraphon(np.zeros(3))


def test_step_graphon_cell_lookup():
    g = StepGraphon(np.array([[0.1, 0.7], [0.7, 0.3]]))
    u = np.array([0.2, 0.9, 0.999])  # cells 0, 1, 1
    ii = np.array([0, 0, 1])
    jj = np.array([1, 2, 2])
    assert g.edge_probabilities(u, ii, jj).tolist() == [0.7, 0.7, 0.3]
    # u = 1.0 must clip into the last cell instead of overflowing
    top = StepGraphon.constant(0.4)
    assert top.edge_probabilities(np.array([1.0]), np.array([0]), np.array([0]))[0] == 0.4


# ---------------------------------------------------------------------------
# event-flip generator


def test_simulate_determinism():
    a = simulate_edge_flip(24, 2.0, seed=5)
    b = simulate_edge_flip(24, 2.0, seed=5)
    c = simulate_edge_flip(24, 2.0, seed=6)
    assert a == b
    assert a != c
    a.validate()


def test_event_count_matches_poisson_mean():
    # every pair flips at rate 2 over a unit horizon: total events are
    # Poisson with mean 2 * C(64,2)
    path = simulate_edge_flip(64, 2.0, seed=11)
    mean = 2.0 * num_pairs(64)
    assert abs(path.event_count - mean) <= 4 * math.sqrt(mean)


def test_endpoint_disagreement_rate():
    # a rate-r flip clock disagrees with its start state with probability
    # (1 - exp(-2 r)) / 2 at the horizon
    path = simulate_edge_flip(64, 1.0, seed=12)
    first = snapshot(path, 0.0)
    last = snapshot(path, 1.0)
    q = (1.0 - math.exp(-2.0)) / 2.0
    frac = (first.bits ^ last.bits).bit_count() / num_pairs(64)
    assert abs(frac - q) <= 4 * math.sqrt(q * (1 - q) / num_pairs(64))


def test_piecewise_rate_event_split():
    # rate 2 before t=0.5 and 6 after: a quarter of events land in the
    # first half and the total mean is 4 per pair
    rate = PiecewiseRate((0.0, 0.5), (2.0, 6.0))
    path = simulate_edge_flip(48, rate, seed=13)
    mean = 4.0 * num_pairs(48)
    assert abs(path.event_count - mean) <= 4 * math.sqrt(mean)
    early = float(np.mean(path.times < 0.5))
    assert abs(early - 0.25) <= 4 * math.sqrt(0.25 * 0.75 / path.event_count)


def test_boosted_edge_gets_extra_flips():
    path = simulate_edge_flip(16, 1.0, seed=14, boost_edge=(1, 2), boost_factor=40.0)
    jc = jump_counts(path)
    assert jc.get(1, 2) > 10  # mean 40 flips
    assert jc.get(2, 1) == jc.get(1, 2)
    others = [jc.get(i, j) for i in range(1, 17) for j in range(i + 1, 17)
              if (i, j) != (1, 2)]
    assert max(others) < jc.get(1, 2)
    assert path.model_meta["params"]["boost_edge"] == [1, 2]


@pytest.mark.parametrize("edge", [(0, 2), (2, 2), (3, 5)])
def test_boost_edge_out_of_range_is_refused(edge):
    # unchecked, (0, 2) boosted pair (2, 3) and (2, 2) pair (1, 4) on 4 vertices
    a, b = sorted(edge)
    with pytest.raises(ValueError, match=rf"^pair \({a}, {b}\) out of range for n=4$"):
        simulate_edge_flip(4, 1.0, seed=1, boost_edge=edge, boost_factor=50)


@pytest.mark.parametrize("i,j", [(0, 2), (2, 0), (2, 2), (3, 5)])
def test_jump_counts_get_refuses_out_of_range_pairs(i, j):
    jc = jump_counts(simulate_edge_flip(4, 1.0, seed=1))
    with pytest.raises(ValueError, match="out of range for n=4"):
        jc.get(i, j)


def test_snapshot_matches_replay():
    path = simulate_edge_flip(12, 3.0, seed=15)
    for t in (0.0, 0.1, 0.25, 0.5, 0.77, 1.0):
        assert snapshot(path, t) == replay(path, t)
    with pytest.raises(ValueError):
        snapshot(path, 1.5)


def test_snapshot_right_continuous():
    ev = [EdgeEvent(0.5, 1, 2, 1)]
    path = EventLogPath.from_events(3, 1.0, AdjacencyGraph.empty(3), ev)
    assert has_edge(snapshot(path, 0.5), 1, 2)
    assert not has_edge(snapshot(path, np.nextafter(0.5, 0.0)), 1, 2)


def test_jump_counts_totals():
    path = simulate_edge_flip(20, 2.0, seed=16)
    jc = jump_counts(path)
    assert jc.counts.sum() == path.event_count
    assert jc.max_jumps >= jc.mean_jumps


def test_event_index_is_cached_read_only_and_outside_eq():
    grids = [StepGraphon.constant(0.5), StepGraphon.constant(0.2)]
    path = simulate_graphon_jump(10, grids, 4.0, seed=20)
    twin = simulate_graphon_jump(10, grids, 4.0, seed=20)
    assert 1 < len(set(path.times.tolist())) < path.event_count  # several batches
    idx = path.event_index
    assert path.event_index is idx and path.pair_ids is path.pair_ids
    assert path == twin and twin == path  # twin has built nothing yet
    for arr in (path.pair_ids, idx.before, idx.next_same, idx.batch_end, idx.slot,
                idx.slot_initial):
        assert not arr.flags.writeable
    # against a walk over the events
    t = path.times.tolist()
    last, state = {}, path.initial.to_pair_vector().tolist()
    slots = dict(zip(path.pair_ids.tolist(), idx.slot.tolist()))
    assert sorted(slots.values()) == list(range(len(slots)))  # one slot per touched pair
    assert all(idx.slot_initial[s] == state[pid] for pid, s in slots.items())
    for k, (i, j, v) in enumerate(zip(path.edge_i.tolist(), path.edge_j.tolist(),
                                      path.values.tolist())):
        pid = pair_index(i, j, path.n)
        assert path.pair_ids[k] == pid and idx.slot[k] == slots[pid]
        assert idx.before[k] == state[pid]
        if pid in last:
            assert idx.next_same[last[pid]] == k
        state[pid], last[pid] = v, k
        assert idx.batch_end[k] == (k + 1 == len(t) or t[k + 1] != t[k])
    assert all(idx.next_same[k] == path.event_count for k in last.values())


@pytest.mark.parametrize("npairs", [1 << 16, (1 << 16) + 1])
def test_pair_order_matches_unique_key_argsort(npairs):
    rng = np.random.default_rng(npairs)
    pids = rng.integers(npairs - 300, npairs, 20_000)  # many repeats, the top id among them
    pids[:50] = rng.integers(0, npairs, 50)
    assert pids.max() == npairs - 1
    e = pids.shape[0]
    assert np.array_equal(_pair_order(pids, npairs), np.argsort(pids * e + np.arange(e)))


def oracle_draw(n, rate, init_density, horizon, seed, boost_edge, boost_factor):
    """(initial pair vector, times, pair ids) of the edge-flip simulator, in draw order."""
    rng = np.random.default_rng(seed)
    npairs = num_pairs(n)
    init_vec = rng.random(npairs) < init_density
    mult = np.ones(npairs)
    if boost_edge is not None:
        mult[pair_index(*sorted(boost_edge), n)] = boost_factor
    all_times, all_pairs = [], []
    for t0, t1, r in rate.pieces(horizon):
        counts = rng.poisson(r * (t1 - t0) * mult)
        total = int(counts.sum())
        if total == 0:
            continue
        all_pairs.append(np.repeat(np.arange(npairs), counts))
        all_times.append(rng.uniform(t0, t1, total))
    if all_times:
        times, pairs = np.concatenate(all_times), np.concatenate(all_pairs)
    else:
        times, pairs = np.zeros(0), np.zeros(0, dtype=np.int64)
    times = np.where(times <= 0.0, np.nextafter(0.0, 1.0), times)
    return init_vec, times, pairs


def oracle_edge_flip(n, rate, init_density=0.5, horizon=1.0, seed=0,
                     boost_edge=None, boost_factor=1.0):
    """The edge-flip simulator with two lexsorts: one by (pair, time) for the
    alternating values, one by (time, i, j) for the event order."""
    if not isinstance(rate, PiecewiseRate):
        rate = PiecewiseRate.constant(rate)
    init_vec, times, pairs = oracle_draw(n, rate, init_density, horizon, seed,
                                         boost_edge, boost_factor)
    order = np.lexsort((times, pairs))
    sp = pairs[order]
    e = sp.shape[0]
    starts = np.r_[0, np.flatnonzero(np.diff(sp)) + 1] if e else np.zeros(0, dtype=np.int64)
    occ = (
        np.arange(e) - np.repeat(starts, np.diff(np.r_[starts, e]))
        if e
        else np.zeros(0, dtype=np.int64)
    )
    values = np.empty(e, dtype=np.int8)
    values[order] = init_vec.astype(np.int8)[sp] ^ np.int8(1) ^ (occ % 2).astype(np.int8)
    ii, jj = pair_endpoints(n)
    edge_i = (ii[pairs] + 1).astype(np.int32)
    edge_j = (jj[pairs] + 1).astype(np.int32)
    final = np.lexsort((edge_j, edge_i, times))

    meta = {
        "model": "edge-flip-planted" if boost_edge is not None else "edge-flip",
        "params": {
            "rate_breaks": list(rate.breaks),
            "rate_values": list(rate.rates),
            "init_density": init_density,
        },
        "seed": seed,
    }
    if boost_edge is not None:
        meta["params"]["boost_edge"] = sorted(boost_edge)
        meta["params"]["boost_factor"] = boost_factor
    return EventLogPath(n, horizon, AdjacencyGraph.from_pair_vector(n, init_vec),
                        times[final], edge_i[final], edge_j[final], values[final], meta)


def assert_same_path(path, want):
    assert path == want  # n, horizon, initial, the four arrays and the meta
    for name in ("times", "edge_i", "edge_j", "values"):
        assert getattr(path, name).dtype == getattr(want, name).dtype, name


RATES = st.floats(0.0, 6.0) | st.builds(
    lambda a, b: PiecewiseRate((0.0, 0.4), (a, b)), st.floats(0.0, 6.0), st.floats(0.0, 6.0)
)


@given(data=st.data(), planted=st.booleans(), n=st.integers(2, 24), rate=RATES,
       init_density=st.floats(0.0, 1.0), horizon=st.sampled_from([0.3, 1.0, 2.5]),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_simulate_matches_two_lexsort_oracle(data, planted, n, rate, init_density,
                                             horizon, seed):
    params = {"rate": rate, "init_density": init_density}
    kwargs = {}
    if planted:
        a = data.draw(st.integers(1, n))
        b = data.draw(st.integers(1, n).filter(lambda v: v != a))
        params.update(boost_edge=(a, b), boost_factor=data.draw(st.floats(0.0, 30.0)))
        kwargs = {"boost_edge": (a, b), "boost_factor": params["boost_factor"]}
    model = "edge-flip-planted" if planted else "edge-flip"
    path = simulate(model, n, horizon, seed, params)
    assert_same_path(path, oracle_edge_flip(n, rate, init_density, horizon, seed, **kwargs))
    path.validate()


@pytest.mark.parametrize("n", [2, 3, 16, 64])
def test_simulate_matches_oracle_on_fixed_seeds_and_empty_paths(n):
    for seed in range(5):
        assert_same_path(simulate_edge_flip(n, 3.0, seed=seed), oracle_edge_flip(n, 3.0, seed=seed))
    empty = simulate_edge_flip(n, 0.0, init_density=0.3, seed=9)
    assert empty.event_count == 0
    assert_same_path(empty, oracle_edge_flip(n, 0.0, init_density=0.3, seed=9))


_default_rng = np.random.default_rng


class CoarseClock:
    """A generator whose uniform draws land on a grid of eighths, so event times tie."""

    def __init__(self, seed):
        self.rng = _default_rng(seed)
        self.random, self.poisson = self.rng.random, self.rng.poisson

    def uniform(self, lo, hi, size):
        return lo + (hi - lo) * np.ceil(8 * self.rng.random(size)) / 8


def test_simulate_matches_oracle_when_times_tie(monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", CoarseClock)
    time_sort_misorders = []
    for seed in range(5):
        path = simulate_edge_flip(7, 3.0, seed=seed, boost_edge=(2, 5), boost_factor=4.0)
        assert len(np.unique(path.times)) < path.event_count
        assert_same_path(path, oracle_edge_flip(7, 3.0, seed=seed, boost_edge=(2, 5),
                                                boost_factor=4.0))
        # a sort by time alone would order these ties wrongly
        _, times, pairs = oracle_draw(7, PiecewiseRate.constant(3.0), 0.5, 1.0, seed,
                                      (2, 5), 4.0)
        time_sort_misorders.append(not np.array_equal(pairs[np.argsort(times)],
                                                      pairs[np.lexsort((pairs, times))]))
    assert any(time_sort_misorders)


# ---------------------------------------------------------------------------
# structural validation


def build(n, events, init=None, horizon=1.0):
    return EventLogPath.from_events(n, horizon, init or AdjacencyGraph.empty(n), events)


def test_from_events_sorts():
    path = build(4, [EdgeEvent(0.7, 1, 2, 1), EdgeEvent(0.3, 3, 4, 1)])
    assert path.times.tolist() == [0.3, 0.7]
    assert path.edge_i.tolist() == [3, 1]


def test_validate_rejects_time_outside_horizon():
    with pytest.raises(ValueError, match="horizon|time"):
        build(3, [EdgeEvent(1.5, 1, 2, 1)])
    with pytest.raises(ValueError, match="horizon|time"):
        build(3, [EdgeEvent(0.0, 1, 2, 1)])


def test_validate_rejects_nan_time():
    path = EventLogPath(3, 1.0, AdjacencyGraph.empty(3), np.array([math.nan]),
                        np.array([1]), np.array([2]), np.array([1], dtype=np.int8))
    with pytest.raises(ValueError, match=r"event times must lie in \(0, horizon\]"):
        path.validate()


def test_validate_rejects_bad_endpoints():
    with pytest.raises(ValueError):
        build(3, [EdgeEvent(0.5, 2, 2, 1)])
    with pytest.raises(ValueError):
        build(3, [EdgeEvent(0.5, 3, 1, 1)])
    with pytest.raises(ValueError):
        build(3, [EdgeEvent(0.5, 1, 4, 1)])


def test_validate_rejects_duplicate_event_key():
    with pytest.raises(ValueError):
        build(3, [EdgeEvent(0.5, 1, 2, 1), EdgeEvent(0.5, 1, 2, 0)])


@pytest.mark.parametrize("order,ok", [
    ([(1, 2), (1, 3), (2, 3)], True),
    ([(1, 3), (1, 2), (2, 3)], False),  # same i, j falls
    ([(1, 2), (2, 3), (1, 3)], False),  # i falls
])
def test_validate_checks_tied_events_in_pair_order(order, ok):
    # a tie in time is ordered by (i, j), which is the order of the pair indices
    path = EventLogPath(3, 1.0, AdjacencyGraph.empty(3), np.full(3, 0.5),
                        np.array([i for i, _ in order]), np.array([j for _, j in order]),
                        np.ones(3, dtype=np.int8))
    if ok:
        path.validate()
    else:
        with pytest.raises(ValueError, match=r"strictly sorted by \(time, i, j\)"):
            path.validate()


def test_validate_rejects_non_alternating_edge():
    # edge starts absent; two consecutive "on" writes are not genuine jumps
    with pytest.raises(ValueError, match="alternat|jump"):
        build(3, [EdgeEvent(0.2, 1, 2, 1), EdgeEvent(0.6, 1, 2, 1)])
    # first write must change the initial state
    with pytest.raises(ValueError, match="alternat|jump"):
        build(3, [EdgeEvent(0.2, 1, 2, 0)])
    # and a genuine toggle chain passes
    build(3, [EdgeEvent(0.2, 1, 2, 1), EdgeEvent(0.6, 1, 2, 0), EdgeEvent(0.9, 1, 2, 1)])


def test_validate_rejects_bad_value():
    with pytest.raises(ValueError):
        build(3, [EdgeEvent(0.5, 1, 2, 2)])


# ---------------------------------------------------------------------------
# graphon-jump generator


def test_graphon_jump_batches_share_timestamps():
    path = simulate_graphon_jump(
        24, [StepGraphon.constant(0.5), StepGraphon.constant(0.5)], 4.0, seed=17
    )
    path.validate()
    ticks = np.unique(path.times)
    # plenty of edges move at each tick, all stamped with the tick time
    assert path.event_count > 3 * len(ticks)


def test_graphon_jump_empty_refresh_clears_graph():
    # tick 1 redraws from the all-zero graphon: the graph empties exactly there
    path = simulate_graphon_jump(
        16, [StepGraphon.constant(0.6), StepGraphon.constant(0.0)], 3.0, seed=18
    )
    assert snapshot(path, 0.0).edge_count > 0
    ticks = np.unique(path.times)
    assert len(ticks) >= 1
    assert snapshot(path, float(ticks[0])).edge_count == 0


def test_graphon_jump_block_structure():
    # two-block graphon with empty diagonal blocks: edges only run between
    # low and high latent cells, never inside a cell
    g = StepGraphon(np.array([[0.0, 1.0], [1.0, 0.0]]))
    path = simulate_graphon_jump(30, [g], 0.0, seed=19)
    assert path.event_count == 0
    mat = snapshot(path, 0.0).to_matrix()
    u = np.asarray(path.model_meta["params"]["latents"])
    cells = (u >= 0.5).astype(int)
    same = cells[:, None] == cells[None, :]
    assert not mat[same].any()
    cross = ~same
    np.fill_diagonal(cross, False)
    assert mat[cross].all()


def test_simulate_dispatch():
    a = simulate("edge-flip", 10, 1.0, 3, {"rate": 2.0})
    assert a == simulate_edge_flip(10, 2.0, seed=3)
    b = simulate("edge-flip-planted", 10, 1.0, 3, {"rate": 2.0, "boost_factor": 5.0})
    assert b.model_meta["params"]["boost_factor"] == 5.0
    c = simulate("graphon-jump", 10, 1.0, 3, {"grids": [[[0.4]]], "global_rate": 2.0})
    assert c.model_meta["model"] == "graphon-jump"
    with pytest.raises(ValueError, match="unknown model"):
        simulate("nope", 10, 1.0, 3, {})


@pytest.mark.parametrize("model", MODELS)
def test_simulate_refuses_oversized_vertex_count(model):
    # refused before any pair-sized array exists: C(5794, 2) = 16,782,321
    with pytest.raises(ValueError, match=rf"^n=5794 has 16782321 vertex pairs, "
                                         rf"over the limit of {MAX_VERTEX_PAIRS}$"):
        simulate(model, 5794, 1.0, 0, {})


@pytest.mark.parametrize("model", MODELS)
def test_exchangeability_check_refuses_oversized_vertex_count(model):
    with pytest.raises(ValueError, match=rf"^n=5794 has 16782321 vertex pairs, "
                                         rf"over the limit of {MAX_VERTEX_PAIRS}$"):
        exchangeability_check(model, {}, 5794, seed_count=20)


@pytest.mark.parametrize("rate,boost_edge,boost_factor", [
    (2.0, None, 1.0),
    (PiecewiseRate((0.0, 0.4), (3.0, 1.5)), None, 1.0),
    (2.0, (1, 2), 10.0),
    (PiecewiseRate((0.0, 0.3, 0.8), (4.0, 0.0, 1.5)), (2, 5), 30.0),
])
@pytest.mark.parametrize("seed", [0, [3, 1, 4]])
def test_count_only_draw_matches_full_draw(rate, boost_edge, boost_factor, seed):
    full = _draw_edge_flip(12, rate, 0.5, 1.0, seed, boost_edge, boost_factor)
    counts = _draw_edge_flip(12, rate, 0.5, 1.0, seed, boost_edge, boost_factor, times=False)
    assert counts.times is None and counts.pairs is None
    assert np.array_equal(counts.init_vec, full.init_vec)
    assert np.array_equal(counts.counts, np.bincount(full.pairs, minlength=num_pairs(12)))
    assert np.array_equal(full.counts, counts.counts)


@pytest.mark.parametrize("model,params", [
    ("edge-flip", {"rate": 1.0}),
    ("edge-flip", {"rate": PiecewiseRate((0.0, 0.5), (0.5, 1.5))}),
    ("edge-flip-planted", {"rate": 1.0, "boost_factor": 2.0}),
])
def test_edge_flip_draw_over_the_event_cap_is_refused(monkeypatch, model, params):
    # C(16, 2) = 120 pairs at mean rate 1 draw about 120 events, over a cap of 100
    # but within 10 SD of it, so the counts are drawn and their total refused
    monkeypatch.setattr(process, "MAX_VERTEX_PAIRS", 100)
    repeat = mock.Mock(wraps=np.repeat)
    monkeypatch.setattr(process.np, "repeat", repeat)
    with pytest.raises(Refused, match=r"^\d+ events drawn, over the limit of 100$"):
        simulate(model, 16, 1.0, 0, params)
    # refused before the piece that passes the cap makes its event arrays
    assert sum(int(c.args[1].sum()) for c in repeat.call_args_list) <= 100
    with pytest.raises(Refused, match="over the limit of 100"):
        _draw_edge_flip(16, params["rate"], times=False)
    assert simulate(model, 6, 1.0, 0, params).event_count <= 100


def rng_without_poisson(monkeypatch):
    """Make every default_rng generator fail the test if it draws a Poisson count."""
    real_rng = np.random.default_rng

    def rng(seed):
        gen = real_rng(seed)
        return mock.Mock(wraps=gen, random=gen.random, uniform=gen.uniform,
                         poisson=mock.Mock(side_effect=AssertionError("counts drawn")))

    monkeypatch.setattr(process.np.random, "default_rng", rng)


@pytest.mark.parametrize("model,params", [
    ("edge-flip", {"rate": 2.5}),
    ("edge-flip", {"rate": PiecewiseRate((0.0, 0.5), (1.0, 4.0))}),
    ("edge-flip-planted", {"rate": 0.5, "boost_factor": 1000.0}),
    ("graphon-jump", {"global_rate": 1e4}),
])
def test_mean_far_over_the_event_cap_is_refused_before_the_draw(monkeypatch, model, params):
    # C(16, 2) = 120 pairs: means of 300 and 559.5 events lie over 10 SD above a cap
    # of 100, and so do 10^4 ticks on 120 pairs
    monkeypatch.setattr(process, "MAX_VERTEX_PAIRS", 100)
    rng_without_poisson(monkeypatch)
    with pytest.raises(Refused, match=r"^the rate gives a mean of \S+ events, over the limit "
                                      r"of 100 by more than 10 SD$"):
        simulate(model, 16, 1.0, 0, params)


@pytest.mark.parametrize("rate,refused_before_the_draw", [(2.18, False), (2.19, True)])
def test_event_cap_margin_is_ten_sd(monkeypatch, rate, refused_before_the_draw):
    # mean - 10 sqrt(mean) = 100 at a mean of 261.8: 120 pairs at rate 2.18 (a mean of
    # 261.6) are drawn and their total refused, at rate 2.19 (262.8) none are drawn
    monkeypatch.setattr(process, "MAX_VERTEX_PAIRS", 100)
    if refused_before_the_draw:
        rng_without_poisson(monkeypatch)
    with pytest.raises(Refused, match="mean" if refused_before_the_draw else "events drawn"):
        simulate("edge-flip", 16, 1.0, 0, {"rate": rate})


@pytest.mark.parametrize("model,params", [
    ("edge-flip", {"rate": 1e19}),
    ("edge-flip", {"rate": 1e300}),
    ("edge-flip-planted", {"rate": 1.0, "boost_factor": 1e300}),
    ("graphon-jump", {"global_rate": 1e300}),
])
def test_rate_beyond_numpy_poisson_is_refused_at_the_cap(model, params):
    # numpy's Poisson sampler raises "lam value too large" on these means
    with pytest.raises(Refused, match=f"over the limit of {MAX_VERTEX_PAIRS} by more than 10 SD$"):
        simulate(model, 4, 1.0, 0, params)


@pytest.mark.parametrize("chunk_chars", [_CHUNK_CHARS, 200])
@pytest.mark.parametrize("layout", ["canonical", "blank-lines", "reordered"])
def test_load_path_over_the_event_cap_is_refused_at_its_line(tmp_path, monkeypatch,
                                                             chunk_chars, layout):
    # with the cap lowered to 20 events, event 21 is refused at its own line, whether
    # its chunk is parsed by column or per record, and in a later chunk too
    path = simulate_edge_flip(8, 2.0, seed=6)
    f = tmp_path / "p.jsonl"
    save_path(path, f)
    lines = f.read_text().splitlines(keepends=True)
    events = lines[2:]
    if layout == "blank-lines":  # event k on line 2k + 1
        events = [x for line in events for x in (line, "\n")]
    elif layout == "reordered":
        events = [json.dumps(dict(reversed(json.loads(line).items()))) + "\n" for line in events]
    f.write_text("".join(lines[:2] + events))
    monkeypatch.setattr(process, "MAX_VERTEX_PAIRS", 20)
    monkeypatch.setattr(process, "_CHUNK_CHARS", chunk_chars)
    line = 43 if layout == "blank-lines" else 23
    with pytest.raises(DataError) as exc:
        load_path(f)
    assert str(exc.value) == f"{f}: line {line}: more than 20 events, the limit of a path"
    monkeypatch.setattr(process, "MAX_VERTEX_PAIRS", path.event_count)
    assert path.event_count > 21 and load_path(f) == path


def test_graphon_jump_over_the_event_cap_is_refused(monkeypatch):
    # 120 pairs times the ticks of rate 5 pass a cap of 100 before any tick is drawn
    monkeypatch.setattr(process, "MAX_VERTEX_PAIRS", 100)
    uniform = mock.Mock(side_effect=AssertionError("tick times drawn"))
    real_rng = np.random.default_rng

    def rng(seed):
        gen = real_rng(seed)
        return mock.Mock(wraps=gen, random=gen.random, poisson=gen.poisson, uniform=uniform)

    monkeypatch.setattr(process.np.random, "default_rng", rng)
    with pytest.raises(Refused, match=r"^\d+ ticks on 120 pairs may exceed 100 events$"):
        simulate("graphon-jump", 16, 1.0, 0, {"global_rate": 5.0})
    monkeypatch.setattr(process.np.random, "default_rng", real_rng)
    assert simulate("graphon-jump", 16, 1.0, 0, {"global_rate": 0.0}).event_count == 0


def test_exchangeability_check_refuses_unknown_model():
    with pytest.raises(ValueError, match="unknown model 'nope'"):
        exchangeability_check("nope", {}, 16, seed_count=20)


# ---------------------------------------------------------------------------
# persistence


def test_save_load_roundtrip(tmp_path):
    path = simulate_edge_flip(14, 2.0, seed=23)
    f = tmp_path / "p.jsonl"
    save_path(path, f)
    again = load_path(f)
    assert again == path
    assert again.model_meta["model"] == "edge-flip"
    # byte-for-byte stable on re-save
    g = tmp_path / "q.jsonl"
    save_path(again, g)
    assert f.read_bytes() == g.read_bytes()


def test_load_path_error_lines(tmp_path):
    f = tmp_path / "bad.jsonl"
    f.write_text("")
    with pytest.raises(ValueError, match="empty path"):
        load_path(f)
    f.write_text('{"type": "header", "n": 3, "horizon": 1.0}\nnot json\n')
    with pytest.raises(ValueError, match="line 2"):
        load_path(f)
    f.write_text(
        '{"type": "header", "n": 3, "horizon": 1.0}\n'
        '{"type": "init", "edges": []}\n'
        '{"type": "ev", "t": 0.5, "i": 3, "j": 1, "v": 1}\n'
    )
    with pytest.raises(ValueError, match="line 3"):
        load_path(f)
    f.write_text('{"type": "header", "n": 3, "horizon": 1.0}\n')
    with pytest.raises(ValueError, match=r"line 2: invalid JSON \(Expecting value\)"):
        load_path(f)


def save_path_oracle(path, file):
    """The per-record json.dumps writer that save_path must match byte for byte."""
    meta = path.model_meta
    header = {
        "type": "header",
        "n": path.n,
        "horizon": path.horizon,
        "model": meta.get("model"),
        "params": meta.get("params", {}),
        "seed": meta.get("seed"),
    }
    with open(file, "w", encoding="ascii") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        init = {"type": "init", "edges": [[i, j] for i, j in path.initial.edges()]}
        fh.write(json.dumps(init, sort_keys=True) + "\n")
        for k in range(path.event_count):
            rec = {
                "type": "ev",
                "t": float(path.times[k]),
                "i": int(path.edge_i[k]),
                "j": int(path.edge_j[k]),
                "v": int(path.values[k]),
            }
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def assert_writer_matches_oracle(path, directory):
    fast, slow = directory / "fast.jsonl", directory / "slow.jsonl"
    save_path(path, fast)
    save_path_oracle(path, slow)
    assert fast.read_bytes() == slow.read_bytes()
    assert load_path(fast) == path


TINY = float(np.nextafter(0.0, 1.0))  # 5e-324, the time the generators clamp 0 to

WRITER_CASES = {
    "edge-flip": lambda: simulate_edge_flip(20, 3.0, seed=31),
    "planted": lambda: simulate_edge_flip(
        12, 2.0, seed=32, boost_edge=(1, 2), boost_factor=30.0
    ),
    "graphon-jump": lambda: simulate_graphon_jump(
        24, [StepGraphon.constant(0.5), StepGraphon.constant(0.2)], 4.0, seed=33
    ),
    "tiny-times": lambda: build(4, [
        EdgeEvent(TINY, 1, 2, 1), EdgeEvent(TINY, 1, 3, 1), EdgeEvent(TINY, 2, 4, 1),
        EdgeEvent(0.1 + 0.2, 1, 2, 0), EdgeEvent(1e-17, 3, 4, 1), EdgeEvent(1.0, 3, 4, 0),
    ]),
}


@pytest.mark.parametrize("case", sorted(WRITER_CASES))
def test_save_path_matches_json_dumps_writer(tmp_path, case):
    assert_writer_matches_oracle(WRITER_CASES[case](), tmp_path)


@st.composite
def small_paths(draw):
    """Genuine-jump paths on up to 6 vertices with arbitrary float times."""
    n = draw(st.integers(2, 6))
    horizon = draw(st.floats(1e-6, 1e6))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    init = draw(st.sets(st.sampled_from(pairs)))
    times = st.floats(0.0, horizon, exclude_min=True)
    keys = draw(st.lists(st.tuples(times, st.sampled_from(pairs)), max_size=30, unique=True))
    state = {pair: pair in init for pair in pairs}
    events = []
    for t, (i, j) in sorted(keys):
        state[(i, j)] = not state[(i, j)]
        events.append(EdgeEvent(t, i, j, int(state[(i, j)])))
    return EventLogPath.from_events(n, horizon, AdjacencyGraph.from_edges(n, init), events)


@given(small_paths())
@settings(max_examples=60, deadline=None)
def test_save_path_matches_json_dumps_writer_random(tmp_path_factory, path):
    assert_writer_matches_oracle(path, tmp_path_factory.mktemp("writer"))


@pytest.mark.parametrize("events", [0, _SAVE_CHUNK - 1, _SAVE_CHUNK, _SAVE_CHUNK + 1])
def test_save_path_matches_oracle_at_block_edges(tmp_path, events):
    path = simulate_edge_flip(40, 12.0, seed=36)
    assert path.event_count > _SAVE_CHUNK + 1
    prefix = EventLogPath(path.n, path.horizon, path.initial, path.times[:events],
                          path.edge_i[:events], path.edge_j[:events], path.values[:events],
                          path.model_meta)
    assert_writer_matches_oracle(prefix, tmp_path)


def assert_fast_loader_matches_records(path, directory):
    """The chunked fast path and the per-record parser read the same arrays."""
    f = directory / "p.jsonl"
    save_path(path, f)
    lines = f.read_text().splitlines(keepends=True)
    with mock.patch.object(process, "_event_records", side_effect=AssertionError("a chunk missed")):
        fast = _events(f, io.StringIO("".join(lines[2:])), path.n, path.horizon)
    slow = _event_records(f, lines[2:], 3, path.n, path.horizon)
    assert fast is not None
    for a, b in zip(fast, slow):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert np.array_equal(fast[0], path.times)


@pytest.mark.parametrize("case", sorted(WRITER_CASES))
def test_fast_loader_matches_record_parser(tmp_path, case):
    assert_fast_loader_matches_records(WRITER_CASES[case](), tmp_path)


@given(small_paths())
@settings(max_examples=60, deadline=None)
def test_fast_loader_matches_record_parser_random(tmp_path_factory, path):
    assert_fast_loader_matches_records(path, tmp_path_factory.mktemp("loader"))


def event_line(i, j, t, v):
    return f'{{"i": {i}, "j": {j}, "t": {t!r}, "type": "ev", "v": {v}}}\n'


# (event lines, n, horizon) in save_path's layout, off the simulators' paths
COLUMN_CASES = {
    "exponent times": ("".join(event_line(1, 2, t, 1) for t in (5e-324, 1e-05, 1.5e300)),
                       2, 1.5e300),
    "no final newline": (event_line(1, 3, 0.25, 1) + event_line(2, 3, 0.5, 0).rstrip("\n"),
                         3, 1.0),
    "one line": (event_line(2, 7, 0.75, 0), 7, 1.0),
    "4-digit endpoints": (event_line(1234, 5678, 0.125, 1) + event_line(999, 1000, 0.5, 0),
                          5678, 1.0),
    "9-digit endpoints": (event_line(123456789, 999999999, 0.5, 1), 999999999, 1.0),
}


@pytest.mark.parametrize("case", sorted(COLUMN_CASES))
def test_event_columns_match_record_parser(case):
    text, n, horizon = COLUMN_CASES[case]
    lines = text.splitlines(keepends=True)
    with mock.patch.object(process, "_event_records", side_effect=AssertionError("a chunk missed")):
        fast = _events("p.jsonl", io.StringIO(text), n, horizon)
    slow = _event_records("p.jsonl", lines, 3, n, horizon)
    for a, b in zip(fast, slow):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert fast[0].size == len(lines)


def test_truncated_number_parse_fails(monkeypatch):
    # a time the column parser cannot read to its end, let through a looser gate:
    # numpy >= 2.3 raises, and older numpy's DeprecationWarning is an error under pytest
    monkeypatch.setattr(process, "_EVENT_BLOCK", re.compile(r"(?:.+\n)*(?:.+)?"))
    with pytest.raises((ValueError, DeprecationWarning), match="could not be read to its end"):
        _events("p.jsonl", io.StringIO(event_line(1, 2, 0.5, 1).replace("0.5", "0.5x")), 2, 1.0)


@st.composite
def init_lines(draw):
    """Init lines in save_path's layout, about half of them edited in one to three
    places; the header's n is 9, so some endpoints are out of range."""
    endpoint = st.one_of(st.integers(1, 12), st.integers(1, 10**12)).map(str)
    pairs = draw(st.lists(st.tuples(endpoint, endpoint), max_size=6))
    text = f"[{'], ['.join(f'{i}, {j}' for i, j in pairs)}]" if pairs else ""
    for _ in range(draw(st.integers(0, 3)) if draw(st.booleans()) else 0):
        k = draw(st.integers(0, len(text)))  # insert, replace or delete one character
        ch, width = draw(st.sampled_from(["", *"0123456789, []x"])), draw(st.integers(0, 1))
        text = text[:k] + ch + text[k + width:]
    return '{"edges": [' + text + '], "type": "init"}\n'


@given(init_lines())
@example('{"edges": [[1, 2, 3], [4]], "type": "init"}\n')
@example('{"edges": [[01, 2]], "type": "init"}\n')
@example('{"edges": [[1, 2], [3, 04]], "type": "init"}\n')
@example('{"edges": [[1, 2], [3, 0]], "type": "init"}\n')
@example('{"edges": [[1,5 2], [3, 4]], "type": "init"}\n')
@example('{"edges": [[1, 2]5, [3, 4]], "type": "init"}\n')
@example('{"edges": [[1, ], [3, 4]], "type": "init"}\n')
@example('{"edges": [[1, 2], [3, ]], "type": "init"}\n')
@example('{"edges": [[1, 1000000000]], "type": "init"}\n')
@example('{"edges": [[1, 99999999999999999999]], "type": "init"}\n')
@example('{"edges": [], "type": "init"}\n')
@example('{"edges": [[1,2], [3, 4]], "type": "init"}\n')
@settings(max_examples=300, deadline=None)
def test_init_bulk_path_matches_json(tmp_path_factory, line):
    assert_init_bulk_path_matches_json(tmp_path_factory, line)


def other_key_order(line):
    """An init line of init_lines with its two keys in the other order."""
    return '{"type": "init", ' + line.removeprefix("{").replace(', "type": "init"}', "}")


@given(init_lines())
@example('{"edges": [[1, 2, 3], [4]], "type": "init"}\n')
@example('{"edges": [[1, 2], [3, 04]], "type": "init"}\n')
@example('{"edges": [[1, 2]5, [3, 4]], "type": "init"}\n')
@example('{"edges": [], "type": "init"}\n')
@settings(max_examples=150, deadline=None)
def test_init_bulk_path_matches_json_in_other_key_order(tmp_path_factory, line):
    assert_init_bulk_path_matches_json(tmp_path_factory, other_key_order(line))


def test_init_key_orders_give_identical_arrays(tmp_path):
    line = '{"edges": [[1, 2], [3, 9], [2, 7]], "type": "init"}\n'
    other = other_key_order(line)
    assert other == '{"type": "init", "edges": [[1, 2], [3, 9], [2, 7]]}\n'
    a, b = _init_record(line)["edges"], _init_record(other)["edges"]
    assert a.dtype == b.dtype == np.int64 and np.array_equal(a, b)
    assert a.tolist() == [[1, 2], [3, 9], [2, 7]]
    loaded = []
    for k, text in enumerate((line, other)):
        f = tmp_path / f"p{k}.jsonl"
        f.write_text('{"horizon": 1.0, "n": 9, "type": "header"}\n' + text)
        loaded.append(load_path(f).initial)
    assert loaded[0] == loaded[1]
    # any other layout is json's: a third key, or no space after a separator
    for text in ('{"type": "init", "edges": [[1, 2]], "x": 1}\n',
                 '{"type":"init", "edges": [[1, 2]]}\n', '{"type": "init", "edges": [[1, 2]] }\n'):
        assert _init_record(text) is None, text


def assert_init_bulk_path_matches_json(tmp_path_factory, line):
    """The bulk parse, when it takes the line, reads json's integers, and the
    loaded graph or DataError text is the same with and without it."""
    bulk = _init_record(line)
    if bulk is not None:
        assert bulk["edges"].dtype == np.int64
        assert np.array_equal(bulk["edges"], json.loads(line)["edges"])
    f = tmp_path_factory.mktemp("init") / "p.jsonl"
    f.write_text('{"horizon": 1.0, "n": 9, "type": "header"}\n' + line)
    outcomes = []
    for parse in (_init_record, lambda line: None):
        with mock.patch.object(process, "_init_record", parse):
            try:
                outcomes.append(load_path(f).initial)
            except DataError as exc:
                outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


def test_save_path_refuses_non_finite_values(tmp_path):
    path = build(3, [EdgeEvent(0.5, 1, 2, 1)], horizon=math.inf)
    with pytest.raises(ValueError, match="non-finite"):
        save_path(path, tmp_path / "p.jsonl")


def rewrite_events(text, fmt):
    """Re-lay every event line of a saved path with fmt(record) -> line."""
    lines = text.splitlines(keepends=True)
    return "".join(lines[:2] + [fmt(json.loads(line)) for line in lines[2:]])


LAYOUTS = {
    "reordered keys": lambda text: rewrite_events(
        text, lambda r: json.dumps({k: r[k] for k in ("type", "t", "j", "i", "v")}) + "\n"
    ),
    "extra spaces": lambda text: rewrite_events(
        text, lambda r: " " + json.dumps(r, sort_keys=True, separators=(" , ", " :  ")) + " \n"
    ),
    "exponent times": lambda text: rewrite_events(
        text, lambda r: json.dumps(r, sort_keys=True).replace(
            f'"t": {r["t"]!r}', f'"t": {r["t"]:.17e}') + "\n"
    ),
    "blank lines": lambda text: text.replace("}\n{\"i\"", "}\n\n  \n{\"i\"") + "\n\n",
    "no trailing newline": lambda text: text.rstrip("\n"),
    "crlf": lambda text: text.replace("\n", "\r\n"),
}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_load_path_accepts_any_valid_layout(tmp_path, layout):
    path = simulate_edge_flip(10, 2.0, seed=34)
    canon = tmp_path / "canon.jsonl"
    save_path(path, canon)
    other = tmp_path / "other.jsonl"
    text = LAYOUTS[layout](canon.read_text())
    assert text != canon.read_text()
    other.write_bytes(text.encode("ascii"))
    assert load_path(other) == path


# Every message below is the one the per-record parser gives at the parent of
# the fast loader; a canonical-looking line must not change it.
HEAD = (
    '{"horizon": 1.0, "model": null, "n": 4, "params": {}, "seed": null, "type": "header"}\n'
    '{"edges": [[1, 2]], "type": "init"}\n'
    '{"i": 1, "j": 3, "t": 0.25, "type": "ev", "v": 1}\n'
)
MALFORMED = {
    "leading zero": ('{"i": 01, "j": 3, "t": 0.5, "type": "ev", "v": 0}',
                     "line 4: invalid JSON (Expecting ',' delimiter)"),
    "i equals j": ('{"i": 3, "j": 3, "t": 0.5, "type": "ev", "v": 1}',
                   "line 4: need 1 <= i < j <= 4"),
    "i above j": ('{"i": 4, "j": 2, "t": 0.5, "type": "ev", "v": 1}',
                  "line 4: need 1 <= i < j <= 4"),
    "j above n": ('{"i": 1, "j": 5, "t": 0.5, "type": "ev", "v": 1}',
                  "line 4: need 1 <= i < j <= 4"),
    "value 2": ('{"i": 1, "j": 3, "t": 0.5, "type": "ev", "v": 2}',
                "line 4: event value must be 0 or 1"),
    "time above horizon": ('{"i": 1, "j": 4, "t": 1.5, "type": "ev", "v": 1}',
                           "line 4: time outside (0, 1.0]"),
    "time zero": ('{"i": 1, "j": 4, "t": 0.0, "type": "ev", "v": 1}',
                  "line 4: time outside (0, 1.0]"),
    "time negative": ('{"i": 1, "j": 4, "t": -0.5, "type": "ev", "v": 1}',
                      "line 4: time outside (0, 1.0]"),
    "time overflows": ('{"i": 1, "j": 4, "t": 1e400, "type": "ev", "v": 1}',
                       "line 4: time outside (0, 1.0]"),
    "time underflows": ('{"i": 1, "j": 4, "t": 1e-400, "type": "ev", "v": 1}',
                        "line 4: time outside (0, 1.0]"),
    "bad json": ('{"i": 1, "j": 4,',
                 "line 4: invalid JSON (Expecting property name enclosed in double quotes)"),
    "wrong type": ('{"i": 1, "j": 4, "t": 0.5, "type": "init", "v": 1}',
                   "line 4: expected 'ev' record"),
    "missing key": ('{"i": 1, "j": 4, "t": 0.5, "type": "ev"}',
                    "line 4: bad event record: 'v'"),
    "float endpoints": ('{"i": 1.9, "j": 3.7, "t": 0.5, "type": "ev", "v": 1}',
                        "line 4: event fields i, j and v must be integers"),
    "float value": ('{"i": 1, "j": 4, "t": 0.5, "type": "ev", "v": 1.2}',
                    "line 4: event fields i, j and v must be integers"),
    "boolean value": ('{"i": 1, "j": 4, "t": 0.5, "type": "ev", "v": true}',
                      "line 4: event fields i, j and v must be integers"),
    "string endpoint": ('{"i": "1", "j": 4, "t": 0.5, "type": "ev", "v": 1}',
                        "line 4: event fields i, j and v must be integers"),
    "string time": ('{"i": 1, "j": 4, "t": "0.5", "type": "ev", "v": 1}',
                    "line 4: event time must be a number"),
    "boolean time": ('{"i": 1, "j": 4, "t": true, "type": "ev", "v": 1}',
                     "line 4: event time must be a number"),
    "not a jump": ('{"i": 1, "j": 3, "t": 0.5, "type": "ev", "v": 1}',
                   "invalid event log: event 1 on edge (1, 3) is not a genuine jump"),
    "unsorted": ('{"i": 1, "j": 4, "t": 0.125, "type": "ev", "v": 1}',
                 "invalid event log: events must be strictly sorted by (time, i, j)"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_load_path_malformed_messages(tmp_path, case):
    line, message = MALFORMED[case]
    f = tmp_path / "bad.jsonl"
    f.write_text(HEAD + line + "\n")
    with pytest.raises(DataError) as exc:
        load_path(f)
    assert str(exc.value) == f"{f}: {message}"


@pytest.mark.parametrize("t", ["1e400", "1e-400"])
def test_fast_loader_misses_times_beyond_float_range(t):
    line = f'{{"i": 1, "j": 4, "t": {t}, "type": "ev", "v": 1}}\n'
    assert _EVENT_LINE.fullmatch(line.rstrip("\n"))  # canonical-looking
    with pytest.raises(DataError, match=r"^p\.jsonl: line 3: time outside \(0, 1\.0\]$"):
        _events("p.jsonl", io.StringIO(line), 4, 1.0)


def test_only_the_chunk_off_the_layout_is_parsed_per_record(tmp_path, monkeypatch):
    path = simulate_edge_flip(48, 16.0, seed=5)
    f = tmp_path / "p.jsonl"
    save_path(path, f)
    lines = f.read_text().splitlines(keepends=True)
    assert len("".join(lines[2:])) > 2 * _CHUNK_CHARS + len(lines[-1])  # at least 3 chunks
    last = json.loads(lines[-1])
    lines[-1] = json.dumps({k: last[k] for k in ("type", "t", "j", "i", "v")}) + "\n"
    f.write_text("".join(lines))
    seen = []

    def counting(file, chunk, first_lineno, n, horizon):
        seen.append((first_lineno, len(chunk), len("".join(chunk))))
        return _event_records(file, chunk, first_lineno, n, horizon)

    monkeypatch.setattr(process, "_event_records", counting)
    assert load_path(f) == path
    assert len(seen) == 1
    first_lineno, count, chars = seen[0]
    assert first_lineno + count - 1 == len(lines)  # the chunk that holds the last line
    assert chars <= _CHUNK_CHARS + len(lines[-1])  # and no more than one chunk
    assert 3 * count < len(lines)


def long_lines_text():
    """Event lines of a saved path, then lines longer than 2**18 characters (a
    300,000-digit time in the canonical layout, and a record padded with spaces
    off it), a blank line, and a last line without its newline; n = 8, horizon 2."""
    path = simulate_edge_flip(8, 1.0, seed=6)
    lines = [event_line(i, j, t, v) for i, j, t, v in
             zip(path.edge_i.tolist(), path.edge_j.tolist(), path.times.tolist(),
                 path.values.tolist())]
    lines += [event_line(1, 2, 1.5, 1).replace("1.5", "1.5" + "0" * 300_000),
              '{"t": 1.75, "j": 3,' + " " * 300_000 + '"i": 1, "type": "ev", "v": 1}\n',
              "\n", event_line(2, 3, 2.0, 0).rstrip("\n")]
    return "".join(lines)


@pytest.mark.parametrize("chunk_chars", [1, 64, 200, 1 << 18])
def test_chunk_size_does_not_change_the_events(monkeypatch, chunk_chars):
    text = long_lines_text()
    want = _event_records("p.jsonl", io.StringIO(text).readlines(), 3, 8, 2.0)
    monkeypatch.setattr(process, "_CHUNK_CHARS", chunk_chars)
    got = _events("p.jsonl", io.StringIO(text), 8, 2.0)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert got[0].size == text.count("\n")  # every line but the blank one is an event
    assert got[0][-3:].tolist() == [1.5, 1.75, 2.0]


@pytest.mark.parametrize("chunk_chars", [1, 64, 1 << 18])
@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_load_path_reads_crlf_and_cr_as_lf(tmp_path, monkeypatch, chunk_chars, newline):
    path = simulate_edge_flip(8, 2.0, seed=6)
    f = tmp_path / "p.jsonl"
    save_path(path, f)
    g = tmp_path / "q.jsonl"
    g.write_bytes(f.read_bytes().replace(b"\n", newline.encode()))
    monkeypatch.setattr(process, "_CHUNK_CHARS", chunk_chars)
    assert load_path(g) == load_path(f) == path


@pytest.mark.parametrize("chunk_chars", [1, 64, 1 << 18])  # 1: one line per chunk
@pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
def test_line_separators_other_than_newline_keep_line_numbers(chunk_chars, sep, monkeypatch):
    # str.splitlines would end a line at each of these characters
    monkeypatch.setattr(process, "_CHUNK_CHARS", chunk_chars)
    first = event_line(1, 2, 0.25, 1)
    with pytest.raises(DataError, match=r"^p\.jsonl: line 4: invalid JSON \(Extra data\)$"):
        _events("p.jsonl", io.StringIO(first + first.replace("\n", sep + "\n")), 4, 1.0)
    with pytest.raises(DataError, match=r"^p\.jsonl: line 5: need 1 <= i < j <= 4$"):
        _events("p.jsonl", io.StringIO(first + sep + "\n" + event_line(2, 9, 0.5, 1)), 4, 1.0)


def test_block_gate_keeps_no_state_per_line():
    # a full chunk of canonical lines matches in memory that does not grow with it
    line = event_line(123, 4567, 0.123456789, 1)
    text = line * (_CHUNK_CHARS // len(line))
    bad = text[:-1] + "x"
    tracemalloc.start()
    try:
        assert process._EVENT_BLOCK.fullmatch(text)
        assert process._EVENT_BLOCK.fullmatch(bad) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def mutants(text: str, count: int, seed: int):
    """count copies of text, each with one to three edits: a CRLF or a lone CR for a
    newline, an inserted \\x0b, non-ASCII byte or blank line, or deleted bytes."""
    rng = np.random.default_rng(seed)
    data = text.encode()
    edits = [lambda b, k: b[:k] + b"\r" + b[k:] if b[k:k + 1] == b"\n" else b,
             lambda b, k: b[:k] + b"\r" + b[k + 1:] if b[k:k + 1] == b"\n" else b,
             lambda b, k: b[:k] + b"\x0b" + b[k:],
             lambda b, k: b[:k] + bytes([int(rng.integers(128, 256))]) + b[k:],
             lambda b, k: b[:k] + b"\n" + b[k:],
             lambda b, k: b[:k] + b[k + int(rng.integers(1, 8)):]]
    for _ in range(count):
        b = data
        for _ in range(int(rng.integers(1, 4))):
            b = edits[int(rng.integers(len(edits)))](b, int(rng.integers(len(b))))
        yield b


@pytest.mark.parametrize("chunk_chars", [64, 1 << 18])
def test_block_gate_changes_no_load_of_mutated_files(tmp_path, monkeypatch, chunk_chars):
    # the same path, or the same DataError text, with the fast path on and with
    # every chunk sent to the per-record parser
    path = simulate_edge_flip(6, 1.5, seed=8)
    f = tmp_path / "p.jsonl"
    save_path(path, f)
    monkeypatch.setattr(process, "_CHUNK_CHARS", chunk_chars)

    def load():
        try:
            return load_path(f)
        except DataError as exc:
            return str(exc)

    outcomes = set()
    for data in mutants(f.read_text(), 150, seed=chunk_chars):
        f.write_bytes(data)
        live = load()
        with monkeypatch.context() as m:
            m.setattr(process, "_EVENT_BLOCK", re.compile("(?!)"))
            assert load() == live
        outcomes.add(type(live))
    assert outcomes == {str, EventLogPath}


@pytest.mark.parametrize("edges", ["[1, 2]", "null", '"ab"', "[[1, 2], [3]]", "[[1.5, 2]]",
                                   "[[true, 2]]", "[[4, true]]"])
def test_load_path_refuses_malformed_init_edges(tmp_path, edges):
    f = tmp_path / "bad.jsonl"
    f.write_text(HEAD.replace('"edges": [[1, 2]]', f'"edges": {edges}', 1))
    # the format rule, not a Python or numpy message, for these
    pairs_rule = edges in ("[1, 2]", "null", '"ab"', "[[1, 2], [3]]")
    rule = r"edges must be \(i, j\) pairs" if pairs_rule else ""
    with pytest.raises(DataError, match=r"line 1-2: bad header/init record: " + rule):
        load_path(f)


def test_load_path_overflow_and_deep_nesting_are_data_errors(tmp_path):
    f = tmp_path / "bad.jsonl"
    f.write_text(HEAD + '{"i": 1, "j": 4, "t": 1' + "0" * 400 + ', "type": "ev", "v": 1}\n')
    with pytest.raises(DataError, match="line 4: bad event record"):
        load_path(f)
    f.write_text(HEAD + "[" * 100_000 + "\n")
    with pytest.raises(DataError, match=r"line 4: invalid JSON \(nested too deeply\)"):
        load_path(f)


@pytest.mark.parametrize("horizon", ["Infinity", "-Infinity", "NaN"])
def test_load_path_rejects_non_finite_horizon(tmp_path, horizon):
    f = tmp_path / "bad.jsonl"
    f.write_text(HEAD.replace('"horizon": 1.0', f'"horizon": {horizon}', 1))
    with pytest.raises(ValueError, match="line 1-2: bad header/init record: horizon must be finite"):
        load_path(f)


@pytest.mark.parametrize("horizon", ["0.0", "0", "-0.5"])
def test_load_path_rejects_non_positive_horizon(tmp_path, horizon):
    f = tmp_path / "bad.jsonl"
    f.write_text(HEAD.split("\n", 2)[0].replace('"horizon": 1.0', f'"horizon": {horizon}')
                 + '\n{"edges": [], "type": "init"}\n')
    with pytest.raises(DataError, match="line 1-2: bad header/init record: "
                                        "horizon must be finite and positive"):
        load_path(f)


@pytest.mark.parametrize("n", ["100000", "10000000000"])
def test_load_path_refuses_oversized_vertex_count(tmp_path, n):
    f = tmp_path / "big.jsonl"
    # the init edge would size the state to the highest pair if it were built
    f.write_text(f'{{"horizon": 1.0, "n": {n}, "type": "header"}}\n'
                 '{"edges": [[5793, 5794]], "type": "init"}\n')
    with pytest.raises(DataError, match=rf"line 1: n=\d+ has \d+ vertex pairs, "
                                        rf"over the limit of {MAX_VERTEX_PAIRS}$"):
        load_path(f)


@pytest.mark.parametrize("field", ['"n": 4.7', '"n": "4"', '"n": true', '"horizon": "1.0"',
                                   '"horizon": true', '"horizon": [1]', '"n": 100000.0',
                                   '"n": "5794"'])
def test_load_path_refuses_mistyped_header_fields(tmp_path, field):
    # n must be a JSON integer and horizon a JSON number, as event fields are:
    # nothing is coerced, so 4.7 is not read as 4 nor true as 1
    other = '"horizon": 1.0' if field.startswith('"n"') else '"n": 4'
    f = tmp_path / "bad.jsonl"
    f.write_text(f'{{{field}, {other}, "type": "header"}}\n{{"edges": [], "type": "init"}}\n')
    with pytest.raises(DataError, match="line 1-2: bad header/init record: "
                                        "n must be an integer and horizon a number$"):
        load_path(f)


def test_load_path_vertex_cap_boundary(tmp_path):
    assert num_pairs(5793) <= MAX_VERTEX_PAIRS < num_pairs(5794)
    assert num_pairs(1024) * 32 < MAX_VERTEX_PAIRS
    f = tmp_path / "edge.jsonl"
    f.write_text('{"horizon": 1.0, "n": 5793, "type": "header"}\n'
                 '{"edges": [[5792, 5793]], "type": "init"}\n'
                 '{"i": 1, "j": 5793, "t": 0.5, "type": "ev", "v": 1}\n')
    path = load_path(f)
    assert path.n == 5793 and path.event_count == 1 and path.initial.edge_count == 1


@pytest.fixture(scope="module")
def long_path_text(tmp_path_factory):
    """A saved path several loader chunks (1 << 18 characters each) long."""
    f = tmp_path_factory.mktemp("long") / "long.jsonl"
    path = simulate_edge_flip(48, 12.0, seed=35)
    save_path(path, f)
    text = f.read_text()
    assert len(text) > 3 * (1 << 18)
    return path, text


def test_load_path_late_miss_falls_back(tmp_path, long_path_text):
    path, text = long_path_text
    lines = text.splitlines(keepends=True)
    f = tmp_path / "p.jsonl"
    f.write_text(text + "\n")  # blank last line: a miss in the last chunk only
    assert load_path(f) == path
    bad = lines[:-1] + [lines[-1].replace('"v": ', '"v": 2')]
    f.write_text("".join(bad))
    with pytest.raises(ValueError, match=f"line {len(lines)}: event value must be 0 or 1"):
        load_path(f)


def test_load_path_non_ascii_byte_names_its_line(tmp_path, long_path_text):
    _, text = long_path_text
    lines = text.splitlines(keepends=True)
    k = len(lines) - 5  # past the first chunks, so the decode fails mid-stream
    lines[k - 1] = lines[k - 1].replace('"ev"', '"\u00e9v"')
    f = tmp_path / "p.jsonl"
    f.write_bytes("".join(lines).encode("utf-8"))
    with pytest.raises(ValueError, match=f"line {k}: non-ASCII byte"):
        load_path(f)


# ---------------------------------------------------------------------------
# statistics and the relabeling KS diagnostic


def test_exchangeability_check_needs_enough_seeds():
    with pytest.raises(ValueError, match="seed"):
        exchangeability_check("edge-flip", {"rate": 1.0}, 8, seed_count=5)


def test_exchangeable_model_passes_ks():
    rep = exchangeability_check(
        "edge-flip", {"rate": 2.0}, 16, seed_count=30, seed=24, window=8,
    )
    assert rep.p_value > 0.01
    assert rep.seed_count == 30
    assert 0.0 <= rep.ks_statistic <= 1.0


def test_planted_model_fails_ks():
    rep = exchangeability_check(
        "edge-flip-planted",
        {"rate": 1.0, "boost_edge": (1, 2), "boost_factor": 40.0},
        16,
        seed_count=30,
        seed=25,
        window=8,
    )
    assert rep.p_value < 0.01


def _ks_samples(n, spread, shift, seed):
    rng = np.random.default_rng(seed)
    return (rng.poisson(spread, n).astype(float),
            rng.poisson(spread * shift, n).astype(float))


@pytest.mark.parametrize("x,y", [
    *[_ks_samples(n, spread, shift, seed)
      for n in (20, 50, 200)
      for spread, shift, seed in [(12.0, 1.0, 0), (30.0, 1.15, 1), (5.0, 1.6, 2)]],
    _ks_samples(50, 0.3, 1.0, 3),  # heavy ties: mostly zeros
    _ks_samples(200, 1.0, 2.0, 4),
    (np.full(20, 3.0), np.full(20, 3.0)),  # identical: d = 0
    (np.arange(0.0, 100, 2), np.arange(1.0, 100, 2)),  # interleaved: c = 1, p = 1
    (np.arange(200.0), np.arange(200.0) + 200),  # disjoint: d = 1
])
def test_ks_two_sample_matches_lattice_path_count_and_scipy(x, y):
    n = len(x)
    d, p = _ks_two_sample(x, y)
    assert d == stats.ks_2samp(x, y, method="asymp").statistic
    assert p == pytest.approx(float(ks_null_tail(n, round(d * n))), rel=1e-12)
    assert p == pytest.approx(stats.ks_2samp(x, y, method="exact").pvalue, rel=1e-12)


def test_ks_two_sample_cost_is_linear_in_n():
    x, y = _ks_samples(100_000, 5.0, 1.0, 5)
    assert min(timeit.repeat(lambda: _ks_two_sample(x, y), number=1, repeat=3)) < 0.5
    assert 0.0 <= _ks_two_sample(x, y)[1] <= 1.0


def oracle_relabel_path(path, perm):
    """The whole relabeled path: edge (k, l) tracks the original (perm[k-1], perm[l-1])."""
    sigma = np.asarray(perm, dtype=np.int64)
    inv = np.empty(path.n, dtype=np.int64)
    inv[sigma - 1] = np.arange(1, path.n + 1)
    new_i, new_j = inv[path.edge_i - 1], inv[path.edge_j - 1]
    swap = new_i > new_j
    new_i[swap], new_j[swap] = new_j[swap], new_i[swap]
    order = np.lexsort((new_j, new_i, path.times))
    return EventLogPath(path.n, path.horizon, apply_map(path.initial, InjectiveMap(tuple(perm))),
                        path.times[order], new_i[order].astype(np.int32),
                        new_j[order].astype(np.int32), path.values[order], path.model_meta)


def oracle_restrict_path(path, m):
    """The induced sub-path on vertices 1..m."""
    keep = path.edge_j <= m
    return EventLogPath(m, path.horizon, restrict(path.initial, m), path.times[keep],
                        path.edge_i[keep], path.edge_j[keep], path.values[keep],
                        path.model_meta)


def oracle_exchangeability(model, params, n, seed_count, seed, window):
    """(KS statistic, p-value) from rebuilt relabeled and restricted paths."""
    base = seed_list(seed)
    plain, relabeled = np.empty(seed_count), np.empty(seed_count)
    for r in range(seed_count):
        path = simulate(model, n, 1.0, base + [0, r], params)
        plain[r] = oracle_restrict_path(path, window).event_count
    for r in range(seed_count):
        path = simulate(model, n, 1.0, base + [1, r], params)
        perm = [int(v) + 1 for v in np.random.default_rng(base + [2, r]).permutation(n)]
        moved = oracle_restrict_path(oracle_relabel_path(path, perm), window)
        moved.validate()
        relabeled[r] = moved.event_count
    return _ks_two_sample(plain, relabeled)


@pytest.mark.parametrize("model,params,n,window", [
    ("edge-flip", {"rate": 2.0}, 16, 6),
    ("edge-flip", {"rate": 0.5}, 9, 9),
    ("edge-flip-planted", {"rate": 1.0, "boost_edge": (1, 2), "boost_factor": 40.0}, 16, 8),
    ("edge-flip-planted", {"rate": 1.0, "boost_edge": (3, 5), "boost_factor": 20.0}, 12, 2),
    ("graphon-jump", {"grids": [[[0.3, 0.6], [0.6, 0.2]]], "global_rate": 3.0}, 12, 5),
    # the planted-asymmetry-ks check's generator, size and window
    ("edge-flip-planted",
     {"rate": 2.0, "init_density": 0.5, "boost_edge": (1, 2), "boost_factor": 10.0}, 64, 8),
    ("edge-flip", {"rate": PiecewiseRate((0.0, 0.3, 0.8), (4.0, 0.0, 1.5))}, 14, 6),
    ("edge-flip-planted",
     {"rate": PiecewiseRate((0.0, 0.5), (0.5, 3.0)), "boost_edge": (4, 2), "boost_factor": 30.0},
     10, 4),
])
@pytest.mark.parametrize("seed", [0, [7, 1]])
def test_exchangeability_check_matches_rebuilt_paths(model, params, n, window, seed):
    rep = exchangeability_check(model, params, n, seed_count=20, seed=seed, window=window)
    assert (rep.ks_statistic, rep.p_value) == oracle_exchangeability(
        model, params, n, 20, seed, window
    )


def oracle_pair_id_report(model, params, n, seed_count, seed, window):
    """The report from each sample's full draw, counting its events' pair ids."""
    args = process._generator_args(model, n, params)
    ii, jj = pair_endpoints(n)

    def pair_ids(sample_seed):
        if model == "graphon-jump":
            return simulate_graphon_jump(n, seed=sample_seed, **args).pair_ids
        return _draw_edge_flip(n, seed=sample_seed, **args).pairs

    base = seed_list(seed)
    samples = []
    for stream in (0, 1):
        sample = []
        for r in range(seed_count):
            position = np.arange(n)
            if stream:
                position = np.argsort(np.random.default_rng(base + [2, r]).permutation(n))
            inside = np.maximum(position[ii], position[jj]) < window
            sample.append(np.count_nonzero(inside[pair_ids(base + [stream, r])]))
        samples.append(np.array(sample, dtype=float))
    return ExchangeabilityReport(seed_count, *_ks_two_sample(*samples))


@pytest.mark.parametrize("model,params,n,seed_count,seed", [
    ("edge-flip", {"rate": 2.0, "init_density": 0.5}, 64, 50, [0, 109]),
    ("edge-flip", {"rate": PiecewiseRate((0.0, 0.4), (3.0, 1.0))}, 20, 30, 5),
    ("edge-flip-planted",
     {"rate": 2.0, "init_density": 0.5, "boost_factor": 10.0}, 64, 200, [0, 112]),
    ("graphon-jump", {"grids": [[[0.3, 0.6], [0.6, 0.2]]], "global_rate": 3.0}, 16, 30, 2),
])
def test_count_only_samples_match_pair_id_oracle(model, params, n, seed_count, seed):
    rep = exchangeability_check(model, params, n, seed_count=seed_count, seed=seed, window=8)
    assert rep == oracle_pair_id_report(model, params, n, seed_count, seed, 8)
