import io
import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from graphvar.graphs import (
    AdjacencyGraph,
    DataError,
    InjectiveMap,
    apply_map,
    num_pairs,
    pair_endpoints,
    pair_index,
    restrict,
    seed_list,
)
from graphvar import process
from graphvar.process import (
    _CHUNK_CHARS,
    _EVENT_LINE,
    _SAVE_CHUNK,
    MAX_VERTEX_PAIRS,
    MODELS,
    EdgeEvent,
    EventLogPath,
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


def replay(path, t):
    """Reference snapshot: walk the event list with a plain edge dict."""
    state = {(i, j): True for i, j in path.initial.edges()}
    for ev in path.events():
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


def test_snapshot_matches_replay():
    path = simulate_edge_flip(12, 3.0, seed=15)
    for t in (0.0, 0.1, 0.25, 0.5, 0.77, 1.0):
        assert snapshot(path, t) == replay(path, t)
    with pytest.raises(ValueError):
        snapshot(path, 1.5)


def test_snapshot_right_continuous():
    ev = [EdgeEvent(0.5, 1, 2, 1)]
    path = EventLogPath.from_events(3, 1.0, AdjacencyGraph.empty(3), ev)
    assert snapshot(path, 0.5).has_edge(1, 2)
    assert not snapshot(path, np.nextafter(0.5, 0.0)).has_edge(1, 2)


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
    # numpy 2 raises, and numpy 1.x's DeprecationWarning is an error under pytest
    monkeypatch.setattr(process, "_EVENT_LINE", re.compile(r"^.+$", re.MULTILINE))
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
    ks = stats.ks_2samp(plain, relabeled, method="asymp")
    return float(ks.statistic), float(ks.pvalue)


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
