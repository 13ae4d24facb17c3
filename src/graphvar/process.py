"""Generators and queries for right-continuous graph-valued paths on [0, horizon].

A path is an initial graph plus a finite, time-ordered list of single-edge
events; replaying events yields the step function of graphs.  Generators are
deterministic given their seed.  Per-replicate randomness is always derived
as default_rng([seed, stream, replicate]) so results do not depend on
evaluation order.
"""

from __future__ import annotations

import io
import json
import math
import re
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .graphs import (
    AdjacencyGraph,
    MAX_VERTEX_PAIRS,
    DataError,
    Refused,
    check_vertex_count,
    first_non_ascii_line,
    num_pairs,
    pair_endpoints,
    pair_index,
    pair_indices,
    seed_list,
)

@dataclass(frozen=True)
class EdgeEvent:
    """Single edge flip at a given time; new_value is the state after the jump."""

    time: float
    i: int
    j: int
    new_value: int


@dataclass(frozen=True)
class PiecewiseRate:
    """Piecewise-constant intensity: rates[k] applies on [breaks[k], breaks[k+1])."""

    breaks: tuple[float, ...]
    rates: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.breaks) != len(self.rates) or not self.breaks:
            raise ValueError("need one rate per breakpoint")
        if self.breaks[0] != 0.0 or list(self.breaks) != sorted(set(self.breaks)):
            raise ValueError("breakpoints must start at 0 and increase strictly")
        if any(r < 0 for r in self.rates):
            raise ValueError("rates must be nonnegative")

    @classmethod
    def constant(cls, rate: float) -> "PiecewiseRate":
        return cls((0.0,), (float(rate),))

    def pieces(self, horizon: float) -> list[tuple[float, float, float]]:
        """(start, end, rate) triples covering [0, horizon]."""
        ends = list(self.breaks[1:]) + [math.inf]
        return [(t0, min(t1, horizon), r)
                for t0, t1, r in zip(self.breaks, ends, self.rates) if t0 < horizon]


@dataclass(frozen=True)
class StepGraphon:
    """Symmetric step function on [0,1]^2 with values in [0,1], given cellwise."""

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2 or vals.shape[0] != vals.shape[1]:
            raise ValueError("graphon grid must be square")
        if not np.array_equal(vals, vals.T):
            raise ValueError("graphon must be symmetric")
        if vals.min() < 0.0 or vals.max() > 1.0:
            raise ValueError("graphon values must lie in [0, 1]")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, p: float) -> "StepGraphon":
        return cls(np.array([[p]]))

    def edge_probabilities(self, u: np.ndarray, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
        k = self.values.shape[0]
        cells = np.minimum((u * k).astype(np.int64), k - 1)
        return self.values[cells[ii], cells[jj]]


@dataclass(frozen=True)
class EventIndex:
    """Per-event lookups that every scan of one path shares.

    before[k] is the pair's state just before event k: the previous event's
    value on that pair, or the initial state.  next_same[k] is the index of
    the next event on the same pair, or the event count if there is none.
    batch_end[k] tells whether event k is the last of its same-timestamp
    batch.  slot[k] numbers event k's pair among the pairs the path touches, and
    slot_initial[s] is the initial state of the pair in slot s.
    """

    before: np.ndarray
    next_same: np.ndarray
    batch_end: np.ndarray
    slot: np.ndarray
    slot_initial: np.ndarray


@dataclass(frozen=True, eq=False)
class EventLogPath:
    """Initial graph plus single-edge events strictly sorted by (time, i, j)."""

    n: int
    horizon: float
    initial: AdjacencyGraph
    times: np.ndarray
    edge_i: np.ndarray
    edge_j: np.ndarray
    values: np.ndarray
    model_meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("times", "edge_i", "edge_j", "values"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def event_count(self) -> int:
        return int(self.times.shape[0])

    # The cached arrays below live in the instance dict, outside the fields,
    # so __eq__ never sees them; the fields they derive from are read-only.
    @cached_property
    def pair_ids(self) -> np.ndarray:
        """Pair index of every event (read-only, computed once per path)."""
        pids = pair_indices(self.edge_i, self.edge_j, self.n)
        pids.setflags(write=False)
        return pids

    @cached_property
    def event_index(self) -> EventIndex:
        """The EventIndex of this path (read-only, built once per path)."""
        e = self.event_count
        pids = self.pair_ids
        itype = np.int32 if e < np.iinfo(np.int32).max else np.int64
        order = _pair_order(pids, num_pairs(self.n))
        same = pids[order[1:]] == pids[order[:-1]]
        first = np.ones(e, dtype=bool)  # in pair order, the first event on each pair
        first[1:] = ~same
        slot = np.empty(e, dtype=np.intp)  # intp: the scans gather with it
        slot[order] = np.cumsum(first, dtype=itype)
        slot -= 1
        prev, nxt = order[:-1][same], order[1:][same]
        next_same = np.full(e, e, dtype=itype)
        next_same[prev] = nxt
        before = self.initial.to_pair_vector().view(np.uint8)[pids]
        before[nxt] = self.values[prev]
        batch_end = np.ones(e, dtype=bool)
        batch_end[:-1] = self.times[1:] != self.times[:-1]
        arrays = (before, next_same, batch_end, slot, before[order[first]])
        for arr in arrays:
            arr.setflags(write=False)
        return EventIndex(*arrays)

    @classmethod
    def from_events(
        cls,
        n: int,
        horizon: float,
        initial: AdjacencyGraph,
        events: Sequence[EdgeEvent],
        model_meta: dict | None = None,
    ) -> "EventLogPath":
        ordered = sorted(events, key=lambda e: (e.time, e.i, e.j))
        path = cls(
            n=n,
            horizon=horizon,
            initial=initial,
            times=np.array([e.time for e in ordered], dtype=np.float64),
            edge_i=np.array([e.i for e in ordered], dtype=np.int32),
            edge_j=np.array([e.j for e in ordered], dtype=np.int32),
            values=np.array([e.new_value for e in ordered], dtype=np.int8),
            model_meta=model_meta or {"model": "hand-built", "params": {}, "seed": None},
        )
        path.validate()
        return path

    def validate(self) -> None:
        """Check the structural invariants; raises ValueError on the first failure."""
        if self.initial.n != self.n:
            raise ValueError("initial graph vertex count mismatch")
        e = self.event_count
        if e == 0:
            return
        if not np.all((self.times > 0.0) & (self.times <= self.horizon)):
            raise ValueError("event times must lie in (0, horizon]")
        if np.any((self.edge_i >= self.edge_j) | (self.edge_i < 1) | (self.edge_j > self.n)):
            raise ValueError("event edges must satisfy 1 <= i < j <= n")
        tie = self.times[1:] == self.times[:-1]
        bad = tie & (self.pair_ids[1:] <= self.pair_ids[:-1])  # valid endpoints: (i, j) order
        if np.any(self.times[1:] < self.times[:-1]) or np.any(bad):
            raise ValueError("events must be strictly sorted by (time, i, j)")
        if not np.all((self.values == 0) | (self.values == 1)):
            raise ValueError("event values must be 0 or 1")
        # genuine jumps: every event changes its pair's state; report the
        # first offender in (pair, time) order
        bad = np.flatnonzero(self.values == self.event_index.before)
        if bad.size:
            k = int(bad[np.argmin(self.pair_ids[bad])])
            raise ValueError(
                f"event {k} on edge ({self.edge_i[k]}, {self.edge_j[k]}) "
                "is not a genuine jump"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventLogPath):
            return NotImplemented
        return (
            self.n == other.n
            and self.horizon == other.horizon
            and self.initial == other.initial
            and np.array_equal(self.times, other.times)
            and np.array_equal(self.edge_i, other.edge_i)
            and np.array_equal(self.edge_j, other.edge_j)
            and np.array_equal(self.values, other.values)
            and self.model_meta == other.model_meta
        )


@dataclass(frozen=True)
class JumpCounts:
    """Number of events per unordered pair, aligned with pair-index order."""

    n: int
    counts: np.ndarray

    def get(self, i: int, j: int) -> int:
        return int(self.counts[pair_index(min(i, j), max(i, j), self.n)])

    @property
    def max_jumps(self) -> int:
        return int(self.counts.max()) if self.counts.size else 0

    @property
    def mean_jumps(self) -> float:
        return float(self.counts.mean()) if self.counts.size else 0.0


def _pair_order(pids: np.ndarray, npairs: int) -> np.ndarray:
    """Event indices sorted by pair id, then by event index.

    When every id fits uint16, numpy's stable sort is a radix sort.  Above
    that the keys pid * e + index are unique, so the unstable sort gives the
    same order (a stable int64 sort is about 4x slower).
    """
    if npairs <= 1 << 16:
        return np.argsort(pids.astype(np.uint16), kind="stable")
    return np.argsort(pids * pids.shape[0] + np.arange(pids.shape[0]))


class _EdgeFlipDraw(NamedTuple):
    """What the edge-flip draw stage makes, in draw order; counts are per pair id."""

    rate: PiecewiseRate
    init_vec: np.ndarray
    counts: np.ndarray
    times: np.ndarray | None
    pairs: np.ndarray | None


def _draw_edge_flip(
    n: int,
    rate,
    init_density: float = 0.5,
    horizon: float = 1.0,
    seed=0,
    boost_edge: tuple[int, int] | None = None,
    boost_factor: float = 1.0,
    *,
    times: bool = True,
) -> _EdgeFlipDraw:
    """The draw stage of simulate_edge_flip, the only code that consumes its RNG stream.

    It draws the initial pair vector, then per rate piece each pair's Poisson
    count and its events' uniform times; events come grouped by piece, then
    by pair id, unsorted in time.  Over MAX_VERTEX_PAIRS events are refused
    before the piece that passes the cap makes its events, and a mean far over
    it before any count is drawn (_check_mean_events); times=False stops
    after the last piece's counts and leaves times and pairs None.
    """
    if not (0.0 <= init_density <= 1.0):
        raise ValueError("init_density must lie in [0, 1]")
    if not isinstance(rate, PiecewiseRate):
        rate = PiecewiseRate.constant(rate)
    if boost_factor < 0:
        raise ValueError("boost_factor must be nonnegative")
    rng = np.random.default_rng(seed)
    npairs = num_pairs(n)
    init_vec = rng.random(npairs) < init_density

    mult = np.ones(npairs)
    if boost_edge is not None:
        a, b = sorted(boost_edge)
        mult[pair_index(a, b, n)] = boost_factor

    pieces = rate.pieces(horizon)
    mean = sum(r * (t1 - t0) for t0, t1, r in pieces) * float(mult.sum())
    _check_mean_events(mean, math.sqrt(mean))
    counts = np.zeros(npairs, dtype=np.int64)
    all_times = [np.zeros(0)]
    all_pairs = [np.zeros(0, dtype=np.int64)]
    for k, (t0, t1, r) in enumerate(pieces, start=1):
        piece = rng.poisson(r * (t1 - t0) * mult)
        counts += piece
        if counts.sum() > MAX_VERTEX_PAIRS:
            raise Refused(f"{counts.sum()} events drawn, over the limit of {MAX_VERTEX_PAIRS}")
        total = int(piece.sum())
        if total == 0 or (k == len(pieces) and not times):
            continue
        all_pairs.append(np.repeat(np.arange(npairs), piece))
        all_times.append(rng.uniform(t0, t1, total))
    if not times:
        return _EdgeFlipDraw(rate, init_vec, counts, None, None)
    event_times = np.concatenate(all_times)
    event_times = np.where(event_times <= 0.0, np.nextafter(0.0, 1.0), event_times)
    return _EdgeFlipDraw(rate, init_vec, counts, event_times, np.concatenate(all_pairs))


def _check_mean_events(mean: float, sd: float) -> None:
    """Refuse, before it is drawn, a Poisson event count whose mean lies over 10 SD
    above MAX_VERTEX_PAIRS: it falls under the cap with chance below e^-50, so the
    cap on the drawn count still decides every other path, with its RNG stream."""
    if not mean - 10.0 * sd <= MAX_VERTEX_PAIRS:  # an infinite or nan mean too
        raise Refused(f"the rate gives a mean of {mean:.4g} events, over the limit of "
                      f"{MAX_VERTEX_PAIRS} by more than 10 SD")


def _event_log(n: int, horizon: float, init_vec: np.ndarray, times: np.ndarray,
               pairs: np.ndarray, values: np.ndarray, meta: dict) -> EventLogPath:
    """A simulated path from its initial pair vector and its time-ordered events,
    given as pair ids and new values."""
    ii, jj = pair_endpoints(n)
    return EventLogPath(
        n=n,
        horizon=horizon,
        initial=AdjacencyGraph.from_pair_vector(n, init_vec),
        times=times,
        edge_i=(ii[pairs] + 1).astype(np.int32),
        edge_j=(jj[pairs] + 1).astype(np.int32),
        values=values,
        model_meta=meta,
    )


def simulate_edge_flip(
    n: int,
    rate,
    init_density: float = 0.5,
    horizon: float = 1.0,
    seed=0,
    boost_edge: tuple[int, int] | None = None,
    boost_factor: float = 1.0,
) -> EventLogPath:
    """Independent per-edge flip clocks with a piecewise-constant intensity.

    Every unordered pair carries its own Poisson clock; each tick flips that
    edge.  `rate` is a PiecewiseRate or a constant.  `boost_edge` multiplies
    one edge's intensity by `boost_factor`, deliberately breaking
    exchangeability for the planted-asymmetry diagnostics.

    _draw_edge_flip draws the events; this ordering stage puts them in
    (time, i, j) order.  A quicksort of the times gives that order whenever
    the times are distinct, since distinct keys have one order; only when
    the sorted times hold a tie does it sort again by (time, pair id).
    """
    draw = _draw_edge_flip(n, rate, init_density, horizon, seed, boost_edge, boost_factor)
    order = np.argsort(draw.times)
    times = draw.times[order]
    if np.any(times[1:] == times[:-1]):
        # pair-index order is (i, j) order
        order = np.lexsort((draw.pairs, draw.times))
        times = draw.times[order]
    pairs = draw.pairs[order]
    # alternating values per edge, starting opposite the initial state
    e = pairs.shape[0]
    order = _pair_order(pairs, num_pairs(n))
    sp = pairs[order]
    starts = np.r_[0, np.flatnonzero(np.diff(sp)) + 1]
    occ = np.arange(e) - np.repeat(starts, np.diff(np.r_[starts, e]))
    values = np.empty(e, dtype=np.int8)
    values[order] = draw.init_vec.astype(np.int8)[sp] ^ np.int8(1) ^ (occ % 2).astype(np.int8)

    meta = {
        "model": "edge-flip-planted" if boost_edge is not None else "edge-flip",
        "params": {
            "rate_breaks": list(draw.rate.breaks),
            "rate_values": list(draw.rate.rates),
            "init_density": init_density,
        },
        "seed": _seed_repr(seed),
    }
    if boost_edge is not None:
        meta["params"]["boost_edge"] = list(sorted(boost_edge))
        meta["params"]["boost_factor"] = boost_factor
    return _event_log(n, horizon, draw.init_vec, times, pairs, values, meta)


def simulate_graphon_jump(
    n: int,
    graphons: Sequence[StepGraphon],
    global_rate: float,
    seed=0,
    horizon: float = 1.0,
) -> EventLogPath:
    """Global-clock resampling path: at each tick all edges redraw at once.

    Latent uniforms u_i are fixed; the initial graph is drawn from the first
    step graphon and tick k resamples every edge from graphons[k mod len].
    A positive fraction of edges can jump simultaneously, which is exactly
    the stress case the ladder diagnostics tag as type-A rungs.
    """
    if global_rate < 0:
        raise ValueError("global_rate must be nonnegative")
    if not graphons:
        raise ValueError("need at least one graphon")
    graphons = [g if isinstance(g, StepGraphon) else StepGraphon(np.asarray(g)) for g in graphons]
    rng = np.random.default_rng(seed)
    npairs = num_pairs(n)
    ii, jj = pair_endpoints(n)
    u = rng.random(n)

    state = rng.random(npairs) < graphons[0].edge_probabilities(u, ii, jj)
    init_vec = state.copy()

    _check_mean_events(global_rate * horizon * npairs, math.sqrt(global_rate * horizon) * npairs)
    n_ticks = int(rng.poisson(global_rate * horizon))
    if n_ticks * npairs > MAX_VERTEX_PAIRS:
        raise Refused(f"{n_ticks} ticks on {npairs} pairs may exceed {MAX_VERTEX_PAIRS} events")
    tick_times = np.sort(rng.uniform(0.0, horizon, n_ticks))
    tick_times = np.where(tick_times <= 0.0, np.nextafter(0.0, 1.0), tick_times)

    times_parts = [np.zeros(0)]
    pair_parts = [np.zeros(0, dtype=np.int64)]
    value_parts = [np.zeros(0, dtype=np.int8)]
    for k, t in enumerate(tick_times, start=1):
        w = graphons[k % len(graphons)]
        new = rng.random(npairs) < w.edge_probabilities(u, ii, jj)
        changed = np.flatnonzero(new != state)
        if changed.size:
            times_parts.append(np.full(changed.size, t))
            pair_parts.append(changed)
            value_parts.append(new[changed].astype(np.int8))
        state = new

    meta = {
        "model": "graphon-jump",
        "params": {
            "grids": [g.values.tolist() for g in graphons],
            "global_rate": global_rate,
            "latents": u.tolist(),
        },
        "seed": _seed_repr(seed),
    }
    return _event_log(n, horizon, init_vec, np.concatenate(times_parts),
                      np.concatenate(pair_parts), np.concatenate(value_parts), meta)


MODELS = ("edge-flip", "edge-flip-planted", "graphon-jump")


def _generator_args(model: str, n: int, params: dict) -> dict:
    """The generator keyword arguments `params` gives `model`, defaults filled in.

    Refuses an unknown model, and a vertex count over the MAX_VERTEX_PAIRS
    cap before any pair-sized array is allocated.
    """
    check_vertex_count(n)
    if model == "graphon-jump":
        grids = params.get("grids", [[[0.5]]])
        return {
            "graphons": [StepGraphon(np.asarray(g, dtype=float)) for g in grids],
            "global_rate": params.get("global_rate", 1.0),
        }
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")
    args = {"rate": params.get("rate", 1.0), "init_density": params.get("init_density", 0.5)}
    if model == "edge-flip-planted":
        args["boost_edge"] = tuple(params.get("boost_edge", (1, 2)))
        args["boost_factor"] = params.get("boost_factor", 10.0)
    return args


def simulate(model: str, n: int, horizon: float, seed, params: dict) -> EventLogPath:
    """Dispatch on model name; params mirror the generator keyword arguments."""
    args = _generator_args(model, n, params)
    if model == "graphon-jump":
        return simulate_graphon_jump(n, seed=seed, horizon=horizon, **args)
    return simulate_edge_flip(n, horizon=horizon, seed=seed, **args)


def _seed_repr(seed):
    if isinstance(seed, (list, tuple, np.ndarray)):
        return [int(s) for s in seed]
    return int(seed) if seed is not None else None


def snapshot(path: EventLogPath, t: float) -> AdjacencyGraph:
    """Graph value at time t (right-continuous: an event at exactly t counts)."""
    if not (0.0 <= t <= path.horizon):
        raise ValueError(f"time {t} outside [0, {path.horizon}]")
    k = int(np.searchsorted(path.times, t, side="right"))
    if k == 0:
        return path.initial
    vec = path.initial.to_pair_vector()
    apply_events(path, vec, 0, k)
    return AdjacencyGraph.from_pair_vector(path.n, vec)


def apply_events(path: EventLogPath, state: np.ndarray, lo: int, hi: int,
                 ids: np.ndarray | None = None) -> None:
    """Advance `state`, the pair vector just before event lo, past event hi - 1;
    with ids (EventIndex.slot), `state` is indexed by those instead of pair ids.

    One scatter: each pair touched in [lo, hi) takes the value of its last
    event there, the one whose next same-pair event lies at or past hi.
    """
    last = path.event_index.next_same[lo:hi] >= hi
    state[(path.pair_ids if ids is None else ids)[lo:hi][last]] = path.values[lo:hi][last]


def jump_counts(path: EventLogPath) -> JumpCounts:
    """Events per unordered pair."""
    counts = np.bincount(path.pair_ids, minlength=num_pairs(path.n))
    return JumpCounts(path.n, counts)


# ---------------------------------------------------------------------------
# persistence (JSON lines)

# One event line exactly as save_path writes it.  The numbers follow the JSON
# grammar, so the fast loader accepts no number json.loads would reject;
# endpoints of up to nine digits fit int32 and are exact in float64.
_EVENT_LINE = re.compile(
    r'\{"i": [1-9][0-9]{0,8}, "j": [1-9][0-9]{0,8}, '
    r'"t": -?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?, '
    r'"type": "ev", "v": [01]\}'
)
# A chunk of such lines, the last one with or without its newline.  A line ends
# at its first newline, so the possessive "*+" (Python >= 3.11) gives the same
# verdicts without keeping backtracking state per line (2.9 MB per 2^18 chars).
_EVENT_BLOCK = re.compile(f"(?:{_EVENT_LINE.pattern}\n)*{'+' * (sys.version_info >= (3, 11))}"
                          f"(?:{_EVENT_LINE.pattern})?")
_CHUNK_CHARS = 1 << 18  # event text parsed at once; bounds the loader's memory
_INIT_LAYOUTS = (('{"edges": [[', ']], "type": "init"}'),  # around an init record's edge
                 ('{"type": "init", "edges": [[', ']]}'))  # text, in either key order
_EVENT_DTYPES = (np.float64, np.int32, np.int32, np.int8)  # times, i, j, values
# %r of a finite float is the text json.dumps writes for it
_EVENT_FMT = '{"i": %d, "j": %d, "t": %r, "type": "ev", "v": %d}\n'
_SAVE_CHUNK = 4096  # events formatted at once; bounds the writer's memory


def save_path(path: EventLogPath, file) -> None:
    """Write the JSONL representation: header, init record, one record per event.

    Every record is laid out as json.dumps(record, sort_keys=True) lays it out.
    """
    if not (math.isfinite(path.horizon) and np.isfinite(path.times).all()):
        raise ValueError("cannot save a path with a non-finite horizon or event time")
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
        cols = (path.edge_i, path.edge_j, path.times, path.values)
        for lo in range(0, path.event_count, _SAVE_CHUNK):
            k = min(_SAVE_CHUNK, path.event_count - lo)
            flat = [None] * (4 * k)  # i, j, t, v of each event in turn
            for c, col in enumerate(cols):
                flat[c::4] = col[lo:lo + k].tolist()
            fh.write(_EVENT_FMT * k % tuple(flat))


def load_path(file) -> EventLogPath:
    """Read a JSONL path; malformed records raise with their line number.

    Event lines are read in bounded chunks.  A chunk in save_path's layout,
    as one regular expression checks, is parsed by column, and so is an init
    record in that layout, by linear checks of its text; any other chunk or
    init record goes through the json parser where it stands, which alone writes
    the line-numbered errors.  So the accepted files and the error messages
    do not depend on the layout, and memory stays that of the canonical path.
    """
    try:
        with open(file, "r", encoding="ascii") as fh:
            head = [fh.readline(), fh.readline()]
            if not head[0]:
                raise DataError(f"{file}: empty path file")
            header = _parse_record(file, 1, head[0], "header")
            init = _init_record(head[1]) or _parse_record(file, 2, head[1], "init")
            try:
                n, horizon = header["n"], header["horizon"]
                # JSON numbers only, as for event fields: int() would read 4.7 as 4
                if type(n) is not int or type(horizon) not in (int, float):
                    raise TypeError("n must be an integer and horizon a number")
                try:
                    check_vertex_count(n)
                except ValueError as exc:
                    raise DataError(f"{file}: line 1: {exc}") from None
                horizon = float(horizon)
                if not (math.isfinite(horizon) and horizon > 0.0):
                    raise ValueError(f"horizon must be finite and positive, got {horizon}")
                initial = AdjacencyGraph.from_edges(n, init["edges"])
            except DataError:
                raise
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise DataError(f"{file}: line 1-2: bad header/init record: {exc}") from exc
            events = _events(file, fh, n, horizon)
    except UnicodeDecodeError:
        lineno = first_non_ascii_line(file)
        raise DataError(f"{file}: line {lineno}: non-ASCII byte in path file") from None

    times, edge_i, edge_j, values = events
    path = EventLogPath(
        n=n,
        horizon=horizon,
        initial=initial,
        times=times,
        edge_i=edge_i,
        edge_j=edge_j,
        values=values,
        model_meta={
            "model": header.get("model"),
            "params": header.get("params", {}),
            "seed": header.get("seed"),
        },
    )
    try:
        path.validate()
    except ValueError as exc:
        raise DataError(f"{file}: invalid event log: {exc}") from exc
    return path


def _init_record(line: str) -> dict | None:
    """The init record of a line in one of _INIT_LAYOUTS with an edge, else None.

    The edge text must read "I, J], [I, J], ..., [I, J" with every endpoint one
    to nine digits and no leading zero; json.loads reads the same integers from
    such a text, and reads every other init line.  The checks are linear.
    """
    end = len(line) - line.endswith("\n")
    for head, tail in _INIT_LAYOUTS:
        if line.startswith(head) and line.endswith(tail, 0, end):
            break
    else:
        return None
    text = line[len(head):end - len(tail)].encode()
    seps = text.translate(None, b"0123456789")  # must be ", " and "], [" in turn
    pairs = (len(seps) + 4) // 6
    if (seps != b", ], [" * (pairs - 1) + b", "  # and no digit splits a separator:
            or text.count(b", ") != 2 * pairs - 1 or text.count(b"], [") != pairs - 1):
        return None
    text = text.translate(None, b" []")  # I,J,I,J,...: no endpoint empty or led by 0
    if text[:1] in b",0" or text.endswith(b",") or b",," in text or b",0" in text:
        return None
    flat = np.fromstring(text, dtype=np.int64, sep=",")
    if flat.max() >= 10**9:  # ten digits or more
        return None
    return {"edges": flat.reshape(pairs, 2)}


def _parse_record(file, lineno: int, line: str, want: str) -> dict:
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DataError(f"{file}: line {lineno}: invalid JSON ({exc.msg})") from exc
    except RecursionError:
        raise DataError(f"{file}: line {lineno}: invalid JSON (nested too deeply)") from None
    except ValueError:  # an integer of over 4300 digits
        raise DataError(f"{file}: line {lineno}: invalid JSON (integer too long)") from None
    if not isinstance(rec, dict) or "type" not in rec:
        raise DataError(f"{file}: line {lineno}: record missing 'type'")
    if rec["type"] != want:
        raise DataError(f"{file}: line {lineno}: expected {want!r} record")
    return rec


def _events(file, fh, n: int, horizon: float):
    """(times, i, j, values) of the remaining lines of fh, line 3 on, by chunks.

    A chunk is one read of _CHUNK_CHARS characters, finished by one readline
    unless it ends a line.  A chunk that _EVENT_BLOCK matches whole (so it holds
    no blank line) is parsed by column in _event_columns.  A chunk with a line
    off that layout or an event out of range goes to _event_records instead.
    The chunk that passes MAX_VERTEX_PAIRS events is refused at the line of the
    first event over it, before the columns are joined.
    """
    cols = [[np.zeros(0, dtype)] for dtype in _EVENT_DTYPES]
    lineno, count = 3, 0
    while text := fh.read(_CHUNK_CHARS):
        if not text.endswith("\n"):
            text += fh.readline()
        bulk = _EVENT_BLOCK.fullmatch(text) is not None
        if bulk:
            times, ei, ej, values = _event_columns(text.encode())
            bulk = np.all((ei < ej) & (ej <= n) & (times > 0.0) & (times <= horizon))
        # lines end at "\n" only: str.splitlines also ends them at \x0b, \x0c, \x1c-\x1e
        lines = None if bulk else io.StringIO(text).readlines()
        events = ((times, ei, ej, values) if bulk
                  else _event_records(file, lines, lineno, n, horizon))
        if (count := count + events[0].size) > MAX_VERTEX_PAIRS:  # blank lines hold none
            lines = lines or io.StringIO(text).readlines()
            ev_lines = [k for k, line in enumerate(lines, start=lineno) if line.strip()]
            raise DataError(f"{file}: line {ev_lines[MAX_VERTEX_PAIRS - count]}: more than "
                            f"{MAX_VERTEX_PAIRS} events, the limit of a path")
        for col, arr in zip(cols, events):
            col.append(arr)
        lineno += text.count("\n")
    return tuple(np.concatenate(col) for col in cols)


def _event_columns(text: bytes):
    """(times, i, j, values) of lines that all match _EVENT_LINE.

    Such a line has four commas, after i, j, t and "ev", and each field starts
    a fixed distance after the comma before it.  All i fields, then all j and
    all t fields, each with its comma, are gathered into one text: its integer
    part and its float part take one np.fromstring each.  v is read directly.
    """
    b = np.frombuffer(text, np.uint8)
    comma = np.flatnonzero(b == ord(",")).reshape(-1, 4)
    lines = len(comma)
    line_start = np.concatenate(([0], comma[:-1, 3] + len(', "v": 0}\n')))
    starts = np.concatenate((line_start + len('{"i": '), comma[:, :2].T.ravel() + len(', "j": ')))
    lengths = comma[:, :3].T.ravel() + 1 - starts
    offsets = np.cumsum(lengths)
    fields = b[np.repeat(starts + lengths - offsets, lengths) + np.arange(offsets[-1])].tobytes()
    cut = int(offsets[2 * lines - 1])
    ij = np.fromstring(fields[:cut], dtype=np.int32, sep=",")
    times = np.fromstring(fields[cut:], sep=",")
    values = (b[comma[:, 3] + len(', "v": ')] - ord("0")).astype(np.int8)
    return times, ij[:lines], ij[lines:], values


def _event_records(file, lines: list[str], first_lineno: int, n: int, horizon: float):
    """(times, i, j, values) of lines, numbered from first_lineno; one json.loads each."""
    times, eis, ejs, vals = [], [], [], []
    for lineno, line in enumerate(lines, start=first_lineno):
        if not line.strip():
            continue
        rec = _parse_record(file, lineno, line, "ev")
        try:
            t, i, j, v = rec["t"], rec["i"], rec["j"], rec["v"]
        except KeyError as exc:
            raise DataError(f"{file}: line {lineno}: bad event record: {exc}") from None
        # JSON integers only: int() would truncate 1.9 to 1 and read true as 1
        if not all(type(x) is int for x in (i, j, v)):
            raise DataError(f"{file}: line {lineno}: event fields i, j and v must be integers")
        if type(t) not in (int, float):
            raise DataError(f"{file}: line {lineno}: event time must be a number")
        try:
            t = float(t)
        except OverflowError as exc:
            raise DataError(f"{file}: line {lineno}: bad event record: {exc}") from None
        if not (1 <= i < j <= n):
            raise DataError(f"{file}: line {lineno}: need 1 <= i < j <= {n}")
        if v not in (0, 1):
            raise DataError(f"{file}: line {lineno}: event value must be 0 or 1")
        if not (0.0 < t <= horizon):
            raise DataError(f"{file}: line {lineno}: time outside (0, {horizon}]")
        times.append(t)
        eis.append(i)
        ejs.append(j)
        vals.append(v)
    return tuple(np.asarray(c, d) for c, d in zip((times, eis, ejs, vals), _EVENT_DTYPES))


# ---------------------------------------------------------------------------
# exchangeability diagnostics

@dataclass(frozen=True)
class ExchangeabilityReport:
    seed_count: int
    ks_statistic: float
    p_value: float


def exchangeability_check(
    model: str,
    params: dict,
    n: int,
    seed_count: int,
    seed=0,
    window: int = 8,
    horizon: float = 1.0,
) -> ExchangeabilityReport:
    """Two-sample KS test of the windowed jump count against relabeled paths.

    The statistic is the number of events on pairs inside the first `window`
    vertices: a full-graph statistic is invariant under any relabeling, so
    only a windowed one can distinguish a relabeled path.  Under a
    relabeling sigma vertex v sits at position sigma^{-1}(v), so an event
    lies in the relabeled window iff both endpoints' positions do.  The
    count needs only each pair's event count, so edge-flip samples stop the
    simulator's draw stage at its Poisson counts and draw no times.  For exchangeable
    generators both samples share one distribution and the p-value is
    approximately uniform; a planted per-edge asymmetry shifts the relabeled
    sample and drives the p-value to zero.
    """
    if seed_count < 20:
        raise Refused("seed_count below 20 is underpowered; refusing to test")
    if not (1 <= window <= n):
        raise ValueError("window out of range")
    args = _generator_args(model, n, params)

    def pair_counts(sample_seed) -> np.ndarray:
        """Events per pair id in one sample."""
        if model == "graphon-jump":
            return jump_counts(simulate_graphon_jump(n, seed=sample_seed, horizon=horizon,
                                                     **args)).counts
        return _draw_edge_flip(n, horizon=horizon, seed=sample_seed, times=False, **args).counts

    ii, jj = pair_endpoints(n)

    def windowed_count(counts: np.ndarray, position: np.ndarray) -> int:
        """Events on pairs with both endpoints at 0-based positions below `window`."""
        inside = np.maximum(position[ii], position[jj]) < window
        return int(counts[inside].sum())

    base = seed_list(seed)
    identity = np.arange(n)
    plain = np.empty(seed_count)
    for r in range(seed_count):
        plain[r] = windowed_count(pair_counts(base + [0, r]), identity)

    relabeled = np.empty(seed_count)
    for r in range(seed_count):
        counts = pair_counts(base + [1, r])
        sigma = np.random.default_rng(base + [2, r]).permutation(n)
        relabeled[r] = windowed_count(counts, np.argsort(sigma))

    from scipy import stats  # imported here: it costs most of a cold `import graphvar`

    ks = stats.ks_2samp(plain, relabeled, method="asymp")
    return ExchangeabilityReport(
        seed_count=seed_count,
        ks_statistic=float(ks.statistic),
        p_value=float(ks.pvalue),
    )
