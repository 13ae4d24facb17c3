"""Generators and queries for right-continuous graph-valued paths on [0, horizon].

A path is an initial graph plus a finite, time-ordered list of single-edge
events; replaying events yields the step function of graphs.  Generators are
deterministic given their seed.  Per-replicate randomness is always derived
as default_rng([seed, stream, replicate]) so results do not depend on
evaluation order.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np
from scipy import stats

from .graphs import (
    AdjacencyGraph,
    DataError,
    InjectiveMap,
    apply_map,
    first_non_ascii_line,
    num_pairs,
    pair_endpoints,
    pair_indices,
    restrict,
    seed_list,
)

# Largest C(n, 2) a path may have (n <= 5,793).  Analysis builds pair-sized
# and n x n arrays per graph state, so simulate and load_path refuse a larger
# vertex count before anything of that size is allocated; n = 1024 has
# 523,776 pairs.
MAX_VERTEX_PAIRS = 1 << 24


def check_vertex_count(n: int) -> None:
    """Refuse a vertex count whose C(n, 2) exceeds MAX_VERTEX_PAIRS."""
    if num_pairs(n) > MAX_VERTEX_PAIRS:
        raise ValueError(
            f"n={n} has {num_pairs(n)} vertex pairs, over the limit of {MAX_VERTEX_PAIRS}"
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
        out = []
        for t0, t1, r in zip(self.breaks, ends, self.rates):
            t1 = min(t1, horizon)
            if t0 >= horizon:
                break
            out.append((t0, t1, r))
        return out


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
    batch, and batch_start[k] is the index of that batch's first event.
    """

    before: np.ndarray
    next_same: np.ndarray
    batch_end: np.ndarray
    batch_start: np.ndarray


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
        # by pair, then event order: the keys are unique, so the fast unstable
        # sort gives the stable order
        order = np.argsort(pids * e + np.arange(e))
        same = pids[order[1:]] == pids[order[:-1]]
        prev, nxt = order[:-1][same], order[1:][same]
        next_same = np.full(e, e, dtype=itype)
        next_same[prev] = nxt
        before = self.initial.to_pair_vector().view(np.uint8)[pids]
        before[nxt] = self.values[prev]
        starts = np.ones(e, dtype=bool)
        starts[1:] = self.times[1:] != self.times[:-1]
        batch_end = np.ones(e, dtype=bool)
        batch_end[:-1] = starts[1:]
        batch_start = np.maximum.accumulate(np.where(starts, np.arange(e, dtype=itype), 0))
        for arr in (before, next_same, batch_end, batch_start):
            arr.setflags(write=False)
        return EventIndex(before, next_same, batch_end, batch_start)

    def events(self) -> Iterator[EdgeEvent]:
        for k in range(self.event_count):
            yield EdgeEvent(
                float(self.times[k]),
                int(self.edge_i[k]),
                int(self.edge_j[k]),
                int(self.values[k]),
            )

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
        bad = tie & (
            (self.edge_i[1:] < self.edge_i[:-1])
            | ((self.edge_i[1:] == self.edge_i[:-1]) & (self.edge_j[1:] <= self.edge_j[:-1]))
        )
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
        a, b = (i, j) if i < j else (j, i)
        return int(self.counts[pair_indices(np.array([a]), np.array([b]), self.n)[0]])

    @property
    def max_jumps(self) -> int:
        return int(self.counts.max()) if self.counts.size else 0

    @property
    def mean_jumps(self) -> float:
        return float(self.counts.mean()) if self.counts.size else 0.0


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
        mult[pair_indices(np.array([a]), np.array([b]), n)[0]] = boost_factor

    all_times = []
    all_pairs = []
    for t0, t1, r in rate.pieces(horizon):
        lam = r * (t1 - t0) * mult
        counts = rng.poisson(lam)
        total = int(counts.sum())
        if total == 0:
            continue
        all_pairs.append(np.repeat(np.arange(npairs), counts))
        all_times.append(rng.uniform(t0, t1, total))
    if all_times:
        times = np.concatenate(all_times)
        pairs = np.concatenate(all_pairs)
    else:
        times = np.zeros(0)
        pairs = np.zeros(0, dtype=np.int64)
    times = np.where(times <= 0.0, np.nextafter(0.0, 1.0), times)

    # alternating values per edge, starting opposite the initial state
    order = np.lexsort((times, pairs))
    sp, st = pairs[order], times[order]
    e = sp.shape[0]
    starts = np.r_[0, np.flatnonzero(np.diff(sp)) + 1] if e else np.zeros(0, dtype=np.int64)
    occ = (
        np.arange(e) - np.repeat(starts, np.diff(np.r_[starts, e]))
        if e
        else np.zeros(0, dtype=np.int64)
    )
    vals_sorted = init_vec.astype(np.int8)[sp] ^ np.int8(1) ^ (occ % 2).astype(np.int8)
    values = np.empty(e, dtype=np.int8)
    values[order] = vals_sorted

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
        "seed": _seed_repr(seed),
    }
    if boost_edge is not None:
        meta["params"]["boost_edge"] = list(sorted(boost_edge))
        meta["params"]["boost_factor"] = boost_factor
    return EventLogPath(
        n=n,
        horizon=horizon,
        initial=AdjacencyGraph.from_pair_vector(n, init_vec),
        times=times[final],
        edge_i=edge_i[final],
        edge_j=edge_j[final],
        values=values[final],
        model_meta=meta,
    )


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

    n_ticks = int(rng.poisson(global_rate * horizon))
    tick_times = np.sort(rng.uniform(0.0, horizon, n_ticks))
    tick_times = np.where(tick_times <= 0.0, np.nextafter(0.0, 1.0), tick_times)

    times_parts, pair_parts, value_parts = [], [], []
    for k, t in enumerate(tick_times, start=1):
        w = graphons[k % len(graphons)]
        new = rng.random(npairs) < w.edge_probabilities(u, ii, jj)
        changed = np.flatnonzero(new != state)
        if changed.size:
            times_parts.append(np.full(changed.size, t))
            pair_parts.append(changed)
            value_parts.append(new[changed].astype(np.int8))
        state = new

    if times_parts:
        times = np.concatenate(times_parts)
        pairs = np.concatenate(pair_parts)
        values = np.concatenate(value_parts)
    else:
        times = np.zeros(0)
        pairs = np.zeros(0, dtype=np.int64)
        values = np.zeros(0, dtype=np.int8)

    meta = {
        "model": "graphon-jump",
        "params": {
            "grids": [g.values.tolist() for g in graphons],
            "global_rate": global_rate,
            "latents": u.tolist(),
        },
        "seed": _seed_repr(seed),
    }
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


MODELS = ("edge-flip", "edge-flip-planted", "graphon-jump")


def simulate(model: str, n: int, horizon: float, seed, params: dict) -> EventLogPath:
    """Dispatch on model name; params mirror the generator keyword arguments.

    A vertex count over the MAX_VERTEX_PAIRS cap is refused before any
    pair-sized array is allocated.
    """
    check_vertex_count(n)
    if model == "edge-flip":
        return simulate_edge_flip(
            n,
            params.get("rate", 1.0),
            init_density=params.get("init_density", 0.5),
            horizon=horizon,
            seed=seed,
        )
    if model == "edge-flip-planted":
        return simulate_edge_flip(
            n,
            params.get("rate", 1.0),
            init_density=params.get("init_density", 0.5),
            horizon=horizon,
            seed=seed,
            boost_edge=tuple(params.get("boost_edge", (1, 2))),
            boost_factor=params.get("boost_factor", 10.0),
        )
    if model == "graphon-jump":
        grids = params.get("grids", [[[0.5]]])
        return simulate_graphon_jump(
            n,
            [StepGraphon(np.asarray(g, dtype=float)) for g in grids],
            params.get("global_rate", 1.0),
            seed=seed,
            horizon=horizon,
        )
    raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")


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


def apply_events(path: EventLogPath, state: np.ndarray, lo: int, hi: int) -> None:
    """Advance `state`, the pair vector just before event lo, past event hi - 1.

    One scatter: each pair touched in [lo, hi) takes the value of its last
    event there, the one whose next same-pair event lies at or past hi.
    """
    last = path.event_index.next_same[lo:hi] >= hi
    state[path.pair_ids[lo:hi][last]] = path.values[lo:hi][last]


def jump_counts(path: EventLogPath) -> JumpCounts:
    """Events per unordered pair."""
    counts = np.bincount(path.pair_ids, minlength=num_pairs(path.n))
    return JumpCounts(path.n, counts)


def relabel_path(path: EventLogPath, perm: Sequence[int]) -> EventLogPath:
    """Apply one vertex relabeling to the whole path.

    perm is 1-indexed with perm[k-1] = sigma(k); the relabeled path has edge
    (k, l) tracking the original edge (sigma(k), sigma(l)).
    """
    sigma = np.asarray(perm, dtype=np.int64)
    if sorted(sigma.tolist()) != list(range(1, path.n + 1)):
        raise ValueError("perm must be a permutation of 1..n")
    inv = np.empty(path.n, dtype=np.int64)
    inv[sigma - 1] = np.arange(1, path.n + 1)
    new_i = inv[path.edge_i - 1]
    new_j = inv[path.edge_j - 1]
    swap = new_i > new_j
    new_i[swap], new_j[swap] = new_j[swap], new_i[swap]
    order = np.lexsort((new_j, new_i, path.times))
    return EventLogPath(
        n=path.n,
        horizon=path.horizon,
        initial=apply_map(path.initial, InjectiveMap(tuple(int(v) for v in sigma))),
        times=path.times[order],
        edge_i=new_i[order].astype(np.int32),
        edge_j=new_j[order].astype(np.int32),
        values=path.values[order],
        model_meta={**path.model_meta, "relabeled": True},
    )


def restrict_path(path: EventLogPath, m: int) -> EventLogPath:
    """Path of the induced subgraph on vertices 1..m."""
    if not (1 <= m <= path.n):
        raise ValueError("window out of range")
    keep = path.edge_j <= m
    return EventLogPath(
        n=m,
        horizon=path.horizon,
        initial=restrict(path.initial, m),
        times=path.times[keep],
        edge_i=path.edge_i[keep],
        edge_j=path.edge_j[keep],
        values=path.values[keep],
        model_meta={**path.model_meta, "window": m},
    )


# ---------------------------------------------------------------------------
# persistence (JSON lines)

# One event line exactly as save_path writes it.  The numbers follow the JSON
# grammar, so the fast loader accepts no number json.loads would reject;
# endpoints of up to nine digits fit int32.
_EVENT_LINE = re.compile(
    r'^\{"i": ([1-9][0-9]{0,8}), "j": ([1-9][0-9]{0,8}), '
    r'"t": (-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?), '
    r'"type": "ev", "v": ([01])\}$',
    re.MULTILINE,
)
_CHUNK_CHARS = 1 << 18  # event text parsed at once; bounds the loader's memory


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
        # repr of a finite float is the text json.dumps writes for it
        fh.writelines(
            f'{{"i": {i}, "j": {j}, "t": {t!r}, "type": "ev", "v": {v}}}\n'
            for t, i, j, v in zip(
                path.times.tolist(),
                path.edge_i.tolist(),
                path.edge_j.tolist(),
                path.values.tolist(),
            )
        )


def load_path(file) -> EventLogPath:
    """Read a JSONL path; malformed records raise with their line number.

    Event lines in save_path's layout are parsed in bounded chunks by one
    regular expression.  If any event line has another layout or is out of
    range, every event line goes through the per-record json parser instead,
    which alone writes the line-numbered errors; so the accepted files and
    the error messages do not depend on the layout.
    """
    try:
        with open(file, "r", encoding="ascii") as fh:
            head = [fh.readline(), fh.readline()]
            if not head[0]:
                raise DataError(f"{file}: empty path file")
            header = _parse_record(file, 1, head[0], "header")
            init = _parse_record(file, 2, head[1], "init")
            try:
                n = int(header["n"])
                try:
                    check_vertex_count(n)
                except ValueError as exc:
                    raise DataError(f"{file}: line 1: {exc}") from None
                horizon = float(header["horizon"])
                if not (math.isfinite(horizon) and horizon > 0.0):
                    raise ValueError(f"horizon must be finite and positive, got {horizon}")
                initial = AdjacencyGraph.from_edges(n, [tuple(e) for e in init["edges"]])
            except DataError:
                raise
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise DataError(f"{file}: line 1-2: bad header/init record: {exc}") from exc
            events = _canonical_events(fh, n, horizon)
            if events is None:
                fh.seek(0)
                events = _event_records(file, fh.readlines(), n, horizon)
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


def _canonical_events(fh, n: int, horizon: float):
    """(times, i, j, values) of the remaining lines of fh, or None on any miss.

    A miss is a line not in save_path's layout (blank lines included) or a
    chunk with an event out of range.
    """
    cols = [[np.zeros(0, dtype)] for dtype in (np.float64, np.int32, np.int32, np.int8)]
    while chunk := fh.readlines(_CHUNK_CHARS):
        rows = _EVENT_LINE.findall("".join(chunk))
        if len(rows) != len(chunk):
            return None
        i, j, t, v = zip(*rows)
        ei = np.array(list(map(int, i)), dtype=np.int32)
        ej = np.array(list(map(int, j)), dtype=np.int32)
        times = np.array(list(map(float, t)), dtype=np.float64)
        if not np.all((ei < ej) & (ej <= n) & (times > 0.0) & (times <= horizon)):
            return None
        values = np.array(list(map(int, v)), dtype=np.int8)
        for col, arr in zip(cols, (times, ei, ej, values)):
            col.append(arr)
    return tuple(np.concatenate(col) for col in cols)


def _event_records(file, lines: list[str], n: int, horizon: float):
    """(times, i, j, values) of lines[2:], one json.loads per line."""
    times, eis, ejs, vals = [], [], [], []
    for lineno in range(3, len(lines) + 1):
        if not lines[lineno - 1].strip():
            continue
        rec = _parse_record(file, lineno, lines[lineno - 1], "ev")
        try:
            t, i, j, v = float(rec["t"]), int(rec["i"]), int(rec["j"]), int(rec["v"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"{file}: line {lineno}: bad event record: {exc}") from exc
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
    return (
        np.asarray(times, dtype=np.float64),
        np.asarray(eis, dtype=np.int32),
        np.asarray(ejs, dtype=np.int32),
        np.asarray(vals, dtype=np.int8),
    )


# ---------------------------------------------------------------------------
# exchangeability diagnostics

@dataclass(frozen=True)
class ExchangeabilityReport:
    model: str
    window: int
    seed_count: int
    ks_statistic: float
    p_value: float

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "window": self.window,
            "seed_count": self.seed_count,
            "ks_statistic": self.ks_statistic,
            "p_value": self.p_value,
        }


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

    The statistic is the number of events of the induced sub-path on the
    first `window` vertices: a full-graph statistic is invariant under any
    relabeling, so only a windowed one can distinguish a relabeled path.
    For exchangeable generators both samples share one distribution and the
    p-value is approximately uniform; a planted per-edge asymmetry shifts
    the relabeled sample and drives the p-value to zero.
    """
    if seed_count < 20:
        raise ValueError("seed_count below 20 is underpowered; refusing to test")
    if not (1 <= window <= n):
        raise ValueError("window out of range")

    base = seed_list(seed)
    plain = np.empty(seed_count)
    for r in range(seed_count):
        path = simulate(model, n, horizon, base + [0, r], params)
        plain[r] = restrict_path(path, window).event_count

    relabeled = np.empty(seed_count)
    for r in range(seed_count):
        path = simulate(model, n, horizon, base + [1, r], params)
        rng = np.random.default_rng(base + [2, r])
        perm = [int(v) + 1 for v in rng.permutation(n)]
        relabeled[r] = restrict_path(relabel_path(path, perm), window).event_count

    ks = stats.ks_2samp(plain, relabeled, method="asymp")
    return ExchangeabilityReport(
        model=model,
        window=window,
        seed_count=seed_count,
        ks_statistic=float(ks.statistic),
        p_value=float(ks.pvalue),
    )
