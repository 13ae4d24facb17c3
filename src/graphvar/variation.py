"""Threshold-crossing ladders and permutation-averaged power variation.

For a path and a density threshold p, the ladder records the successive
times at which the edit density since the previous anchor first reaches p.
Everything downstream — crossing-count profiles, the per-edge jump lower
bound, the halving diagnostic, and the alpha-power variation sums — is a
function of the ladder's segments, which are replayed from the path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .graphs import AdjacencyGraph, _pack, density_quantum, num_pairs, seed_list
from .metrics import partial_zeta, prefix_distances, relabeling_mean, relabelings
from .process import EventLogPath, apply_events, jump_counts


@dataclass(frozen=True)
class StoppingLadder:
    """Crossing times and rung ends for one density threshold p.

    taus[0] = 0 and taus[k] is the k-th crossing time; the count n_p is
    len(taus), i.e. one more than the number of crossings inside the horizon,
    and the (unobserved) next crossing is treated as infinite.  ends[k] is one
    past the event at taus[k + 1]; densities are the segments' edit densities,
    the capped tail's last.  Graphs are replayed from `path` on demand.
    """

    p: float
    taus: tuple[float, ...]
    ends: tuple[int, ...]
    densities: tuple[float, ...]
    type_a: tuple[bool, ...]
    path: EventLogPath = field(repr=False, compare=False)

    @property
    def n_p(self) -> int:
        return len(self.taus)

    @property
    def product(self) -> float:
        return self.p * self.n_p

    @property
    def type_a_count(self) -> int:
        return sum(self.type_a)

    def _replay(self) -> Iterator[tuple[np.ndarray, int, int]]:
        """(state, lo, hi) per segment, the tail last: state is the pair vector
        just before event lo, and advances past event hi - 1 on resuming."""
        state = self.path.initial.to_pair_vector().view(np.uint8)
        for lo, hi in zip((0,) + self.ends, self.ends + (self.path.event_count,)):
            yield state, lo, hi
            apply_events(self.path, state, lo, hi)

    def snapshots(self) -> Iterator[AdjacencyGraph]:
        """The path at 0, at each crossing, and at the horizon."""
        for state, _, _ in self._replay():
            yield AdjacencyGraph(self.path.n, _pack(state))
        yield AdjacencyGraph(self.path.n, _pack(state))

    def segment_pairs(self) -> Iterator[np.ndarray]:
        """Per segment, the pair ids on which its end differs from its start."""
        next_same = self.path.event_index.next_same
        for state, lo, hi in self._replay():
            last = next_same[lo:hi] >= hi
            touched = self.path.pair_ids[lo:hi][last]
            yield touched[self.path.values[lo:hi][last] != state[touched]]

    @property
    def anchors(self) -> tuple[AdjacencyGraph, ...]:
        """The graphs at 0 and at each crossing; perfbench's ingest gate reads it."""
        return tuple(self.snapshots())[:-1]

    def segments(self) -> list[tuple[AdjacencyGraph, AdjacencyGraph]]:
        """(start, end) graphs per segment from one replay; perfbench's tracer reads it."""
        graphs = list(self.snapshots())
        return list(zip(graphs, graphs[1:]))


def stopping_ladder(path: EventLogPath, p: float) -> StoppingLadder:
    """Scan the event log once, anchoring whenever the edit density reaches p.

    Simultaneous events are applied as one batch before the density is
    checked, so a rung can overshoot p; the rung is tagged type-A when the
    batch itself was large enough (>= p * C(n,2) events) to cross alone.
    Thresholds below the density quantum 2/(n(n-1)) cannot be resolved and
    are rejected.

    The scan is vectorized one segment at a time over the path's shared
    EventIndex: event k moves the disagreement count with the anchor by +1
    when the pair's state just before it equals the anchor's, else by -1,
    and the first batch end whose running count reaches p * C(n,2) is the
    next crossing.
    """
    if not (0.0 < p < 1.0):
        raise ValueError("threshold p must lie strictly between 0 and 1")
    n = path.n
    quantum = density_quantum(n)
    if p < quantum:
        raise ValueError(
            f"threshold p={p} is below the density quantum {quantum:.3g} "
            f"at n={n}; crossings are not resolvable"
        )
    npairs = num_pairs(n)
    cross_at = p * npairs  # disagreement count scale: J = diff / C(n,2)
    # a segment needs at least cross_at events; most need less than twice that
    first_chunk = 2 * math.ceil(cross_at) + 32

    idx = path.event_index
    pids = path.pair_ids
    e = path.event_count
    anchor = path.initial.to_pair_vector().view(np.uint8)

    taus = [0.0]
    ends: list[int] = []
    densities: list[float] = []
    type_a: list[bool] = []

    pos = 0  # first event of the current segment
    while True:
        lo, chunk, diff, k = pos, first_chunk, 0, None
        while lo < e:
            hi = min(e, lo + chunk)
            step = np.where(idx.before[lo:hi] == anchor[pids[lo:hi]], 1, -1)
            running = np.cumsum(step) + diff
            crossed = idx.batch_end[lo:hi] & (running >= cross_at)
            j = int(crossed.argmax())
            if crossed[j]:
                k, diff = lo + j, int(running[j])
                break
            diff = int(running[-1])
            lo, chunk = hi, 2 * chunk
        end = e if k is None else k + 1
        apply_events(path, anchor, pos, end)
        densities.append(diff / npairs)
        if k is None:
            break
        taus.append(float(path.times[k]))
        ends.append(end)
        type_a.append(bool(end - idx.batch_start[k] >= cross_at))
        pos = end

    return StoppingLadder(p, tuple(taus), tuple(ends), tuple(densities), tuple(type_a), path)


@dataclass(frozen=True)
class LadderProfile:
    """Ladders across a threshold grid, sub-quantum entries skipped."""

    n: int
    ladders: tuple[StoppingLadder, ...]
    skipped: tuple[float, ...]

    @property
    def rows(self) -> tuple[StoppingLadder, ...]:
        """The ladders; perfbench's digest reads their .p .n_p .product .type_a_count."""
        return self.ladders

    @property
    def sup_product(self) -> float:
        return max((lad.product for lad in self.ladders), default=0.0)


def np_profile(path: EventLogPath, ps: Sequence[float]) -> LadderProfile:
    """Ladder per grid value; p below the density quantum is recorded as skipped."""
    if not ps:
        raise ValueError("threshold grid must be nonempty")
    quantum = density_quantum(path.n)
    ladders = tuple(stopping_ladder(path, p) for p in ps if p >= quantum)
    return LadderProfile(path.n, ladders, tuple(p for p in ps if p < quantum))


@dataclass(frozen=True)
class JumpBoundReport:
    """Observed max per-edge jump count against the ladder lower bound."""

    max_jumps: int
    sup_product: float
    lower_bound: float
    quantum: float
    margin: float
    ok: bool


def jump_bound_check(path: EventLogPath, ps: Sequence[float]) -> JumpBoundReport:
    """Check max_e j(e) >= sup_grid p * n_p - 1, up to one density quantum."""
    profile = np_profile(path, ps)
    max_jumps = jump_counts(path).max_jumps
    sup = profile.sup_product
    quantum = density_quantum(path.n)
    margin = max_jumps - (sup - 1.0)
    return JumpBoundReport(
        max_jumps=max_jumps,
        sup_product=sup,
        lower_bound=sup - 1.0,
        quantum=quantum,
        margin=margin,
        ok=margin >= -quantum,
    )


@dataclass(frozen=True)
class DyadicDiagnostic:
    """a_k = p_k (n_{p_k} - 1) along the halving grid p_k = p0 / 2^k.

    Exactly increasing in the limit; at one fixed path each halving may lose
    at most one threshold's worth, so a_{k+1} >= a_k - p_{k+1} always, and
    raw decreases should be rare.
    """

    ps: tuple[float, ...]
    a_values: tuple[float, ...]
    slack_ok: tuple[bool, ...]
    raw_increase: tuple[bool, ...]

    @property
    def slack_violations(self) -> int:
        return sum(not v for v in self.slack_ok)

    @property
    def raw_violations(self) -> int:
        return sum(not v for v in self.raw_increase)


def dyadic_diagnostic(path: EventLogPath, p0: float, k_max: int) -> DyadicDiagnostic:
    """Halving diagnostic; refuses grids that descend below the density quantum."""
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    ps = tuple(p0 * 0.5**k for k in range(k_max + 1))
    quantum = density_quantum(path.n)
    if ps[-1] < quantum:
        raise ValueError(
            f"halving grid reaches p={ps[-1]:.3g} below the density quantum "
            f"{quantum:.3g} at n={path.n}; reduce k_max"
        )
    a = [p * (lad.n_p - 1) for p, lad in zip(ps, np_profile(path, ps).ladders)]
    slack_ok = tuple(a[k + 1] >= a[k] - ps[k + 1] for k in range(k_max))
    raw = tuple(a[k + 1] >= a[k] for k in range(k_max))
    return DyadicDiagnostic(ps, tuple(a), slack_ok, raw)


# ---------------------------------------------------------------------------
# permutation-averaged power variation

def _relabeled_segments(
    lad: StoppingLadder, n: int, windows: Sequence[int], k_perm: int, seed
) -> tuple[dict[int, np.ndarray], bool]:
    """window -> (segments, relabelings) prefix distances of the ladder's
    segments, with one batch of relabelings per threshold."""
    perms, exact = relabelings(n, k_perm, seed_list(seed) + [_seed_token(lad.p)])
    return prefix_distances(list(lad.segment_pairs()), n, windows, perms), exact


@dataclass(frozen=True)
class VariationCell:
    p: float
    window: int
    alpha: float
    value: float
    stderr: float
    n_p: int
    exact: bool


@dataclass(frozen=True)
class VariationGrid:
    """Permutation-averaged alpha-power variation across (p, window, alpha)."""

    n: int
    alphas: tuple[float, ...]
    k_perm: int
    cells: tuple[VariationCell, ...]

    def cell(self, p: float, window: int, alpha: float) -> VariationCell:
        for c in self.cells:
            if c.p == p and c.window == window and c.alpha == alpha:
                return c
        raise KeyError(f"no cell for (p={p}, window={window}, alpha={alpha})")


def default_windows(n: int) -> tuple[int, ...]:
    """Quarter, half, and full truncation, clipped to at least 2 vertices."""
    return tuple(sorted({max(2, n // 4), max(2, n // 2), n}))


def variation_grid(
    profile: LadderProfile,
    windows: Sequence[int] | None = None,
    alphas: Sequence[float] = (2.5, 3.0),
    k_perm: int = 200,
    seed=0,
) -> VariationGrid:
    """Sum of prefix distances to the alpha over ladder segments, averaged over
    vertex relabelings, for every (profile ladder, window, alpha) grid cell.

    The sum runs over the crossing segments plus the capped final segment.
    One shared batch of relabelings per threshold serves all windows and
    alphas, so cells within a threshold are statistically coupled but
    consistent.  Relabelings are exhaustive for small vertex counts.
    """
    n = profile.n
    if windows is None:
        windows = default_windows(n)
    windows = tuple(windows)
    if not windows or list(windows) != sorted(set(windows)):
        raise ValueError("windows must be nonempty and strictly increasing")
    if windows[0] < 2 or windows[-1] > n:
        raise ValueError("windows must lie in [2, n]")
    alphas = tuple(alphas)
    if not alphas or any(a <= 0 for a in alphas):
        raise ValueError("alpha values must be positive")

    cells: list[VariationCell] = []
    for lad in profile.ladders:
        dists, exact = _relabeled_segments(lad, n, windows, k_perm, seed)
        for m in windows:
            for a in alphas:
                value, stderr = relabeling_mean((dists[m] ** a).sum(axis=0), exact)
                cells.append(
                    VariationCell(lad.p, m, a, value, stderr, lad.n_p, exact)
                )
    return VariationGrid(
        n=n,
        alphas=alphas,
        k_perm=k_perm,
        cells=tuple(cells),
    )


def _seed_token(p: float) -> int:
    """Stable nonnegative integer derived from a float grid value."""
    return int.from_bytes(np.float64(p).tobytes(), "little")


# ---------------------------------------------------------------------------
# the variation upper bound

@dataclass(frozen=True)
class StepBound:
    p: float
    alpha: float
    lhs: float
    stderr: float
    rhs: float
    ok: bool


@dataclass(frozen=True)
class VariationBound:
    p: float
    alpha: float
    lhs: float
    stderr: float
    constant: float
    sup_product: float
    rhs: float
    ok: bool
    steps: tuple[StepBound, ...]

    @property
    def steps_ok(self) -> bool:
        return all(s.ok for s in self.steps)


@dataclass(frozen=True)
class VariationBoundReport:
    rows: tuple[VariationBound, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok and r.steps_ok for r in self.rows)


def variation_bound_check(
    path: EventLogPath,
    ps: Sequence[float],
    alphas: Sequence[float] = (2.5, 3.0),
    k_perm: int = 200,
    seed=0,
    grid_for_sup: Sequence[float] | None = None,
) -> VariationBoundReport:
    """Permutation-averaged variation against its closed-form ceiling.

    Per segment: the relabeling average of the full-window prefix distance to
    the alpha is at most the segment's edit density times
    C_n(alpha) = sum_{m=1..n} m^(1-alpha); requires alpha > 2 so the constant
    stays bounded in n.  Aggregate: the variation sum is at most
    C_n(alpha) * sup over the threshold grid of p * n_p.  Monte Carlo rows
    get a 3-standard-error allowance.
    """
    alphas = tuple(alphas)
    if any(a <= 2.0 for a in alphas):
        raise ValueError("the variation bound needs alpha > 2")
    n = path.n
    sup_profile = np_profile(path, list(grid_for_sup) if grid_for_sup else list(ps))
    sup = sup_profile.sup_product
    scanned = {lad.p: lad for lad in sup_profile.ladders}

    rows: list[VariationBound] = []
    for p in ps:
        lad = scanned[p] if p in scanned else stopping_ladder(path, p)
        dists, exact = _relabeled_segments(lad, n, [n], k_perm, seed)
        for a in alphas:
            const = partial_zeta(a, n)
            powed = dists[n] ** a  # (segments, relabelings)
            steps = []
            for s in range(powed.shape[0]):
                lhs, se = relabeling_mean(powed[s], exact)
                rhs = lad.densities[s] * const
                steps.append(
                    StepBound(p, a, lhs, se, rhs, lhs <= rhs + 3 * se)
                )
            lhs, se = relabeling_mean(powed.sum(axis=0), exact)
            rhs = const * sup
            rows.append(
                VariationBound(
                    p=p,
                    alpha=a,
                    lhs=lhs,
                    stderr=se,
                    constant=const,
                    sup_product=sup,
                    rhs=rhs,
                    ok=lhs <= rhs + 3 * se,
                    steps=tuple(steps),
                )
            )
    return VariationBoundReport(rows=tuple(rows))
