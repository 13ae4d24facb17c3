"""Labeled pattern densities, weighted limit distance, and its variation bound.

The density t(F; G) of a k-vertex pattern F in a host graph G is the
fraction of injective k-tuples of host vertices whose induced labeled graph
equals F exactly, edges and non-edges alike.  Stacking every pattern up to
a cutoff gives a density vector; a weighted l1 distance between density
vectors is the metric whose movement along a threshold ladder is bounded
here.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from typing import TYPE_CHECKING, Callable

import numpy as np

from .graphs import (
    MAX_VERTEX_PAIRS,
    AdjacencyGraph,
    DataError,
    Refused,
    num_pairs,
    pair_endpoints,
    pair_index,
    seed_list,
    sym_diff_count,
)

if TYPE_CHECKING:
    from .variation import StoppingLadder

DEFAULT_EXACT_BUDGET = 10**7
LEVEL_HARD_CAP = 6  # 2^C(7,2) pattern slots would be 2 million
PROBE_MAX = 12  # bound-series terms weight_admissibility's ratio test reads


# ---------------------------------------------------------------------------
# exact and Monte Carlo level counts

def _require_level(k: int, m: int) -> None:
    if k < 1:
        raise ValueError("pattern level must be at least 1")
    if k > m:
        raise ValueError(f"pattern level {k} exceeds host vertex count {m}")
    if k > LEVEL_HARD_CAP:
        raise ValueError(
            f"pattern level {k} has 2^{num_pairs(k)} pattern slots; "
            f"levels above {LEVEL_HARD_CAP} are not supported"
        )


def _exact_cost(m: int, k: int) -> int:
    """Work of the exact count at level k on m vertices, in its kernel's units: none at
    levels 1-2 (m and the edge count), 64-bit words of packed-row ANDs for level 3's
    triangles and for level 4 (every pair's codegree, then at most m - 2 common
    neighbours per edge for K4), injective tuples m^(k falling) for the walker below."""
    if k > 4:
        return math.perm(m, k)
    words = num_pairs(m) * -(-m // 64)
    return 0 if k < 3 else words if k == 3 else words * (m - 1)


def _exact_counts(host: AdjacencyGraph, k: int, budget: int) -> tuple[np.ndarray, int]:
    """Counts of injective ordered k-tuples per pattern bitmask, plus m^(k falling)."""
    m = host.n
    _require_level(k, m)
    if (cost := _exact_cost(m, k)) > budget:
        raise Refused(
            f"exact count needs {cost} {'word ANDs' if k <= 4 else 'tuples'} "
            f"at level {k} on {m} vertices, over the budget of {budget}; "
            'use --mode mc (mode="mc") instead'
        )
    counts = (_closed_form_counts(host, k) if k <= 3 else _level4_counts(host) if k == 4
              else _exact_level_counts(host, k))
    return counts, math.perm(m, k)


_GATHER_BYTES = 1 << 21  # bytes of one gathered word block: _GATHER_BYTES // 8 edges


def _degrees_and_triangles(host: AdjacencyGraph) -> tuple[np.ndarray, int]:
    """Vertex degrees and the triangle count, each triangle k < i < j once, at edge
    (i, j) (Schank & Wagner, WEA 2005): row v packs the neighbours k < v into uint64
    words, stored one word column at a time.  Column c holds the k >= 64c, so only
    the edges with i >= 64c, in pair order a suffix of the edge list, AND its words
    (a 1-D gather), a block of _GATHER_BYTES // 8 edges at a time."""
    m, w = host.n, -(-host.n // 64) * 64
    k = np.flatnonzero(host.to_pair_vector())
    ii, jj = pair_endpoints(m)
    i, j = ii[k], jj[k]
    adj = np.zeros((m, w), dtype=bool)
    adj.reshape(-1)[j * w + i] = True
    cols = np.packbits(adj, axis=1, bitorder="little").view(np.uint64).T.copy()
    step, total = max(1, _GATHER_BYTES // 8), 0
    for col, start in zip(cols, np.searchsorted(i, np.arange(0, w, 64)).tolist()):
        for e0 in range(start, i.size, step):
            x = col[i[e0 : e0 + step]]
            x &= col[j[e0 : e0 + step]]
            total += int(np.bitwise_count(x).sum())
    return np.bincount(i, minlength=m) + np.bincount(j, minlength=m), total


def _closed_form_counts(host: AdjacencyGraph, k: int) -> np.ndarray:
    """Exact counts at levels 1-3.  A labeled 3-pattern's count depends only on its
    edge count: a host triple with 0, 1, 2 or 3 edges has 6 orderings, spread over
    1, 3, 3 or 1 labeled patterns."""
    m, e = host.n, host.edge_count
    if k < 3:
        return np.array([m] if k == 1 else [m * (m - 1) - 2 * e, 2 * e], dtype=np.int64)
    deg, t = _degrees_and_triangles(host)
    n2 = int((deg * (deg - 1) // 2).sum()) - 3 * t  # triples holding exactly two edges
    n1 = e * (m - 2) - 2 * n2 - 3 * t  # ... and exactly one
    n0 = math.comb(m, 3) - n1 - n2 - t
    by_edges = np.array([6 * n0, 2 * n1, 2 * n2, 6 * t], dtype=np.int64)
    return by_edges[[0, 1, 1, 2, 1, 2, 2, 3]]  # edges in each 3-bit pattern


@cache
def _level4_classes() -> tuple[np.ndarray, np.ndarray]:
    """Class (0-10) and automorphism count of each 4-vertex pattern bitmask.  The
    sorted degree sequence tells the eleven 4-vertex graphs apart; classes are in
    its lexicographic order, high degrees first: empty, K2, 2K2, P3, P4, K3, C4,
    K1,3, paw, diamond, K4.  A class of s labeled patterns has 24 / s automorphisms."""
    bits = np.arange(64)[:, None] >> np.arange(6) & 1
    ends = np.array(list(itertools.combinations(range(4), 2)))  # pair_index order
    deg = np.stack([bits[:, (ends == v).any(axis=1)].sum(axis=1) for v in range(4)])
    keys = np.sort(deg, axis=0)[::-1].T @ np.array([64, 16, 4, 1])
    cls = np.unique(keys, return_inverse=True)[1].reshape(64)
    aut = 24 // np.bincount(cls)[cls]
    cls.flags.writeable = aut.flags.writeable = False  # one copy serves every call
    return cls, aut


def _level4_counts(host: AdjacencyGraph) -> np.ndarray:
    """Exact counts at level 4 (Hocevar & Demsar, Bioinformatics 30(4), 2014).

    Row v packs all of v's neighbours into uint64 words.  Degrees d, the
    codegree c of every pair (the popcount of its two rows' AND), the triangles
    t = c of each edge, and K4 give the non-induced copies of each 4-vertex
    graph; K4 sums, over each triangle at its lowest edge, the common neighbours
    of its three rows, so every K4 counts four times.  A labeled pattern gets
    its class's copies times its automorphisms, and inclusion-exclusion over
    its non-edges (the 64-slot superset Moebius transform) makes that count
    induced.  Pairs are ANDed in blocks whose gathers stay within _GATHER_BYTES.
    """
    m, w = host.n, -(-host.n // 64)
    on = host.to_pair_vector()
    ii, jj = pair_endpoints(m)
    adj = np.zeros((m, 64 * w), dtype=bool)
    adj[ii[on], jj[on]] = adj[jj[on], ii[on]] = True
    rows = np.packbits(adj, axis=1, bitorder="little").view(np.uint64)
    codeg = np.empty(ii.size, dtype=np.int64)
    step, k4 = max(1, _GATHER_BYTES // (8 * w * m)), 0
    for p0 in range(0, ii.size, step):
        x = rows[ii[p0 : p0 + step]] & rows[jj[p0 : p0 + step]]
        edge = on[p0 : p0 + step]
        common = x[edge]
        bits = np.unpackbits(common.view(np.uint8), axis=1, bitorder="little").view(bool)
        k, apex = np.divmod(np.flatnonzero(bits), 64 * w)  # apex closes a triangle on edge k
        top = apex > jj[p0 : p0 + step][edge][k]  # ... and k is its lowest edge
        y = common[k[top]]
        y &= rows[apex[top]]
        k4 += int(np.bitwise_count(y).sum())
        codeg[p0 : p0 + step] = np.bitwise_count(x).sum(axis=1)
    deg, e, t = adj.sum(axis=1, dtype=np.int64), int(on.sum()), codeg[on]
    du, dv = deg[ii[on]], deg[jj[on]]
    d2, tri = int((deg * (deg - 1) // 2).sum()), int(t.sum()) // 3
    copies = np.array([  # non-induced copies of each class, in _level4_classes' order
        math.comb(m, 4), e * math.comb(m - 2, 2), math.comb(e, 2) - d2,  # empty, K2, 2K2
        d2 * (m - 3), int(((du - 1) * (dv - 1)).sum()) - 3 * tri,  # P3, P4 at its middle edge
        tri * (m - 3), int((codeg * (codeg - 1) // 2).sum()) // 2,  # K3, C4 at its diagonals
        int((deg * (deg - 1) * (deg - 2) // 6).sum()),  # K1,3
        int((t * (du + dv - 4)).sum()) // 2,  # paw: sum over v of t_v (d_v - 2)
        int((t * (t - 1) // 2).sum()), k4 // 4,  # diamond at its middle edge, K4
    ], dtype=np.int64)
    cls, aut = _level4_classes()
    counts = copies[cls] * aut
    for b in range(6):  # subtract the patterns with pair b added, for each pair b in turn
        half = counts.reshape(-1, 2, 1 << b)
        half[:, 0] -= half[:, 1]
    return counts


def _exact_level_counts(host: AdjacencyGraph, k: int) -> np.ndarray:
    """Tuple-walker counts per pattern bitmask at levels 5-6 (any level >= 2), and
    the test oracle of the level-4 kernel.

    Exhaustive: the outer loop walks ordered (k-2)-prefixes and the two tail
    coordinates are vectorized as an m x m grid.
    """
    m = host.n
    a = host.to_matrix().astype(np.int64)
    n_slots = 1 << num_pairs(k)
    counts = np.zeros(n_slots, dtype=np.int64)
    last_bit = 1 << pair_index(k - 1, k, k)
    tail = a * last_bit  # codes[v, w] contribution of the pair of tail coordinates

    base_pairs = [
        (x, y, 1 << pair_index(x + 1, y + 1, k))
        for x in range(k - 2)
        for y in range(x + 1, k - 2)
    ]
    for prefix in itertools.permutations(range(m), k - 2):
        base = 0
        for x, y, bit in base_pairs:
            if a[prefix[x], prefix[y]]:
                base |= bit
        code3 = np.zeros(m, dtype=np.int64)
        code4 = np.zeros(m, dtype=np.int64)
        for x in range(k - 2):
            code3 += a[prefix[x]] << pair_index(x + 1, k - 1, k)
            code4 += a[prefix[x]] << pair_index(x + 1, k, k)
        codes = base + code3[:, None] + code4[None, :] + tail
        valid = ~np.eye(m, dtype=bool)
        for v in prefix:
            valid[v, :] = False
            valid[:, v] = False
        counts += np.bincount(codes[valid], minlength=n_slots)
    return counts


def _mc_codes(adj: np.ndarray, k: int, n_samples: int, seed) -> np.ndarray:
    """Pattern bitmask of n_samples uniform injective ordered k-tuples.

    adj is the host's dense boolean adjacency matrix.  Ordered k-tuples are
    drawn with replacement in batches; rows that repeat a vertex are rejected
    and the rest kept in draw order.  Every 1-tuple has code 0, so level 1
    draws nothing.  k * n_samples over MAX_VERTEX_PAIRS is refused before
    anything is allocated.
    """
    m = adj.shape[0]
    _require_level(k, m)
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if k * n_samples > MAX_VERTEX_PAIRS:
        raise Refused(f"k_inj={n_samples} samples of {k}-tuples need {k * n_samples} "
                      f"vertices, over the limit of {MAX_VERTEX_PAIRS}")
    codes = np.zeros(n_samples, dtype=np.int64)
    if k == 1:
        return codes
    pairs = list(itertools.combinations(range(k), 2))
    rng = np.random.default_rng(seed)
    rows = np.empty((k, n_samples), dtype=np.int64)  # one row per tuple coordinate
    have = 0
    while have < n_samples:
        want = n_samples - have
        cols = rng.integers(0, m, size=(int(want * 1.4) + 16, k)).T
        distinct = np.logical_and.reduce([cols[x] != cols[y] for x, y in pairs])
        keep = np.flatnonzero(distinct)[:want]
        for x in range(k):
            rows[x, have : have + keep.size] = cols[x, keep]
        have += keep.size
    flat = adj.ravel()
    for x, y in pairs:
        codes |= flat[rows[x] * m + rows[y]].astype(np.int64) << pair_index(x + 1, y + 1, k)
    return codes


def density_exact(
    pattern: AdjacencyGraph,
    host: AdjacencyGraph,
    budget: int = DEFAULT_EXACT_BUDGET,
) -> Fraction:
    """Exact pattern density as a rational number."""
    counts, denom = _exact_counts(host, pattern.n, budget)
    return Fraction(int(counts[pattern.bits]), denom)


# ---------------------------------------------------------------------------
# density vectors

@dataclass(frozen=True)
class DensityLevel:
    """All pattern densities at one level, indexed by pattern bitmask."""

    n: int
    mode: str  # "exact" | "mc"
    t: tuple[float, ...]
    stderr: tuple[float, ...] | None
    counts: tuple[int, ...] | None = None
    denominator: int | None = None

    def __post_init__(self) -> None:
        if not (1 <= self.n <= LEVEL_HARD_CAP):
            raise ValueError(f"level n={self.n} must lie in [1, {LEVEL_HARD_CAP}]")
        if len(self.t) != 1 << num_pairs(self.n):
            raise ValueError("level vector has wrong number of pattern slots")
        if self.mode not in ("exact", "mc"):
            raise ValueError("level mode must be 'exact' or 'mc'")

    def fraction(self, bits: int) -> Fraction:
        if self.counts is None or self.denominator is None:
            raise ValueError("exact rationals only available for exact levels")
        return Fraction(self.counts[bits], self.denominator)


@dataclass(frozen=True)
class DensityVector:
    n_max: int
    levels: tuple[DensityLevel, ...]

    def __post_init__(self) -> None:
        if not (1 <= self.n_max <= LEVEL_HARD_CAP):
            raise ValueError(f"n_max={self.n_max} must lie in [1, {LEVEL_HARD_CAP}]")
        if [lv.n for lv in self.levels] != list(range(1, self.n_max + 1)):
            raise ValueError("levels must cover 1..n_max in order")

    def level(self, n: int) -> DensityLevel:
        if not (1 <= n <= self.n_max):
            raise ValueError(f"no level {n} in vector with n_max={self.n_max}")
        return self.levels[n - 1]

    def to_dict(self) -> dict:
        return {
            "n_max": self.n_max,
            "levels": [
                {
                    "n": lv.n,
                    "mode": lv.mode,
                    "t": list(lv.t),
                    "stderr": None if lv.stderr is None else list(lv.stderr),
                }
                for lv in self.levels
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DensityVector":
        levels = tuple(
            DensityLevel(
                n=int(lv["n"]),
                mode=str(lv["mode"]),
                t=tuple(float(v) for v in lv["t"]),
                stderr=None
                if lv.get("stderr") is None
                else tuple(float(v) for v in lv["stderr"]),
            )
            for lv in d["levels"]
        )
        return cls(int(d["n_max"]), levels)


def save_density_vector(vec: DensityVector, file) -> None:
    with open(file, "w", encoding="ascii") as fh:
        json.dump(vec.to_dict(), fh, sort_keys=True)
        fh.write("\n")


def load_density_vector(file) -> DensityVector:
    with open(file, "r", encoding="ascii") as fh:
        try:
            return DensityVector.from_dict(json.load(fh))
        except (KeyError, OverflowError, RecursionError, TypeError, ValueError) as exc:
            raise DataError(f"{file}: bad density vector: {exc}") from exc


def limit_vector(
    host: AdjacencyGraph,
    n_max: int = 3,
    mode: str = "auto",
    n_samples: int = 100_000,
    budget: int = DEFAULT_EXACT_BUDGET,
    seed=0,
) -> DensityVector:
    """Density vector of all patterns up to n_max.

    mode "exact" insists on exact counts (and raises over budget), "mc"
    always samples, "auto" counts a level exactly when its kernel's cost
    (_exact_cost) fits the budget.
    """
    if not (1 <= n_max <= LEVEL_HARD_CAP):
        raise ValueError(f"n_max must lie in [1, {LEVEL_HARD_CAP}]")
    if mode not in ("exact", "mc", "auto"):
        raise ValueError("mode must be 'exact', 'mc', or 'auto'")
    levels = []
    adj = None  # dense adjacency, built once for all sampled levels
    for k in range(1, n_max + 1):
        if mode == "exact" or (mode == "auto" and _exact_cost(host.n, k) <= budget):
            counts, denom = _exact_counts(host, k, budget)
            levels.append(DensityLevel(n=k, mode="exact", t=tuple((counts / denom).tolist()),
                                       stderr=None, counts=tuple(int(c) for c in counts),
                                       denominator=denom))
            continue
        if adj is None:
            adj = host.to_matrix()
        codes = _mc_codes(adj, k, n_samples, seed_list(seed) + [k])
        freq = np.bincount(codes, minlength=1 << num_pairs(k)) / n_samples
        se = np.sqrt(freq * (1.0 - freq) / n_samples)
        levels.append(DensityLevel(n=k, mode="mc", t=tuple(freq.tolist()),
                                   stderr=tuple(se.tolist())))
    return DensityVector(n_max, tuple(levels))


# ---------------------------------------------------------------------------
# level weights and the limit metric

@dataclass(frozen=True)
class WeightFunction:
    """Positive weight per pattern level, used to mix levels into one metric."""

    name: str
    fn: Callable[[int], float]

    def __call__(self, n: int) -> float:
        v = float(self.fn(n))
        if not (v > 0.0):
            raise ValueError(f"weight family {self.name!r} gives f({n}) = {v}")
        return v


WEIGHT_FAMILIES = {
    "two_pow_neg_n": WeightFunction("two_pow_neg_n", lambda n: 2.0 ** (-n)),
    "two_pow_neg_nsq": WeightFunction("two_pow_neg_nsq", lambda n: 2.0 ** (-(n * n))),
}


def weight_family(name: str) -> WeightFunction:
    try:
        return WEIGHT_FAMILIES[name]
    except KeyError:
        raise ValueError(
            f"unknown weight family {name!r}; expected one of {sorted(WEIGHT_FAMILIES)}"
        ) from None


def limit_metric(a: DensityVector, b: DensityVector, weights: WeightFunction) -> float:
    """Weighted l1 distance: sum_n f(n) sum_F |t_a(F) - t_b(F)|."""
    if a.n_max != b.n_max:
        raise ValueError(f"density vectors disagree on n_max: {a.n_max} vs {b.n_max}")
    total = 0.0
    for la, lb in zip(a.levels, b.levels):
        ta = np.asarray(la.t)
        tb = np.asarray(lb.t)
        total += weights(la.n) * float(np.abs(ta - tb).sum())
    return total


def limit_metric_error_budget(
    a: DensityVector, b: DensityVector, weights: WeightFunction
) -> float:
    """One-sigma worst-case Monte Carlo allowance for limit_metric(a, b)."""
    if a.n_max != b.n_max:
        raise ValueError(f"density vectors disagree on n_max: {a.n_max} vs {b.n_max}")
    total = 0.0
    for la, lb in zip(a.levels, b.levels):
        for lv in (la, lb):
            if lv.stderr is not None:
                total += weights(la.n) * float(np.sum(lv.stderr))
    return total


def bound_constant(weights: WeightFunction, n_max: int) -> float:
    """sum_{n<=n_max} f(n) C(n,2) 2^C(n,2): per-unit-density movement ceiling."""
    return sum(
        weights(n) * num_pairs(n) * (1 << num_pairs(n)) for n in range(1, n_max + 1)
    )


@dataclass(frozen=True)
class WeightReport:
    """Ratio-test classification of the full bound series over all levels."""

    partial_sums: tuple[float, ...]
    ratios: tuple[float, ...]
    classification: str  # "convergent" | "divergent"
    tail_bound: float | None


def weight_admissibility(weights: WeightFunction) -> WeightReport:
    """Classify sum_n f(n) C(n,2) 2^C(n,2) by the terminal term ratio.

    A weight family is usable for the uniform movement bound exactly when
    this series converges; the report carries the partial sums of the first
    PROBE_MAX terms, their adjacent ratios, and a geometric tail estimate
    when convergent.
    """
    levels = range(1, PROBE_MAX + 1)
    terms = tuple(weights(n) * num_pairs(n) * float(2 ** num_pairs(n)) for n in levels)
    sums = tuple(itertools.accumulate(terms))
    ratios = tuple(
        terms[i + 1] / terms[i] for i in range(1, len(terms) - 1)  # skip the zero n=1 term
    )
    r = ratios[-1]
    if r < 1.0 and ratios[-1] <= ratios[-2]:
        classification = "convergent"
        tail = sums[-1] + terms[-1] * r / (1.0 - r)
    else:
        classification = "divergent"
        tail = None
    return WeightReport(
        partial_sums=sums,
        ratios=ratios,
        classification=classification,
        tail_bound=tail,
    )


# ---------------------------------------------------------------------------
# movement along a threshold ladder

@dataclass(frozen=True)
class LipschitzReport:
    lhs: float
    rhs: float
    margin: float
    ok: bool


def lipschitz_check(
    pattern: AdjacencyGraph,
    g: AdjacencyGraph,
    h: AdjacencyGraph,
    budget: int = DEFAULT_EXACT_BUDGET,
) -> LipschitzReport:
    """|t(F;g) - t(F;h)| <= C(k,2) times the edit density of g and h.

    Both sides are exact rationals, so the margin is exact and the check has
    zero tolerance.
    """
    if g.n != h.n:
        raise ValueError(f"host vertex counts differ: {g.n} vs {h.n}")
    jd = Fraction(2 * sym_diff_count(g, h), g.n * (g.n - 1))
    rhs = num_pairs(pattern.n) * jd
    lhs = abs(density_exact(pattern, g, budget) - density_exact(pattern, h, budget))
    margin = rhs - lhs
    return LipschitzReport(
        lhs=float(lhs),
        rhs=float(rhs),
        margin=float(margin),
        ok=margin >= 0,
    )


@dataclass(frozen=True)
class TotalVariationReport:
    """Realized movement of the density vector along one ladder vs its ceiling."""

    p: float
    n_p: int
    mode: str
    tv: float
    bound: float
    margin: float
    ok: bool
    allowance: float
    type_a_count: int
    per_segment: tuple[float, ...]


def total_variation_check(
    ladder: StoppingLadder,
    n_max: int = 3,
    weights: WeightFunction | None = None,
    mode: str = "auto",
    n_samples: int = 100_000,
    budget: int = DEFAULT_EXACT_BUDGET,
    seed=0,
) -> TotalVariationReport:
    """Sum of limit-metric steps along a scanned ladder against p * n_p * S.

    S is bound_constant(weights, n_max).  Segments are the threshold
    crossings plus the capped final stretch to the horizon.  Exact density
    mode makes the comparison zero-tolerance; Monte Carlo levels add a
    three-sigma allowance from the accumulated binomial errors.
    """
    if weights is None:
        weights = WEIGHT_FAMILIES["two_pow_neg_nsq"]
    vectors = [
        limit_vector(g, n_max, mode=mode, n_samples=n_samples, budget=budget,
                     seed=seed_list(seed) + [idx])
        for idx, g in enumerate(ladder.snapshots())
    ]
    pairs = list(zip(vectors, vectors[1:]))
    steps = [limit_metric(prev, cur, weights) for prev, cur in pairs]
    allowance = sum(3.0 * limit_metric_error_budget(prev, cur, weights) for prev, cur in pairs)
    tv = float(sum(steps))
    bound = ladder.p * ladder.n_p * bound_constant(weights, n_max)
    return TotalVariationReport(
        p=ladder.p,
        n_p=ladder.n_p,
        mode=vectors[0].levels[-1].mode if vectors else "exact",
        tv=tv,
        bound=bound,
        margin=bound - tv,
        ok=tv <= bound + allowance,
        allowance=allowance,
        type_a_count=ladder.type_a_count,
        per_segment=tuple(steps),
    )


@dataclass(frozen=True)
class PatternVariationReport:
    """Movement of a single pattern's density along one ladder."""

    pattern_n: int
    p: float
    n_p: int
    tv: float
    bound: float
    ok: bool
    per_segment: tuple[float, ...]


def finite_dim_variation(
    ladder: StoppingLadder,
    pattern: AdjacencyGraph,
    budget: int = DEFAULT_EXACT_BUDGET,
) -> PatternVariationReport:
    """Exact single-pattern density variation along a scanned ladder vs p * n_p * C(k,2)."""
    ts = [density_exact(pattern, g, budget) for g in ladder.snapshots()]
    steps = [abs(b - a) for a, b in zip(ts, ts[1:])]
    tv = float(sum(steps))
    bound = ladder.p * ladder.n_p * num_pairs(pattern.n)
    return PatternVariationReport(
        pattern_n=pattern.n,
        p=ladder.p,
        n_p=ladder.n_p,
        tv=tv,
        bound=bound,
        ok=tv <= bound,
        per_segment=tuple(float(s) for s in steps),
    )
