"""Graph distances: edit density, the prefix (first-disagreement) metric,
the relabeling kernel, and the pair-density statistic with convergence profiles."""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from .graphs import (
    MAX_VERTEX_PAIRS,
    AdjacencyGraph,
    _unpack,
    num_pairs,
    pair_endpoints,
    sym_diff_count,
)

EXACT_PERM_LIMIT = 5040  # enumerate all permutations up to 7! = 5040
RELABEL_BATCH = 512  # relabelings gathered at once
HEAD_POSITIONS = 16  # relabeled positions whose pairs the head block reads


def edit_density(f: AdjacencyGraph, g: AdjacencyGraph) -> float:
    """Fraction of ordered vertex pairs on which f and g disagree."""
    if f.n != g.n:
        raise ValueError(f"vertex counts differ: {f.n} vs {g.n}")
    if f.n < 2:
        raise ValueError("edit density needs at least 2 vertices")
    return 2.0 * sym_diff_count(f, g) / (f.n * (f.n - 1))


def prefix_agreement(f: AdjacencyGraph, g: AdjacencyGraph) -> int:
    """Largest n with f|_n = g|_n; equals the full vertex count for equal graphs."""
    if f.n != g.n:
        raise ValueError(f"vertex counts differ: {f.n} vs {g.n}")
    diff = f.bits ^ g.bits
    if diff == 0:
        return f.n
    _, jj = pair_endpoints(f.n)
    vec = _unpack(diff, num_pairs(f.n))
    # first disagreeing pair blocks every window containing its larger endpoint
    return int(jj[vec].min())


def prefix_metric(f: AdjacencyGraph, g: AdjacencyGraph) -> float:
    """1 / prefix_agreement, with 0 for graphs equal on the whole truncation."""
    if f.bits == g.bits and f.n == g.n:
        return 0.0
    return 1.0 / prefix_agreement(f, g)


def relabelings(n: int, k: int, seed) -> tuple[np.ndarray, bool]:
    """Relabeling rows and whether they are all n! relabelings.

    Row r lists the vertices (0-indexed) by position under the r-th
    relabeling: position t holds vertex rows[r, t].  All relabelings are
    enumerated, in itertools.permutations order, when n! <= EXACT_PERM_LIMIT;
    otherwise k are drawn from default_rng(seed), shuffled in place, and the
    rows equal those of k successive rng.permutation(n) calls; k * n over
    MAX_VERTEX_PAIRS is refused before anything is allocated.
    """
    if math.factorial(n) <= EXACT_PERM_LIMIT:
        return np.array(list(itertools.permutations(range(n))), dtype=np.int64), True
    if k < 2:
        raise ValueError("need at least two Monte Carlo relabelings")
    if k * n > MAX_VERTEX_PAIRS:
        raise ValueError(f"k_perm={k} relabelings of {n} vertices need {k * n} "
                         f"positions, over the limit of {MAX_VERTEX_PAIRS}")
    # int64 (intp): the head cells and the inverse positions built from these
    # rows are gather indices, which numpy would otherwise convert per gather
    rows = np.tile(np.arange(n, dtype=np.int64), (k, 1))
    return np.random.default_rng(seed).permuted(rows, axis=1, out=rows), False


def prefix_distances(
    pairs: Sequence[np.ndarray], n: int, windows: Sequence[int], perms: np.ndarray
) -> dict[int, np.ndarray]:
    """window -> (segments, relabelings) matrix of relabeled prefix distances.

    pairs[s] holds the ids, in any order, of the pairs on which two graphs on
    n vertices disagree, and perms[r] lists the vertices by position under the
    r-th relabeling (see relabelings).  The kernel takes one first-disagreement
    minimum per (segment, relabeling): q, the smallest larger relabeled
    endpoint (0-indexed) among disagreeing pairs, n if there is none.  Window
    m, both graphs projected onto the first m positions, keeps it only when it
    is below m: the distance is 1 / q when q < m, and 0 otherwise.

    A random relabeling meets its first disagreement early, near position
    sqrt(2 / density).  So the head path sets a segment's pairs in a flat
    n x n disagreement matrix and reads, per relabeling, only the L (L - 1) / 2
    cells of the head position pairs u < t, L = min(n, HEAD_POSITIONS), ordered
    by t: q is the t of the first cell set.  The cells' numbers depend only on
    the rows, so they are computed once per call.  Relabelings with no
    disagreement in the head fall back to the exact gather, which reads both
    relabeled endpoints of every disagreeing pair from the inverse positions
    of those rows alone.  The exact path runs that gather for every row, on
    the inverse positions of all rows, argsorted once per call.  A segment
    takes the path with fewer expected reads per row: 2 |pairs| for the exact
    path; L^2 for the head, plus an n log2 n argsort and the 2 |pairs| gather
    for the share of rows whose head holds no disagreement, (1 - density)
    ^ (L (L - 1) / 2).  Both paths give the same integer q.
    """
    q = np.full((len(pairs), perms.shape[0]), n)
    ii, jj = pair_endpoints(n)
    npairs = num_pairs(n)
    head = min(n, HEAD_POSITIONS)
    t_of, u_of = np.tril_indices(head, k=-1)  # head position pairs u < t, by t
    inv = cells = None  # per-row tables, built once when the first segment needs them
    for s, idx in enumerate(pairs):
        if idx.size == 0:
            continue
        a, b = ii[idx], jj[idx]
        # expected reads per row: the head's L^2 cells, then, for the rows
        # whose head pairs miss every disagreement, an argsort and the gather
        p_miss = (1 - idx.size / npairs) ** (head * (head - 1) // 2)
        if head * head + p_miss * (2 * idx.size + n * math.log2(n)) >= 2 * idx.size:
            if inv is None:
                inv = np.argsort(perms, axis=1)
            for lo in range(0, perms.shape[0], RELABEL_BATCH):
                hi = lo + RELABEL_BATCH
                q[s, lo:hi] = _first_disagreement(inv[lo:hi], a, b)
            continue
        if cells is None:
            cells = perms[:, t_of] * n + perms[:, u_of]
        dense = np.zeros(n * n, dtype=bool)
        dense[a * n + b] = dense[b * n + a] = True
        for lo in range(0, perms.shape[0], RELABEL_BATCH):
            hit = dense[cells[lo : lo + RELABEL_BATCH]]
            first = t_of[hit.argmax(axis=1)]
            miss = np.flatnonzero(~hit.any(axis=1))
            if miss.size:
                first[miss] = _first_disagreement(np.argsort(perms[lo + miss], axis=1), a, b)
            q[s, lo : lo + RELABEL_BATCH] = first
    d = 1.0 / np.maximum(q, 1)
    return {m: np.where(q < m, d, 0.0) for m in windows}


def _first_disagreement(inv: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per inverse-position row, the smallest larger relabeled endpoint of the
    pairs (a, b).

    A function of its own so that the (rows, pairs) gather is freed before the
    next batch is gathered.
    """
    mx = inv[:, a]
    np.maximum(mx, inv[:, b], out=mx)
    return mx.min(axis=1)


def relabeling_mean(values: np.ndarray, exact: bool) -> tuple[float, float]:
    """Mean over relabelings and its standard error, 0 when all were enumerated."""
    se = 0.0 if exact else float(np.std(values, ddof=1) / math.sqrt(values.shape[0]))
    return float(values.mean()), se


def perm_prefix_power(
    f: AdjacencyGraph,
    g: AdjacencyGraph,
    alpha: float,
    k: int = 10_000,
    seed=0,
) -> tuple[float, float]:
    """Relabeling average of prefix_metric(f^sigma, g^sigma) ** alpha, with its
    standard error.  Exhaustive for small vertex counts, otherwise Monte Carlo
    with k relabelings."""
    if f.n != g.n:
        raise ValueError(f"vertex counts differ: {f.n} vs {g.n}")
    n = f.n
    diff = f.bits ^ g.bits
    if diff == 0:
        return 0.0, 0.0
    perms, exact = relabelings(n, k, seed)
    d = prefix_distances([np.flatnonzero(_unpack(diff, num_pairs(n)))], n, [n], perms)[n][0]
    return relabeling_mean(d**alpha, exact)


def slln_statistic(x: AdjacencyGraph, levels: Sequence[int]) -> tuple[float, ...]:
    """Edge density 2 E_n / (n (n-1)) of the restriction at each level.

    Counted in one pass: the restriction to vertices 1..n holds the edges
    whose larger endpoint is at most n.
    """
    if len(levels) == 0:
        raise ValueError("levels must be nonempty")
    if list(levels) != sorted(set(levels)):
        raise ValueError("levels must be strictly increasing")
    if levels[-1] > x.n:
        raise ValueError("largest level exceeds vertex count")
    if levels[0] < 2:
        raise ValueError("statistic needs levels >= 2")
    _, jj = pair_endpoints(x.n)
    below = np.bincount(jj[x.to_pair_vector()], minlength=x.n).cumsum()
    return tuple(2.0 * int(below[n - 1]) / (n * (n - 1)) for n in levels)


def prefix_power_series(p: float, alpha: float, n_max: int) -> float:
    """sum_{n=1..n_max} n^-alpha (1-p)^C(n,2) (1 - (1-p)^n).

    Expected value of the prefix metric raised to alpha when two graphs
    disagree independently with probability p per pair; C(1,2) = 0.
    """
    if not (0.0 <= p <= 1.0):
        raise ValueError("p must lie in [0, 1]")
    n = np.arange(1, n_max + 1, dtype=np.float64)
    q = 1.0 - p
    return float(np.sum(n ** (-alpha) * q ** (n * (n - 1) / 2.0) * (1.0 - q**n)))


def partial_zeta(alpha: float, n_max: int) -> float:
    """sum_{n=1..n_max} n^(1-alpha); the single-step variation constant."""
    n = np.arange(1, n_max + 1, dtype=np.float64)
    return float(np.sum(n ** (1.0 - alpha)))
