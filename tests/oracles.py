"""Slow reference implementations that only the tests call.

Graph maps: injective vertex maps and their pullbacks, restriction to the
first n vertices, and projection onto a window.  Single-graph and single-path
queries: a graph from its adjacency matrix, one edge lookup, and a path's
events one at a time.  Single-pair metrics: edit density and the
first-disagreement (prefix) metric, against which the relabeling kernel
metrics.prefix_distances is checked.  Pattern densities: one pattern's Monte
Carlo estimate from the sampler that limit_vector uses.  The two-sample KS
null: the exact tail of the equal-size statistic by counting lattice paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from graphvar.density import _mc_codes
from graphvar.graphs import (
    AdjacencyGraph,
    _pack,
    num_pairs,
    pair_endpoints,
    pair_index,
    sym_diff_count,
)
from graphvar.process import EdgeEvent, EventLogPath


def from_matrix(mat: np.ndarray) -> AdjacencyGraph:
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("adjacency matrix must be square")
    b = mat.astype(bool)
    if np.any(np.diag(b)):
        raise ValueError("adjacency matrix must have zero diagonal")
    if not np.array_equal(b, b.T):
        raise ValueError("adjacency matrix must be symmetric")
    return AdjacencyGraph(b.shape[0], _pack(b[pair_endpoints(b.shape[0])]))


def has_edge(g: AdjacencyGraph, i: int, j: int) -> bool:
    if i == j and 1 <= i <= g.n:
        return False
    a, b = (i, j) if i < j else (j, i)
    return bool((g.bits >> pair_index(a, b, g.n)) & 1)


def events(path: EventLogPath) -> Iterator[EdgeEvent]:
    for k in range(path.event_count):
        yield EdgeEvent(
            float(path.times[k]),
            int(path.edge_i[k]),
            int(path.edge_j[k]),
            int(path.values[k]),
        )


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
    vec = AdjacencyGraph(f.n, diff).to_pair_vector()
    # first disagreeing pair blocks every window containing its larger endpoint
    return int(jj[vec].min())


def prefix_metric(f: AdjacencyGraph, g: AdjacencyGraph) -> float:
    """1 / prefix_agreement, with 0 for graphs equal on the whole truncation."""
    if f.bits == g.bits and f.n == g.n:
        return 0.0
    return 1.0 / prefix_agreement(f, g)


def density_mc(
    pattern: AdjacencyGraph,
    host: AdjacencyGraph,
    n_samples: int = 100_000,
    seed=0,
) -> tuple[float, float]:
    """Monte Carlo pattern density: (estimate, binomial standard error)."""
    codes = _mc_codes(host.to_matrix(), pattern.n, n_samples, seed)
    hits = int(np.count_nonzero(codes == pattern.bits))
    est = hits / n_samples
    return est, math.sqrt(est * (1.0 - est) / n_samples)


@dataclass(frozen=True)
class InjectiveMap:
    """Injective vertex map phi: [n] -> [m]; position k of `image` gives phi(k+1)."""

    image: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(set(self.image)) != len(self.image):
            raise ValueError("image entries must be pairwise distinct")
        if any(v < 1 for v in self.image):
            raise ValueError("image entries must be >= 1")

    @property
    def domain_size(self) -> int:
        return len(self.image)

    @classmethod
    def identity(cls, n: int) -> "InjectiveMap":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def from_permutation(cls, perm: Sequence[int]) -> "InjectiveMap":
        m = cls(tuple(perm))
        if sorted(m.image) != list(range(1, len(m.image) + 1)):
            raise ValueError("not a permutation of [n]")
        return m


def restrict(g: AdjacencyGraph, n: int) -> AdjacencyGraph:
    """Induced subgraph on vertices 1..n."""
    if not (1 <= n <= g.n):
        raise ValueError(f"restriction level {n} out of range for n={g.n}")
    return g if n == g.n else apply_map(g, InjectiveMap.identity(n))


def apply_map(g: AdjacencyGraph, phi: InjectiveMap) -> AdjacencyGraph:
    """Pullback of g along phi: edge {k, l} iff {phi(k), phi(l)} is an edge of g."""
    if max(phi.image) > g.n:
        raise ValueError("map image exceeds vertex count")
    idx = np.asarray(phi.image, dtype=np.int64) - 1
    mat = g.to_matrix()[np.ix_(idx, idx)]
    iu = np.triu_indices(phi.domain_size, 1)
    return AdjacencyGraph(phi.domain_size, _pack(mat[iu]))


@lru_cache(maxsize=128)
def window_mask(n: int, m: int) -> int:
    """Bitmask over pair indices of [n] selecting pairs with both endpoints <= m."""
    if m >= n:
        return (1 << num_pairs(n)) - 1
    _, jj = pair_endpoints(n)
    return _pack(jj < m)


def project(g: AdjacencyGraph, m: int) -> AdjacencyGraph:
    """Zero all edges with an endpoint outside 1..m, keeping the vertex count."""
    if m < 1:
        raise ValueError("projection level must be >= 1")
    if m >= g.n:
        return g
    return AdjacencyGraph(g.n, g.bits & window_mask(g.n, m))


def ks_null_tail(n: int, c: int) -> Fraction:
    """P(D >= c/n) for two tie-free size-n samples under the null, exactly.

    Merging the samples in order is a monotone lattice path from (0, 0) to
    (n, n), all C(2n, n) of them equally likely, and D = max |i - j| / n over
    its points.  So the tail is one minus the share of paths that keep
    |i - j| < c, counted row by row.
    """
    if c <= 0:
        return Fraction(1)
    row = [int(j < c) for j in range(n + 1)]  # paths to (0, j)
    for i in range(1, n + 1):
        new = [0] * (n + 1)
        for j in range(max(0, i - c + 1), min(n, i + c - 1) + 1):
            new[j] = row[j] + (new[j - 1] if j else 0)
        row = new
    return 1 - Fraction(row[n], math.comb(2 * n, n))
