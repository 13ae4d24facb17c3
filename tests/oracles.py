"""Reference graph maps that only the tests call: injective vertex maps and their
pullbacks, restriction to the first n vertices, and projection onto a window."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from graphvar.graphs import AdjacencyGraph, _pack, num_pairs, pair_endpoints


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
