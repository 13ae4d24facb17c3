"""Finite undirected graphs stored as packed bitsets over unordered vertex pairs.

Vertices are 1-indexed.  A graph on n vertices is a single Python integer
whose bit k encodes the k-th unordered pair {i, j}, i < j, in row-major
order: (1,2), (1,3), ..., (1,n), (2,3), ...  This makes symmetric-difference
counts a single XOR + popcount and keeps graphs immutable and hashable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np


class DataError(ValueError):
    """An input file is malformed; the message names the file and the line."""


class Refused(ValueError):
    """Valid inputs that a computation declines as documented, e.g. over a budget."""


def num_pairs(n: int) -> int:
    """C(n, 2), with the convention C(1, 2) = 0."""
    return n * (n - 1) // 2


# Largest C(n, 2) a graph or path may have (n <= 5,793).  Analysis builds
# pair-sized and n x n arrays per graph state, so simulate, load_path and
# read_edge_list refuse a larger vertex count before anything of that size
# is allocated; n = 1024 has 523,776 pairs.
MAX_VERTEX_PAIRS = 1 << 24


def check_vertex_count(n: int) -> None:
    """Refuse a vertex count whose C(n, 2) exceeds MAX_VERTEX_PAIRS."""
    if num_pairs(n) > MAX_VERTEX_PAIRS:
        # C(n, 2) of a long n may be too long for Python to turn into text
        count = f"n={n} has {num_pairs(n)}" if n < 10**20 else "n of over 20 digits has more"
        raise ValueError(f"{count} vertex pairs, over the limit of {MAX_VERTEX_PAIRS}")


def pair_index(i: int, j: int, n: int) -> int:
    """Bit position of the unordered pair {i, j} (1-indexed, i < j) on n vertices."""
    if not (1 <= i < j <= n):
        raise ValueError(f"pair ({i}, {j}) out of range for n={n}")
    u = i - 1
    return u * n - u * (u + 1) // 2 + (j - i - 1)


def pair_indices(i: np.ndarray, j: np.ndarray, n: int) -> np.ndarray:
    """Vectorized pair_index for 1-indexed endpoint arrays with i < j (unchecked)."""
    u = i.astype(np.int64) - 1
    return u * n - u * (u + 1) // 2 + (j.astype(np.int64) - i - 1)


@lru_cache(maxsize=64)
def pair_endpoints(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Arrays (I, J) of 0-indexed endpoints for every pair index on n vertices."""
    iu = np.triu_indices(n, 1)
    return iu[0].astype(np.int64), iu[1].astype(np.int64)


def _pack(vec: np.ndarray) -> int:
    if vec.size == 0:
        return 0
    packed = np.packbits(vec.astype(np.uint8), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def _unpack(bits: int, npairs: int) -> np.ndarray:
    if npairs == 0:
        return np.zeros(0, dtype=bool)
    nbytes = (npairs + 7) // 8
    raw = np.frombuffer(bits.to_bytes(nbytes, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:npairs].astype(bool)


@dataclass(frozen=True)
class AdjacencyGraph:
    """Immutable simple undirected graph (no self-loops) on vertices 1..n."""

    n: int
    bits: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        if self.bits < 0 or self.bits >> num_pairs(self.n):
            raise ValueError("edge bits out of range for vertex count")

    @classmethod
    def empty(cls, n: int) -> "AdjacencyGraph":
        return cls(n, 0)

    @classmethod
    def complete(cls, n: int) -> "AdjacencyGraph":
        return cls(n, (1 << num_pairs(n)) - 1)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]] | np.ndarray) -> "AdjacencyGraph":
        """Graph with the given (i, j) edges, in either orientation; repeats are no-ops."""
        try:  # a non-iterable or ragged edge list is no list of pairs
            if not isinstance(edges, (list, np.ndarray)):
                edges = list(edges)  # read again below
            pairs = np.asarray(edges)
        except (TypeError, ValueError):
            raise ValueError("edges must be (i, j) pairs") from None
        if pairs.shape == (0,):
            return cls(n, 0)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("edges must be (i, j) pairs")
        # np.asarray reads True as 1 (False as 0, which the range check refuses);
        # an (e, 2) integer array holds no bool
        if pairs.dtype.kind not in "iu" or (pairs is not edges and any(
                type(edges[k // 2][k % 2]) is bool for k in np.flatnonzero(pairs == 1))):
            raise TypeError("edge endpoints must be integers")
        lo, hi = np.minimum(pairs[:, 0], pairs[:, 1]), np.maximum(pairs[:, 0], pairs[:, 1])
        bad = (lo == hi) | (lo < 1) | (hi > n)
        if bad.any():
            k = int(np.argmax(bad))  # the first bad edge, as a scan would report it
            a, b = int(lo[k]), int(hi[k])
            if a == b:
                raise ValueError(f"self-loop ({a}, {a}) not allowed")
            raise ValueError(f"pair ({a}, {b}) out of range for n={n}")
        idx = pair_indices(lo, hi, n)
        # sized to the highest edge, not to C(n, 2): a sparse graph on a huge
        # vertex count costs no more than its bitset integer
        vec = np.zeros(int(idx.max()) + 1, dtype=bool)
        vec[idx] = True
        return cls(n, _pack(vec))

    @classmethod
    def from_pair_vector(cls, n: int, vec: np.ndarray) -> "AdjacencyGraph":
        if vec.shape != (num_pairs(n),):
            raise ValueError("pair vector has wrong length")
        return cls(n, _pack(vec))

    @property
    def edge_count(self) -> int:
        return self.bits.bit_count()

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as 1-indexed (i, j) with i < j, in pair-index order."""
        k = np.flatnonzero(self.to_pair_vector())
        ii, jj = pair_endpoints(self.n)
        return zip((ii[k] + 1).tolist(), (jj[k] + 1).tolist())

    def to_pair_vector(self) -> np.ndarray:
        return _unpack(self.bits, num_pairs(self.n))

    def to_matrix(self) -> np.ndarray:
        """Dense symmetric boolean adjacency matrix (0-indexed)."""
        mat = np.zeros((self.n, self.n), dtype=bool)
        mat[pair_endpoints(self.n)] = self.to_pair_vector()
        return mat | mat.T

    def __repr__(self) -> str:
        return f"AdjacencyGraph(n={self.n}, edges={self.edge_count})"


def sym_diff_count(f: AdjacencyGraph, g: AdjacencyGraph) -> int:
    """Number of unordered pairs on which f and g disagree."""
    if f.n != g.n:
        raise ValueError(f"vertex counts differ: {f.n} vs {g.n}")
    return (f.bits ^ g.bits).bit_count()


def er_sample(n: int, p: float, seed) -> AdjacencyGraph:
    """Erdos-Renyi draw: each pair is an edge independently with probability p."""
    if not (0.0 <= p <= 1.0):
        raise ValueError("edge probability must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    return AdjacencyGraph(n, _pack(rng.random(num_pairs(n)) < p))


def write_edge_list(g: AdjacencyGraph, path) -> None:
    """Edge-list text format: first line 'n <N>', then one '<i> <j>' line per edge."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"n {g.n}\n")
        for i, j in g.edges():
            fh.write(f"{i} {j}\n")


def read_edge_list(path) -> AdjacencyGraph:
    try:
        with open(path, "r", encoding="ascii") as fh:
            header = fh.readline().split()
            if len(header) != 2 or header[0] != "n":
                raise DataError(f"{path}: line 1: expected header 'n <N>'")
            try:
                n = int(header[1])
            except ValueError:
                raise DataError(f"{path}: line 1: vertex count must be an integer") from None
            if n < 1:
                raise DataError(f"{path}: line 1: vertex count must be positive")
            try:
                check_vertex_count(n)
            except ValueError as exc:
                raise DataError(f"{path}: line 1: {exc}") from None
            seen: set[int] = set()
            for lineno, line in enumerate(fh, start=2):
                parts = line.split()
                if not parts:
                    continue
                if len(parts) != 2:
                    raise DataError(f"{path}: line {lineno}: expected '<i> <j>'")
                try:
                    i, j = int(parts[0]), int(parts[1])
                except ValueError:
                    raise DataError(f"{path}: line {lineno}: endpoints must be integers") from None
                if not (1 <= i < j <= n):
                    raise DataError(f"{path}: line {lineno}: need 1 <= i < j <= {n}")
                k = pair_index(i, j, n)
                if k in seen:
                    raise DataError(f"{path}: line {lineno}: duplicate edge {i} {j}")
                seen.add(k)
    except UnicodeDecodeError:
        lineno = first_non_ascii_line(path)
        raise DataError(f"{path}: line {lineno}: non-ASCII byte in edge list") from None
    vec = np.zeros(num_pairs(n), dtype=bool)
    vec[list(seen)] = True
    return AdjacencyGraph.from_pair_vector(n, vec)


def first_non_ascii_line(file) -> int | None:
    """1-based number of the first line of file holding a non-ASCII byte."""
    with open(file, "rb") as fh:
        return next((k for k, line in enumerate(fh, start=1) if not line.isascii()), None)


def seed_list(seed) -> list[int]:
    """Flatten a seed (int or sequence of ints) so streams can be appended.

    default_rng accepts a flat list of ints as an entropy path; composing
    [seed, stream, replicate] with a seed that is itself a list needs this.
    """
    if isinstance(seed, (list, tuple, np.ndarray)):
        return [int(s) for s in seed]
    return [int(seed)]


def density_quantum(n: int) -> float:
    """Smallest positive edit density at truncation n: 2 / (n (n-1))."""
    if n < 2:
        return math.inf
    return 2.0 / (n * (n - 1))
