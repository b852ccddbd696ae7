"""Symmetric networks with self-loops: generation, ingestion, sampling, revelation.

Graphs are immutable after construction and safe to share across threads.
Binary adjacency is stored as a dense uint8 matrix (unit diagonal), weighted
adjacency as float64, which keeps a full 10000-node sequential run comfortably
in memory.  Designs and outcome simulation read the matrix only through
``RevealedView``.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterator

import numpy as np

from .errors import EdgeListParseError, ContractError, ParameterError, UnsupportedKindError

# Dense storage caps ingestion at ~1 GiB; larger-than-memory graphs are out of scope.
_MAX_DENSE_NODES = 32768
# Row-block size of the float mat-vec; fixed, so its sums and GOE outcomes stay reproducible.
_CHUNK_ROWS = 2048
# Square tile of the O(n^2) passes over a dense matrix (symmetry check, mirroring,
# induced sampling); DECISIONS.md D4 has the measurements behind it.
_TILE = 512


@dataclass(frozen=True)
class Graph:
    """Symmetric adjacency matrix with a uniform self-loop weight.

    The dtype is the kind.  Binary graphs are uint8 with entries in {0, 1}
    and unit diagonal.  Weighted graphs are float64 with real off-diagonal
    weights and a constant diagonal (1.0 as generated; scaled copies carry
    the scaled self-weight).  ``labels`` optionally keeps the original node
    identifiers of ingested data.
    """

    matrix: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ParameterError(f"adjacency must be square, got shape {m.shape}")
        if m.dtype == np.uint8:
            if m.size and m.max() > 1:
                raise ParameterError("binary adjacency entries must be 0 or 1")
            if not (np.diagonal(m) == 1).all():
                raise ParameterError("binary adjacency must have unit diagonal")
        elif m.dtype == np.float64:
            if not np.isfinite(m).all():
                raise ParameterError("weighted adjacency must be finite")
            diag = np.diagonal(m)
            if m.shape[0] and (diag != diag[0]).any():
                raise ParameterError("weighted adjacency must have a constant diagonal")
        else:
            raise ParameterError(
                f"adjacency dtype must be uint8 (binary) or float64 (weighted), got {m.dtype}"
            )
        if not _is_symmetric(m):
            raise ParameterError("adjacency must be symmetric")
        if self.labels is not None and len(self.labels) != m.shape[0]:
            raise ParameterError("labels length must match node count")
        m.setflags(write=False)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def weighted(self) -> bool:
        return self.matrix.dtype == np.float64


def _is_symmetric(m: np.ndarray) -> bool:
    """``m == m.T``, compared one tile pair at a time; stops at the first mismatch."""
    n = m.shape[0]
    for i0 in range(0, n, _TILE):
        i1 = min(i0 + _TILE, n)
        for j0 in range(i0, n, _TILE):
            j1 = min(j0 + _TILE, n)
            if not np.array_equal(m[i0:i1, j0:j1], m[j0:j1, i0:i1].T):
                return False
    return True


class RevealedView:
    """Read access restricted to the upper-left principal submatrix.

    The sequential design only observes connections among subjects that have
    already arrived; any read outside the revealed prefix raises ContractError.
    ``pair_rows``, ``pair_neighbours`` and ``matvec`` are the only reads.
    """

    def __init__(self, graph: Graph, revealed: int = 0):
        if not 0 <= revealed <= graph.n:
            raise ParameterError("revealed prefix out of range")
        self.graph = graph
        self._revealed = revealed

    def reveal_to(self, k: int) -> None:
        if k < self._revealed or k > self.graph.n:
            raise ContractError(f"cannot reveal prefix {k} (currently {self._revealed})")
        self._revealed = k

    def pair_rows(self, length: int) -> np.ndarray:
        """Rows (length, length+1) over columns [0, length+2): the newest pair's rows.

        Columns [0, length) join the pair to the earlier subjects; column
        ``length`` of the first row is the self-weight and column
        ``length + 1`` the corner joining the two new subjects.
        """
        if length < 0 or length + 2 > self._revealed:
            raise ContractError(
                f"pair rows at {length} outside revealed prefix {self._revealed}"
            )
        return self.graph.matrix[length:length + 2, :length + 2]

    def pair_neighbours(self, length: int) -> tuple[np.ndarray, np.ndarray]:
        """Prefix neighbours of the newest pair: columns N and the 2 x |N| entries there.

        N is the sorted set of columns in [0, length) where row ``length`` or
        ``length + 1`` is nonzero; every other prefix column of
        :meth:`pair_rows` is zero in both rows.
        """
        rows = self.pair_rows(length)[:, :length]
        cols = np.flatnonzero(np.logical_or(rows[0], rows[1]))
        return cols, rows[:, cols]

    def matvec(self, v) -> np.ndarray:
        """Revealed submatrix times ``v`` in float64, converted in row chunks."""
        k = self._revealed
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (k,):
            raise ContractError(f"vector of shape {v.shape} does not match revealed prefix {k}")
        out = np.empty(k, dtype=np.float64)
        for i0 in range(0, k, _CHUNK_ROWS):
            i1 = min(i0 + _CHUNK_ROWS, k)
            out[i0:i1] = self.graph.matrix[i0:i1, :k].astype(np.float64) @ v
        return out


@dataclass(frozen=True)
class ErParams:
    n: int
    p: float

    def __post_init__(self):
        if self.n < 2:
            raise ParameterError("n must be at least 2")
        if not 0.0 < self.p < 1.0:
            raise ParameterError("edge probability must lie in (0, 1)")


@dataclass(frozen=True)
class SbmParams:
    """Two-group block model; degenerate rates 0 and 1 are allowed for tests."""

    n: int
    p_in: float
    p_out: float

    def __post_init__(self):
        if self.n < 2:
            raise ParameterError("n must be at least 2")
        if not (0.0 <= self.p_out <= self.p_in <= 1.0):
            raise ParameterError("need 0 <= p_out <= p_in <= 1")


@dataclass(frozen=True)
class GoeParams:
    n: int
    sigma2: float

    def __post_init__(self):
        if self.n < 2:
            raise ParameterError("n must be at least 2")
        if not (self.sigma2 > 0.0 and np.isfinite(self.sigma2)):
            raise ParameterError("sigma2 must be finite and positive")


def _mirror_upper(a: np.ndarray) -> None:
    """Copy the strict upper triangle onto the zero lower one, tile by tile."""
    n = a.shape[0]
    for i0 in range(0, n, _TILE):
        i1 = min(i0 + _TILE, n)
        for j0 in range(i0, n, _TILE):
            j1 = min(j0 + _TILE, n)
            if j0 > i0:
                a[j0:j1, i0:i1] = a[i0:i1, j0:j1].T
            else:
                block = a[i0:i1, j0:j1]
                block += np.triu(block, 1).T


def _symmetric(n: int, dtype, upper_row, diag) -> np.ndarray:
    """Symmetric matrix whose row i right of the diagonal is ``upper_row(i)``, in row order."""
    a = np.zeros((n, n), dtype=dtype)
    for i in range(n - 1):
        a[i, i + 1:] = upper_row(i)
    _mirror_upper(a)
    np.fill_diagonal(a, diag)
    return a


def gen_er(params: ErParams, seed) -> Graph:
    """Erdos-Renyi adjacency: off-diagonal edges iid Bernoulli(p), unit diagonal."""
    n, p = params.n, params.p
    rng = np.random.default_rng(seed)
    return Graph(_symmetric(n, np.uint8, lambda i: rng.random(n - i - 1) < p, 1))


def gen_sbm(params: SbmParams, seed, labels=None) -> Graph:
    """Two-group stochastic block model with iid Bernoulli(1/2) group labels.

    ``labels`` forces the group assignment (0/1 per node) for tests; when
    given, no label randomness is consumed.
    """
    n = params.n
    rng = np.random.default_rng(seed)
    if labels is None:
        labels = (rng.random(n) < 0.5).astype(np.int8)
    else:
        labels = np.asarray(labels, dtype=np.int8)
        if labels.shape != (n,) or not np.isin(labels, (0, 1)).all():
            raise ParameterError("labels must be n values in {0, 1}")

    def upper_row(i):
        rates = np.where(labels[i + 1:] == labels[i], params.p_in, params.p_out)
        return rng.random(n - i - 1) < rates

    return Graph(_symmetric(n, np.uint8, upper_row, 1))


def gen_goe(params: GoeParams, seed) -> Graph:
    """Symmetric weighted adjacency: off-diagonal entries iid N(0, sigma2), diagonal 1."""
    n = params.n
    sigma = float(np.sqrt(params.sigma2))
    rng = np.random.default_rng(seed)
    return Graph(_symmetric(n, np.float64, lambda i: rng.normal(0.0, sigma, n - i - 1), 1.0))


def scale_weights(g: Graph, c: float) -> Graph:
    """Scale every entry of a weighted graph (including the self-weight) by c > 0."""
    if not g.weighted:
        raise UnsupportedKindError("only weighted graphs can be scaled")
    if not c > 0.0:
        raise ParameterError("scale factor must be positive")
    return Graph(g.matrix * float(c), labels=g.labels)


def _iter_lines(source) -> Iterator[str]:
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            yield from fh
    else:
        yield from source


def from_edge_list(source) -> Graph:
    """Parse SNAP-style edge-list text into a binary graph.

    Lines starting with '#' are comments and blank lines are skipped.  Data
    lines hold two whitespace-separated node identifiers (arbitrary tokens),
    remapped to 0..n-1 in first-appearance order.  Duplicate edges collapse;
    input self-loops are ignored because the diagonal is forced to 1.
    """
    index: dict[str, int] = {}
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(_iter_lines(source), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise EdgeListParseError(
                f"expected two node identifiers, got {len(tokens)} tokens", lineno
            )
        iu = index.setdefault(tokens[0], len(index))
        iv = index.setdefault(tokens[1], len(index))
        if iu != iv:
            edges.append((iu, iv))
    if not index:
        raise EdgeListParseError("edge list contains no data lines")
    n = len(index)
    if n > _MAX_DENSE_NODES:
        raise ParameterError(f"graph with {n} nodes exceeds the dense-storage limit")
    a = np.zeros((n, n), dtype=np.uint8)
    if edges:
        e = np.asarray(edges, dtype=np.int64)
        a[e[:, 0], e[:, 1]] = 1
        a[e[:, 1], e[:, 0]] = 1
    np.fill_diagonal(a, 1)
    return Graph(a, labels=tuple(index))


def write_edge_list(g: Graph, sink, header: str | None = None) -> None:
    """Write a binary graph as one 'u v' line per off-diagonal edge."""
    if g.weighted:
        raise UnsupportedKindError("edge-list output supports binary graphs only")
    labels = g.labels or tuple(str(i) for i in range(g.n))

    def _emit(fh: IO[str]) -> None:
        if header:
            fh.write(f"# {header}\n")
        rows, cols = np.nonzero(np.triu(g.matrix, 1))
        for i, j in zip(rows.tolist(), cols.tolist()):
            fh.write(f"{labels[i]} {labels[j]}\n")

    if isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="utf-8") as fh:
            _emit(fh)
    else:
        _emit(sink)


def induced_subgraph_sample(g: Graph, k: int, seed) -> Graph:
    """Uniform k-node induced subgraph, returned in a fresh uniform node order.

    The returned node order is the subject arrival order used downstream.
    """
    if not 2 <= k <= g.n:
        raise ParameterError(f"sample size {k} outside [2, {g.n}]")
    rng = np.random.default_rng(seed)
    idx = rng.permutation(g.n)[:k]
    # Row blocks keep the gathered-rows intermediate at _TILE x n.
    sub = np.empty((k, k), dtype=g.matrix.dtype)
    for i0 in range(0, k, _TILE):
        np.take(g.matrix[idx[i0:i0 + _TILE]], idx, axis=1, out=sub[i0:i0 + _TILE])
    labels = None
    if g.labels is not None:
        labels = tuple(g.labels[i] for i in idx.tolist())
    return Graph(sub, labels=labels)


def density(g: Graph) -> float:
    """Fraction of off-diagonal pairs connected; self-loops excluded."""
    if g.weighted:
        raise UnsupportedKindError("density is defined for binary graphs")
    if g.n < 2:
        raise ParameterError("density needs at least 2 nodes")
    ones = int(g.matrix.sum(dtype=np.int64)) - g.n
    return ones / (g.n * (g.n - 1))
