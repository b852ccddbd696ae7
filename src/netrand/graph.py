"""Symmetric networks with self-loops: generation, ingestion, sampling, revelation.

Graphs are immutable after construction and safe to share across threads.
Generated graphs are a dense ``Graph``: binary adjacency as a uint8 matrix
(unit diagonal), weighted adjacency as float64.  Edge lists are read into a
``CsrGraph`` of sorted neighbour lists, O(n + |E|), and induced samples of
one stay neighbour lists.  Designs read either form through ``RevealedView``,
whose every read reveals exactly the subjects it reads, and whole-prefix
products go through ``matvec``; neither builds an n x n matrix from neighbour
lists.
"""
from __future__ import annotations

import io
from array import array
from dataclasses import dataclass
from itertools import count, islice
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import EdgeListParseError, ContractError, ParameterError

# Nodes of a dense matrix (1 GiB as uint8); checked before one is built.  A sweep holds
# one such matrix at a time, beside buffers of O(n) (DECISIONS.md D4, "One matrix per
# replicate").  The cap also keeps every binary design quantity on a dense graph exact
# in float64: I^2 <= n^3 < 2^53.
_MAX_DENSE_NODES = 32768
# float64 holds every integer below 2^53 exactly; designs on neighbour lists are held
# below it by check_exact_bound.
_EXACT_LIMIT = 2**53
# Row-block size of the float mat-vec.  Fixed, so its sums and the outcome W stay
# reproducible; with 128 rows OpenBLAS gave the same sums under 1, 2 and 4 threads,
# and 2048 did not (DECISIONS.md D4, "Why `graph.matvec` takes 128-row chunks").
_CHUNK_ROWS = 128
# Square tile of the O(n^2) passes over a dense matrix (symmetry check, mirroring);
# DECISIONS.md D4 has the measurements behind it.
_TILE = 512
# Rows of a diagonal tile mirrored at once; numpy copies a strip's operand, not the tile.
_STRIP = 64
# Draws per block of generated rows: 512 KiB of doubles, which stay in cache while their
# rows are written.  Under the dense cap every row fits in one block (DECISIONS.md D4,
# "Block draws").
_DRAW_BLOCK = 1 << 16


@dataclass(frozen=True)
class Graph:
    """Symmetric adjacency matrix with a uniform self-loop weight.

    The dtype is the kind.  Binary graphs are uint8 with entries in {0, 1}
    and unit diagonal.  Weighted graphs are float64 with real off-diagonal
    weights and a constant diagonal (1.0 as generated).
    """

    matrix: np.ndarray

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
            if not _all_finite(m):
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
        m.setflags(write=False)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def weighted(self) -> bool:
        return self.matrix.dtype == np.float64


def _upper_tiles(n: int) -> Iterator[tuple[slice, slice]]:
    """Row and column slices of an n x n matrix's tiles on and above the diagonal, row by row."""
    for i0 in range(0, n, _TILE):
        rows = slice(i0, min(i0 + _TILE, n))
        for j0 in range(i0, n, _TILE):
            yield rows, slice(j0, min(j0 + _TILE, n))


def _is_symmetric(m: np.ndarray) -> bool:
    """``m == m.T``, compared one tile pair at a time; stops at the first mismatch."""
    return all(np.array_equal(m[r, c], m[c, r].T) for r, c in _upper_tiles(m.shape[0]))


def _all_finite(m: np.ndarray) -> bool:
    """``np.isfinite(m).all()``, one band of rows of about a tile's entries at a time."""
    band = max(1, _TILE * _TILE // max(m.shape[0], 1))
    return all(np.isfinite(m[i:i + band]).all() for i in range(0, m.shape[0], band))


def check_dense_size(n: int) -> None:
    """Reject an n-node dense matrix before it is built."""
    if n > _MAX_DENSE_NODES:
        raise ParameterError(
            f"{n} nodes exceed the dense-storage limit of {_MAX_DENSE_NODES}"
        )


@dataclass(frozen=True)
class CsrGraph:
    """Binary symmetric graph as sorted neighbour lists: the form edge lists are read into.

    Node i's neighbours are ``indices[indptr[i]:indptr[i + 1]]``, strictly
    increasing and never i itself; the unit self-weight is implied, not
    stored.  Storage and validation are O(n + |E|) apart from one sort of the
    |E| transposed keys.  Designs read the lists directly through
    ``RevealedView``; :meth:`to_dense` is the dense ``Graph`` of the same nodes.
    """

    indptr: np.ndarray
    indices: np.ndarray
    # The nodes' ids: a decimal parse's int64 values, the line loop's tokens, or None.
    node_ids: np.ndarray | tuple[str, ...] | None = None

    def __post_init__(self):
        indptr, indices = self.indptr, self.indices
        if indptr.dtype != np.int64 or indices.dtype != np.int64:
            raise ParameterError("indptr and indices must be int64")
        if indptr.ndim != 1 or indices.ndim != 1 or indptr.shape[0] == 0:
            raise ParameterError("indptr must hold n + 1 offsets and indices be one-dimensional")
        n = self.n
        if indptr[0] != 0 or indptr[-1] != indices.shape[0] or (np.diff(indptr) < 0).any():
            raise ParameterError("indptr must rise monotonically from 0 to len(indices)")
        if indices.size and (indices.min() < 0 or indices.max() >= n):
            raise ParameterError(f"neighbour index outside [0, {n})")
        rows = self._rows(np.arange(n, dtype=np.int64))
        keys = rows * n + indices
        if (np.diff(keys) <= 0).any():
            raise ParameterError("neighbour lists must be sorted and unique")
        if (rows == indices).any():
            raise ParameterError("self-loops are implied and must not be stored")
        transposed = indices * n + rows
        transposed.sort()
        if not np.array_equal(keys, transposed):
            raise ParameterError("adjacency must be symmetric")
        if self.node_ids is not None and len(self.node_ids) != n:
            raise ParameterError("labels length must match node count")
        indptr.setflags(write=False)
        indices.setflags(write=False)
        if isinstance(self.node_ids, np.ndarray):
            self.node_ids.setflags(write=False)

    @property
    def n(self) -> int:
        return self.indptr.shape[0] - 1

    @property
    def weighted(self) -> bool:
        return False

    @property
    def labels(self) -> tuple[str, ...] | None:
        """The node ids as text, in node order; decimal ids are formatted anew on each read."""
        if isinstance(self.node_ids, np.ndarray):
            return tuple(map(str, self.node_ids.tolist()))
        return self.node_ids

    @property
    def degrees(self) -> np.ndarray:
        """Number of stored neighbours of each node (the self-loop not counted)."""
        return np.diff(self.indptr)

    def _rows(self, row_ids: np.ndarray) -> np.ndarray:
        """``row_ids[i]`` for each stored neighbour of node i < len(row_ids), in storage order."""
        return np.repeat(row_ids, self.degrees[:row_ids.shape[0]])

    @property
    def matrix(self) -> np.ndarray:
        """Dense uint8 adjacency with unit diagonal, built anew on each read: O(n²)."""
        n = self.n
        check_dense_size(n)
        a = np.zeros((n, n), dtype=np.uint8)
        a[self._rows(np.arange(n)), self.indices] = 1
        np.fill_diagonal(a, 1)
        return a

    def to_dense(self) -> Graph:
        """The validated dense ``Graph`` of the same nodes, in the same order, without labels."""
        return Graph(self.matrix)


def check_exact_bound(degrees: np.ndarray, k: int) -> None:
    """Reject a k-subject design on neighbour lists whose I^2 could reach 2^53.

    A signed row sum obeys |s_i| <= d_i + 1 on every induced subgraph, so every
    squared imbalance, candidate and partial sum a design forms is at most
    the sum of (d_i + 1)^2 over the k highest ``degrees``.  Below 2^53 all of
    them are integers that float64 holds exactly.
    """
    top = np.partition(degrees, degrees.shape[0] - k)[degrees.shape[0] - k:]
    bound = sum(d * d for d in (top + 1).tolist())
    if bound >= _EXACT_LIMIT:
        raise ParameterError(
            f"a {k}-node design could reach I^2 = {bound} >= 2^53, past exact float64 integers"
        )


class RevealedView:
    """Read access restricted to the upper-left principal submatrix of subjects revealed so far.

    The sequential design only observes connections among subjects that have
    already arrived.  A view starts with nothing revealed, and every read
    reveals exactly the subjects it reads, through ``reveal_to``: each pair
    walk reveals 2m + 2 before it yields pair m.  A read that would shrink
    the prefix, or pass n, raises ContractError.  Each walk serves one loop:
    ``pair_rows`` a dense ``Graph``'s numpy loop, ``pair_sides`` a
    ``CsrGraph``'s Python integer loop, and ``pair_blocks`` the batched
    kernel on either storage.
    """

    def __init__(self, graph: Graph | CsrGraph):
        self.graph = graph
        self._n = graph.n
        self._revealed = 0

    def reveal_to(self, k: int) -> None:
        if k < self._revealed or k > self._n:
            raise ContractError(f"cannot reveal prefix {k} (currently {self._revealed})")
        self._revealed = k

    def pair_rows(self) -> Iterator[tuple[np.ndarray, float]]:
        """A dense ``Graph``'s pairs in order, one per ``next``: two rows over the prefix, and e.

        Pair m is subjects (2m, 2m + 1); it yields their rows over [0, 2m) and
        ``e``, the self-weight minus the entry joining the two, as a float.  A
        ``CsrGraph``'s pairs are read by ``pair_sides`` or ``pair_blocks``.
        """
        g = self.graph
        if not isinstance(g, Graph):
            raise ContractError("pair_rows reads a dense Graph; read neighbour lists by pair_sides")
        for length in range(0, g.n - 1, 2):
            self.reveal_to(length + 2)
            rows = g.matrix[length:length + 2, :length + 2]
            yield rows[:, :length], float(rows[0, length]) - float(rows[0, length + 1])

    def pair_blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, float]]:
        """Every pair's prefix read in order, one per ``next``: ``(cols, rows, y, e)``.

        ``cols`` are the prefix columns where either of the pair's rows is
        nonzero, ``e`` the self-weight minus the entry joining the two,
        ``y = rows[1] - rows[0]`` and ``rows`` a 3 x |cols| float64 block: the
        two rows' entries at ``cols``, then ``-e * y``.  So ``rows @ tau[cols]``
        gives z0, z1 and e (z0 - z1) in one product.  On a dense ``Graph`` the
        block is built per pair from ``pair_rows``; on a ``CsrGraph`` the tuples
        are slices of float64 tables built once per call from ``pair_sides``' table.
        """
        g = self.graph
        if isinstance(g, Graph):
            for rows, e in self.pair_rows():
                cols = np.flatnonzero(np.logical_or(rows[0], rows[1]))
                yield cols, *_pair_block(rows[:, cols], e), e
            return
        _, flat, ptr, e = _prefix_table(g)
        # One sort of pair-major (column, side) keys merges each pair's two sorted prefix rows.
        ptr = ptr[:g.n + 1 - g.n % 2]  # an odd trailing subject joins no pair
        i = np.arange(ptr.shape[0] - 1)
        keys = np.repeat((i - i % 2) * g.n + i % 2, np.diff(ptr)) + 2 * flat[:ptr[-1]]
        keys.sort()
        first = np.diff(keys >> 1, prepend=-1) != 0
        seen = np.cumsum(first)
        vals = np.zeros((2, np.count_nonzero(first)), dtype=np.uint8)
        vals[keys & 1, seen - 1] = 1
        # A pair's keys stay in its rows' span, so its union starts after the columns before it.
        cols, ptr = (keys[first] >> 1) % g.n, np.concatenate([[0], seen])[ptr[::2]]
        e = e.astype(np.float64)
        blocks, ys = _pair_block(vals, np.repeat(e, np.diff(ptr)))
        ptr = ptr.tolist()
        for length, lo, hi, e_m in zip(count(0, 2), ptr, islice(ptr, 1, None), e.tolist()):
            self.reveal_to(length + 2)
            yield cols[lo:hi], blocks[:, lo:hi], ys[lo:hi], e_m

    def pair_sides(self) -> Iterator[tuple[array, array, int, int]]:
        """A ``CsrGraph``'s pairs in order, one per ``next``: ``(r0, r1, yy, e)``, from one O(|E|) pass.

        ``r0`` and ``r1``, subjects 2m's and 2m + 1's prefix neighbours (the start of their
        sorted rows), are slices of one flat int64 ``array``; ``yy`` is y . y, and ``e`` is 1
        minus the entry joining the two.
        """
        g = self.graph
        if not isinstance(g, CsrGraph):
            raise ContractError("pair_sides reads neighbour lists; read a dense Graph by pair_rows")
        rows, flat, ptr, e = _prefix_table(g)
        # Column j < 2m joins both of pair m exactly when j's sorted row holds 2m and 2m + 1 side by side.
        lo, hi = g.indices[:-1], g.indices[1:]
        both = (lo % 2 == 0) & (hi == lo + 1) & (rows[1:] == rows[:-1]) & (rows[:-1] < lo)
        yy = ptr[2::2] - ptr[:-2:2] - 2 * np.bincount(lo[both] // 2, minlength=g.n // 2)
        flat = array("q", flat.tobytes())
        del rows, lo, hi, both
        ptr = array("q", ptr.tobytes())
        bounds = zip(islice(ptr, 0, None, 2), islice(ptr, 1, None, 2), islice(ptr, 2, None, 2))
        for length, yy_m, e_m, (a, b, c) in zip(count(0, 2), yy.tolist(), e.tolist(), bounds):
            self.reveal_to(length + 2)
            yield flat[a:b], flat[b:c], yy_m, e_m


def matvec(g: Graph | CsrGraph, v) -> np.ndarray:
    """The first k nodes' submatrix of ``g`` times ``v``, a length-k vector or a (k, r) block, in float64.

    A dense ``Graph`` is converted in row chunks; on a ``CsrGraph`` each node
    adds the entries of ``v`` at its neighbours in the prefix, one column at a
    time.  Nothing is revealed: designs read their pairs through ``RevealedView``.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim not in (1, 2) or v.shape[0] > g.n:
        raise ContractError(f"matvec takes a vector or block of at most {g.n} rows, got shape {v.shape}")
    k = v.shape[0]
    if isinstance(g, CsrGraph):
        rows, cols = g._rows(np.arange(k)), g.indices[:g.indptr[k]]
        inside = cols < k
        rows, cols = rows[inside], cols[inside]
        block = v if v.ndim == 2 else v[:, None]
        out = np.stack([c + np.bincount(rows, weights=c[cols], minlength=k) for c in block.T], axis=1)
        return out.reshape(v.shape)
    out = np.empty(v.shape)
    for i0 in range(0, k, _CHUNK_ROWS):
        i1 = min(i0 + _CHUNK_ROWS, k)
        out[i0:i1] = g.matrix[i0:i1, :k].astype(np.float64, copy=False) @ v
    return out


def _pair_block(vals: np.ndarray, e) -> tuple[np.ndarray, np.ndarray]:
    """``pair_blocks``' 3 x m float64 block of two rows ``vals`` and ``-e * y``, and ``y``.

    ``y = vals[1] - vals[0]``; ``e`` is a scalar or one value per column.
    """
    block = np.empty((3, vals.shape[1]))
    block[:2] = vals
    y = np.subtract(block[1], block[0])
    np.multiply(y, -e, out=block[2])
    return block, y


def _prefix_table(g: CsrGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each subject's links to the subjects before its pair, from one O(|E|) pass: ``(rows, flat, ptr, e)``.

    ``rows`` is the row of every stored entry.  ``flat[ptr[i]:ptr[i + 1]]`` is subject i's sorted
    row below 2m, m its pair, and ``e[m]`` is 1 minus the entry joining pair m, as an int.
    """
    rows, cols = g._rows(np.arange(g.n)), g.indices
    keep = cols < rows - rows % 2
    ptr = np.concatenate([[0], np.cumsum(keep)])[g.indptr]
    e = 1 - np.bincount(rows[(rows % 2 == 0) & (cols == rows + 1)] // 2, minlength=g.n // 2)
    return rows, cols[keep], ptr, e


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
    """Copy the strict upper triangle onto the lower one, tile by tile.

    The lower triangle and the diagonal must be zero: a diagonal tile then
    adds its own transpose, which is zero wherever the tile is set, one strip
    of rows at a time (DECISIONS.md D4, "Diagonal tiles").
    """
    for r, c in _upper_tiles(a.shape[0]):
        if r == c:
            block = a[r, c]
            for i in range(0, block.shape[0], _STRIP):
                j = i + _STRIP
                block[i:j, :j] += block[:j, i:j].T
        else:
            a[c, r] = a[r, c].T


def _symmetric(n: int, dtype, draw, row=None) -> np.ndarray:
    """Symmetric matrix whose strict upper triangle, read row by row, is drawn by ``draw``.

    The diagonal is 1.  ``draw(k)`` returns the next k entries; it is called once per block of
    whole rows holding at most ``_DRAW_BLOCK`` entries, and a longer row is a
    block of its own.  ``row(i, values)``, when given, maps row i's slice of
    its block to the row's entries.
    """
    check_dense_size(n)
    a = np.zeros((n, n), dtype=dtype)
    i = 0
    while i < n - 1:
        j, size = i + 1, n - i - 1
        while j < n - 1 and size + n - j - 1 <= _DRAW_BLOCK:
            size += n - j - 1
            j += 1
        block, start = draw(size), 0
        for r in range(i, j):
            stop = start + n - r - 1
            a[r, r + 1:] = block[start:stop] if row is None else row(r, block[start:stop])
            start = stop
        del block  # freed before the next block is drawn
        i = j
    _mirror_upper(a)
    np.fill_diagonal(a, 1)
    return a


def gen_er(params: ErParams, seed) -> Graph:
    """Erdos-Renyi adjacency: off-diagonal edges iid Bernoulli(p), unit diagonal."""
    n, p = params.n, params.p
    rng = np.random.default_rng(seed)
    return Graph(_symmetric(n, np.uint8, lambda k: rng.random(k) < p))


def gen_sbm(params: SbmParams, seed) -> Graph:
    """Two-group stochastic block model with iid Bernoulli(1/2) group labels, drawn first."""
    n = params.n
    rng = np.random.default_rng(seed)
    labels = (rng.random(n) < 0.5).astype(np.int8)
    # rates[g, j]: the edge rate between a node of group g and node j.
    rates = np.where(labels == np.array([[0], [1]]), params.p_in, params.p_out)
    return Graph(_symmetric(n, np.uint8, rng.random,
                            lambda i, u: u < rates[labels[i], i + 1:]))


def gen_goe(params: GoeParams, seed) -> Graph:
    """Symmetric weighted adjacency: off-diagonal entries iid N(0, sigma2), diagonal 1."""
    n = params.n
    sigma = float(np.sqrt(params.sigma2))
    rng = np.random.default_rng(seed)
    return Graph(_symmetric(n, np.float64, lambda k: rng.normal(0.0, sigma, k)))


def _decoded_lines(data: bytes) -> Iterator[str]:
    # utf-8-sig drops a leading byte-order mark, which would otherwise join the first token.
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig") as fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise EdgeListParseError(f"edge list is not UTF-8 text ({exc.reason})") from None


def from_edge_list(source, order_seed=None) -> CsrGraph:
    """Parse SNAP-style edge-list text into a binary graph of neighbour lists.

    Lines starting with '#' are comments and blank lines are skipped.  Data
    lines hold two whitespace-separated node identifiers (arbitrary tokens),
    remapped to 0..n-1 in first-appearance order.  Duplicate edges collapse;
    input self-loops are ignored because the self-weight is implied.  Any
    number of nodes is accepted: nothing dense is built here.  With
    ``order_seed`` the nodes come in the order ``induced_subgraph_sample(g,
    g.n, order_seed)`` would give them, from the one build.

    A path whose data lines all hold two canonical decimal ids, SNAP's form,
    is parsed by numpy (``_decimal_edges``) unless an id is too large for
    its sort keys; every other source, and every error, goes through the
    line loop below.  Both give the same graph.
    """
    lines = source
    if isinstance(source, (str, Path)):
        # Read once, so a pipe (/dev/stdin, a process substitution) can take either path.
        with open(source, "rb") as fh:
            data = fh.read()
        parsed = _decimal_edges(data)
        if parsed is not None:
            del data
            return _from_ends(*parsed, order_seed)
        lines = _decoded_lines(data)
        del data  # from here the bytes live only as long as the loop reads them
    index: dict[str, int] = {}
    ends = array("q")
    for lineno, raw in enumerate(lines, start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if len(tokens) != 2:
            raise EdgeListParseError(
                f"expected two node identifiers, got {len(tokens)} tokens", lineno
            )
        ends.append(index.setdefault(tokens[0], len(index)))
        ends.append(index.setdefault(tokens[1], len(index)))
    if not index:
        raise EdgeListParseError("edge list contains no data lines")
    return _from_ends(np.frombuffer(ends, dtype=np.int64), tuple(index), order_seed)


def _from_ends(ends: np.ndarray, ids, order_seed) -> CsrGraph:
    """Neighbour lists from the node indices of each edge, flattened in line order.

    With ``order_seed``, ``default_rng(order_seed).permutation(n)[i]`` becomes node i,
    as in ``induced_subgraph_sample``; ``ends`` is renumbered in place.
    """
    n = len(ids)
    if order_seed is not None:
        idx = np.random.default_rng(order_seed).permutation(n)
        pos = np.empty(n, dtype=np.int64)
        pos[idx] = np.arange(n)
        np.take(pos, ends, out=ends)
        ids = _take_ids(ids, idx)
    u, v = ends.reshape(-1, 2).T
    keep = u != v
    u, v = u[keep], v[keep]
    return _from_keys(np.concatenate([u * n + v, v * n + u]), n, ids)


def _take_ids(ids, idx: np.ndarray):
    """The node ids ``ids`` of the nodes ``idx``, in the same form: array, tuple or None."""
    if isinstance(ids, tuple):
        return tuple(map(ids.__getitem__, idx.tolist()))
    return None if ids is None else ids[idx]


# Bytes of edge-list body parsed per block.  A block's byte-level temporaries take about
# eight times this; the parse runs as fast with 256 KiB blocks as with 4 MiB (DECISIONS.md D5).
_PARSE_BLOCK = 1 << 18
_DIGIT_0, _TAB, _LF, _CR, _SPACE = ord("0"), ord("\t"), ord("\n"), ord("\r"), ord(" ")
# Canonical ids have at most 18 digits, so every one fits in int64.
_MAX_ID_DIGITS = 18


def _decimal_edges(data: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """``from_edge_list``'s ends and int64 node ids for a file of canonical decimal ids, else None.

    ``data`` is the file's bytes.  After the leading blank and comment lines,
    judged as the line loop judges them, every byte must be a digit, space,
    tab, CR or LF; every non-blank line must hold two ids; and each id must
    be canonical (``str(int(token)) == token``, at most 18 digits), so ids
    and labels correspond one to one.  Anything else returns None, and the
    line loop parses the file and reports any error.

    First-appearance ids come from one sort of ``value << b | position``
    keys, b the bit length of the token count.  A file with an id at or
    above 2^(63 - b) returns None too, and the line loop parses it
    (DECISIONS.md D5).
    """
    start = 3 if data.startswith(b"\xef\xbb\xbf") else 0
    while start < len(data):
        stop = data.find(b"\n", start) + 1 or len(data)
        line = data[start:stop].removesuffix(b"\n").removesuffix(b"\r")
        if b"\r" in line:
            return None  # a lone CR ends a line in the loop
        try:
            tokens = line.decode("utf-8").split()
        except UnicodeDecodeError:
            return None
        if tokens and not tokens[0].startswith("#"):
            break
        start = stop
    if start == len(data):
        return None  # no data lines
    blocks = []
    while start < len(data):
        stop = len(data)
        if start + _PARSE_BLOCK < stop:
            stop = max(data.rfind(b"\n", start, start + _PARSE_BLOCK),
                       data.rfind(b"\r", start, start + _PARSE_BLOCK)) + 1
            if stop == 0:
                return None  # a line longer than a block
        values = _decimal_pairs(data[start:stop])
        if values is None:
            return None
        blocks.append(values)
        start = stop
    values = np.concatenate(blocks)
    size = values.size
    bits = size.bit_length()  # every position is below 2**bits
    if values.max() >> (63 - bits):
        return None  # a key would pass 63 bits: the line loop parses the file
    # One sort of value << bits | position keys: each value's positions form a group
    # (``order`` over ``head``) that starts at its first position.
    order = values << bits
    order |= np.arange(size)
    order.sort()
    head = np.flatnonzero(np.diff(order >> bits, prepend=-1))
    order &= (1 << bits) - 1
    first = order[head]
    first_seen = np.zeros(size, dtype=bool)
    first_seen[first] = True
    ids = values[first_seen]
    # A value's id is the number of first appearances before its own.
    rank = np.cumsum(first_seen)
    rank -= 1
    ends = values  # overwritten in place: every value is read by now
    ends[order] = np.repeat(rank[first], np.diff(head, append=size))
    return ends, ids


def _decimal_pairs(block: bytes) -> np.ndarray | None:
    """The ids of whole lines of digits and blanks in file order, if two canonical ids a line."""
    b = np.frombuffer(block, dtype=np.uint8)
    digit = (b - _DIGIT_0) < 10
    breaks = (b == _LF) | (b == _CR)
    if not (digit | breaks | (b == _SPACE) | (b == _TAB)).all():
        return None
    # Each run of digits is a token: where it starts and just past where it ends.
    padded = np.zeros(b.size + 2, dtype=bool)
    padded[1:-1] = digit
    starts, stops = np.flatnonzero(padded[1:] != padded[:-1]).reshape(-1, 2).T
    lengths = stops - starts
    if (lengths > _MAX_ID_DIGITS).any() or (b[starts[lengths > 1]] == _DIGIT_0).any():
        return None
    # Tokens on each line, from the tokens before each CR or LF: none or two.
    per_line = np.diff(np.searchsorted(starts, np.flatnonzero(breaks)),
                       prepend=0, append=starts.size)
    if ((per_line != 0) & (per_line != 2)).any():
        return None
    if not starts.size:
        return starts  # fromstring would read blanks alone as one 0
    values = np.fromstring(block, dtype=np.int64, sep=" ")
    return values if values.size == starts.size else None


def _from_keys(keys: np.ndarray, n: int, ids) -> CsrGraph:
    """Neighbour lists from ``row * n + column`` keys of both orientations; repeats collapse."""
    # A sort and a mask, not np.unique: 0.14 s against 9 s for 6M keys on numpy 2.4.
    keys.sort()
    rows, indices = np.divmod(keys[np.diff(keys, prepend=-1) != 0], n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return CsrGraph(indptr, indices, ids)


def induced_subgraph_sample(g: CsrGraph, k: int, seed) -> CsrGraph:
    """Uniform k-node induced subgraph as neighbour lists, in a fresh uniform node order.

    The returned node order is the subject arrival order used downstream.
    Only the edges with both ends sampled are kept: O(n + |E|) plus a sort
    of the kept ones.
    """
    if not 2 <= k <= g.n:
        raise ParameterError(f"sample size {k} outside [2, {g.n}]")
    idx = np.random.default_rng(seed).permutation(g.n)[:k]
    # pos[v] is v's place in the sample, or -1; stored entries come in both orientations.
    pos = np.full(g.n, -1, dtype=np.int64)
    pos[idx] = np.arange(k)
    src, dst = g._rows(pos), pos[g.indices]
    both = (src >= 0) & (dst >= 0)
    return _from_keys(src[both] * k + dst[both], k, _take_ids(g.node_ids, idx))


def density(g: Graph | CsrGraph) -> float:
    """Fraction of off-diagonal pairs connected; self-loops excluded."""
    if g.weighted:
        raise ParameterError("density is defined for binary graphs")
    if g.n < 2:
        raise ParameterError("density needs at least 2 nodes")
    if isinstance(g, CsrGraph):
        ones = g.indices.shape[0]
    else:
        ones = int(g.matrix.sum(dtype=np.int64)) - g.n
    return ones / (g.n * (g.n - 1))
