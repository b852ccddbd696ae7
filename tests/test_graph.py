import io
import math
import os
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from netrand import (
    ContractError,
    CsrGraph,
    EdgeListParseError,
    ErParams,
    GoeParams,
    Graph,
    ParameterError,
    RevealedView,
    SbmParams,
    density,
    from_edge_list,
    gen_er,
    gen_goe,
    gen_sbm,
    induced_subgraph_sample,
)
from netrand import graph
from netrand.graph import _EXACT_LIMIT, _MAX_DENSE_NODES, _TILE, _mirror_upper, check_exact_bound

from helpers import complete_graph, identity_graph, write_edge_list


def csr_of(g, labels=None):
    """The neighbour lists of a binary ``Graph``, its off-diagonal nonzeros row by row, labelled."""
    off = g.matrix.astype(bool)
    np.fill_diagonal(off, False)
    rows, cols = np.nonzero(off)
    indptr = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=g.n), out=indptr[1:])
    return CsrGraph(indptr, cols.astype(np.int64), node_ids=labels)


def sample_reference(g, labels, k, seed):
    """The induced sample's matrix and labels, fancy-indexed from a dense ``Graph`` and its labels."""
    idx = np.random.default_rng(seed).permutation(g.n)[:k]
    return g.matrix[np.ix_(idx, idx)], tuple(labels[i] for i in idx.tolist())


def assert_valid_binary(g):
    m = g.matrix
    assert np.array_equal(m, m.T)
    assert (np.diagonal(m) == 1).all()
    assert set(np.unique(m)) <= {0, 1}


class TestGenEr:
    def test_two_nodes(self):
        g = gen_er(ErParams(2, 0.5), seed=0)
        assert g.matrix[0, 0] == g.matrix[1, 1] == 1
        assert g.matrix[0, 1] == g.matrix[1, 0]
        assert g.matrix[0, 1] in (0, 1)

    def test_density_concentration(self):
        n, p = 1000, 0.2
        g = gen_er(ErParams(n, p), seed=7)
        pairs = n * (n - 1) / 2
        tol = 3 * math.sqrt(p * (1 - p) / pairs)
        assert abs(density(g) - p) < tol

    def test_deterministic_under_seed(self):
        a = gen_er(ErParams(100, 0.2), seed=5)
        b = gen_er(ErParams(100, 0.2), seed=5)
        assert np.array_equal(a.matrix, b.matrix)
        c = gen_er(ErParams(100, 0.2), seed=6)
        assert not np.array_equal(a.matrix, c.matrix)

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            ErParams(1, 0.5)
        with pytest.raises(ParameterError):
            ErParams(10, 0.0)
        with pytest.raises(ParameterError):
            ErParams(10, 1.0)


class TestGenSbm:
    def test_equal_rates_match_er_frequency(self):
        # with p_in == p_out == p every edge is Bernoulli(p) whatever the labels
        p, trials = 0.3, 4000
        hits = sum(int(gen_sbm(SbmParams(2, p, p), seed=s).matrix[0, 1]) for s in range(trials))
        se = math.sqrt(p * (1 - p) / trials)
        assert abs(hits / trials - p) < 3 * se

    def test_degenerate_rates_give_the_group_blocks(self):
        # the group labels are the stream's first n uniforms, below 1/2 for group 1
        g = gen_sbm(SbmParams(4, 1.0, 0.0), seed=0)
        labels = np.random.default_rng(0).random(4) < 0.5
        assert np.array_equal(g.matrix, labels[:, None] == labels[None, :])

    def test_within_between_concentration(self):
        n, p_in, p_out = 1000, 0.3, 0.1
        seed = 11
        g = gen_sbm(SbmParams(n, p_in, p_out), seed=seed)
        labels = (np.random.default_rng(seed).random(n) < 0.5).astype(np.int8)
        same = labels[:, None] == labels[None, :]
        triu = np.triu(np.ones((n, n), dtype=bool), 1)
        for mask, p in ((same & triu, p_in), (~same & triu, p_out)):
            count = int(mask.sum())
            rate = g.matrix[mask].mean()
            assert abs(rate - p) < 3 * math.sqrt(p * (1 - p) / count)

    def test_rate_ordering_enforced(self):
        with pytest.raises(ParameterError):
            SbmParams(10, 0.1, 0.3)


class TestGenGoe:
    def test_moments(self):
        n, sigma2 = 200, 0.16
        g = gen_goe(GoeParams(n, sigma2), seed=2)
        triu = g.matrix[np.triu_indices(n, 1)]
        pairs = n * (n - 1) / 2
        assert abs(triu.mean()) < 3 * math.sqrt(sigma2 / pairs)
        assert abs(triu.var() - sigma2) < 0.1 * sigma2

    def test_symmetry_and_determinism(self):
        g = gen_goe(GoeParams(50, 0.25), seed=3)
        assert np.array_equal(g.matrix, g.matrix.T)
        assert (np.diagonal(g.matrix) == 1.0).all()
        h = gen_goe(GoeParams(50, 0.25), seed=3)
        assert np.array_equal(g.matrix, h.matrix)

    def test_sigma_must_be_positive(self):
        with pytest.raises(ParameterError):
            GoeParams(10, 0.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 40), st.sampled_from([0.1, 0.5, 0.9]), st.integers(0, 10_000))
def test_generator_invariants(n, p, seed):
    assert_valid_binary(gen_er(ErParams(n, p), seed))
    assert_valid_binary(gen_sbm(SbmParams(n, min(2 * p, 0.9), p / 2), seed))
    w = gen_goe(GoeParams(n, 0.5), seed)
    assert np.array_equal(w.matrix, w.matrix.T)
    assert (np.diagonal(w.matrix) == 1.0).all()


def per_row_reference(n, dtype, upper_row, diag):
    """The generators' matrix drawn one row at a time: row i right of the diagonal is ``upper_row(i)``."""
    a = np.zeros((n, n), dtype=dtype)
    for i in range(n - 1):
        a[i, i + 1:] = upper_row(i)
    lower = np.tril_indices(n, -1)
    a[lower] = a.T[lower]
    np.fill_diagonal(a, diag)
    return a


edge_rates = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.integers(2, 12), st.integers(2, 300)), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       st.tuples(edge_rates, edge_rates).map(sorted), st.integers(0, 2**32 - 1),
       st.sampled_from([7, 64, graph._DRAW_BLOCK]))
def test_generators_match_per_row_draws(n, p, sbm_rates, seed, budget):
    """Block draws give the bytes of one ``random``/``normal`` call per row, in row order.

    A budget of 7 or 64 draws makes rows cross block boundaries and rows longer than
    a block; with the default, every n here is one block.
    """
    p_out, p_in = sbm_rates
    with mock.patch.object(graph, "_DRAW_BLOCK", budget):
        er = gen_er(ErParams(n, p), seed)
        sbm = gen_sbm(SbmParams(n, p_in, p_out), seed)
        goe = gen_goe(GoeParams(n, p), seed)

    rng = np.random.default_rng(seed)
    expect = per_row_reference(n, np.uint8, lambda i: rng.random(n - i - 1) < p, 1)
    assert er.matrix.tobytes() == expect.tobytes()

    rng = np.random.default_rng(seed)
    groups = (rng.random(n) < 0.5).astype(np.int8)
    expect = per_row_reference(
        n, np.uint8, lambda i: rng.random(n - i - 1) < np.where(groups[i + 1:] == groups[i], p_in, p_out), 1)
    assert sbm.matrix.tobytes() == expect.tobytes()

    rng, sigma = np.random.default_rng(seed), float(np.sqrt(p))
    expect = per_row_reference(n, np.float64, lambda i: rng.normal(0.0, sigma, n - i - 1), 1.0)
    assert goe.matrix.tobytes() == expect.tobytes()


class TestEdgeList:
    def test_duplicate_collapse_and_symmetry(self):
        g = from_edge_list(io.StringIO("# c\n0 1\n1 0\n")).to_dense()
        assert g.n == 2
        assert g.matrix[0, 1] == 1 and g.matrix[1, 0] == 1

    def test_first_appearance_remapping(self):
        csr = from_edge_list(["5 9", "9 7"])
        g = csr.to_dense()
        assert csr.labels == ("5", "9", "7")
        assert g.matrix[0, 1] == 1 and g.matrix[1, 2] == 1 and g.matrix[0, 2] == 0

    def test_self_loops_ignored_diagonal_forced(self):
        g = from_edge_list(["3 3", "3 4"]).to_dense()
        assert g.n == 2
        assert (np.diagonal(g.matrix) == 1).all()

    def test_only_self_loops_give_isolated_nodes(self):
        g = from_edge_list(["7 7", "# c", "8 8", "7 7"])
        assert g.labels == ("7", "8") and g.indices.size == 0
        assert np.array_equal(g.to_dense().matrix, np.eye(2, dtype=np.uint8))

    def test_malformed_line_reports_number(self):
        with pytest.raises(EdgeListParseError) as err:
            from_edge_list(["1 2", "oops", "3 4"])
        assert err.value.line_number == 2

    def test_three_tokens_rejected(self):
        with pytest.raises(EdgeListParseError):
            from_edge_list(["1 2 3"])

    def test_empty_input_rejected(self):
        with pytest.raises(EdgeListParseError):
            from_edge_list(["# only comments", "   "])

    def test_byte_order_mark_dropped(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_bytes(b"\xef\xbb\xbfa b\nb a\na c\n")
        assert from_edge_list(path).labels == ("a", "b", "c")

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_bytes(b"a b\n\xff\xfe c\n")
        with pytest.raises(EdgeListParseError, match="UTF-8"):
            from_edge_list(path)

    def test_arbitrary_tokens_accepted(self):
        g = from_edge_list(["alice bob", "bob carol"])
        assert g.labels == ("alice", "bob", "carol")

    def test_round_trip(self, tmp_path):
        g = gen_er(ErParams(40, 0.3), seed=1)
        path = tmp_path / "edges.txt"
        write_edge_list(g, path, header="test")
        back = from_edge_list(path)
        # relabeling permutes nodes; compare degree multiset and edge count
        assert back.n == g.n
        perm = np.argsort([int(x) for x in back.labels])
        assert np.array_equal(back.to_dense().matrix[np.ix_(perm, perm)], g.matrix)


def path_lines(n):
    return [f"{i} {i + 1}" for i in range(n - 1)]


class TestCsrGraph:
    # the path 0 - 1 - 2
    PATH = ([0, 1, 3, 4], [1, 0, 2, 1])

    def test_valid_path(self):
        g = CsrGraph(np.array(self.PATH[0]), np.array(self.PATH[1]), node_ids=("a", "b", "c"))
        assert g.n == 3 and not g.weighted
        assert np.array_equal(g.to_dense().matrix, [[1, 1, 0], [1, 1, 1], [0, 1, 1]])

    @pytest.mark.parametrize("indptr, indices, match", [
        pytest.param([0, 1, 1, 1], [1], "symmetric", id="asymmetric-pair"),
        pytest.param([0, 2, 3, 4], [2, 1, 0, 0], "sorted", id="unsorted"),
        pytest.param([0, 2, 4], [1, 1, 0, 0], "unique", id="duplicate"),
        pytest.param([0, 1, 2, 3], [1, 2, 0], "symmetric", id="directed-cycle-equal-degrees"),
        pytest.param([0, 1], [0], "self-loops", id="self-loop"),
        pytest.param([0, 2, 3], [0, 1, 0], "self-loops", id="self-loop-among-others"),
        pytest.param([0, 1, 2], [1, 2], "outside", id="index-too-large"),
        pytest.param([0, 1, 2], [-1, 0], "outside", id="index-negative"),
        pytest.param([1, 1, 2], [1, 0], "indptr", id="indptr-not-from-0"),
        pytest.param([0, 2, 1, 2], [1, 0], "indptr", id="indptr-decreasing"),
        pytest.param([0, 1, 1], [1, 0], "indptr", id="indptr-end-short"),
        pytest.param([], [], "indptr", id="indptr-empty"),
    ])
    def test_malformed_rejected(self, indptr, indices, match):
        with pytest.raises(ParameterError, match=match):
            CsrGraph(np.array(indptr, dtype=np.int64), np.array(indices, dtype=np.int64))

    def test_labels_length_and_dtype_rejected(self):
        indptr, indices = (np.array(a, dtype=np.int64) for a in self.PATH)
        with pytest.raises(ParameterError, match="labels"):
            CsrGraph(indptr, indices, node_ids=("a", "b"))
        with pytest.raises(ParameterError, match="int64"):
            CsrGraph(indptr, indices.astype(np.int32))

    def test_arrays_frozen(self):
        g = from_edge_list(["a b", "b c"])
        with pytest.raises(ValueError):
            g.indices[0] = 2

    def test_above_dense_cap_ingests_and_samples_without_densifying(self):
        n = _MAX_DENSE_NODES + 7232
        g = from_edge_list(path_lines(n))
        assert isinstance(g, CsrGraph) and g.n == n and g.indices.shape == (2 * (n - 1),)
        with pytest.raises(ParameterError, match="dense-storage limit"):
            g.to_dense()
        k = _MAX_DENSE_NODES + 2
        big = induced_subgraph_sample(g, k, seed=0)
        idx = np.random.default_rng(0).permutation(n)[:k]
        assert isinstance(big, CsrGraph) and big.n == k
        # the sampled path edges are the consecutive labels that were both drawn
        assert big.indices.shape[0] == 2 * np.isin(idx + 1, idx).sum()
        with pytest.raises(ParameterError, match="dense-storage limit"):
            big.to_dense()
        s = induced_subgraph_sample(g, 100, seed=3)
        idx = np.random.default_rng(3).permutation(n)[:100]
        assert s.labels == tuple(str(i) for i in idx.tolist())
        assert np.array_equal(s.matrix, np.abs(idx[:, None] - idx[None, :]) <= 1)

    def test_density_counts_stored_entries(self):
        g = gen_er(ErParams(40, 0.2), seed=1)
        assert density(csr_of(g)) == density(g) == int(np.triu(g.matrix, 1).sum()) / (40 * 39 / 2)

    def test_generators_check_dense_cap_first(self):
        with pytest.raises(ParameterError, match="dense-storage limit"):
            gen_er(ErParams(_MAX_DENSE_NODES + 2, 0.1), seed=0)


def dense_fill_reference(lines):
    """Dense ingestion as one n x n fill from a list of index tuples, the original algorithm.

    Returns the dense ``Graph`` and its labels, or None for no data lines.
    """
    index: dict[str, int] = {}
    edges = []
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        iu = index.setdefault(tokens[0], len(index))
        iv = index.setdefault(tokens[1], len(index))
        if iu != iv:
            edges.append((iu, iv))
    if not index:
        return None
    n = len(index)
    a = np.zeros((n, n), dtype=np.uint8)
    for u, v in edges:
        a[u, v] = a[v, u] = 1
    np.fill_diagonal(a, 1)
    return Graph(a), tuple(index)


# Tokens hold no whitespace; one may start with '#', which makes its line a comment when first.
TOKENS = st.text(alphabet="ab1_#é", min_size=1, max_size=3)
SEPARATORS = st.sampled_from([" ", "\t", "  ", " \t", "\u00a0", "\u3000"])


@st.composite
def edge_list_lines(draw):
    """Edge lines over a small token pool, so duplicates, reversals and self-loops are common."""
    names = draw(st.lists(TOKENS, min_size=1, max_size=12, unique=True))
    node = st.sampled_from(names)
    pairs = draw(st.lists(st.tuples(node, node), min_size=1, max_size=40))
    pairs += [(v, u) for u, v in draw(st.lists(st.sampled_from(pairs), max_size=10))]
    pairs = draw(st.permutations(pairs))
    lines = []
    for u, v in pairs:
        lines.append(draw(st.sampled_from(["", " "])) + u + draw(SEPARATORS) + v
                     + draw(st.sampled_from(["", "\n", " \n"])))
        lines += draw(st.lists(st.sampled_from(["# comment", "  # x y z", "", "   \n"]),
                               max_size=1))
    return lines


class TestEdgeListAgainstDenseFill:
    @given(lines=edge_list_lines())
    @settings(max_examples=100, deadline=None)
    def test_densified_parse_equals_dense_fill(self, lines):
        want = dense_fill_reference(lines)
        if want is None:
            with pytest.raises(EdgeListParseError):
                from_edge_list(lines)
            return
        got = from_edge_list(lines)
        assert isinstance(got, CsrGraph)
        want, labels = want
        assert got.labels == labels
        assert got.to_dense().matrix.tobytes() == want.matrix.tobytes()

    @given(lines=edge_list_lines(), data=st.data(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_csr_sample_equals_dense_sample(self, lines, data, seed):
        want = dense_fill_reference(lines)
        assume(want is not None and want[0].n >= 2)
        csr, (want, want_labels) = from_edge_list(lines), want
        sizes = {2, want.n, data.draw(st.integers(2, want.n))}
        for k in sorted(sizes):
            got = induced_subgraph_sample(csr, k, seed)
            ref, labels = sample_reference(want, want_labels, k, seed)
            assert got.matrix.dtype == ref.dtype == np.uint8
            assert got.matrix.tobytes() == ref.tobytes()
            assert got.labels == labels

    @pytest.mark.parametrize("n", [3, 5, 37])
    def test_odd_node_counts(self, n):
        lines = path_lines(n) + [f"0 {n - 1}", f"{n - 1} 0", "2 2"]
        csr, (dense, dense_labels) = from_edge_list(lines), dense_fill_reference(lines)
        assert csr.to_dense().matrix.tobytes() == dense.matrix.tobytes()
        for k in (2, n - 1, n):
            got, (ref, labels) = induced_subgraph_sample(csr, k, 8), sample_reference(dense, dense_labels, k, 8)
            assert got.matrix.tobytes() == ref.tobytes() and got.labels == labels


def loop_parse(path, order_seed=None):
    """The line loop's result: the file read as an iterable of lines."""
    with open(path, encoding="utf-8-sig") as fh:
        return from_edge_list(fh, order_seed)


def assert_same_graph(got, want):
    assert got.labels == want.labels
    assert np.array_equal(got.indptr, want.indptr) and np.array_equal(got.indices, want.indices)


def assert_parses_as_loop(path):
    """``from_edge_list(path)`` gives the loop's graph, or raises the loop's error.

    Samples of the two parses are equal too, and with an order seed both parses
    give the whole-list sample of that seed.
    """
    try:
        want = loop_parse(path)
    except UnicodeDecodeError as exc:
        with pytest.raises(EdgeListParseError) as err:
            from_edge_list(path)
        assert str(err.value) == f"edge list is not UTF-8 text ({exc.reason})"
        return
    except EdgeListParseError as exc:
        with pytest.raises(EdgeListParseError) as err:
            from_edge_list(path)
        assert str(err.value) == str(exc) and err.value.line_number == exc.line_number
        return
    got = from_edge_list(path)
    assert_same_graph(got, want)
    seed = 0  # its orders of 3 and 5 nodes are not their own inverses
    whole = got  # a one-node list has one order
    for k in sorted({2, got.n}) if got.n > 1 else ():
        whole = induced_subgraph_sample(got, k, seed)
        assert_same_graph(whole, induced_subgraph_sample(want, k, seed))
    assert_same_graph(from_edge_list(path, seed), whole)
    assert_same_graph(loop_parse(path, seed), whole)


# Canonical decimal ids, as SNAP writes them, and ids the canonical rule excludes: a leading
# zero, 19 or 20 digits (some beyond int64).
CANONICAL_IDS = st.one_of(st.integers(0, 30), st.integers(0, 10**18 - 1)).map(str)
OTHER_IDS = st.one_of(st.integers(0, 9).map("0{}".format), st.integers(10**18, 10**20 - 1).map(str))
# NBSP and \x1c are whitespace to str.split() only.
ID_SEPARATORS = st.sampled_from([" ", "\t", "\t ", "  ", "\u00a0", "\x1c"])
LINE_BREAKS = st.sampled_from(["\n", "\r\n", "\r"])
HEADER_LINES = st.sampled_from(["# c", "#", "", " \t", "  # x\ty", "\x1c", "# é", "# a\rb"])
# Inserted anywhere: a mid-body comment, a stray CR, an extra token, non-ASCII text, bytes
# that are not UTF-8.
NOISE = st.sampled_from([b"#", b"# c\n", b"\r", b" 7", b" 7 8", "é".encode(), b"\x1c",
                         "\u00a0".encode(), "\ufeff".encode(), b"\n", b"\xff", b"\xc3"])


@st.composite
def decimal_edge_list_bytes(draw):
    """SNAP-like files of decimal ids; unless ``clean``, with what may send them to the loop."""
    clean = draw(st.booleans())
    ids = CANONICAL_IDS if clean else st.one_of(CANONICAL_IDS, OTHER_IDS)
    node = st.sampled_from(draw(st.lists(ids, min_size=1, max_size=8)))
    separators = st.sampled_from([" ", "\t"]) if clean else ID_SEPARATORS
    lines = draw(st.lists(HEADER_LINES.filter(lambda h: not clean or "\r" not in h), max_size=2))
    for _ in range(draw(st.integers(1, 12))):
        lines.append(draw(st.sampled_from(["", " "])) + draw(node) + draw(separators)
                     + draw(node) + draw(st.sampled_from(["", " ", "\t"])))
    text = "".join(line + draw(LINE_BREAKS) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    data = (draw(st.sampled_from(["", "\ufeff"])) + text).encode("utf-8")
    for _ in range(0 if clean else draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(NOISE) + data[at:]
    return data


class TestDecimalIdsAgainstLineLoop:
    @given(data=decimal_edge_list_bytes(), block=st.sampled_from([8, 32, graph._PARSE_BLOCK]))
    @settings(max_examples=300, deadline=None)
    def test_path_parse_equals_line_loop(self, tmp_path_factory, data, block):
        path = tmp_path_factory.mktemp("edges") / "edges.txt"
        path.write_bytes(data)
        with mock.patch.object(graph, "_PARSE_BLOCK", block):
            assert_parses_as_loop(path)

    @pytest.mark.parametrize("data", [
        pytest.param(b"# x\r1 2 3\n", id="lone-cr-in-header-then-bad-line"),
        pytest.param(b"1 2\r3 4\r", id="lone-cr-line-ends"),
        pytest.param(b"1 2\n3 4 5 6\n", id="four-tokens"),
        pytest.param(b"9223372036854775808 1\n", id="beyond-int64"),
        pytest.param(b"# \xff\n1 2\n", id="not-utf8-header"),
        pytest.param(b"1 2\n# c\n2 3\n", id="comment-in-body"),
        pytest.param(b"50 9\n9 7\n7 50\n1 9\n3 3\n", id="decimal-ids-odd-n"),
        pytest.param(b"999999999999999999 1\n1 2\n2 3\n3 4\n", id="ids-past-key-bits"),
        pytest.param(b"7 7\n", id="one-node"),
    ])
    def test_cases_equal_line_loop(self, tmp_path, data):
        path = tmp_path / "edges.txt"
        path.write_bytes(data)
        assert_parses_as_loop(path)

    def test_lone_cr_in_header_ends_the_line(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_bytes(b"# x\r1 2\n2 3\n")
        assert from_edge_list(path).labels == ("1", "2", "3")

    def test_leading_zero_keeps_its_label(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_bytes(b"01 2\n2 1\n")
        assert from_edge_list(path).labels == ("01", "2", "1")

    def test_no_final_newline(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_bytes(b"5 9\n9 7")
        g = from_edge_list(path)
        assert g.labels == ("5", "9", "7")
        assert np.array_equal(g.indptr, [0, 1, 3, 4]) and np.array_equal(g.indices, [1, 0, 2, 1])

    def test_three_tokens_in_body_report_line(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_bytes(b"# h\r\n1 2\r\n\r\n3 4 5\r\n6 7\r\n")
        with pytest.raises(EdgeListParseError, match="got 3 tokens") as err:
            from_edge_list(path)
        assert err.value.line_number == 4

    def test_snap_file_takes_numpy_path(self, tmp_path, monkeypatch):
        def no_loop(data):
            raise AssertionError("the line loop ran")

        path = tmp_path / "edges.txt"
        path.write_bytes(b"# Undirected graph\r\n# FromNodeId\tToNodeId\r\n"
                         b"30\t10\r\n10\t20\r\n20\t30\r\n0\t30\r\n")
        monkeypatch.setattr(graph, "_decoded_lines", no_loop)
        g = from_edge_list(path)
        assert g.labels == ("30", "10", "20", "0")
        assert np.array_equal(g.indptr, [0, 3, 5, 7, 8])
        assert np.array_equal(g.indices, [1, 2, 3, 0, 2, 0, 1, 0])

    @given(small=st.lists(st.integers(0, 40), min_size=1, max_size=10),
           large=st.lists(st.integers(10**18 - 50, 10**18 - 1), max_size=3),
           picks=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=4, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_first_appearance_ids_equal_line_loop(self, tmp_path_factory, small, large, picks):
        """``_decimal_edges``' ends and labels are the loop's; ids too large for its keys take the loop.

        Ids are drawn from a few small values, and, when ``large`` is drawn, ids at
        or above 2^(63 - b) for b the bit length of the token count, for which
        ``_decimal_edges`` returns None and the path parses through the line loop.
        Picks repeat ids, join an id to itself and often show an id first in the
        second column.
        """
        ids = small + large
        lines = [f"{ids[u % len(ids)]} {ids[v % len(ids)]}\n" for u, v in picks]
        tokens = 2 * len(lines)
        used = {ids[k % len(ids)] for pick in picks for k in pick}
        got = graph._decimal_edges("".join(lines).encode())
        if any(i >= 10**18 - 50 for i in used):
            assert max(used) >= 1 << (63 - tokens.bit_length())  # a key would pass 63 bits
            assert got is None
            path = tmp_path_factory.mktemp("edges") / "edges.txt"
            path.write_text("".join(lines))
            want = from_edge_list(lines)
            g = from_edge_list(path)
            assert g.labels == want.labels
            assert np.array_equal(g.indptr, want.indptr) and np.array_equal(g.indices, want.indices)
            return
        assert max(used) < 1 << (63 - tokens.bit_length())  # the key sort's condition
        with mock.patch.object(graph, "_from_ends", lambda ends, ids, order_seed: (ends.copy(), ids)):
            want_ends, want_labels = from_edge_list(lines)
        assert got is not None
        assert got[1].dtype == np.int64 and tuple(map(str, got[1].tolist())) == want_labels
        assert got[0].dtype == np.int64 and np.array_equal(got[0], want_ends)

    @pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="needs /dev/fd")
    def test_pipe_is_read_once(self):
        # Labels that are not decimal ids send the text to the line loop after the numpy
        # path has read the pipe; a second read would find it empty.
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, b"# h\na b\nb c\n")
            os.close(write_end)
            assert from_edge_list(f"/dev/fd/{read_end}").labels == ("a", "b", "c")
        finally:
            os.close(read_end)


class TestExactBound:
    def test_bound_reached_rejected(self):
        # (d + 1)^2 = 2^52 for each of the two top nodes: the sum reaches 2^53
        d = 2**26 - 1
        degrees = np.array([3, d, 0, d, 5], dtype=np.int64)
        with pytest.raises(ParameterError, match="2\\^53"):
            check_exact_bound(degrees, 2)
        with pytest.raises(ParameterError):
            check_exact_bound(degrees, 5)
        # squares past 2^63, whose int64 sum would wrap to a number below the bound
        with pytest.raises(ParameterError):
            check_exact_bound(np.array([2**32, 1, 2**32], dtype=np.int64), 2)

    def test_bound_below_accepted(self):
        d = 2**26 - 1
        check_exact_bound(np.array([3, d, 0, d - 1, 5], dtype=np.int64), 2)
        check_exact_bound(np.array([3, d, 0, 1, 5], dtype=np.int64), 5)
        assert (d + 1) ** 2 + d**2 < _EXACT_LIMIT

    def test_largest_degrees_bound_every_sample(self):
        # a star with a path: any 20-node sample and any signs stay below the top-20 bound
        g = from_edge_list(path_lines(50) + [f"0 {v}" for v in range(2, 50, 3)])
        bound = sum(int(d + 1) ** 2 for d in np.sort(g.degrees)[-20:])
        rng = np.random.default_rng(0)
        for seed in range(20):
            s = induced_subgraph_sample(g, 20, seed)
            tau = np.where(rng.random(20) < 0.5, 1.0, -1.0)
            rows = np.repeat(np.arange(s.n), s.degrees)
            signed = tau + np.bincount(rows, weights=tau[s.indices], minlength=s.n)
            assert signed @ signed <= bound


class TestInducedSample:
    def test_full_sample_is_permutation(self):
        g = gen_er(ErParams(30, 0.4), seed=4)
        s = induced_subgraph_sample(csr_of(g), 30, seed=9)
        assert s.n == 30
        assert s.matrix.sum() == g.matrix.sum()
        assert sorted(s.matrix.sum(axis=0).tolist()) == sorted(g.matrix.sum(axis=0).tolist())

    def test_complete_graph_pair(self):
        s = induced_subgraph_sample(csr_of(complete_graph(10)), 2, seed=0)
        assert np.array_equal(s.matrix, np.ones((2, 2), dtype=np.uint8))

    def test_resampled_density_matches_parent(self):
        g = gen_er(ErParams(400, 0.1), seed=6)
        parent, csr = density(g), csr_of(g)
        ds = np.array([density(induced_subgraph_sample(csr, 100, seed=s)) for s in range(60)])
        se = ds.std(ddof=1) / math.sqrt(len(ds))
        assert abs(ds.mean() - parent) < 3 * se

    @pytest.mark.parametrize("k", [
        pytest.param(1100, id="1100-binary"),
        pytest.param(1500, id="1500-binary"),
    ])
    def test_row_blocks_match_fancy_index_reference(self, k):
        n, seed = 1500, 12
        g, names = gen_er(ErParams(n, 0.1), seed=2), tuple(f"v{i}" for i in range(n))
        s = induced_subgraph_sample(csr_of(g, names), k, seed=seed)
        ref, labels = sample_reference(g, names, k, seed)
        assert s.matrix.dtype == np.uint8
        assert np.array_equal(s.matrix, ref)
        assert s.labels == labels

    def test_size_bounds(self):
        g = csr_of(gen_er(ErParams(10, 0.5), seed=0))
        with pytest.raises(ParameterError):
            induced_subgraph_sample(g, 11, seed=0)
        with pytest.raises(ParameterError):
            induced_subgraph_sample(g, 1, seed=0)


class TestDensity:
    def test_complete(self):
        assert density(complete_graph(10)) == 1.0

    def test_identity_only(self):
        assert density(identity_graph(8)) == 0.0

    def test_square_diagonal_counts_degree_with_self_loop(self):
        g = gen_er(ErParams(12, 0.5), seed=2)
        a = g.matrix.astype(np.int64)
        assert np.array_equal(np.diagonal(a @ a), a.sum(axis=1))

    def test_average_degree_relation(self):
        # average degree including the self loop is d*(n-1) + 1
        g = gen_er(ErParams(200, 0.1), seed=3)
        d = density(g)
        avg_degree = g.matrix.sum() / g.n
        assert avg_degree == pytest.approx(d * (g.n - 1) + 1)

    def test_weighted_unsupported(self):
        with pytest.raises(ParameterError):
            density(gen_goe(GoeParams(5, 1.0), seed=0))


class TestMatvec:
    # n = 300 spans three 128-row chunks of a dense matrix
    GRAPHS = {
        "dense": gen_er(ErParams(300, 0.3), seed=5),
        "weighted": gen_goe(GoeParams(300, 0.5), seed=3),
    }
    GRAPHS["lists"] = csr_of(GRAPHS["dense"])

    @pytest.mark.parametrize("k", [0, 1, 129, 300])
    @pytest.mark.parametrize("values", ["float", "integer"])
    @pytest.mark.parametrize("shape", ["vector", "block"])
    @pytest.mark.parametrize("storage", ["dense", "weighted", "lists"])
    def test_matches_dense_reference(self, storage, shape, values, k):
        g = self.GRAPHS[storage]
        rng = np.random.default_rng(7)
        size = (k,) if shape == "vector" else (k, 4)
        v = rng.normal(size=size) if values == "float" else rng.integers(-3, 4, size=size, dtype=np.int8)
        got = graph.matvec(g, v)
        assert got.dtype == np.float64 and got.shape == v.shape
        a = g.matrix[:k, :k]
        if values == "integer" and not g.weighted:
            # integer-valued sums are exact in float64, whatever the order of summation
            assert np.array_equal(got, a.astype(np.int64) @ v.astype(np.int64))
        else:
            assert np.allclose(got, a.astype(np.float64) @ v, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("storage", ["dense", "lists"])
    def test_rejects_other_shapes_and_more_rows_than_nodes(self, storage):
        g = self.GRAPHS[storage]
        for v in (np.ones((4, 2, 2)), np.ones(301), np.ones((301, 2))):
            with pytest.raises(ContractError):
                graph.matvec(g, v)


def ladder_graph(n):
    """Dense ladder: i joined to i + 1 and i + 2, so column 2m - 1 is in both rows of pair m."""
    i = np.arange(n)
    return Graph((np.abs(i[:, None] - i) <= 2).astype(np.uint8))


class TestRevealedView:
    @pytest.mark.parametrize("storage", ["dense", "lists"])
    @pytest.mark.parametrize("read", ["pair_rows", "pair_sides", "pair_blocks"])
    def test_each_read_reveals_exactly_what_it_reads(self, read, storage):
        g = gen_er(ErParams(11, 0.5), seed=0)
        h = g if storage == "dense" else csr_of(g)
        view = RevealedView(h)
        assert view._revealed == 0
        if (read, storage) in (("pair_rows", "lists"), ("pair_sides", "dense")):
            # each scalar loop's walk reads one storage
            with pytest.raises(ContractError):
                next(getattr(view, read)())
            return
        m = -1
        for m, pair in enumerate(getattr(view, read)()):
            assert view._revealed == 2 * m + 2
            # the pair's rows rebuilt over exactly the 2m prefix columns
            if read == "pair_rows":
                rows = pair[0]
            else:
                rows = np.zeros((2, 2 * m))
                if read == "pair_blocks":
                    rows[:, pair[0]] = pair[1][:2]
                else:
                    rows[0, list(pair[0])] = rows[1, list(pair[1])] = 1
                    # y . y: the prefix columns where the two rows differ
                    assert pair[2] == np.count_nonzero(rows[0] != rows[1])
            assert np.array_equal(rows, g.matrix[2 * m:2 * m + 2, :2 * m])
            assert pair[-1] == 1 - g.matrix[2 * m, 2 * m + 1]
        assert m == 4 and view._revealed == 10
        # a second walk after the walk, a shorter reveal, or one past n
        with pytest.raises(ContractError):
            next(getattr(view, read)())
        for k in (9, 12):
            with pytest.raises(ContractError):
                view.reveal_to(k)
        assert view._revealed == 10

    @pytest.mark.parametrize(
        "g",
        [
            gen_er(ErParams(41, 0.3), seed=4),
            # weighted, with zero off-diagonal entries where the ER mask has none
            Graph(gen_goe(GoeParams(41, 0.5), seed=5).matrix * gen_er(ErParams(41, 0.3), seed=6).matrix),
        ],
        ids=["binary", "weighted"],
    )
    def test_pair_neighbours_are_nonzero_pair_row_columns(self, g):
        # dense storage reads every prefix column, so every nonzero one of the pair's rows
        reads = 0
        for length, (vals, e) in zip(range(0, g.n - 1, 2), RevealedView(g).pair_rows()):
            assert vals.dtype == g.matrix.dtype
            assert np.array_equal(vals, g.matrix[length:length + 2, :length])
            # the self-weight minus the entry joining the pair
            assert type(e) is float
            assert e == float(g.matrix[length, length]) - float(g.matrix[length, length + 1])
            reads += 1
        assert reads == g.n // 2

    @pytest.mark.parametrize(
        "g",
        [
            gen_er(ErParams(41, 0.3), seed=4),
            gen_er(ErParams(30, 0.02), seed=8),
            # weighted, with zero off-diagonal entries where the ER mask has none
            Graph(gen_goe(GoeParams(41, 0.5), seed=5).matrix * gen_er(ErParams(41, 0.3), seed=6).matrix),
            identity_graph(9),
            ladder_graph(12),
            # odd n: the trailing subject 12, joined to 10 and 11, joins no pair
            ladder_graph(13),
        ],
        ids=["binary", "sparse", "weighted", "isolated", "ladder", "odd"],
    )
    def test_pair_blocks_are_pair_neighbours_without_zero_columns(self, g):
        stores = [g] if g.weighted else [g, csr_of(g)]
        for h in stores:
            view, reads = RevealedView(h), 0
            for m, (cols, rows, y, e) in enumerate(view.pair_blocks()):
                assert view._revealed == 2 * m + 2
                # the dense prefix rows, with the columns zero in both dropped
                vals = g.matrix[2 * m:2 * m + 2, :2 * m]
                want_e = float(g.matrix[2 * m, 2 * m]) - float(g.matrix[2 * m, 2 * m + 1])
                want_cols = np.flatnonzero((vals != 0).any(axis=0))
                assert cols.dtype.kind == "i" and np.array_equal(cols, want_cols)
                assert rows.dtype == y.dtype == np.float64 and rows.shape == (3, cols.size)
                assert np.array_equal(rows[:2], vals[:, want_cols].astype(np.float64))
                assert np.array_equal(y, rows[1] - rows[0])
                # the third row gives e (z0 - z1) in the product with the signs
                assert np.array_equal(rows[2], -e * y)
                assert type(e) is float and e == want_e
                reads += 1
            assert reads == h.n // 2

    def test_pair_blocks_empty_without_prefix_neighbours(self):
        # pairs 0 and 1 have no earlier neighbours; in pair 2 only subject 4 is joined to subject 0
        g = from_edge_list(["0 1", "2 3", "4 0"] + [f"{i} {i}" for i in range(5, 8)])
        for h in (g, g.to_dense()):
            reads = list(RevealedView(h).pair_blocks())
            assert [r[0].tolist() for r in reads] == [[], [], [0], []]
            assert [r[3] for r in reads] == [0.0, 0.0, 1.0, 1.0]
            assert reads[0][1].shape == (3, 0) and reads[0][2].shape == (0,)
            assert reads[2][1].tolist() == [[1.0], [0.0], [1.0]] and reads[2][2].tolist() == [-1.0]


class TestGraphType:
    def test_matrices_are_immutable(self):
        g = gen_er(ErParams(5, 0.5), seed=0)
        with pytest.raises(ValueError):
            g.matrix[0, 1] = 1

    def test_asymmetric_rejected(self):
        m = np.eye(3, dtype=np.uint8)
        m[0, 1] = 1
        with pytest.raises(ParameterError):
            Graph(m)

    @pytest.mark.parametrize("dtype", [np.int64, np.bool_, np.float32])
    def test_other_dtypes_rejected(self, dtype):
        with pytest.raises(ParameterError, match=np.dtype(dtype).name):
            Graph(np.eye(4, dtype=dtype))

    def test_weighted_follows_dtype(self):
        er = gen_er(ErParams(6, 0.5), seed=0)
        goe = gen_goe(GoeParams(6, 0.3), seed=1)
        binary = [er, gen_sbm(SbmParams(6, 0.5, 0.1), seed=2),
                  from_edge_list(["a b", "b c"]).to_dense(),
                  induced_subgraph_sample(csr_of(er), 4, seed=3)]
        weighted = [goe, Graph(goe.matrix * 2.0)]
        assert [(g.matrix.dtype, g.weighted) for g in binary] == [(np.uint8, False)] * 4
        assert [(g.matrix.dtype, g.weighted) for g in weighted] == [(np.float64, True)] * 2

    # n spans two full tiles and a partial third one
    TILED_N = 2 * _TILE + 3

    @pytest.mark.parametrize("dtype", [
        pytest.param(np.uint8, id="uint8-binary"),
        pytest.param(np.float64, id="float64-weighted"),
    ])
    @pytest.mark.parametrize("i, j", [
        (3, 100),                      # diagonal tile
        (10, 2 * _TILE - 5),           # full off-diagonal tile, far from the diagonal
        (2 * _TILE - 5, 10),           # the same tile pair, from below
        (5, 2 * _TILE + 1),            # partial last tile column
        (2 * _TILE + 2, 2 * _TILE),    # partial last diagonal tile
    ])
    def test_single_asymmetric_entry_rejected_in_every_tile(self, dtype, i, j):
        m = np.eye(self.TILED_N, dtype=dtype)
        m[i, j] = 1
        with pytest.raises(ParameterError, match="symmetric"):
            Graph(m)
        m[j, i] = 1
        assert Graph(m).n == self.TILED_N

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("i, j", [
        (TILED_N - 1, TILED_N - 1),    # diagonal, in the last band of rows
        (TILED_N - 1, 3),              # off the diagonal, in the last band
        (3, TILED_N - 1),              # the same pair, in the first band
        (_TILE, _TILE + 1),            # off the diagonal, in a middle band
    ])
    def test_non_finite_weight_rejected_in_every_band(self, bad, i, j):
        m = np.eye(self.TILED_N)
        m[i, j] = m[j, i] = bad
        with pytest.raises(ParameterError, match="weighted adjacency must be finite"):
            Graph(m)

    def test_weighted_validation_builds_no_square_temporary(self):
        # np.isfinite(m) alone would be n^2 bools, 1/8 of the matrix.
        m = gen_goe(GoeParams(1024, 0.2), seed=3).matrix.copy()
        tracemalloc.start()
        try:
            Graph(m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= m.nbytes / 16

    def test_tiny_weighted_asymmetry_rejected(self):
        m = np.eye(self.TILED_N)
        m[7, 2 * _TILE + 1] = 0.5
        m[2 * _TILE + 1, 7] = 0.5 + 1e-12
        with pytest.raises(ParameterError, match="symmetric"):
            Graph(m)

    @pytest.mark.parametrize("dtype", [np.uint8, np.float64])
    def test_mirror_upper_matches_dense_mirror(self, dtype):
        rng = np.random.default_rng(4)
        n = 2 * _TILE + 77
        upper = rng.integers(0, 2, (n, n)) if dtype == np.uint8 else rng.normal(size=(n, n))
        a = np.triu(upper, 1).astype(dtype)
        expected = np.triu(a, 1) + np.triu(a, 1).T
        _mirror_upper(a)
        assert np.array_equal(a, expected)

    @pytest.mark.parametrize("dtype", [np.uint8, np.float64])
    @pytest.mark.parametrize("n", [_TILE - 3, 2 * _TILE - 1, 2 * _TILE + 77])
    def test_mirror_upper_strips_match_whole_tile_sums(self, dtype, n):
        # 1, 2 and 3 tiles a side; the whole-tile form adds each diagonal tile's transpose at once
        rng = np.random.default_rng(5)
        upper = rng.integers(0, 2, (n, n)) if dtype == np.uint8 else rng.normal(size=(n, n))
        a = np.triu(upper, 1).astype(dtype)
        expected = a.copy()
        for r, c in graph._upper_tiles(n):
            if r == c:
                block = expected[r, c]
                block += block.T
            else:
                expected[c, r] = expected[r, c].T
        tracemalloc.start()
        try:
            _mirror_upper(a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert a.tobytes() == expected.tobytes()
        # the whole-tile sum copies a diagonal tile, since its operands overlap
        assert peak < min(n, _TILE) ** 2 * a.itemsize
