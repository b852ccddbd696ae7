import importlib
import importlib.util
import math
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import netrand.design as design
import netrand.graph as graph
from netrand import (
    ADAPTIVE,
    RANDOM,
    ContractError,
    CsrGraph,
    DesignConfig,
    ErParams,
    GoeParams,
    Graph,
    ParameterError,
    RevealedView,
    SbmParams,
    from_edge_list,
    gen_er,
    gen_goe,
    gen_sbm,
    imbalance_recompute,
    induced_subgraph_sample,
    reduction_report,
    run_design,
    run_design_many,
)
from netrand.design import candidate_imbalances, increment_from_view, step

from helpers import complete_graph, identity_graph


class Replay:
    """Feeds a fixed sequence of uniforms to the engine, counting them and recording each draw's size."""

    def __init__(self, seq):
        self.seq = list(seq)
        self.used = 0
        self.sizes = []

    def random(self, size=None):
        self.sizes.append(size)
        if size is None:
            self.used += 1
            return self.seq[self.used - 1]
        assert self.used + size <= len(self.seq)
        self.used += size
        return np.array(self.seq[self.used - size:self.used])


class Recorder:
    """Seeded uniforms that keep every block handed to the batched engine."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.blocks = []

    def random(self, size=None):
        u = self.rng.random(size)
        self.blocks.append(np.atleast_1d(u))
        return u


class Fixed:
    """Hands the batched engine one given (pairs, reps) block of uniforms."""

    def __init__(self, u):
        self.u = u
        self.blocks = []

    def random(self, size=None):
        assert size == self.u.shape and not self.blocks
        self.blocks.append(self.u)
        return self.u


def batched_and_scalar(g, cfg, reps, rec):
    """``run_design_many`` finals, and ``run_design`` fed column r of its draws per replicate."""
    first = len(rec.blocks)
    finals = run_design_many(g, cfg, reps, rng=rec)
    # one (pairs, reps) block, drawn before the loop and before the fair-coin arm's recompute
    (draws,) = rec.blocks[first:]
    assert draws.shape == (g.n // 2, reps)
    # the scalar loop also draws a fair coin for an odd trailing subject
    tail = [0.5] * (g.n % 2)
    scalar = []
    for r in range(reps):
        replay = Replay([*draws[:, r], *tail])
        scalar.append(run_design(g, cfg, rng=replay).final_i2)
        assert replay.used == len(replay.seq)
    return finals, scalar


def pair_graph(a12):
    m = np.eye(2, dtype=np.uint8)
    m[0, 1] = m[1, 0] = a12
    return Graph(m)


def weighted_pair_graph(w):
    m = np.eye(2, dtype=np.float64)
    m[0, 1] = m[1, 0] = w
    return Graph(m)


def pair_rows(g, m):
    """Pair m's ``(rows, e)``, as a fresh view's ``pair_rows`` walk yields them."""
    return next(islice(RevealedView(g).pair_rows(), m, None))


def state_after(g, uniforms, cfg=DesignConfig()):
    """(I^2, S, signs) after ``len(uniforms)`` pairs, from ``run_design`` on g's leading subjects.

    S is the dense A tau over those subjects, not the loop's own.
    """
    k = 2 * len(uniforms)
    if k == 0:
        return 0.0, np.zeros(0), np.zeros(0)
    lead = g.matrix[:k, :k]
    res = run_design(Graph(lead), cfg, rng=Replay(uniforms))
    tau = res.tau.astype(np.float64)
    return res.final_i2, lead.astype(np.float64) @ tau, tau


def candidates_after(g, uniforms, cfg=DesignConfig()):
    """``candidate_imbalances`` of pair ``len(uniforms)`` on the state after the pairs before it."""
    i2, s, tau = state_after(g, uniforms, cfg)
    rows, e = pair_rows(g, len(uniforms))
    return candidate_imbalances(i2, s, *increment_from_view(rows, tau), e)


def first_pair(g, u, cfg=DesignConfig()):
    """``run_design`` on g's first two subjects, with uniform ``u``."""
    return run_design(Graph(g.matrix[:2, :2]), cfg, rng=Replay([u]))


class TestFirstPair:
    def test_connected_pair_cancels(self):
        assert first_pair(pair_graph(1), 0.3).final_i2 == 0

    def test_disconnected_pair(self):
        assert first_pair(pair_graph(0), 0.3).final_i2 == 2

    def test_weighted_pair(self):
        w = 0.37
        assert first_pair(weighted_pair_graph(w), 0.9).final_i2 == pytest.approx(2 * (1 - w) ** 2)

    def test_fair_coin_on_orientation(self):
        # the empty prefix makes both candidates 2 e^2, so even b = 1 leaves a fair coin
        g = pair_graph(0)
        assert candidates_after(g, []) == (2.0, 2.0)
        cfg = DesignConfig(ADAPTIVE, b=1.0)
        lo = first_pair(g, 0.49, cfg)
        hi = first_pair(g, 0.51, cfg)
        assert lo.tau[0] == 1 and hi.tau[0] == -1

    def test_requires_revealed_prefix(self):
        # the dense loop cannot read the first pair from a view that has read past it
        g = complete_graph(4)
        view = RevealedView(g)
        view.reveal_to(4)
        with pytest.raises(ContractError):
            design._run_on_rows(view, [0.1, 0.1], DesignConfig())


class TestCandidates:
    def test_complete_graph_ties_at_zero(self):
        assert candidates_after(complete_graph(6), [0.1]) == (0.0, 0.0)

    def test_identity_graph_ties(self):
        i2_01, i2_10 = candidates_after(identity_graph(6), [0.1])
        assert i2_01 == i2_10 == 2 * 1 + 2

    def test_matches_dense_recompute_both_choices(self):
        for seed in range(25):
            g = gen_er(ErParams(6, 0.5), seed=seed)
            u = [np.random.default_rng(seed).random()]
            i2_01, i2_10 = candidates_after(g, u)
            tau = state_after(g, u)[2]
            tau01 = np.concatenate([tau, [1.0, -1.0]])
            tau10 = np.concatenate([tau, [-1.0, 1.0]])
            assert int(i2_01) == imbalance_recompute(g, tau01)
            assert int(i2_10) == imbalance_recompute(g, tau10)

    def test_dimension_mismatch_rejected(self):
        # y must have one entry per prefix column
        g = gen_er(ErParams(8, 0.5), seed=0)
        i2, s, _ = state_after(g, [0.1])
        for width in (4, 3, 1):
            with pytest.raises(ContractError):
                candidate_imbalances(i2, s, np.zeros(width), 0.0, 0.0, 1.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 12), st.integers(0, 5000))
def test_increment_identity_z2_minus_z1(pairs, seed):
    # z2 - z1 must equal the sign prefix dotted with the column difference
    g = gen_er(ErParams(2 * pairs + 2, 0.3), seed=seed)
    u = np.random.default_rng(seed).random(g.n // 2).tolist()
    cfg = DesignConfig(ADAPTIVE, b=0.8)
    for m, (rows, _) in enumerate(RevealedView(g).pair_rows()):
        tau = state_after(g, u[:m], cfg)[2]
        y, z1, z2 = increment_from_view(rows, tau)
        assert z2 - z1 == pytest.approx(float(tau @ y))


class TestStep:
    def test_b_one_takes_smaller_with_certainty(self):
        cfg = DesignConfig(ADAPTIVE, b=1.0)
        for seed in range(20):
            g = gen_er(ErParams(10, 0.4), seed=seed)
            u = np.random.default_rng(seed).random(2).tolist()
            i2_01, i2_10 = candidates_after(g, u[:1])
            res = run_design(Graph(g.matrix[:4, :4]), cfg, rng=Replay(u))
            assert step(i2_01, i2_10, 1.0, u[1]) == res.tau[2]
            if i2_01 != i2_10:
                assert res.final_i2 == min(i2_01, i2_10)

    @pytest.mark.parametrize("b", [0.95, 0.85])
    def test_uniform_equal_to_the_probability_loses(self, b):
        # Only edge (0, 2).  After the first pair gets (+1, -1), pair (2, 3) has candidates
        # (10, 2), so P(0,1) = 1 - b; after (-1, +1) they are (2, 10) and P(0,1) = b.
        m = np.eye(4, dtype=np.uint8)
        m[0, 2] = m[2, 0] = 1
        g = Graph(m)
        cfg = DesignConfig(ADAPTIVE, b=b)
        # (first pair's uniform, candidates, this pair's uniform, its first sign): (0, 1) is +1
        # exactly when the uniform is strictly below P(0,1)
        cases = [
            (0.25, (10.0, 2.0), 1.0 - b, -1.0),
            (0.25, (10.0, 2.0), b, -1.0),
            (0.75, (2.0, 10.0), 1.0 - b, 1.0),
            (0.75, (2.0, 10.0), b, -1.0),
        ]
        for first, candidates, u, sign in cases:
            assert candidates_after(g, [first], cfg) == candidates
            assert step(*candidates, b, u) == sign
            res = run_design(g, cfg, rng=Replay([first, u]))
            assert res.tau[2:].tolist() == [sign, -sign]
            assert res.final_i2 == candidates[0 if sign > 0 else 1]
        # ties, at the first pair and at a later one, compare the uniform with 1/2
        assert first_pair(g, 0.5, cfg).tau.tolist() == [-1, 1]
        tied = complete_graph(4)
        assert candidates_after(tied, [0.25], cfg) == (0.0, 0.0)
        assert step(0.0, 0.0, b, 0.5) == -1.0
        assert run_design(tied, cfg, rng=Replay([0.25, 0.5])).tau[2:].tolist() == [-1, 1]

    def test_half_b_equals_random_policy(self):
        g = gen_er(ErParams(40, 0.3), seed=1)
        res_a = run_design(g, DesignConfig(ADAPTIVE, b=0.5, seed=77))
        res_r = run_design(g, DesignConfig(RANDOM, seed=77))
        assert np.array_equal(res_a.tau, res_r.tau)
        assert np.array_equal(res_a.i2_trajectory, res_r.i2_trajectory)

    def test_tie_split_is_fair(self):
        # complete graph: every step ties, so the orientation is a fair coin
        g = complete_graph(4)
        trials = 10_000
        heads = 0
        for s in range(trials):
            res = run_design(g, DesignConfig(ADAPTIVE, b=0.95, seed=s))
            heads += res.tau[2] == 1
        se = math.sqrt(0.25 / trials)
        assert abs(heads / trials - 0.5) < 3 * se

    def test_b_outside_range_rejected(self):
        with pytest.raises(ParameterError):
            DesignConfig(ADAPTIVE, b=0.4)
        with pytest.raises(ParameterError):
            DesignConfig(ADAPTIVE, b=1.2)
        with pytest.raises(ParameterError):
            DesignConfig("greedy")


class TestRunDesign:
    def test_complete_graph_zero_imbalance(self):
        for policy in (ADAPTIVE, RANDOM):
            res = run_design(complete_graph(12), DesignConfig(policy, seed=0))
            assert res.final_i2 == 0
            assert (res.i2_trajectory == 0).all()

    def test_identity_graph_imbalance(self):
        res = run_design(identity_graph(12), DesignConfig(ADAPTIVE, seed=0))
        assert res.final_i2 == 12

    def test_one_draw_per_decision(self):
        g = gen_er(ErParams(10, 0.5), seed=0)
        replay = Replay([0.3] * 5)
        run_design(g, DesignConfig(ADAPTIVE, b=0.9), rng=replay)
        assert replay.used == 5  # one for the first pair, one per later pair
        assert replay.sizes == [5]  # drawn as one block before the first pair

    def test_odd_n_consumes_extra_draw_and_reports_convention(self):
        g = gen_er(ErParams(11, 0.5), seed=3)
        replay = Replay([0.3] * 6)
        res = run_design(g, DesignConfig(ADAPTIVE, b=0.9), rng=replay)
        assert replay.used == 6
        assert replay.sizes == [5, None]  # the pairs' block, then the trailing subject's scalar
        assert res.final_i2 == res.i2_trajectory[-1]
        assert res.final_i2 == imbalance_recompute(g, res.tau[:10])

    def test_odd_last_subject_fair_coin(self):
        g = gen_er(ErParams(5, 0.5), seed=1)
        lo = run_design(g, DesignConfig(ADAPTIVE, b=0.9), rng=Replay([0.3, 0.3, 0.2]))
        hi = run_design(g, DesignConfig(ADAPTIVE, b=0.9), rng=Replay([0.3, 0.3, 0.8]))
        assert lo.tau[-1] == 1 and hi.tau[-1] == -1

    def test_n_below_two_rejected(self):
        with pytest.raises(ParameterError):
            run_design(Graph(np.ones((1, 1), dtype=np.uint8)), DesignConfig())

    @pytest.mark.parametrize(
        "engine",
        [
            lambda g, cfg: run_design(g, cfg),
            lambda g, cfg: run_design_many(g, cfg, 3),
        ],
        ids=["run_design", "run_design_many"],
    )
    def test_reveals_prefix_in_pair_steps(self, monkeypatch, engine):
        calls = []
        orig = RevealedView.reveal_to

        def recording(self, k):
            calls.append(k)
            return orig(self, k)

        monkeypatch.setattr(design.RevealedView, "reveal_to", recording)
        dense = gen_er(ErParams(12, 0.5), seed=0)
        for g in (dense, csr_from_edges(12, *upper_edges(dense))):
            calls.clear()
            engine(g, DesignConfig(ADAPTIVE, seed=0))
            assert calls == [2, 4, 6, 8, 10, 12]


class TestRecompute:
    def test_hand_example(self):
        m = np.eye(4, dtype=np.uint8)
        m[0, 1] = m[1, 0] = 1
        g = Graph(m)
        tau = [1.0, -1.0, 1.0, -1.0]
        assert imbalance_recompute(g, tau) == 2
        s = g.matrix.astype(float) @ np.asarray(tau)
        assert np.array_equal(s, [0.0, 0.0, 1.0, -1.0])

    def test_weighted_scaling_is_quadratic(self):
        g = gen_goe(GoeParams(10, 0.5), seed=2)
        tau = np.resize([1.0, -1.0], 10)
        base = imbalance_recompute(g, tau)
        scaled = imbalance_recompute(Graph(g.matrix * 3.0), tau)
        assert scaled == pytest.approx(9.0 * base)

    @pytest.mark.parametrize("kind", ["binary", "goe", "lists"])
    def test_vector_equals_its_one_column_block(self, kind):
        """A sign vector's I^2 is its one-column block's, in value and in type."""
        n = 301
        dense = gen_goe(GoeParams(n, 0.2), seed=3) if kind == "goe" else gen_er(ErParams(n, 0.2), seed=3)
        g = csr_from_edges(n, *upper_edges(dense)) if kind == "lists" else dense
        rng = np.random.default_rng(7)
        for k in (1, n // 2, n):
            for _ in range(10):
                tau = np.where(rng.random(k) < 0.5, 1.0, -1.0)
                vector = imbalance_recompute(g, tau)
                block = imbalance_recompute(g, tau[:, None])[0].item()
                assert type(vector) is type(block) and vector == block

    def test_length_mismatch_rejected(self):
        g = gen_er(ErParams(6, 0.5), seed=0)
        with pytest.raises(ParameterError):
            imbalance_recompute(g, [])
        with pytest.raises(ParameterError):
            imbalance_recompute(g, [1.0] * 8)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 32),
    st.sampled_from([0.1, 0.5, 0.9]),
    st.sampled_from([ADAPTIVE, RANDOM]),
    st.integers(0, 100_000),
)
def test_incremental_exactness_property(pairs, p, policy, seed):
    # the incremental integer i2 equals dense recomputation at every step
    g = gen_er(ErParams(2 * pairs, p), seed=seed)
    res = run_design(g, DesignConfig(policy, b=0.85, seed=seed + 1))
    for m in range(1, pairs + 1):
        assert int(res.i2_trajectory[m - 1]) == imbalance_recompute(g, res.tau[: 2 * m])


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 12), st.integers(0, 50_000))
def test_maintained_s_matches_dense_recompute(pairs, seed):
    # At every pair, the candidates on the dense S = A^(2m) tau give the loop's next I^2 for
    # the sign it chose, so a wrong S update in the loop changes a later trajectory entry.
    g = gen_er(ErParams(2 * pairs, 0.4), seed=seed)
    cfg = DesignConfig(ADAPTIVE, b=0.9)
    u = np.random.default_rng(seed).random(pairs).tolist()
    res = run_design(g, cfg, rng=Replay(u))
    for m in range(pairs):
        i2, s, tau = state_after(g, u[:m], cfg)
        assert np.array_equal(tau, res.tau[:2 * m])
        assert i2 == float(s @ s)
        rows, e = pair_rows(g, m)
        i2_01, i2_10 = candidate_imbalances(i2, s, *increment_from_view(rows, tau), e)
        sigma = step(i2_01, i2_10, 0.9, u[m])
        assert sigma == res.tau[2 * m]
        assert res.i2_trajectory[m] == (i2_01 if sigma > 0 else i2_10)


def test_traced_names_resolve():
    # The benchmark's tracer wraps each (module, attribute) of its SPANS by name.
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, attr, _ in tracing.SPANS:
        assert callable(getattr(importlib.import_module(f"netrand.{module}"), attr)), (module, attr)


def test_dense_loop_calls_each_traced_function_once_per_pair(monkeypatch):
    names = ("increment_from_view", "candidate_imbalances", "step")
    calls = dict.fromkeys(names, 0)

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in names:
        monkeypatch.setattr(design, name, counting(name, getattr(design, name)))
    dense = gen_er(ErParams(10, 0.5), seed=0)
    run_design(dense, DesignConfig(ADAPTIVE, seed=0))
    assert calls == dict.fromkeys(names, 5)
    run_design(csr_from_edges(10, *upper_edges(dense)), DesignConfig(ADAPTIVE, seed=0))
    assert calls == dict.fromkeys(names, 5)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 32), st.integers(0, 100_000), st.booleans())
def test_pairwise_balance_property(pairs, seed, odd):
    n = 2 * pairs + int(odd)
    if n < 2:
        n = 2
    g = gen_er(ErParams(n, 0.3), seed=seed)
    res = run_design(g, DesignConfig(ADAPTIVE, b=0.95, seed=seed))
    assert set(np.unique(res.tau)) <= {-1, 1}
    paired = res.tau[: 2 * (n // 2)]
    assert (paired[0::2] + paired[1::2] == 0).all()
    assert paired.sum() == 0


class TestScaleInvariance:
    def test_decisions_and_trajectory(self):
        g = gen_goe(GoeParams(60, 0.25), seed=5)
        cfg = DesignConfig(ADAPTIVE, b=0.9, seed=123)
        base = run_design(g, cfg)
        scaled = run_design(Graph(g.matrix * 7.0), cfg)
        assert np.array_equal(base.tau, scaled.tau)
        ratio = np.sqrt(scaled.i2_trajectory) / np.sqrt(base.i2_trajectory)
        assert np.abs(ratio - 7.0).max() < 7.0 * 1e-12


class TestDeterminismAtBOne:
    def test_assignment_fixed_given_first_draw(self):
        # weighted graphs are tie-free a.s., so b=1 leaves only the first coin
        g = gen_goe(GoeParams(40, 0.3), seed=8)
        cfg = DesignConfig(ADAPTIVE, b=1.0)
        a = run_design(g, cfg, rng=Replay([0.2] + [0.9] * 19))
        b = run_design(g, cfg, rng=Replay([0.2] + [0.1] * 19))
        assert np.array_equal(a.tau, b.tau)

    def test_step_optimality(self):
        # at b=1 every realized step equals the minimum of the two candidates,
        # recomputed densely and exhaustively
        g = gen_er(ErParams(30, 0.4), seed=9)
        res = run_design(g, DesignConfig(ADAPTIVE, b=1.0, seed=11))
        for m in range(2, 16):
            tau_real = res.tau[: 2 * m].astype(np.float64)
            tau_flip = tau_real.copy()
            tau_flip[-2:] = -tau_flip[-2:]
            realized = imbalance_recompute(g, tau_real)
            flipped = imbalance_recompute(g, tau_flip)
            assert realized <= flipped


class TestBatchRunner:
    def test_matches_scalar_engine_draw_for_draw(self):
        rec = Recorder(42)
        for seed, weighted in ((0, False), (1, True), (2, False)):
            n = 12
            g = (
                gen_goe(GoeParams(n, 0.4), seed=seed)
                if weighted
                else gen_er(ErParams(n, 0.4), seed=seed)
            )
            finals, scalar = batched_and_scalar(g, DesignConfig(ADAPTIVE, b=0.8), 40, rec)
            if weighted:
                assert finals.tolist() == pytest.approx(scalar, rel=1e-12)
            else:
                assert finals.tolist() == scalar

    def test_distribution_matches_scalar(self):
        g = gen_er(ErParams(16, 0.5), seed=13)
        cfg = DesignConfig(ADAPTIVE, b=0.9)
        batch = run_design_many(g, cfg, 4000, rng=np.random.default_rng(0)).astype(float)
        scalar = np.array(
            [run_design(g, cfg, rng=np.random.default_rng(1000 + s)).final_i2 for s in range(1500)],
            dtype=float,
        )
        se = math.hypot(batch.std(ddof=1) / math.sqrt(len(batch)), scalar.std(ddof=1) / math.sqrt(len(scalar)))
        assert abs(batch.mean() - scalar.mean()) < 4 * se


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 24),
    st.booleans(),
    st.sampled_from([0.001, 0.3, 0.9, "complete"]),
    st.sampled_from([ADAPTIVE, RANDOM]),
    st.integers(0, 100_000),
)
def test_batched_equals_scalar_draw_for_draw(pairs, odd, p, policy, seed):
    # p = 0.001 leaves most pairs without prefix neighbours; the complete graph ties every pair
    n = 2 * pairs + int(odd)
    g = complete_graph(n) if p == "complete" else gen_er(ErParams(n, p), seed=seed)
    finals, scalar = batched_and_scalar(g, DesignConfig(policy, b=0.85), 8, Recorder(seed + 1))
    assert finals.dtype == np.int64
    assert finals.tolist() == scalar


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 24), st.booleans(), st.sampled_from([ADAPTIVE, RANDOM]), st.integers(0, 100_000))
def test_batched_equals_scalar_weighted(pairs, odd, policy, seed):
    g = gen_goe(GoeParams(2 * pairs + int(odd), 0.4), seed=seed)
    finals, scalar = batched_and_scalar(g, DesignConfig(policy, b=0.85), 8, Recorder(seed + 1))
    assert finals.dtype == np.float64
    assert finals.tolist() == pytest.approx(scalar, rel=1e-12)


def csr_from_edges(n, u, v):
    """Neighbour lists of the simple graph with edges (u[i], v[i]); loops and repeats dropped."""
    keep = u != v
    keys = np.unique(np.concatenate([u[keep] * n + v[keep], v[keep] * n + u[keep]]))
    rows, cols = np.divmod(keys, n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return CsrGraph(indptr, cols.astype(np.int64))


def upper_edges(g):
    return np.nonzero(np.triu(g.matrix, 1))


def ladder(n):
    """Neighbour lists joining i to i + 1 and i + 2: pair m is joined and shares column 2m - 1."""
    nodes = np.arange(n)
    return csr_from_edges(n, np.concatenate([nodes[:-1], nodes[:-2]]), np.concatenate([nodes[1:], nodes[2:]]))


@st.composite
def edge_lists(draw):
    """Binary graphs from 2 to 2000 nodes as neighbour lists: ER, SBM, heavy-tailed, complete,
    a hub, joined pairs and a ladder.

    Sparse draws leave isolated nodes; the complete graph ties at every pair.
    The hub is joined to most nodes, so many pairs share it or have it on one
    side only; joined pairs (e = 0) link each pair (2m, 2m + 1) besides
    sparse ER edges.
    """
    n = draw(st.one_of(st.integers(2, 60), st.integers(61, 2000)))
    kind = draw(st.sampled_from(["er", "sbm", "heavy", "complete", "hub", "joined", "ladder"]))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "complete":
        n = min(n, 300)
        return csr_from_edges(n, *np.nonzero(~np.eye(n, dtype=bool)))
    rng = np.random.default_rng(seed)
    if kind == "hub":
        hub = rng.integers(n)
        spokes = np.flatnonzero(rng.random(n) < 0.9)
        u, v = upper_edges(gen_er(ErParams(n, min(2.0 / n, 0.9)), seed))
        return csr_from_edges(n, np.concatenate([u, np.full(spokes.size, hub)]), np.concatenate([v, spokes]))
    if kind == "joined":
        u, v = upper_edges(gen_er(ErParams(n, min(3.0 / n, 0.9)), seed))
        firsts = np.arange(0, n - 1, 2)
        return csr_from_edges(n, np.concatenate([u, firsts]), np.concatenate([v, firsts + 1]))
    if kind == "ladder":
        return ladder(n)
    if kind == "er":
        mean_degree = draw(st.sampled_from([0.5, 3.0, 20.0]))
        p = min(mean_degree / n, 0.9)
        return csr_from_edges(n, *upper_edges(gen_er(ErParams(n, p), seed)))
    if kind == "sbm":
        p_in = min(8.0 / n, 1.0)
        return csr_from_edges(n, *upper_edges(gen_sbm(SbmParams(n, p_in, p_in / 8), seed)))
    # Chung-Lu endpoints with Pareto weights: a few hubs and many low degrees
    w = rng.pareto(1.5, n) + 1.0
    u, v = rng.choice(n, size=(2, 2 * n), p=w / w.sum())
    return csr_from_edges(n, u, v)


@settings(max_examples=60, deadline=None)
@given(edge_lists(), st.sampled_from([(ADAPTIVE, 0.85), (ADAPTIVE, 0.5), (ADAPTIVE, 1.0), (RANDOM, 0.85)]),
       st.integers(0, 100_000))
@example(ladder(1001), (ADAPTIVE, 0.85), 3)
def test_neighbour_lists_match_dense_under_one_stream(g, policy_b, seed):
    """Same tau, trajectory and final I^2 on both storages, draw for draw.

    At b = 1/2 and 1 only exact ties take the fair coin.
    """
    dense = g.to_dense()
    cfg = DesignConfig(*policy_b, seed=seed)
    rng = np.random.default_rng(seed)
    uniforms = rng.random(g.n // 2 + g.n % 2)
    # a third of the draws sit on a coin's threshold, 1 - b, 1/2 or b, which a uniform equal to it loses
    at_threshold = rng.random(uniforms.size) < 1 / 3
    uniforms[at_threshold] = rng.choice([1.0 - cfg.b, 0.5, cfg.b], at_threshold.sum())
    replays = [Replay(uniforms), Replay(uniforms)]
    a, b = run_design(g, cfg, rng=replays[0]), run_design(dense, cfg, rng=replays[1])
    # one block of a uniform per pair, then one scalar for an odd trailing subject
    assert [r.used for r in replays] == [uniforms.size] * 2
    assert [r.sizes for r in replays] == [[g.n // 2] + [None] * (g.n % 2)] * 2
    assert a.tau.dtype == b.tau.dtype == np.int8 and np.array_equal(a.tau, b.tau)
    assert a.i2_trajectory.dtype == b.i2_trajectory.dtype == np.int64
    assert np.array_equal(a.i2_trajectory, b.i2_trajectory)
    assert type(a.final_i2) is type(b.final_i2) is int and a.final_i2 == b.final_i2
    assert np.array_equal(run_design(g, cfg).tau, run_design(dense, cfg).tau)
    many = [run_design_many(h, cfg, 5, rng=np.random.default_rng(seed)) for h in (g, dense)]
    assert np.array_equal(*many)
    n2 = g.n - g.n % 2
    assert imbalance_recompute(g, a.tau[:n2]) == imbalance_recompute(dense, a.tau[:n2]) == a.final_i2


@pytest.mark.parametrize("n", [2, 3, 40, 41])
def test_stream_advances_by_the_randomness_budget_on_both_storages(n):
    """After ``run_design`` a Generator's next double is that of a fresh one after pairs + n % 2 draws.

    Those scalar draws, replayed, give the same signs as the block.
    """
    dense = gen_er(ErParams(n, 0.3), seed=n)
    cfg = DesignConfig(ADAPTIVE, b=0.9)
    fresh = np.random.default_rng(7)
    scalar_draws = [fresh.random() for _ in range(n // 2 + n % 2)]
    next_double = fresh.random()
    for g in (dense, csr_from_edges(n, *upper_edges(dense))):
        rng = np.random.default_rng(7)
        res = run_design(g, cfg, rng=rng)
        assert rng.random() == next_double
        assert np.array_equal(res.tau, run_design(g, cfg, rng=Replay(scalar_draws)).tau)


@st.composite
def binary_graphs(draw):
    """Dense ER and SBM graphs and neighbour-list samples from 2 to 2000 nodes, odd n included."""
    kind = draw(st.sampled_from(["er", "sbm", "sample"]))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "sample":
        source = draw(edge_lists())
        return induced_subgraph_sample(source, draw(st.integers(2, source.n)), seed)
    n = draw(st.integers(2, 120))
    if kind == "er":
        return gen_er(ErParams(n, draw(st.sampled_from([0.05, 0.3, 0.9]))), seed)
    return gen_sbm(SbmParams(n, 0.5, 0.1), seed)


@settings(max_examples=60, deadline=None)
@given(binary_graphs(), st.sampled_from([(RANDOM, 0.85), (ADAPTIVE, 0.5)]), st.integers(0, 100_000))
def test_fair_coin_arm_matches_both_loops(g, policy_b, seed):
    cfg = DesignConfig(*policy_b, seed=seed)
    tau, final_i2 = design.run_design_final(g, cfg)
    res = run_design(g, cfg)
    assert tau.dtype == res.tau.dtype and np.array_equal(tau, res.tau)
    assert type(final_i2) is int and final_i2 == res.final_i2
    loop_free = run_design_many(g, cfg, 6, rng=np.random.default_rng(seed))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(design, "_fair_coin", lambda g, cfg: False)
        loop = run_design_many(g, cfg, 6, rng=np.random.default_rng(seed))
    assert loop_free.dtype == loop.dtype == np.int64
    assert np.array_equal(loop_free, loop)


def test_weighted_fair_coin_keeps_the_loop(monkeypatch):
    g = gen_goe(GoeParams(15, 0.4), seed=3)
    cfg = DesignConfig(ADAPTIVE, b=0.5, seed=4)
    calls = []

    def recording(g, cfg):
        calls.append(cfg)
        return run_design(g, cfg)

    def no_recompute(*args):
        raise AssertionError("a weighted graph's fair coin took the loop-free arm")

    monkeypatch.setattr(design, "run_design", recording)
    tau, final_i2 = design.run_design_final(g, cfg)
    assert calls == [cfg] and isinstance(final_i2, float)
    monkeypatch.setattr(design, "imbalance_recompute", no_recompute)
    rec = Recorder(5)
    assert run_design_many(g, cfg, 4, rng=rec).dtype == np.float64
    assert [b.shape for b in rec.blocks] == [(7, 4)]


def test_batched_finals_on_a_neighbour_list_sample():
    # Values of the per-pair-draw loop, before the coins were drawn as one block.
    rng = np.random.default_rng(2024)
    n = 3000
    w = rng.pareto(1.5, n) + 1
    u = rng.choice(n, 12000, p=w / w.sum())
    v = rng.integers(0, n, 12000)
    g = induced_subgraph_sample(from_edge_list([f"{a} {b}" for a, b in zip(u.tolist(), v.tolist())]), 1999, 5)
    assert isinstance(g, CsrGraph) and g.n == 1999 and g.indices.size == 2 * 4873
    expected = {
        0.85: [7516, 7256, 7348, 7016, 7312, 7280, 7448, 7112, 7276, 6708, 6720, 7080],
        1.0: [5984, 5980, 5964, 6136, 6288, 6228, 5924, 5972, 5708, 5600, 5884, 5968],
        0.55: [10476, 11352, 10988, 11280, 10860, 10556, 10580, 10640, 10516, 11592, 11008, 10376],
    }
    for b, finals in expected.items():
        got = run_design_many(g, DesignConfig(ADAPTIVE, b), 12, rng=np.random.default_rng(17))
        assert got.dtype == np.int64 and got.tolist() == finals
    assert reduction_report(g, b=0.85, reps=12, seed=17).reduction == 0.22377918516779582


@pytest.mark.parametrize(
    "g, expected",
    [
        (gen_er(ErParams(40, 0.3), seed=3), {
            (0.85, 1): [230], (0.85, 7): [162, 254, 198, 262, 234, 214, 202],
            (1.0, 1): [186], (1.0, 7): [186, 146, 146, 238, 186, 186, 146],
        }),
        (gen_er(ErParams(41, 0.3), seed=3), {
            (0.85, 1): [354], (0.85, 7): [278, 222, 274, 214, 242, 274, 166],
            (1.0, 1): [242], (1.0, 7): [242, 234, 274, 166, 242, 166, 166],
        }),
        (gen_sbm(SbmParams(41, 0.5, 0.1), seed=4), {
            (0.85, 1): [178], (0.85, 7): [142, 142, 278, 134, 106, 186, 174],
            (1.0, 1): [106], (1.0, 7): [106, 106, 106, 106, 106, 154, 106],
        }),
    ],
    ids=["er40", "er41", "sbm41"],
)
def test_batched_finals_on_dense_graphs_at_few_replicates(g, expected):
    # Values of the kernel with a two-row product and separate sign writes, before its
    # rows came as one three-row block.
    for (b, reps), finals in expected.items():
        got = run_design_many(g, DesignConfig(ADAPTIVE, b), reps, rng=np.random.default_rng(17))
        assert got.dtype == np.int64 and got.tolist() == finals


@pytest.mark.parametrize("policy", [ADAPTIVE, RANDOM])
def test_batched_kernel_checks_the_exactness_bound_before_drawing(monkeypatch, policy):
    # a 6-node path: its bound, the sum of (d + 1)^2 over all six nodes, is 44
    g = csr_from_edges(6, np.arange(5), np.arange(1, 6))
    cfg = DesignConfig(policy, b=0.85)
    assert run_design_many(g, cfg, 4, rng=np.random.default_rng(3)).shape == (4,)
    monkeypatch.setattr(graph, "_EXACT_LIMIT", 44)
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    with pytest.raises(ParameterError, match="2\\^53"):
        run_design_many(g, cfg, 4, rng=rng)
    assert rng.bit_generator.state == before
    with pytest.raises(ParameterError, match="2\\^53"):
        reduction_report(g, b=0.85, reps=4, seed=3)
    # a dense graph is held below the bound by the dense cap, and is not checked
    assert run_design_many(g.to_dense(), cfg, 4, rng=rng).shape == (4,)


@settings(max_examples=40, deadline=None)
@given(binary_graphs(), st.sampled_from([0.5, 0.85, 1.0]), st.integers(0, 100_000))
def test_batched_coin_at_its_thresholds(g, b, seed):
    """Uniforms equal to 1 - b, 1/2 or b lose the coin, in the batched table as in the scalar loop."""
    reps = 6
    rng = np.random.default_rng(seed)
    u = rng.random((g.n // 2, reps))
    at_threshold = rng.random(u.shape) < 1 / 3
    u[at_threshold] = rng.choice([1.0 - b, 0.5, b], at_threshold.sum())
    cfg = DesignConfig(ADAPTIVE, b)
    finals, scalar = batched_and_scalar(g, cfg, reps, Fixed(u))
    assert finals.tolist() == scalar
    # b = 1/2 on a binary graph takes the loop-free arm; the loop's table must agree with it too
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(design, "_fair_coin", lambda g, cfg: False)
        assert run_design_many(g, cfg, reps, rng=Fixed(u)).tolist() == scalar
