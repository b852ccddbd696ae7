import math
import random
import tracemalloc
import weakref

import numpy as np
import pytest

from netrand import (
    ADAPTIVE,
    RANDOM,
    DesignConfig,
    ErParams,
    ExperimentSpec,
    OutcomeParams,
    ParameterError,
    adaptive_fourth_moment_bound,
    from_edge_list,
    gen_er,
    goe_fourth_moment_bound,
    random_design_expected_i2,
    reduction_report,
    run_design_many,
    run_experiment,
    sparse_edge_probability,
    summarize,
)
from netrand import graph, montecarlo
from netrand.montecarlo import replicate_streams

from helpers import complete_graph, write_edge_list


class TestRandomDesignClosedForm:
    def test_reference_value(self):
        assert random_design_expected_i2(200, 0.2) == pytest.approx(6496.0)

    def test_two_subjects_match_first_pair_enumeration(self):
        # enumerating the single off-diagonal entry: E[I^2] = p*0 + (1-p)*2
        for p in (0.1, 0.3, 0.5, 0.9):
            assert random_design_expected_i2(2, p) == pytest.approx(2 * (1 - p))

    def test_limit_ratio(self):
        p = 0.2
        ratios = [random_design_expected_i2(n, p) / n**2 for n in (100, 1000, 10_000, 100_000)]
        devs = [abs(r - p * (1 - p)) for r in ratios]
        assert devs == sorted(devs, reverse=True)
        assert devs[-1] < 1e-5

    def test_domain(self):
        with pytest.raises(ParameterError):
            random_design_expected_i2(7, 0.2)
        with pytest.raises(ParameterError):
            random_design_expected_i2(10, 1.0)


class TestFourthMomentBounds:
    def test_er_no_reduction_at_half(self):
        for p in (0.1, 0.2, 0.5):
            assert adaptive_fourth_moment_bound(p, 0.5) == pytest.approx(p**2 * (1 - p) ** 2)

    def test_er_reference_value(self):
        # pinned limits q^2 r^4 at p = 0.2 (q = 0.16), r the positive root of
        # 2 r^2 + alpha r - 2 = 0 (DECISIONS.md D2); each pin is checked against that root
        for b, pinned in ((0.55, 0.022868705296839525), (0.95, 0.009371340967410862),
                          (1.0, 0.00840365683138621)):
            alpha = 2.0 * (2.0 * b - 1.0) / math.sqrt(math.pi)
            root = max(np.roots([2.0, alpha, -2.0]).real)
            assert pinned == pytest.approx(0.16**2 * root**4, rel=1e-12)
            assert adaptive_fourth_moment_bound(0.2, b) == pytest.approx(pinned, abs=1e-15)

    def test_er_strictly_below_no_reduction_level(self):
        for b in np.linspace(0.55, 1.0, 10):
            assert adaptive_fourth_moment_bound(0.2, float(b)) < 0.0256

    def test_goe_reference_values(self):
        # pinned limits r^4, r the positive root of 2 r^2 + alpha r - 2 = 0,
        # alpha = 2 (2b - 1) / sqrt(pi); each pin is checked against that root
        for b, pinned in ((0.5, 1.0), (0.55, 0.8933088006577935),
                          (0.95, 0.3660680065394866), (1.0, 0.3282678449760237)):
            alpha = 2.0 * (2.0 * b - 1.0) / math.sqrt(math.pi)
            root = max(np.roots([2.0, alpha, -2.0]).real)
            assert pinned == pytest.approx(root**4, rel=1e-12)
            assert goe_fourth_moment_bound(b) == pytest.approx(pinned, abs=1e-15)
        assert goe_fourth_moment_bound(1.0) < 1.0

    def test_goe_positive_and_strictly_decreasing(self):
        values = [goe_fourth_moment_bound(float(b)) for b in np.linspace(0.5, 1.0, 11)]
        assert min(values) > 0.0
        assert all(a > c for a, c in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(ParameterError):
            adaptive_fourth_moment_bound(0.2, 0.4)
        with pytest.raises(ParameterError):
            goe_fourth_moment_bound(1.1)


class TestSparseProbability:
    def test_formula(self):
        assert sparse_edge_probability(100, 5.0) == pytest.approx(math.log(100) / 500)

    def test_out_of_range(self):
        with pytest.raises(ParameterError):
            sparse_edge_probability(2, 0.01)
        for c in (0.0, -1.0, float("nan")):
            with pytest.raises(ParameterError, match="positive"):
                sparse_edge_probability(10, c)


class TestSpecValidation:
    def test_model_parameter_consistency(self):
        with pytest.raises(ParameterError):
            ExperimentSpec(model="er", n_values=(10,))
        with pytest.raises(ParameterError):
            ExperimentSpec(model="er", n_values=(10,), p=0.2, sparse_log_density=5.0)
        with pytest.raises(ParameterError):
            ExperimentSpec(model="sbm", n_values=(10,), p_in=0.3)
        with pytest.raises(ParameterError):
            ExperimentSpec(model="goe", n_values=(10,))
        with pytest.raises(ParameterError, match="positive"):
            ExperimentSpec(model="goe", n_values=(10,), sparse_log_density=0.0)
        # a real sweep's source is checked when its cells are resolved, before any work
        with pytest.raises(ParameterError):
            run_experiment(ExperimentSpec(model="real", n_values=(10,)))

    def test_repeats_and_foreign_parameters_rejected(self):
        with pytest.raises(ParameterError, match="repeat"):
            ExperimentSpec(model="er", n_values=(10, 20, 10), p=0.2)
        with pytest.raises(ParameterError, match="repeat"):
            ExperimentSpec(model="er", n_values=(10,), p=0.2, policies=(RANDOM, RANDOM))
        with pytest.raises(ParameterError, match="does not read sigma2"):
            ExperimentSpec(model="sbm", n_values=(10,), p_in=0.3, p_out=0.1, sigma2=1.0)
        with pytest.raises(ParameterError, match="does not read p, p_in"):
            ExperimentSpec(model="goe", n_values=(10,), sigma2=0.2, p=0.2, p_in=0.3)
        with pytest.raises(ParameterError, match="does not read sample_source"):
            ExperimentSpec(model="er", n_values=(10,), p=0.2, sample_source=from_edge_list(["a b"]))
        with pytest.raises(ParameterError, match="does not read p$"):
            ExperimentSpec(model="real", n_values=(2,), p=0.2)

    def test_odd_sizes_gated(self):
        with pytest.raises(ParameterError):
            ExperimentSpec(model="er", n_values=(11,), p=0.2)

    def test_reps_positive(self):
        with pytest.raises(ParameterError):
            ExperimentSpec(model="er", n_values=(10,), p=0.2, reps=0)


class TestRunExperiment:
    @pytest.mark.parametrize("model", ["er", "real", "real-dense"])
    def test_unrunnable_cell_fails_before_any_replicate(self, monkeypatch, model):
        # only the second cell cannot run: p = log(2)/(0.1 * 2) > 1, or 100 > 60 source nodes;
        # no cell can sample a dense source
        def forbidden(*args, **kwargs):
            raise AssertionError("a replicate started before every cell was resolved")

        source = from_edge_list([f"{i} {i + 1}" for i in range(59)])
        dense = gen_er(ErParams(60, 0.2), seed=1)
        monkeypatch.setattr(montecarlo, "run_design_final", forbidden)
        monkeypatch.setattr(graph, "gen_er", forbidden)
        monkeypatch.setattr(graph, "induced_subgraph_sample", forbidden)
        spec = {
            "er": ExperimentSpec(model="er", n_values=(40, 2), sparse_log_density=0.1),
            "real": ExperimentSpec(model="real", n_values=(20, 100), sample_source=source),
            "real-dense": ExperimentSpec(model="real", n_values=(20,), sample_source=dense),
        }[model]
        with pytest.raises(ParameterError):
            run_experiment(spec)

    def test_deterministic_rerun(self):
        spec = ExperimentSpec(model="er", n_values=(20,), p=0.3, reps=3, seed=5)
        a = run_experiment(spec)
        b = run_experiment(spec)
        assert a.rows == b.rows
        assert a.summaries == b.summaries

    def test_row_counts_and_fields(self):
        spec = ExperimentSpec(
            model="er",
            n_values=(20, 30),
            policies=(ADAPTIVE, RANDOM),
            p=0.3,
            reps=4,
            seed=1,
            outcome=OutcomeParams(1.0, 0.0, 1.0, 1.0),
        )
        res = run_experiment(spec)
        assert len(res.rows) == 2 * 2 * 4
        for row in res.rows:
            assert row.i == pytest.approx(math.sqrt(row.i2))
            assert row.i4 == pytest.approx(float(row.i2) ** 2)
            assert row.two_i_over_n == pytest.approx(2 * row.i / row.n)
            assert row.w is not None

    def test_goe_sparse_maps_to_matching_variance(self):
        spec = ExperimentSpec(
            model="goe", n_values=(30,), sparse_log_density=5.0, reps=1, seed=0,
            policies=(ADAPTIVE,),
        )
        res = run_experiment(spec)
        p = sparse_edge_probability(30, 5.0)
        assert res.rows[0].sigma2 == pytest.approx(p * (1 - p))

    def test_paired_policies_share_graph_and_coins(self):
        # with b = 1/2 the adaptive run must equal the random run replicate by
        # replicate, because the graph and the design stream are shared
        spec = ExperimentSpec(
            model="er", n_values=(24,), policies=(ADAPTIVE, RANDOM), b=0.5,
            p=0.3, reps=5, seed=9,
        )
        res = run_experiment(spec)
        by_policy = {}
        for row in res.rows:
            by_policy.setdefault(row.policy, []).append(row.i2)
        assert by_policy[ADAPTIVE] == by_policy[RANDOM]

    def test_random_policy_mean_matches_closed_form(self):
        # replicate mean of I^2 within 4 SE of the exact expectation
        for n, p in ((50, 0.1), (50, 0.5), (200, 0.2)):
            spec = ExperimentSpec(
                model="er", n_values=(n,), policies=(RANDOM,), p=p, reps=2000, seed=33,
            )
            rows = run_experiment(spec).rows
            i2 = np.array([float(r.i2) for r in rows])
            se = i2.std(ddof=1) / math.sqrt(len(i2))
            assert abs(i2.mean() - random_design_expected_i2(n, p)) < 4 * se, (n, p)

    def test_adaptive_fourth_moment_respects_bound(self):
        n, p, b = 300, 0.2, 0.95
        spec = ExperimentSpec(
            model="er", n_values=(n,), policies=(ADAPTIVE,), b=b, p=p, reps=150, seed=21,
        )
        rows = run_experiment(spec).rows
        i4 = np.array([r.i4 for r in rows]) / n**4
        se = i4.std(ddof=1) / math.sqrt(len(i4))
        assert i4.mean() <= adaptive_fourth_moment_bound(p, b) + 4 * se

    def test_adaptive_beats_random_one_sided(self):
        spec = ExperimentSpec(
            model="er", n_values=(100,), policies=(ADAPTIVE, RANDOM), b=0.8,
            p=0.1, reps=300, seed=2,
        )
        rows = run_experiment(spec).rows
        a = np.array([float(r.i2) for r in rows if r.policy == ADAPTIVE])
        r = np.array([float(r.i2) for r in rows if r.policy == RANDOM])
        gap_se = math.hypot(a.std(ddof=1) / math.sqrt(len(a)), r.std(ddof=1) / math.sqrt(len(r)))
        assert a.mean() < r.mean() - 3 * gap_se

    def test_real_model_samples_and_records_density(self, tmp_path):
        parent = gen_er(ErParams(60, 0.2), seed=14)
        path = tmp_path / "parent.txt"
        write_edge_list(parent, path)
        from netrand import from_edge_list

        spec = ExperimentSpec(
            model="real", n_values=(20, 30), policies=(ADAPTIVE,), b=0.85,
            reps=3, seed=5, sample_source=from_edge_list(str(path)),
        )
        res = run_experiment(spec)
        assert len(res.rows) == 6
        for row in res.rows:
            assert row.model == "real"
            assert row.density is not None and 0.0 < row.density < 1.0
        # a fresh parse of the same file reproduces every replicate
        res2 = run_experiment(
            ExperimentSpec(
                model="real", n_values=(20, 30), policies=(ADAPTIVE,), b=0.85,
                reps=3, seed=5, sample_source=from_edge_list(str(path)),
            )
        )
        assert [r.i2 for r in res2.rows] == [r.i2 for r in res.rows]

    def test_sparse_sweep_decreases_in_n(self):
        spec = ExperimentSpec(
            model="er", n_values=(100, 200, 400), policies=(RANDOM,),
            sparse_log_density=5.0, reps=150, seed=3,
        )
        summaries = run_experiment(spec).summaries
        means = [s.mean_two_i_over_n for s in sorted(summaries, key=lambda s: s.n)]
        assert means[0] > means[1] > means[2]


class TestSweepMemory:
    """A dense sweep holds one n x n matrix at a time, beside buffers of O(n) (DECISIONS.md D4)."""

    OUTCOME = OutcomeParams(1.0, 0.0, 1.0, 1.0)

    @pytest.mark.parametrize("model, n, params, itemsize, ratio", [
        ("er", 2048, {"p": 0.05}, 1, 2.0),
        ("goe", 1024, {"sigma2": 0.2}, 8, 1.5),
    ])
    def test_traced_peak_is_about_one_matrix(self, model, n, params, itemsize, ratio):
        # Both policies, outcomes on: the draw, the designs and the outcome mat-vec all run.
        spec = ExperimentSpec(model, (n,), reps=3, seed=5, outcome=self.OUTCOME, **params)
        tracemalloc.start()
        try:
            run_experiment(spec)
            run_experiment(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= ratio * n * n * itemsize, f"peak {peak / (n * n * itemsize):.2f} matrices"

    @pytest.mark.parametrize("model", ["er", "goe", "real"])
    def test_each_graph_freed_before_the_next_is_drawn(self, monkeypatch, model):
        name = {"er": "gen_er", "goe": "gen_goe", "real": "induced_subgraph_sample"}[model]
        draw = getattr(graph, name)
        drawn = []

        def make(*args):
            alive = [i for i, ref in enumerate(drawn) if ref() is not None]
            assert not alive, f"graphs {alive} still alive when graph {len(drawn)} is drawn"
            g = draw(*args)
            drawn.append(weakref.ref(g))
            return g

        monkeypatch.setattr(graph, name, make)
        params = {"er": {"p": 0.3}, "goe": {"sigma2": 0.2},
                  "real": {"sample_source": from_edge_list([f"{i} {i + 1}" for i in range(59)])}}
        spec = ExperimentSpec(model, (20, 30), reps=3, seed=5, outcome=self.OUTCOME, **params[model])
        run_experiment(spec)
        assert len(drawn) == 6


class TestSummaries:
    def test_bounds_bracket_means(self):
        spec = ExperimentSpec(model="er", n_values=(30,), p=0.3, reps=20, seed=4)
        for s in run_experiment(spec).summaries:
            assert s.ci_lo <= s.mean_two_i_over_n <= s.ci_hi
            assert s.iqr_lo <= s.iqr_hi

    def test_aggregation_order_independent(self):
        spec = ExperimentSpec(model="er", n_values=(20, 40), p=0.4, reps=6, seed=8)
        rows = list(run_experiment(spec).rows)
        shuffled = rows[:]
        random.Random(0).shuffle(shuffled)
        assert summarize(rows) == summarize(shuffled)


class TestSeedDerivation:
    def test_streams_are_deterministic_and_distinct(self):
        a = replicate_streams(7, 0, 0)
        b = replicate_streams(7, 0, 0)
        assert [s.spawn_key for s in a] == [s.spawn_key for s in b]
        assert np.random.default_rng(a[0]).random() == np.random.default_rng(b[0]).random()
        c = replicate_streams(7, 0, 1)
        assert np.random.default_rng(a[1]).random() != np.random.default_rng(c[1]).random()


class TestReductionReport:
    def test_complete_graph_zero_denominator(self):
        rep = reduction_report(complete_graph(12), b=0.9, reps=10, seed=0)
        assert rep.adaptive_mean_i == 0.0
        assert rep.random_mean_i == 0.0
        assert rep.reduction == 0.0
        assert rep.zero_denominator

    def test_er_graph_reduces(self):
        g = gen_er(ErParams(300, 0.2), seed=6)
        rep = reduction_report(g, b=0.95, reps=60, seed=1)
        assert not rep.zero_denominator
        assert rep.adaptive_mean_i < rep.random_mean_i
        assert 0.0 < rep.reduction < 1.0
        assert rep.reduction == pytest.approx(1 - rep.adaptive_mean_i / rep.random_mean_i)
        # each arm's mean and standard error, from the final I of the same spawned stream
        a_ss, r_ss = np.random.SeedSequence(1).spawn(2)
        arms = [(ADAPTIVE, a_ss, rep.adaptive_mean_i, rep.adaptive_se),
                (RANDOM, r_ss, rep.random_mean_i, rep.random_se)]
        for policy, ss, mean, se in arms:
            finals = run_design_many(g, DesignConfig(policy, b=0.95), 60, rng=np.random.default_rng(ss))
            i = np.sqrt(finals.astype(np.float64))
            assert mean == pytest.approx(i.mean(), rel=1e-12)
            assert se == pytest.approx(i.std(ddof=1) / math.sqrt(60), rel=1e-12)

    @pytest.mark.parametrize("reps", [0, -1])
    def test_too_few_reps_rejected(self, reps):
        # the batched design checks reps before its first draw
        with pytest.raises(ParameterError, match="reps must be at least 1"):
            reduction_report(complete_graph(12), b=0.9, reps=reps, seed=0)
