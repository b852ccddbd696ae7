import numpy as np
import pytest

from netrand import (
    ADAPTIVE,
    DesignConfig,
    ErParams,
    OutcomeParams,
    ParameterError,
    analytic_variance,
    from_edge_list,
    gen_er,
    imbalance_recompute,
    induced_subgraph_sample,
    run_design,
    simulate_outcomes,
)

from helpers import complete_graph, identity_graph


def edge_lines(g):
    """Edge-list lines of a binary graph, with a self-loop line per node so none is dropped."""
    rows, cols = np.nonzero(np.triu(g.matrix))
    return [f"{i} {j}" for i, j in zip(rows.tolist(), cols.tolist())]


def balanced_tau(n):
    return np.resize([1.0, -1.0], n)


def mean_and_se(g, tau, params, reps, seed):
    """Sample mean and standard error of the estimate over ``reps`` draws from one stream."""
    rng = np.random.default_rng(seed)
    ws = np.array([simulate_outcomes(g, tau, params, rng).w for _ in range(reps)])
    return ws.mean(), ws.std(ddof=1) / np.sqrt(reps)


class TestSimulateOutcomes:
    def test_noiseless_case_is_exact(self):
        g = gen_er(ErParams(20, 0.5), seed=0)
        params = OutcomeParams(mu0=3.0, mu1=1.5, sigma_z=0.0, sigma_eps=0.0)
        out = simulate_outcomes(g, balanced_tau(20), params, np.random.default_rng(0))
        assert set(np.unique(out.x)) == {1.5, 3.0}
        assert out.w == pytest.approx(1.5)

    def test_neighbour_lists_match_dense(self):
        g = gen_er(ErParams(31, 0.2), seed=4)
        csr = induced_subgraph_sample(from_edge_list(edge_lines(g)), 31, seed=0)
        dense = csr.to_dense()
        params = OutcomeParams(mu0=1.0, mu1=0.0, sigma_z=1.0, sigma_eps=0.5)
        a, b = (simulate_outcomes(h, balanced_tau(31), params, np.random.default_rng(7))
                for h in (csr, dense))
        assert np.allclose(a.x, b.x, rtol=0, atol=1e-12) and a.w == pytest.approx(b.w, abs=1e-12)

    def test_identity_graph_outcome_variance(self):
        n = 400
        params = OutcomeParams(0.0, 0.0, sigma_z=1.0, sigma_eps=0.5)
        out = simulate_outcomes(identity_graph(n), balanced_tau(n), params, np.random.default_rng(1))
        # with no neighbors, x_i = z_i + eps_i
        target = params.sigma_z**2 + params.sigma_eps**2
        assert out.x.var() == pytest.approx(target, rel=0.25)

    def test_incomplete_tau_rejected(self):
        g = gen_er(ErParams(10, 0.5), seed=0)
        params = OutcomeParams(0.0, 0.0, 1.0, 1.0)
        with pytest.raises(ParameterError):
            simulate_outcomes(g, balanced_tau(8), params, np.random.default_rng(0))
        with pytest.raises(ParameterError):
            simulate_outcomes(g, np.zeros(10), params, np.random.default_rng(0))

    def test_odd_n_uses_paired_prefix(self):
        g = gen_er(ErParams(11, 0.5), seed=2)
        tau = np.append(balanced_tau(10), 1.0)
        params = OutcomeParams(mu0=2.0, mu1=-2.0, sigma_z=0.0, sigma_eps=0.0)
        out = simulate_outcomes(g, tau, params, np.random.default_rng(0))
        assert out.w == pytest.approx(4.0)

    def test_complete_graph_estimate_is_deterministic(self):
        # rows of a complete graph annihilate any balanced sign vector, so
        # covariate noise cancels and only eps could perturb the estimate
        n = 30
        params = OutcomeParams(mu0=2.0, mu1=0.5, sigma_z=1.0, sigma_eps=0.0)
        ws = [
            simulate_outcomes(complete_graph(n), balanced_tau(n), params, np.random.default_rng(s)).w
            for s in range(50)
        ]
        assert ws == pytest.approx([1.5] * 50)

    def test_label_swap_antisymmetry(self):
        g = gen_er(ErParams(30, 0.3), seed=3)
        tau = balanced_tau(30)
        a = simulate_outcomes(g, tau, OutcomeParams(1.0, 2.0, 1.0, 1.0), np.random.default_rng(9))
        b = simulate_outcomes(g, -tau, OutcomeParams(2.0, 1.0, 1.0, 1.0), np.random.default_rng(9))
        assert a.w == pytest.approx(-b.w)
        assert np.allclose(a.x, b.x)


class TestAnalyticVariance:
    def test_no_covariate_term(self):
        g = gen_er(ErParams(50, 0.5), seed=0)
        params = OutcomeParams(0.0, 0.0, sigma_z=0.0, sigma_eps=2.0)
        assert analytic_variance(g, balanced_tau(50), params) == pytest.approx(4 * 4.0 / 50)

    def test_complete_graph_balanced(self):
        n = 20
        params = OutcomeParams(0.0, 0.0, sigma_z=3.0, sigma_eps=1.0)
        got = analytic_variance(complete_graph(n), balanced_tau(n), params)
        assert got == pytest.approx(4 * 1.0 / n)

    def test_monotone_in_imbalance(self):
        n = 20
        params = OutcomeParams(0.0, 0.0, sigma_z=1.0, sigma_eps=1.0)
        tau = balanced_tau(n)
        lo_g = complete_graph(n)
        hi_g = identity_graph(n)
        assert imbalance_recompute(lo_g, tau) < imbalance_recompute(hi_g, tau)
        assert analytic_variance(lo_g, tau, params) < analytic_variance(hi_g, tau, params)

    def test_matches_monte_carlo(self):
        g = gen_er(ErParams(60, 0.2), seed=4)
        res = run_design(g, DesignConfig(ADAPTIVE, b=0.95, seed=5))
        params = OutcomeParams(1.0, 1.0, sigma_z=1.0, sigma_eps=1.0)
        rng = np.random.default_rng(6)
        ws = np.array([simulate_outcomes(g, res.tau, params, rng).w for _ in range(20_000)])
        assert ws.var(ddof=1) == pytest.approx(analytic_variance(g, res.tau, params), rel=0.05)

    def test_odd_n_rejected(self):
        g = gen_er(ErParams(11, 0.5), seed=0)
        tau = np.append(balanced_tau(10), 1.0)
        with pytest.raises(ParameterError):
            analytic_variance(g, tau, OutcomeParams(0.0, 0.0, 1.0, 1.0))


class TestUnbiasedness:
    def test_mean_near_true_difference(self):
        g = gen_er(ErParams(100, 0.2), seed=7)
        res = run_design(g, DesignConfig(ADAPTIVE, b=0.95, seed=8))
        params = OutcomeParams(mu0=1.0, mu1=0.0, sigma_z=1.0, sigma_eps=1.0)
        mean, se = mean_and_se(g, res.tau, params, reps=3000, seed=9)
        assert abs(mean - 1.0) < 3 * se

    def test_equal_effects_centered_at_zero(self):
        g = gen_er(ErParams(100, 0.2), seed=10)
        res = run_design(g, DesignConfig(ADAPTIVE, b=0.95, seed=11))
        params = OutcomeParams(mu0=0.7, mu1=0.7, sigma_z=1.0, sigma_eps=1.0)
        mean, se = mean_and_se(g, res.tau, params, reps=3000, seed=12)
        assert abs(mean) < 3 * se

    def test_degenerate_draws(self):
        g = gen_er(ErParams(10, 0.5), seed=13)
        params = OutcomeParams(mu0=2.0, mu1=0.5, sigma_z=0.0, sigma_eps=0.0)
        mean, se = mean_and_se(g, balanced_tau(10), params, reps=10, seed=14)
        assert se == 0.0
        assert mean == pytest.approx(1.5)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ParameterError):
            OutcomeParams(0.0, 0.0, sigma_z=-1.0, sigma_eps=1.0)
