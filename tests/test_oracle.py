import itertools
import math

import numpy as np
import pytest

from netrand import (
    ADAPTIVE,
    RANDOM,
    DesignConfig,
    ErParams,
    GoeParams,
    ParameterError,
    brute_force_min,
    exact_policy_expectation,
    gen_er,
    gen_goe,
    imbalance_recompute,
    run_design_many,
)

from helpers import complete_graph, identity_graph


def balanced_assignments(n):
    for signs in itertools.product((1.0, -1.0), repeat=n // 2):
        tau = np.empty(n)
        tau[0::2] = signs
        tau[1::2] = [-s for s in signs]
        yield tau


class TestBruteForce:
    def test_complete_graph(self):
        assert brute_force_min(complete_graph(6)).min_i2 == 0

    def test_identity_graph_all_equal(self):
        res = brute_force_min(identity_graph(6))
        assert res.min_i2 == 6
        assert res.argmin_count == 8

    def test_matches_independent_enumeration(self):
        g = gen_er(ErParams(8, 0.5), seed=3)
        res = brute_force_min(g)
        values = [imbalance_recompute(g, tau) for tau in balanced_assignments(8)]
        assert res.min_i2 == min(values)
        assert res.argmin_count == values.count(min(values))

    def test_limits(self):
        with pytest.raises(ParameterError):
            brute_force_min(complete_graph(22))
        with pytest.raises(ParameterError):
            brute_force_min(identity_graph(5))


class TestExactExpectation:
    def test_half_b_is_uniform_average(self):
        g = gen_er(ErParams(8, 0.4), seed=5)
        exact = exact_policy_expectation(g, DesignConfig(RANDOM))
        values = [imbalance_recompute(g, tau) for tau in balanced_assignments(8)]
        assert exact.expected_i2 == pytest.approx(float(np.mean(values)))

    def test_complete_graph_zero_for_any_b(self):
        for b in (0.6, 0.9, 1.0):
            exact = exact_policy_expectation(complete_graph(8), DesignConfig(ADAPTIVE, b=b))
            assert exact.expected_i2 == pytest.approx(0.0)
            assert exact.has_ties

    def test_engine_monte_carlo_agrees(self):
        g = gen_er(ErParams(10, 0.3), seed=7)
        cfg = DesignConfig(ADAPTIVE, b=0.9)
        exact = exact_policy_expectation(g, cfg)
        finals = run_design_many(g, cfg, 100_000, rng=np.random.default_rng(11)).astype(float)
        se = finals.std(ddof=1) / math.sqrt(len(finals))
        assert abs(finals.mean() - exact.expected_i2) < 3 * se

    def test_min_is_lower_bound_of_expectation(self):
        for seed in range(5):
            g = gen_er(ErParams(10, 0.5), seed=seed)
            lo = brute_force_min(g).min_i2
            for b in (0.5, 0.8, 1.0):
                exact = exact_policy_expectation(g, DesignConfig(ADAPTIVE, b=b))
                assert exact.expected_i2 >= lo - 1e-9

    def test_stronger_bias_reduces_expectation_overall(self):
        # Fine-grained monotonicity in b can fail on fixed instances even
        # without ties (greedy steps can commit to globally worse prefixes;
        # e.g. this seed=3 instance rises between b=0.85 and b=1.0), so only
        # the endpoint ordering is asserted per instance.
        for seed in range(4):
            g = gen_goe(GoeParams(10, 0.5), seed=seed)
            values = []
            for b in (0.55, 1.0):
                exact = exact_policy_expectation(g, DesignConfig(ADAPTIVE, b=b))
                assert not exact.has_ties
                values.append(exact.expected_i2)
            assert values[-1] < values[0]

    def test_size_limit(self):
        with pytest.raises(ParameterError):
            exact_policy_expectation(identity_graph(18), DesignConfig())
