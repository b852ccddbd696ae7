"""Brute-force references for small instances.

Everything here recomputes imbalances by direct dense algebra, independently
of the engine's incremental path, so the two routes check each other.
Enumeration sizes are capped to keep the suites running in seconds; the
offline problem is NP-hard in general.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .graph import Graph
from .design import DesignConfig

BRUTE_MAX_N = 20
TREE_MAX_N = 16


def check_size(n: int, limit: int = BRUTE_MAX_N) -> None:
    """Reject n unless it is even and in [2, limit]: the size rule of every routine here."""
    if n % 2 or not 2 <= n <= limit:
        raise ParameterError(f"oracle needs even n with 2 <= n <= {limit}, got n={n}")


def _balanced_sign_matrix(pairs: int) -> np.ndarray:
    """All 2**pairs pairwise-balanced sign vectors, one per row."""
    count = 1 << pairs
    codes = np.arange(count, dtype=np.int64)
    bits = (codes[:, None] >> np.arange(pairs)) & 1
    pair_signs = 1.0 - 2.0 * bits
    tau = np.empty((count, 2 * pairs), dtype=np.float64)
    tau[:, 0::2] = pair_signs
    tau[:, 1::2] = -pair_signs
    return tau


@dataclass(frozen=True)
class OracleResult:
    min_i2: object
    argmin_count: int


def brute_force_min(g: Graph) -> OracleResult:
    """Global minimum squared imbalance over all pairwise-balanced assignments."""
    check_size(g.n)
    tau = _balanced_sign_matrix(g.n // 2)
    sv = tau @ g.matrix.astype(np.float64).T
    i2 = (sv * sv).sum(axis=1)
    best = i2.min()
    count = int((i2 == best).sum())
    return OracleResult(min_i2=float(best) if g.weighted else int(round(best)), argmin_count=count)


@dataclass(frozen=True)
class ExactExpectation:
    expected_i2: float
    has_ties: bool


def exact_policy_expectation(g: Graph, cfg: DesignConfig) -> ExactExpectation:
    """Exact E[final I^2] under the policy, by full decision-tree traversal.

    Walks every coin outcome with its probability: the first pair splits
    1/2 - 1/2, each later pair splits b / 1-b by which candidate is strictly
    smaller, and exact ties split 1/2 - 1/2 (flagged in the result).
    Candidate values are recomputed densely at every node, independently of
    the engine's incremental update.
    """
    n = g.n
    check_size(n, TREE_MAX_N)
    b = cfg.effective_b
    mat = g.matrix.astype(np.float64)
    ties_seen = [False]

    def prefix_i2(tau: list[float]) -> float:
        k = len(tau)
        s = mat[:k, :k] @ np.asarray(tau)
        return float(s @ s)

    def walk(tau: list[float], prob: float) -> float:
        if len(tau) == n:
            return prob * prefix_i2(tau)
        i2_01 = prefix_i2(tau + [1.0, -1.0])
        i2_10 = prefix_i2(tau + [-1.0, 1.0])
        if not tau:
            p01 = 0.5
        elif i2_01 < i2_10:
            p01 = b
        elif i2_01 > i2_10:
            p01 = 1.0 - b
        else:
            ties_seen[0] = True
            p01 = 0.5
        total = 0.0
        if p01 > 0.0:
            total += walk(tau + [1.0, -1.0], prob * p01)
        if p01 < 1.0:
            total += walk(tau + [-1.0, 1.0], prob * (1.0 - p01))
        return total

    return ExactExpectation(expected_i2=walk([], 1.0), has_ties=ties_seen[0])
