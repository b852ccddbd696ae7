"""Network-correlated outcome simulation and the difference-in-means estimator.

The outcome of subject i adds its treatment effect, the latent covariates of
itself and its neighbors (row i of the adjacency matrix times Z), and iid
noise.  All functions are pure given a caller-supplied random stream, so
replicates can run concurrently on independent streams.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .graph import CsrGraph, Graph, matvec
from .design import imbalance_recompute


@dataclass(frozen=True)
class OutcomeParams:
    mu0: float
    mu1: float
    sigma_z: float
    sigma_eps: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.mu0, self.mu1, self.sigma_z, self.sigma_eps))):
            raise ParameterError("outcome parameters must be finite")
        if self.sigma_z < 0 or self.sigma_eps < 0:
            raise ParameterError("standard deviations must be nonnegative")


@dataclass(frozen=True)
class TrialOutcome:
    """Outcome vector and the estimate of mu0 - mu1.

    For odd n the estimate uses the first n - 1 subjects, since the
    estimator is defined over complete pairs.
    """

    x: np.ndarray
    w: float


def _check_sign_vector(g: Graph | CsrGraph, tau) -> np.ndarray:
    tau = np.asarray(tau, dtype=np.float64)
    if tau.shape != (g.n,):
        raise ParameterError(f"sign vector length {tau.shape} does not match n={g.n}")
    if not np.isin(tau, (-1.0, 1.0)).all():
        raise ParameterError("sign vector entries must be +1 or -1")
    return tau


def simulate_outcomes(g: Graph | CsrGraph, tau, params: OutcomeParams, rng) -> TrialOutcome:
    """Draw one outcome vector and its estimate for a fixed assignment.

    Consumes n covariate draws Z ~ N(0, sigma_z^2) followed by n noise draws.
    """
    tau = _check_sign_vector(g, tau)
    n = g.n
    z = rng.normal(0.0, params.sigma_z, n)
    eps = rng.normal(0.0, params.sigma_eps, n)
    effects = np.where(tau > 0, params.mu0, params.mu1)
    x = effects + matvec(g, z) + eps
    paired_n = n - (n % 2)
    w = 2.0 / paired_n * float(tau[:paired_n] @ x[:paired_n])
    return TrialOutcome(x=x, w=w)


def analytic_variance(g: Graph | CsrGraph, tau, params: OutcomeParams) -> float:
    """Closed-form variance of the estimate for a fixed graph and assignment."""
    tau = _check_sign_vector(g, tau)
    n = g.n
    if n % 2:
        raise ParameterError("analytic variance is defined for even n")
    i2 = float(imbalance_recompute(g, tau))
    return 4.0 / n**2 * i2 * params.sigma_z**2 + 4.0 / n * params.sigma_eps**2
