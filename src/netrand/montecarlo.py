"""Replication harness: seeded pipelines, moment aggregation, closed-form checks.

Each replicate derives its streams from a splittable counter construction,
``SeedSequence(base_seed, spawn_key=(cell_index, replicate))``, so results are
reproducible and independent of replicate execution order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ParameterError
from . import graph as graphmod
from .graph import CsrGraph, ErParams, GoeParams, Graph, SbmParams
from .design import ADAPTIVE, RANDOM, DesignConfig, run_design_final, run_design_many
from .design import run_design  # noqa: F401  bound here for bench/test_bench.py's tracer test
from .outcome import OutcomeParams, simulate_outcomes

_Z95 = 1.959963984540054  # normal-approximation 95% interval half-width multiplier

ER = "er"
SBM = "sbm"
GOE = "goe"
REAL = "real"


def random_design_expected_i2(n: int, p: float) -> float:
    """Exact finite-n expected squared imbalance of the random policy on ER(n, p).

    Expectation over both the graph draw and the fair pairwise coin:
    n^2 p(1-p) + n(1-2p)(1-p).
    """
    if n < 2 or n % 2:
        raise ParameterError("n must be even and at least 2")
    if not 0.0 < p < 1.0:
        raise ParameterError("p must lie in (0, 1)")
    return n * n * p * (1.0 - p) + n * (1.0 - 2.0 * p) * (1.0 - p)


def adaptive_fourth_moment_bound(p: float, b: float) -> float:
    """Asymptotic value of E[I^4]/n^4 for the adaptive policy on ER(n, p): q^2 r(b)^4.

    q = p(1-p) and r(b) is as in ``goe_fourth_moment_bound``: the GOE
    derivation carries over with sigma^2 -> q (DECISIONS.md D2).  The limit is
    sharp, so a check against it tells b = 0.95 from a weaker coin.  At
    b = 1/2 it equals q^2, the random-policy value.
    """
    if not 0.0 < p < 1.0:
        raise ParameterError("p must lie in (0, 1)")
    q = p * (1.0 - p)
    return q * q * goe_fourth_moment_bound(b)


def goe_fourth_moment_bound(b: float) -> float:
    """Asymptotic upper bound on E[I^4]/(n^4 sigma^4) for the adaptive policy on GOE.

    The bound is sharp: it is the limit r(b)^4, where r is the positive root of
    2 r^2 + alpha r - 2 = 0 with alpha = 2 (2b - 1) / sqrt(pi), the fluid limit
    of I^2 / (n^2 sigma^2) under the biased coin (derivation in DECISIONS.md).
    Independent of sigma, which enters only through the normalization.
    At b = 1/2 the reduction term vanishes and the bound equals 1; it is
    positive and strictly decreasing on [1/2, 1].
    """
    if not 0.5 <= b <= 1.0:
        raise ParameterError("b must lie in [1/2, 1]")
    alpha = 2.0 * (2.0 * b - 1.0) / math.sqrt(math.pi)
    r = (math.sqrt(alpha * alpha + 16.0) - alpha) / 4.0
    return r**4


def sparse_edge_probability(n: int, c: float) -> float:
    """Density-regime edge probability log(n)/(c*n), for c > 0."""
    if not c > 0.0:
        raise ParameterError(f"sparse log-density c must be positive, got {c}")
    p = math.log(n) / (c * n)
    if not 0.0 < p < 1.0:
        raise ParameterError(f"log(n)/(c*n) = {p} outside (0, 1) for n={n}, c={c}")
    return p


@dataclass(frozen=True)
class ExperimentSpec:
    """One sweep: a model, a list of sizes, policies, and replication counts."""

    model: str
    n_values: tuple[int, ...]
    policies: tuple[str, ...] = (ADAPTIVE, RANDOM)
    b: float = 0.95
    p: float | None = None
    p_in: float | None = None
    p_out: float | None = None
    sigma2: float | None = None
    sparse_log_density: float | None = None
    outcome: OutcomeParams | None = None
    reps: int = 100
    seed: int = 0
    sample_source: CsrGraph | None = None

    def __post_init__(self):
        if self.model not in (ER, SBM, GOE, REAL):
            raise ParameterError(f"unknown model {self.model!r}")
        reads = {ER: ("p", "sparse_log_density"), SBM: ("p_in", "p_out"),
                 GOE: ("sigma2", "sparse_log_density"), REAL: ("sample_source",)}[self.model]
        foreign = [f for f in ("p", "p_in", "p_out", "sigma2", "sparse_log_density", "sample_source")
                   if f not in reads and getattr(self, f) is not None]
        if foreign:
            raise ParameterError(f"{self.model} model does not read {', '.join(foreign)}")
        if not self.n_values:
            raise ParameterError("at least one n value required")
        for name, values in (("n values", self.n_values), ("policies", self.policies)):
            if len(set(values)) < len(values):
                raise ParameterError(f"{name} {list(values)} repeat an entry; each cell runs once")
        for n in self.n_values:
            if n < 2:
                raise ParameterError("all n values must be at least 2")
            if n % 2:
                raise ParameterError(f"n={n} is odd; sweeps take even sizes only")
        if self.reps < 1:
            raise ParameterError("reps must be at least 1")
        if not 0.5 <= self.b <= 1.0:
            raise ParameterError("biasing probability must lie in [0.5, 1]")
        if not self.policies:
            raise ParameterError("at least one policy required")
        for pol in self.policies:
            if pol not in (ADAPTIVE, RANDOM):
                raise ParameterError(f"unknown policy {pol!r}")
        if self.sparse_log_density is not None and not self.sparse_log_density > 0.0:
            raise ParameterError("sparse log-density c must be positive")
        if self.model == ER:
            if (self.p is None) == (self.sparse_log_density is None):
                raise ParameterError("er model needs exactly one of p or sparse_log_density")
        elif self.model == SBM:
            if self.p_in is None or self.p_out is None:
                raise ParameterError("sbm model needs p_in and p_out")
        elif self.model == GOE:
            if (self.sigma2 is None) == (self.sparse_log_density is None):
                raise ParameterError(
                    "goe model needs exactly one of sigma2 or sparse_log_density"
                )


@dataclass(frozen=True)
class ResultRow:
    """Per-replicate record; mirrors the CSV schema emitted by the CLI.

    Only ``i2`` is stored; ``i``, ``i4`` and ``two_i_over_n`` are derived from it.
    """

    model: str
    n: int
    policy: str
    b: float
    p: float | None
    p_in: float | None
    p_out: float | None
    sigma2: float | None
    replicate: int
    i2: object
    w: float | None
    seed: int
    density: float | None = None

    @property
    def i(self) -> float:
        return math.sqrt(self.i2)

    @property
    def i4(self) -> float:
        return float(self.i2) ** 2

    @property
    def two_i_over_n(self) -> float:
        return 2.0 * self.i / self.n


@dataclass(frozen=True)
class MomentSummary:
    """Replicate moments for one (model, n, policy) cell.

    The confidence interval is the normal-approximation 95% interval for the
    mean of 2I/n; the IQR bounds are the 25th/75th percentiles of 2I/n.
    """

    model: str
    n: int
    policy: str
    reps: int
    mean_i: float
    mean_i2: float
    mean_i4: float
    mean_two_i_over_n: float
    ci_lo: float
    ci_hi: float
    iqr_lo: float
    iqr_hi: float
    w_mean: float | None = None
    w_sd: float | None = None


@dataclass(frozen=True)
class ExperimentResult:
    rows: tuple[ResultRow, ...]
    summaries: tuple[MomentSummary, ...]


def replicate_streams(base_seed: int, cell: int, rep: int) -> list[np.random.SeedSequence]:
    """Derive the (graph, design, outcome-a, outcome-b) streams of one replicate."""
    root = np.random.SeedSequence(base_seed, spawn_key=(cell, rep))
    return root.spawn(4)


def _resolve_cell(spec: ExperimentSpec, n: int):
    """``(make, params)`` of the size-n cell; ``make(params, seed)`` draws one graph.

    ``params`` is the generator's parameter object, or the sample size for
    ``real``.  Raises on a cell that cannot run, so a sweep fails before work:
    a generated graph must fit the dense cap, and a sample's I^2 must stay
    exact in float64.
    """
    if spec.model != REAL:
        graphmod.check_dense_size(n)
    if spec.model == ER:
        p = spec.p if spec.p is not None else sparse_edge_probability(n, spec.sparse_log_density)
        return graphmod.gen_er, ErParams(n, p)
    if spec.model == SBM:
        return graphmod.gen_sbm, SbmParams(n, spec.p_in, spec.p_out)
    if spec.model == GOE:
        if spec.sigma2 is not None:
            return graphmod.gen_goe, GoeParams(n, spec.sigma2)
        p = sparse_edge_probability(n, spec.sparse_log_density)
        return graphmod.gen_goe, GoeParams(n, p * (1.0 - p))
    source = spec.sample_source
    if not isinstance(source, CsrGraph):
        raise ParameterError("real model needs a CsrGraph source, such as from_edge_list gives")
    if n > source.n:
        raise ParameterError(f"sample size {n} exceeds graph size {source.n}")
    graphmod.check_exact_bound(source.degrees, n)
    return partial(graphmod.induced_subgraph_sample, source), n


def summarize(rows) -> tuple[MomentSummary, ...]:
    """Aggregate rows into per-cell moment summaries (order-independent)."""
    cells: dict[tuple, list[ResultRow]] = {}
    for row in rows:
        cells.setdefault((row.model, row.n, row.policy), []).append(row)
    out = []
    for (model, n, policy), group in sorted(cells.items()):
        group = sorted(group, key=lambda r: r.replicate)
        metric = np.array([r.two_i_over_n for r in group], dtype=np.float64)
        reps = len(group)
        mean = float(metric.mean())
        sd = float(metric.std(ddof=1)) if reps > 1 else 0.0
        half = _Z95 * sd / math.sqrt(reps) if reps > 1 else 0.0
        q1, q3 = np.percentile(metric, [25.0, 75.0])
        ws = [r.w for r in group if r.w is not None]
        w_mean = float(np.mean(ws)) if ws else None
        w_sd = float(np.std(ws, ddof=1)) if len(ws) > 1 else (0.0 if ws else None)
        out.append(
            MomentSummary(
                model=model,
                n=n,
                policy=policy,
                reps=reps,
                mean_i=float(np.mean([r.i for r in group])),
                mean_i2=float(np.mean([r.i2 for r in group])),
                mean_i4=float(np.mean([r.i4 for r in group])),
                mean_two_i_over_n=mean,
                ci_lo=mean - half,
                ci_hi=mean + half,
                iqr_lo=float(q1),
                iqr_hi=float(q3),
                w_mean=w_mean,
                w_sd=w_sd,
            )
        )
    return tuple(out)


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Run the sweep: fresh graph (or fresh subgraph sample) per replicate.

    Fully deterministic given the base seed; replicate streams are derived by
    spawn keys, so execution order cannot change any number.  Every cell is
    resolved before the first replicate, so a cell that cannot run fails first.
    """
    cells = [_resolve_cell(spec, n) for n in spec.n_values]
    rows: list[ResultRow] = []
    for cell, (n, (make, params)) in enumerate(zip(spec.n_values, cells)):
        for rep in range(spec.reps):
            graph_ss, design_ss, out_a_ss, out_b_ss = replicate_streams(spec.seed, cell, rep)
            g = make(params, graph_ss)
            dens = graphmod.density(g) if spec.model == REAL else None
            outcome_streams = {ADAPTIVE: out_a_ss, RANDOM: out_b_ss}
            for policy in spec.policies:
                cfg = DesignConfig(policy=policy, b=spec.b, seed=design_ss)
                tau, final_i2 = run_design_final(g, cfg)
                w = None
                if spec.outcome is not None:
                    out_rng = np.random.default_rng(outcome_streams[policy])
                    w = simulate_outcomes(g, tau, spec.outcome, out_rng).w
                rows.append(
                    ResultRow(
                        model=spec.model,
                        n=n,
                        policy=policy,
                        b=spec.b,
                        p=getattr(params, "p", None),
                        p_in=getattr(params, "p_in", None),
                        p_out=getattr(params, "p_out", None),
                        sigma2=getattr(params, "sigma2", None),
                        replicate=rep,
                        i2=final_i2,
                        w=w,
                        seed=spec.seed,
                        density=dens,
                    )
                )
            # Freed before make() draws the next graph: a sweep holds one n x n matrix at a time.
            del g
    return ExperimentResult(rows=tuple(rows), summaries=summarize(rows))


@dataclass(frozen=True)
class ReductionReport:
    """Both policies replicated on one fixed graph, with the relative reduction."""

    adaptive_mean_i: float
    random_mean_i: float
    reduction: float
    reps: int
    adaptive_se: float
    random_se: float
    zero_denominator: bool = False


def relative_reduction(adaptive_mean: float, random_mean: float) -> tuple[float, bool]:
    """``1 - adaptive/random`` and a zero-denominator flag (reduction 0 when set)."""
    if random_mean == 0.0:
        return 0.0, True
    return 1.0 - adaptive_mean / random_mean, False


def reduction_report(g: Graph | CsrGraph, b: float, reps: int, seed) -> ReductionReport:
    """Mean final imbalance under both policies on the same graph.

    Replicates use independent draws from streams spawned off ``seed``.  If
    the random-policy mean is zero the reduction is reported as 0 and
    flagged.
    """
    a_ss, r_ss = np.random.SeedSequence(seed).spawn(2)
    i_adaptive = np.sqrt(
        run_design_many(g, DesignConfig(ADAPTIVE, b=b), reps, rng=np.random.default_rng(a_ss)).astype(np.float64)
    )
    i_random = np.sqrt(
        run_design_many(g, DesignConfig(RANDOM, b=b), reps, rng=np.random.default_rng(r_ss)).astype(np.float64)
    )
    a_mean = float(i_adaptive.mean())
    r_mean = float(i_random.mean())
    a_se = float(i_adaptive.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    r_se = float(i_random.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    reduction, zero = relative_reduction(a_mean, r_mean)
    return ReductionReport(a_mean, r_mean, reduction, reps, a_se, r_se, zero_denominator=zero)
