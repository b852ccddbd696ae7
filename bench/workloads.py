"""Benchmark workloads: inputs made from the seed, the timed call, and its output checks.

Each workload runs as a closed loop in one process: a single caller makes one
call into netrand's public entry points (``netrand.cli.main(argv)`` or
``netrand.montecarlo.reduction_report``), waits for it, checks the outputs,
and only then makes the next call.  netrand sees only the generated files and
flags.  Why each workload exists:

- ``sim_er``: the paper's main Monte Carlo sweep (ER n=1000, p=0.2, b=0.95,
  both policies, outcomes on).  Graph generation, validation and the
  per-pair scalar design step dominate; it should not move under a sparse
  backend.
- ``real_sparse``: the real-data study on a SNAP-style heavy-tailed parent
  (about 20000 nodes, 100k edges) sampled to 10000 nodes, then ``assign`` on
  a 10000-node cohort.  Ingestion, O(n^2) validation and induced sampling
  dominate, and so does dense memory.
- ``fixed_reps``: ``reduction_report`` on one fixed ~5000-node sample, the
  batched design kernel over many replicates of one graph.
"""
from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Sizes:
    sim_n: int
    sim_reps: int
    parent_nodes: int
    parent_edges: int
    sample: int
    real_reps: int
    cohort_nodes: int
    cohort_edges: int
    fixed_parent_nodes: int
    fixed_parent_edges: int
    fixed_sample: int
    fixed_reps: int


FULL = Sizes(
    sim_n=1000, sim_reps=10,
    parent_nodes=20000, parent_edges=100_000, sample=10000, real_reps=1,
    cohort_nodes=10000, cohort_edges=25_000,
    fixed_parent_nodes=10000, fixed_parent_edges=50_000, fixed_sample=5000, fixed_reps=10,
)
SMOKE = Sizes(
    sim_n=100, sim_reps=4,
    parent_nodes=400, parent_edges=2000, sample=200, real_reps=2,
    cohort_nodes=120, cohort_edges=300,
    fixed_parent_nodes=400, fixed_parent_edges=2000, fixed_sample=200, fixed_reps=8,
)


@dataclass(frozen=True)
class EdgeList:
    """Simple undirected graph: node labels and one (u, v) index pair per edge."""

    labels: np.ndarray
    u: np.ndarray
    v: np.ndarray

    @property
    def nodes(self) -> int:
        return self.labels.shape[0]

    def write(self, path: Path, title: str) -> None:
        """SNAP layout: '#' header lines, then one tab-separated edge per line."""
        lu = self.labels[self.u].tolist()
        lv = self.labels[self.v].tolist()
        head = [
            f"# Undirected graph: {title}",
            "# Heavy-tailed synthetic network made from the benchmark seed",
            f"# Nodes: {self.nodes} Edges: {len(lu)}",
            "# FromNodeId\tToNodeId",
        ]
        body = map("{}\t{}".format, lu, lv)
        path.write_text("\n".join([*head, *body]) + "\n", encoding="utf-8")

    def imbalance2(self, tau: np.ndarray) -> int:
        """||A tau||^2 with unit self-loops, from the edge arrays alone."""
        tau = tau.astype(np.int64)
        s = tau.copy()
        s += np.bincount(self.u, weights=tau[self.v], minlength=self.nodes).astype(np.int64)
        s += np.bincount(self.v, weights=tau[self.u], minlength=self.nodes).astype(np.int64)
        return int(s @ s)


def heavy_tailed(rng: np.random.Generator, nodes: int, edges: int, exponent: float = 2.5) -> EdgeList:
    """About ``edges`` edges on ``nodes`` nodes, none isolated, with heavy-tailed degrees.

    A random recursive tree touches every node, so the edge list names all of
    them; the other edges join endpoints drawn with Chung-Lu weights from a
    Pareto law with tail exponent ``exponent``.  Self-loops and duplicates are
    dropped, edges are shuffled and randomly oriented, and labels are distinct
    non-contiguous integers.
    """
    child = np.arange(1, nodes)
    w = rng.pareto(exponent - 1.0, nodes) + 1.0
    extra = rng.choice(nodes, size=2 * max(edges - (nodes - 1), 0), p=w / w.sum())
    u = np.concatenate([rng.integers(0, child), extra[0::2]])
    v = np.concatenate([child, extra[1::2]])
    keep = u != v
    key = np.unique(np.minimum(u, v)[keep] * nodes + np.maximum(u, v)[keep])
    key = key[rng.permutation(key.shape[0])]
    lo, hi = key // nodes, key % nodes
    flip = rng.random(key.shape[0]) < 0.5
    labels = rng.choice(10**8, size=nodes, replace=False)
    return EdgeList(labels=labels, u=np.where(flip, hi, lo), v=np.where(flip, lo, hi))


def dense_imbalance2(dense: np.ndarray, tau: np.ndarray) -> int:
    """||A tau||^2 by a chunked dense product in int64."""
    t = tau.astype(np.int64)
    total = 0
    for i0 in range(0, t.shape[0], 512):
        s = dense[i0:i0 + 512].astype(np.int64) @ t
        total += int(s @ s)
    return total


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_imbalance_rows(rows: list[dict], n: int, reps: int) -> list[str]:
    """Rows of ``simulate``/``real``: counts, exact I2, I = sqrt(I2), adaptive below random."""
    bad = []
    expected = {(pol, str(r)) for pol in ("adaptive", "random") for r in range(reps)}
    got = [(row["policy"], row["replicate"]) for row in rows]
    if len(rows) != 2 * reps or set(got) != expected:
        bad.append(f"expected {2 * reps} rows, one per (policy, replicate); got {len(rows)}")
        return bad
    means = {"adaptive": 0.0, "random": 0.0}
    for row in rows:
        if row["n"] != str(n):
            bad.append(f"row n={row['n']}, expected {n}")
        if not row["I2"].isdigit():
            bad.append(f"I2={row['I2']!r} is not an integer")
            continue
        i = float(row["I"])
        if i != math.sqrt(int(row["I2"])):
            bad.append(f"I={row['I']} is not sqrt(I2={row['I2']})")
        means[row["policy"]] += 2.0 * i / n / reps
    if not means["adaptive"] < means["random"]:
        bad.append(f"adaptive mean 2I/n {means['adaptive']} not below random {means['random']}")
    return bad


def check_assign_rows(rows: list[dict], cohort: EdgeList) -> list[str]:
    """Pairs get opposite treatments, node ids permute the cohort, final I^2 is exact.

    Cohorts have an even size, so the last row's I covers the whole cohort.
    """
    n = cohort.nodes
    if len(rows) != n or [row["index"] for row in rows] != [str(i) for i in range(n)]:
        return [f"expected {n} rows indexed 0..{n - 1}, got {len(rows)}"]
    bad = []
    treat = np.array([row["treatment"] for row in rows])
    if not np.isin(treat, ("0", "1")).all():
        return ["treatment outside {0, 1}"]
    if (treat[0::2] == treat[1::2]).any():
        bad.append("a pair received equal treatments")
    position = {str(label): i for i, label in enumerate(cohort.labels.tolist())}
    ids = [row["node_id"] for row in rows]
    if len(set(ids)) != n or not all(x in position for x in ids):
        return bad + ["node_id is not a permutation of the cohort labels"]
    tau = np.empty(n, dtype=np.int64)
    tau[[position[x] for x in ids]] = np.where(treat == "0", 1, -1)
    want = cohort.imbalance2(tau)
    i_final = float(rows[-1]["I"])
    if round(i_final * i_final) != want:
        bad.append(f"final I^2 {i_final * i_final!r} != recomputed {want}")
    return bad


class Workload:
    """One closed-loop workload; ``setup`` may run several times and must be idempotent."""

    name = ""
    pairs = 0  # pair decisions completed by one call: sum of floor(n/2) x policies x reps
    # Reference kernels (run.REF_KERNELS) whose time tracks this workload's as the host's
    # speed drifts.  Interpreted Python tracks the per-pair steps and the batched kernel.
    reference: tuple[str, ...] = ("loop",)

    def __init__(self, nr, workdir: Path, seed: int, sizes: Sizes):
        self.nr = nr
        self.workdir = workdir
        self.seed = seed
        self.sizes = sizes
        self.outputs: list[Path] = []
        self.exit_codes: list[int] = []

    def streams(self, k: int) -> list[np.random.Generator]:
        return [np.random.default_rng(s) for s in np.random.SeedSequence(self.seed).spawn(k)]

    def cli(self, argv: list[str]) -> None:
        self.exit_codes.append(self.nr.cli.main(argv))

    def setup(self) -> None:
        pass

    def steps(self) -> list:
        """The timed call as steps run in turn; the host's speed is measured between them."""
        raise NotImplementedError

    def check(self) -> list[str]:
        bad = [f"exit code {rc}" for rc in self.exit_codes if rc != 0]
        self.exit_codes = []
        return bad


class SimEr(Workload):
    name = "sim_er"

    def setup(self) -> None:
        z = self.sizes
        self.out = self.workdir / "sim.csv"
        self.outputs = [self.out, self.workdir / "sim.summary.csv"]
        self.argv = [
            "simulate", "--model", "er", "--n", str(z.sim_n), "--p", "0.2", "--b", "0.95",
            "--policy", "both", "--mu0", "1", "--mu1", "0", "--sigma-z", "1", "--sigma-eps", "1",
            "--reps", str(z.sim_reps), "--seed", str(self.seed), "--out", str(self.out),
        ]
        self.pairs = z.sim_n // 2 * 2 * z.sim_reps

    def steps(self) -> list:
        return [lambda: self.cli(self.argv)]

    def check(self) -> list[str]:
        bad = super().check()
        if bad:
            return bad
        rows = _read_csv(self.out)
        bad += check_imbalance_rows(rows, self.sizes.sim_n, self.sizes.sim_reps)
        if not all(math.isfinite(float(row["W"])) for row in rows):
            bad.append("W column missing or not finite with outcome flags on")
        if len(_read_csv(self.outputs[1])) != 2:
            bad.append("summary needs one row per policy")
        return bad


class RealSparse(Workload):
    name = "real_sparse"
    # Dense n x n arrays take much of each call, and they slow down less than Python does.
    reference = ("loop", "dense")

    def setup(self) -> None:
        z = self.sizes
        parent_rng, cohort_rng = self.streams(2)
        self.parent_path = self.workdir / "parent.txt"
        self.cohort_path = self.workdir / "cohort.txt"
        heavy_tailed(parent_rng, z.parent_nodes, z.parent_edges).write(self.parent_path, "parent")
        self.cohort = heavy_tailed(cohort_rng, z.cohort_nodes, z.cohort_edges)
        self.cohort.write(self.cohort_path, "cohort")
        self.real_out = self.workdir / "real.csv"
        self.assign_out = self.workdir / "assign.csv"
        self.outputs = [self.real_out, self.workdir / "real.summary.csv", self.assign_out]
        self.pairs = z.sample // 2 * 2 * z.real_reps + z.cohort_nodes // 2
        seed = str(self.seed)
        self.argv_real = [
            "real", "--edges", str(self.parent_path), "--sample", str(z.sample), "--b", "0.85",
            "--reps", str(z.real_reps), "--seed", seed, "--out", str(self.real_out),
        ]
        self.argv_assign = [
            "assign", "--edges", str(self.cohort_path), "--order", "random", "--b", "0.85",
            "--seed", seed, "--out", str(self.assign_out),
        ]

    def steps(self) -> list:
        return [lambda: self.cli(self.argv_real), lambda: self.cli(self.argv_assign)]

    def check(self) -> list[str]:
        bad = super().check()
        if bad:
            return bad
        bad += check_imbalance_rows(_read_csv(self.real_out), self.sizes.sample, self.sizes.real_reps)
        if len(_read_csv(self.outputs[1])) != 1:
            bad.append("real summary needs one row")
        bad += check_assign_rows(_read_csv(self.assign_out), self.cohort)
        return bad


class FixedReps(Workload):
    name = "fixed_reps"

    def setup(self) -> None:
        z = self.sizes
        graph = self.nr.graph
        # Free the last repeat's graph first, so peak memory is that of one set-up, not two.
        self.g = self.dense = None
        parent_rng, sample_rng = self.streams(2)
        parent = heavy_tailed(parent_rng, z.fixed_parent_nodes, z.fixed_parent_edges)
        path = self.workdir / "fixed_parent.txt"
        parent.write(path, "fixed-reps parent")
        self.g = graph.induced_subgraph_sample(graph.from_edge_list(path), z.fixed_sample, sample_rng)
        # The benchmark's own dense adjacency of the sample, built from its edge arrays.
        where = np.full(parent.nodes, -1, dtype=np.int64)
        index = {str(label): i for i, label in enumerate(parent.labels.tolist())}
        where[[index[x] for x in self.g.labels]] = np.arange(self.g.n)
        u, v = where[parent.u], where[parent.v]
        inside = (u >= 0) & (v >= 0)
        self.dense = np.eye(self.g.n, dtype=np.uint8)
        self.dense[u[inside], v[inside]] = 1
        self.dense[v[inside], u[inside]] = 1
        self.pairs = self.g.n // 2 * 2 * z.fixed_reps
        self.report = None
        self.reference_checked = False

    def steps(self) -> list:
        return [self._report]

    def _report(self) -> None:
        self.report = self.nr.montecarlo.reduction_report(
            self.g, b=0.85, reps=self.sizes.fixed_reps, seed=self.seed
        )

    def check(self) -> list[str]:
        bad = super().check()
        rep = self.report
        if rep.zero_denominator or not 0.0 < rep.reduction < 1.0 or rep.reps != self.sizes.fixed_reps:
            bad.append(f"reduction {rep.reduction} outside (0, 1) or reps {rep.reps} wrong")
        if self.reference_checked:
            return bad
        # Once per run: the scalar engine on the same graph against a dense recompute.
        self.reference_checked = True
        design = self.nr.design
        res = design.run_design(self.g, design.DesignConfig(design.ADAPTIVE, b=0.85, seed=self.seed))
        n2 = self.g.n - self.g.n % 2
        want = dense_imbalance2(self.dense[:n2, :n2], res.tau[:n2])
        if res.final_i2 != want:
            bad.append(f"run_design final I^2 {res.final_i2} != dense recompute {want}")
        return bad


WORKLOADS = {w.name: w for w in (SimEr, RealSparse, FixedReps)}
