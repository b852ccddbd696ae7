"""Command-line entry points emitting CSV for plotting and tables.

Every command is a pure function of its flags and input files: identical
invocations produce byte-identical output.  Exit codes: 0 success, 1 I/O or
input-data failure or a failed self-check (``oracle``), 2 usage error.

Each CSV schema is one column list; a row's cell for a column is the record's
attribute named by the lower-cased column (``I`` -> ``i``, ``W`` -> ``w``).
"""
from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from .errors import EdgeListParseError, ParameterError
from . import graph as graphmod
from .graph import ErParams
from .design import ADAPTIVE, RANDOM, DesignConfig, run_design, run_design_many
from .montecarlo import ExperimentSpec, check_sample_size, relative_reduction, run_experiment
from .outcome import OutcomeParams
from . import oracle as oraclemod

RESULT_COLUMNS = [
    "model", "n", "policy", "b", "p", "p_in", "p_out", "sigma2",
    "replicate", "I", "I2", "I4", "two_I_over_n", "W", "seed", "density",
]
SUMMARY_COLUMNS = [
    "model", "n", "policy", "mean_two_I_over_n", "ci_lo", "ci_hi",
    "iqr_lo", "iqr_hi", "reps", "mean_I", "mean_I2", "mean_I4", "w_mean", "w_sd",
]
REAL_COLUMNS = ["n", "replicate", "policy", "b", "density", "I", "I2", "two_I_over_n", "seed"]
REAL_SUMMARY_COLUMNS = [
    "n", "reps", "b", "adaptive_mean_I", "random_mean_I", "reduction",
    "zero_denominator", "mean_density",
]
ASSIGN_COLUMNS = ["index", "node_id", "treatment", "I"]


def _fmt(value) -> str:
    """Numeric cell formatting: full-precision repr so integers stay exact."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _needs_quotes(text: str) -> bool:
    return any(c in text for c in ',"\r\n')


def _write_csv(path, columns, cells) -> None:
    """Header plus rows, to ``path`` or to stdout when it is empty, as ``csv.writer`` writes them.

    ``cells`` holds one list of cell texts per column.  The header, and each column,
    is searched once as joined text; only when that finds a comma, a quote or a line
    break are its cells checked, and those holding one quoted with quotes doubled.
    Every line ends in CRLF.
    """
    def quoted(texts):
        if not _needs_quotes("".join(texts)):
            return texts
        return ['"' + t.replace('"', '""') + '"' if _needs_quotes(t) else t for t in texts]

    lines = map(",".join, itertools.chain([quoted(columns)], zip(*map(quoted, cells))))
    text = "\r\n".join(lines) + "\r\n"
    if path:
        Path(path).write_text(text, encoding="utf-8", newline="")
    else:
        sys.stdout.write(text)


def _record_cells(columns, records) -> list[list[str]]:
    """Per column, each record's attribute named by the lower-cased column, formatted."""
    return [[_fmt(getattr(rec, c.lower())) for rec in records] for c in columns]


def _summary_path(args) -> str:
    """``--summary-out``, else ``--out`` with ``.summary`` before its ``.csv``; an empty ``--out`` is refused."""
    if not args.out:
        raise ParameterError("--out must name a file")
    p = Path(args.out)
    stem = str(p.with_suffix("")) if p.suffix == ".csv" else args.out
    return args.summary_out or stem + ".summary.csv"


def _file_id(path):
    """An existing file's device and inode, which every hard link to it shares; else the resolved path."""
    try:
        st = os.stat(path)
    except OSError:
        return Path(path).resolve()
    return st.st_dev, st.st_ino


def _check_outputs(edges, *paths) -> None:
    """Reject output paths that coincide or name the input list ``edges`` (or None), are
    directories, or whose directory is missing or unwritable."""
    paths = list(filter(None, paths))
    ids = set(map(_file_id, paths))
    if len(ids) < len(paths):
        raise ParameterError(f"output paths {paths} coincide; one file would overwrite the other")
    if edges is not None and _file_id(edges) in ids:
        raise ParameterError(f"an output path names the edge list {edges!r}; writing would overwrite it")
    for path in paths:
        if Path(path).is_dir():
            raise IsADirectoryError(f"output path {path!r} is a directory")
        parent = Path(path).parent
        if not parent.is_dir():
            raise FileNotFoundError(f"output directory {str(parent)!r} does not exist")
        if not os.access(parent, os.W_OK):
            raise PermissionError(f"output directory {str(parent)!r} is not writable")


def _parse_ranges(entries) -> list[range]:
    """Sweep sizes from repeatable entries, an integer or an inclusive start:stop:step, as ranges."""
    ranges: list[range] = []
    for entry in entries:
        parts = entry.split(":")
        if len(parts) not in (1, 3):
            raise ParameterError(f"range must be start:stop:step, got {entry!r}")
        try:
            numbers = [int(x) for x in parts]
        except ValueError:
            raise ParameterError(f"size must be an integer, got {entry!r}") from None
        # a single size n is the range n:n:1
        start, stop, step_ = numbers if len(numbers) == 3 else numbers * 2 + [1]
        if step_ <= 0 or stop < start:
            raise ParameterError(f"bad range {entry!r}")
        ranges.append(range(start, stop + 1, step_))
    return ranges


def _expand(ranges, check_size) -> tuple[int, ...]:
    """The ranges' sizes, built only after ``check_size`` has passed each range's largest."""
    for sizes in ranges:
        check_size(sizes[-1])
    return tuple(n for sizes in ranges for n in sizes)


def cmd_simulate(args) -> int:
    summary_out = _summary_path(args)
    _check_outputs(None, args.out, summary_out)
    policies = {
        "adaptive": (ADAPTIVE,),
        "random": (RANDOM,),
        "both": (ADAPTIVE, RANDOM),
    }[args.policy]
    outcome = None
    outcome_flags = [args.mu0, args.mu1, args.sigma_z, args.sigma_eps]
    if any(v is not None for v in outcome_flags):
        if any(v is None for v in outcome_flags):
            raise ParameterError("outcome simulation needs all of --mu0 --mu1 --sigma-z --sigma-eps")
        outcome = OutcomeParams(args.mu0, args.mu1, args.sigma_z, args.sigma_eps)
    spec = ExperimentSpec(
        model=args.model,
        n_values=_expand(_parse_ranges(args.n), graphmod.check_dense_size),
        policies=policies,
        b=args.b,
        p=args.p,
        p_in=args.p_in,
        p_out=args.p_out,
        sigma2=args.sigma2,
        sparse_log_density=args.sparse_log_density,
        outcome=outcome,
        reps=args.reps,
        seed=args.seed,
    )
    result = run_experiment(spec)
    _write_csv(args.out, RESULT_COLUMNS, _record_cells(RESULT_COLUMNS, result.rows))
    _write_csv(summary_out, SUMMARY_COLUMNS, _record_cells(SUMMARY_COLUMNS, result.summaries))
    return 0


def cmd_real(args) -> int:
    """Fresh induced sample and arrival order per replicate, both policies."""
    summary_out = _summary_path(args)
    _check_outputs(args.edges, args.out, summary_out)
    ranges = _parse_ranges(args.sample or ["10000"])
    # Checked before the list is read on each range's first two sizes, which hold the range's
    # first odd size or size below 2, if any; the largest sizes wait for the list's node count.
    spec = ExperimentSpec(
        model="real",
        n_values=tuple(n for sizes in ranges for n in sizes[:2]),
        policies=(ADAPTIVE, RANDOM),
        b=args.b,
        reps=args.reps,
        seed=args.seed,
    )
    source = graphmod.from_edge_list(args.edges)
    spec = replace(spec, n_values=_expand(ranges, partial(check_sample_size, source)),
                   sample_source=source)
    result = run_experiment(spec)
    mean_i = {(s.n, s.policy): s.mean_i for s in result.summaries}
    densities = {}
    for r in result.rows:
        densities.setdefault(r.n, []).append(r.density)
    summary_rows = []
    for k in spec.n_values:
        a_mean, r_mean = mean_i[k, ADAPTIVE], mean_i[k, RANDOM]
        reduction, zero = relative_reduction(a_mean, r_mean)
        row = (k, args.reps, args.b, a_mean, r_mean, reduction, int(zero), float(np.mean(densities[k])))
        summary_rows.append(list(map(_fmt, row)))
    _write_csv(args.out, REAL_COLUMNS, _record_cells(REAL_COLUMNS, result.rows))
    _write_csv(summary_out, REAL_SUMMARY_COLUMNS, list(zip(*summary_rows)))
    return 0


def cmd_assign(args) -> int:
    if args.out == "":  # only an omitted --out selects stdout
        raise ParameterError("--out must name a file")
    _check_outputs(args.edges, args.out)
    order_ss, design_ss = np.random.SeedSequence(args.seed).spawn(2)
    cfg = DesignConfig(policy=ADAPTIVE, b=args.b, seed=design_ss)
    # --order random reads the list straight into the sample order of a whole-list sample.
    g = graphmod.from_edge_list(args.edges, order_ss if args.order == "random" else None)
    graphmod.check_exact_bound(g.degrees, g.n)
    res = run_design(g, cfg)
    # Each pair's I is formatted once; an odd trailing subject repeats the last pair's.
    i_cells = [repr(i) for i in np.sqrt(res.i2_trajectory.astype(np.float64)).tolist()]
    i_rows = [cell for cell in i_cells for _ in range(2)] + i_cells[-1:] * (g.n % 2)
    treatment = np.where(res.tau > 0, "0", "1").tolist()
    _write_csv(args.out, ASSIGN_COLUMNS, [list(map(str, range(g.n))), g.labels, treatment, i_rows])
    return 0


def cmd_oracle(args) -> int:
    oraclemod.check_size(args.n)
    if args.mc_reps < 2:
        raise ParameterError("oracle needs --mc-reps of at least 2 for a standard error")
    g = graphmod.gen_er(ErParams(args.n, args.p), args.seed)
    cfg = DesignConfig(policy=ADAPTIVE, b=args.b)
    brute = oraclemod.brute_force_min(g)
    print(f"brute_force_min_i2: {brute.min_i2} (argmin_count={brute.argmin_count})")
    exact = None
    if args.n <= oraclemod.TREE_MAX_N:
        exact = oraclemod.exact_policy_expectation(g, cfg)
        print(f"exact_expected_i2: {exact.expected_i2!r} (ties={exact.has_ties})")
    else:
        print(f"exact_expected_i2: skipped (n > {oraclemod.TREE_MAX_N})")
    mc_rng = np.random.default_rng(np.random.SeedSequence(args.seed, spawn_key=(1,)))
    finals = run_design_many(g, cfg, args.mc_reps, rng=mc_rng).astype(np.float64)
    mc_mean = float(finals.mean())
    mc_se = float(finals.std(ddof=1) / math.sqrt(args.mc_reps))
    print(f"mc_mean_i2: {mc_mean!r} (se={mc_se!r}, reps={args.mc_reps})")
    ok = True
    lower_ok = bool((finals >= float(brute.min_i2) - 1e-9).all())
    print(f"check_min_lower_bound: {'PASS' if lower_ok else 'FAIL'}")
    ok &= lower_ok
    if exact is not None:
        within = abs(mc_mean - exact.expected_i2) <= 3.0 * mc_se
        print(f"check_mc_vs_exact: {'PASS' if within else 'FAIL'} "
              f"(|diff|={abs(mc_mean - exact.expected_i2)!r}, 3se={3.0 * mc_se!r})")
        ok &= within
    print(f"overall: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netrand",
        description="Sequential adaptive randomization for network experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulated-network sweeps to CSV")
    sim.add_argument("--model", choices=["er", "sbm", "goe"], required=True)
    sim.add_argument("--n", action="append", required=True,
                     help="size; repeatable, or inclusive range start:stop:step")
    sim.add_argument("--p", type=float)
    sim.add_argument("--p-in", dest="p_in", type=float)
    sim.add_argument("--p-out", dest="p_out", type=float)
    sim.add_argument("--sigma2", type=float)
    sim.add_argument("--sparse-log-density", dest="sparse_log_density", type=float,
                     help="c: use edge probability log(n)/(c*n) at each n")
    sim.add_argument("--b", type=float, default=0.95)
    sim.add_argument("--policy", choices=["adaptive", "random", "both"], default="both")
    sim.add_argument("--reps", type=int, default=100)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--mu0", type=float)
    sim.add_argument("--mu1", type=float)
    sim.add_argument("--sigma-z", dest="sigma_z", type=float)
    sim.add_argument("--sigma-eps", dest="sigma_eps", type=float)
    sim.add_argument("--out", required=True)
    sim.add_argument("--summary-out", dest="summary_out")
    sim.set_defaults(func=cmd_simulate)

    real = sub.add_parser("real", help="edge-list ingestion, sampling, both policies")
    real.add_argument("--edges", required=True)
    real.add_argument("--sample", action="append",
                      help="sample size (default 10000); repeatable, or inclusive range start:stop:step")
    real.add_argument("--b", type=float, default=0.85)
    real.add_argument("--reps", type=int, default=10)
    real.add_argument("--seed", type=int, default=0)
    real.add_argument("--out", required=True)
    real.add_argument("--summary-out", dest="summary_out")
    real.set_defaults(func=cmd_real)

    assign = sub.add_parser("assign", help="assign treatments to a concrete cohort")
    assign.add_argument("--edges", required=True)
    assign.add_argument("--order", choices=["file", "random"], default="file")
    assign.add_argument("--b", type=float, default=0.85)
    assign.add_argument("--seed", type=int, default=0)
    assign.add_argument("--out")
    assign.set_defaults(func=cmd_assign)

    orc = sub.add_parser("oracle", help="brute-force consistency report on a small instance")
    orc.add_argument("--n", type=int, required=True)
    orc.add_argument("--p", type=float, required=True)
    orc.add_argument("--seed", type=int, default=0)
    orc.add_argument("--b", type=float, default=0.95)
    orc.add_argument("--mc-reps", dest="mc_reps", type=int, default=100000)
    orc.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Every command seeds numpy, whose seeds are nonnegative integers.
        if args.seed < 0:
            raise ParameterError(f"--seed must be nonnegative, got {args.seed}")
        return args.func(args)
    except (ParameterError, EdgeListParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ParameterError) else 1

