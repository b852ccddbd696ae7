"""netrand benchmark: one closed-loop workload per process, every output checked.

Run from the repository root:

    python3 bench/run.py --workload sim_er --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke        # every workload once, tiny sizes, all checks

``--trace 0`` times untraced calls and prints the end-to-end metrics, with
every time taken at reference speed (see ``REF_NOMINAL_S``).
``--trace 1`` alternates untraced and traced calls and prints the per-layer
metrics, plus ``trace.overhead_s`` (traced minus untraced median wall time).
Workloads are described in ``workloads.py``.  Every metric is printed by name
with its unit; the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record with the
environment, per-call times, check failures and the sha256 of every CLI output
file is written to ``.bench_runs/<workload>-seed<seed>-trace<t>/``.

Exit status: 0 when every check passed, 1 when any failed, 2 when netrand's
sources are not found beside the benchmark.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
# One BLAS thread keeps times steady on a shared 2-core machine; nproc is recorded.
BLAS_THREADS = "1"
SETUP_REPEATS = 5
IMPORT_REPEATS = 9
TAIL_BEYOND = 10
# The speed of a shared host drifts by up to 2x within minutes.  So each
# end-to-end time is taken at reference speed: divided by the time of fixed
# reference kernels measured just before and just after it, and multiplied by
# their nominal time.  Each workload names the kernels that slow down as it does
# (see ``Workload.reference``).  REF_NOMINAL_S holds each kernel's typical time on
# the 2-vCPU 2.0 GHz Xeon host the bounds were set on, so times there read about
# as raw seconds.  Raw times are printed beside the scaled ones and kept in the record.
REF_LOOP = 150_000
REF_DENSE_BYTES = 16_000_000
REF_NOMINAL_S = {"loop": 0.012, "dense": 0.009}
REF_SHARE = 0.05  # reference samples on each side of a call take about this share of its time
REF_MAX_SAMPLES = 9

END_TO_END = {
    "wall_s": "s",
    "wall_s_tail": "s",
    "pairs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "graph.gen_er.s": "s",
    "graph.gen_er.calls": "count",
    "graph.validate.s": "s",
    "graph.validate.calls": "count",
    "graph.from_edge_list.s": "s",
    "graph.from_edge_list.lines": "count",
    "graph.induced_subgraph_sample.s": "s",
    "graph.density.s": "s",
    "graph.dense_bytes": "B",
    "design.run_design.s": "s",
    "design.pairs": "count",
    "design.us_per_pair": "us",
    "design.increment_from_view.s": "s",
    "design.candidate_imbalances.s": "s",
    "design.step.s": "s",
    "design.run_design_many.s": "s",
    "design.pair_reps": "count",
    "design.ns_per_pair_rep": "ns",
    "design.bytes_read": "B",
    "outcome.simulate_outcomes.s": "s",
    "outcome.calls": "count",
    "outcome.bytes_read": "B",
    "montecarlo.run_experiment.self_s": "s",
    "montecarlo.summarize.s": "s",
    "montecarlo.reduction_report.self_s": "s",
    "cli.main.self_s": "s",
    "cli.rows_out": "count",
    "cli.bytes_out": "B",
    "trace.overhead_s": "s",
}
_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import numpy, netrand.cli; "
    "print(time.perf_counter() - t)"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once at tiny sizes with all checks")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    return args


def import_seconds() -> float:
    """Fresh-interpreter import time of numpy and netrand.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip())


def _loop() -> None:
    """Interpreted Python: the work of netrand's per-pair steps and its text parsing."""
    acc = 0
    for i in range(REF_LOOP):
        acc += i * i % 7


def _dense() -> None:
    """Allocate, fill and scan a large array: the work of netrand's dense n x n matrices."""
    int(np.ones(REF_DENSE_BYTES, dtype=np.uint8).sum())


REF_KERNELS = {"loop": _loop, "dense": _dense}


def reference_seconds(kinds: tuple[str, ...], budget: float) -> float:
    """Median time of the kernels ``kinds`` run in turn, over samples taking about ``budget`` s."""
    samples: list[float] = []
    while not samples or (len(samples) < REF_MAX_SAMPLES and sum(samples) < budget):
        samples.append(_seconds(lambda: [REF_KERNELS[k]() for k in kinds]))
    return statistics.median(samples)


def at_reference_speed(raw: float, kinds: tuple[str, ...], before: float, after: float) -> float:
    """``raw`` seconds scaled to the host speed at which the kernels ``kinds`` take their nominal time."""
    return raw * sum(REF_NOMINAL_S[k] for k in kinds) / ((before + after) / 2)


def time_scaled(measure, kinds: tuple[str, ...]) -> tuple[float, float]:
    """(raw, reference-speed) seconds of ``measure()``, which returns the seconds it measured."""
    before = reference_seconds(kinds, 0.0)
    raw = measure()
    return raw, at_reference_speed(raw, kinds, before, reference_seconds(kinds, REF_SHARE * raw))


def _seconds(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def load_netrand() -> SimpleNamespace:
    """netrand's modules, imported from the sources beside the benchmark."""
    sys.path.insert(0, str(SRC))
    import netrand
    from netrand import cli, design, graph, montecarlo, oracle, outcome

    if not Path(netrand.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"netrand imported from {netrand.__file__}, not {SRC}")
    return SimpleNamespace(netrand=netrand, graph=graph, design=design, outcome=outcome,
                           montecarlo=montecarlo, cli=cli, oracle=oracle)


def blas_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": threads if threads is not None else f"env {BLAS_THREADS}"}


def git_rev() -> str | None:
    """HEAD commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment(seed: int) -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas_info(),
        "git_rev": git_rev(),
        "seed": seed,
    }


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest rank with TAIL_BEYOND samples above.

    With TAIL_BEYOND samples or fewer there is no such rank; the maximum is
    reported with the number of samples beyond it, which is then 0.
    """
    s = sorted(values)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0, 0
    k = n - TAIL_BEYOND
    return s[k - 1], 100.0 * k / n, TAIL_BEYOND


def _output_rows_bytes(paths) -> tuple[int, int]:
    rows = nbytes = 0
    for p in filter(Path.is_file, paths):
        data = p.read_bytes()
        rows += data.count(b"\n") - 1  # minus the header
        nbytes += len(data)
    return rows, nbytes


def layer_metrics(tracer, start: int, wl) -> dict:
    from tracing import VALIDATE

    total, own = tracer.totals(start, tracer.mark())
    c = tracer.counts

    def t(span: str) -> float:
        return total.get(span, 0.0)

    rows, nbytes = _output_rows_bytes(wl.outputs)
    pairs = c.get("design.pairs", 0.0)
    pair_reps = c.get("design.pair_reps", 0.0)
    m = {
        "graph.gen_er.s": t("graph.gen_er"),
        "graph.validate.s": t(VALIDATE),
        "graph.from_edge_list.s": t("graph.from_edge_list"),
        "graph.induced_subgraph_sample.s": t("graph.induced_subgraph_sample"),
        "graph.density.s": t("graph.density"),
        "design.run_design.s": t("design.run_design"),
        "design.us_per_pair": 1e6 * t("design.run_design") / pairs if pairs else 0.0,
        "design.increment_from_view.s": t("design.increment_from_view"),
        "design.candidate_imbalances.s": t("design.candidate_imbalances"),
        "design.step.s": t("design.step"),
        "design.run_design_many.s": t("design.run_design_many"),
        "design.ns_per_pair_rep": 1e9 * t("design.run_design_many") / pair_reps if pair_reps else 0.0,
        "outcome.simulate_outcomes.s": t("outcome.simulate_outcomes"),
        "montecarlo.run_experiment.self_s": own.get("montecarlo.run_experiment", 0.0),
        "montecarlo.summarize.s": t("montecarlo.summarize"),
        "montecarlo.reduction_report.self_s": own.get("montecarlo.reduction_report", 0.0),
        "cli.main.self_s": own.get("cli.main", 0.0),
        "cli.rows_out": rows,
        "cli.bytes_out": nbytes,
    }
    for name in PER_LAYER:
        m.setdefault(name, c.get(name, 0.0))
    return m


def run_workload(nr: SimpleNamespace, name: str, seed: int, seconds: float, trace: bool, sizes,
                 workdir: Path) -> dict:
    from tracing import Tracer
    from workloads import WORKLOADS, sha256

    workdir.mkdir(parents=True, exist_ok=True)
    kinds = WORKLOADS[name].reference
    import_s = [time_scaled(import_seconds, kinds) for _ in range(IMPORT_REPEATS)]
    wl = WORKLOADS[name](nr, workdir, seed, sizes)
    setup_s = [time_scaled(lambda: _seconds(wl.setup), kinds) for _ in range(SETUP_REPEATS)]

    tracer = Tracer()
    iterations: list[dict] = []
    first_digests = None
    cpus = sorted(os.sched_getaffinity(0))
    ref_budget = 0.0
    start = time.perf_counter()
    while not iterations or time.perf_counter() - start < seconds or (trace and len(iterations) < 2):
        # Wrappers are installed only around traced calls, so untraced calls run unmodified code.
        traced = trace and len(iterations) % 2 == 1
        # Each pair of calls moves to the next allowed CPU, so one run samples the load that
        # other tenants put on every CPU rather than on whichever one the run started on.
        os.sched_setaffinity(0, {cpus[len(iterations) // 2 % len(cpus)]})
        mark = tracer.mark()
        tracer.counts = {}
        if traced:
            tracer.install(nr)
        error = None
        wall = scaled = 0.0
        refs = [reference_seconds(kinds, ref_budget)]
        try:
            for step in wl.steps():
                t0 = time.perf_counter()
                try:
                    step()
                except Exception:  # a crash inside netrand is a failed call, not a benchmark crash
                    error = traceback.format_exc()
                step_s = time.perf_counter() - t0
                ref_budget = REF_SHARE * step_s
                refs.append(reference_seconds(kinds, ref_budget))
                wall += step_s
                scaled += at_reference_speed(step_s, kinds, refs[-2], refs[-1])
                if error:
                    break
        finally:
            tracer.uninstall()
        if error:
            wl.exit_codes.clear()
            failures = [error]
        else:
            try:
                failures = wl.check()
            except (ValueError, KeyError, IndexError, OSError) as exc:  # malformed or missing output
                failures = [f"output unreadable: {exc!r}"]
        digests = {p.name: sha256(p) for p in wl.outputs if p.is_file()}
        if first_digests is None:
            first_digests = digests
        elif digests != first_digests:
            failures.append("output bytes differ between identical calls")
        it = {"wall_s": wall, "scaled_s": scaled, "ref_s": refs, "traced": traced, "failures": failures}
        if traced:
            it["layer"] = layer_metrics(tracer, mark, wl)
        iterations.append(it)

    os.sched_setaffinity(0, cpus)
    untraced = [it["scaled_s"] for it in iterations if not it["traced"]]
    wall = statistics.median(untraced)
    tail_value, tail_pct, beyond = tail(untraced)
    raw_wall = statistics.median(it["wall_s"] for it in iterations if not it["traced"])
    failed = sum(1 for it in iterations if it["failures"])
    result = {
        "workload": name,
        "env": environment(seed),
        "sizes": vars(sizes),
        "attempted": len(iterations),
        "failed": failed,
        "fail_frac": failed / len(iterations),
        "end_to_end": {
            "wall_s": wall,
            "wall_s_tail": tail_value,
            "pairs_per_s": wl.pairs / wall,
            "setup_s": (statistics.median(scaled for _, scaled in import_s)
                        + statistics.median(scaled for _, scaled in setup_s)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "raw": {
            "wall_s": raw_wall,
            "setup_s": (statistics.median(raw for raw, _ in import_s)
                        + statistics.median(raw for raw, _ in setup_s)),
            "reference_s": statistics.median(r for it in iterations for r in it["ref_s"]),
        },
        "reference": {"kernels": kinds, "nominal_s": sum(REF_NOMINAL_S[k] for k in kinds)},
        "wall_s_tail_percentile": tail_pct,
        "wall_s_tail_beyond": beyond,
        "untraced_samples": len(untraced),
        "import_s": import_s,
        "setup_repeats_s": setup_s,
        "digests": first_digests,
        "iterations": [{k: v for k, v in it.items() if k != "layer"} for it in iterations],
    }
    if trace:
        layers = [it["layer"] for it in iterations if it["traced"]]
        per_layer = {k: statistics.median(m[k] for m in layers) for k in PER_LAYER if k != "trace.overhead_s"}
        traced_walls = [it["wall_s"] for it in iterations if it["traced"]]
        per_layer["trace.overhead_s"] = statistics.median(traced_walls) - raw_wall
        result["per_layer"] = per_layer
        tracer.save(workdir / "spans.npz")
    (workdir / "record.json").write_text(json.dumps(result, indent=1) + "\n")
    result["record"] = str((workdir / "record.json").relative_to(ROOT))
    return result


def report(result: dict, metric_sets: tuple[str, ...]) -> None:
    print(f"workload {result['workload']}: {result['attempted']} calls, {result['failed']} failed, "
          f"fail_frac {result['fail_frac']}")
    for metric_set in metric_sets:
        units = END_TO_END if metric_set == "end_to_end" else PER_LAYER
        for name, value in result[metric_set].items():
            extra = ""
            if name == "wall_s_tail":
                extra = (f" (p{result['wall_s_tail_percentile']:.1f} of {result['untraced_samples']} "
                         f"samples, {result['wall_s_tail_beyond']} beyond)")
            print(f"  {name} {value!r} {units[name]}{extra}")
    raw = result["raw"]
    ref = result["reference"]
    print(f"  raw (unscaled) wall_s {raw['wall_s']!r} s, setup_s {raw['setup_s']!r} s; reference "
          f"{'+'.join(ref['kernels'])} took {raw['reference_s']!r} s, scaled to {ref['nominal_s']} s")
    print(f"  env {json.dumps(result['env'])}")
    for fname, digest in sorted((result["digests"] or {}).items()):
        print(f"  sha256 {fname} {digest}")
    for it in result["iterations"]:
        for failure in it["failures"]:
            print(f"  FAILED: {failure}")
    print(f"  record {result['record']}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "netrand" / "__init__.py").is_file():
        print(f"error: netrand sources not found at {SRC / 'netrand'}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    nr = load_netrand()
    from workloads import FULL, SMOKE, WORKLOADS

    if args.smoke:
        results = [run_workload(nr, name, args.seed, 0.0, True, SMOKE, RUNS / f"smoke-{name}")
                   for name in WORKLOADS]
        for r in results:
            report(r, ("end_to_end", "per_layer"))
        failed = sum(r["failed"] for r in results)
        summary = {
            "correct": failed == 0,
            "attempted": sum(r["attempted"] for r in results),
            "failed": failed,
            "workloads": {r["workload"]: {"end_to_end": r["end_to_end"], "per_layer": r["per_layer"]}
                          for r in results},
        }
        print(json.dumps(summary))
        return 0 if failed == 0 else 1

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workdir = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = run_workload(nr, args.workload, args.seed, args.seconds, bool(args.trace), FULL, workdir)
    metric_set = "per_layer" if args.trace else "end_to_end"
    units = PER_LAYER if args.trace else END_TO_END
    report(result, (metric_set,))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result[metric_set].items()},
    }))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
