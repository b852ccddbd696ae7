"""Tests of the benchmark itself: smoke run, metric names, tracing, and the output checks.

Run from the repository root with ``python3 -m pytest bench -q``.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_metric_names_match_benchmark_json():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_smoke_runs_every_workload_and_reports_every_metric():
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "5"],
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    summary = json.loads(out.stdout.strip().splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0
    results = summary["workloads"]
    assert set(results) == set(workloads.WORKLOADS)
    for r in results.values():
        assert set(r["end_to_end"]) == set(run.END_TO_END)
        assert set(r["per_layer"]) == set(run.PER_LAYER)
        assert r["end_to_end"]["wall_s"] > 0 and r["end_to_end"]["setup_s"] > 0
    # A layer a workload does not exercise reads zero.
    assert results["fixed_reps"]["per_layer"]["graph.gen_er.calls"] == 0
    assert results["sim_er"]["per_layer"]["design.pair_reps"] == 0
    assert results["sim_er"]["per_layer"]["outcome.calls"] > 0
    assert results["real_sparse"]["per_layer"]["graph.from_edge_list.lines"] > 0
    assert results["fixed_reps"]["per_layer"]["design.pair_reps"] > 0


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sim_er", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_tail_has_ten_samples_beyond():
    assert run.tail([float(x) for x in range(1, 21)]) == (10.0, 50.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_times_scale_by_the_reference_kernels_around_them():
    kinds = ("loop", "dense")
    nominal = sum(run.REF_NOMINAL_S[k] for k in kinds)
    assert math.isclose(run.at_reference_speed(2.0, kinds, nominal, nominal), 2.0)
    # A host running at half speed doubles both the call and the reference kernels.
    assert math.isclose(run.at_reference_speed(4.0, kinds, 2 * nominal, 2 * nominal), 2.0)
    raw, scaled = run.time_scaled(lambda: 0.5, ("loop",))
    assert raw == 0.5 and scaled > 0
    for w in workloads.WORKLOADS.values():
        assert w.reference and set(w.reference) <= set(run.REF_KERNELS)


def test_tracer_patches_every_binding_site_and_restores_them():
    nr = run.load_netrand()
    orig = nr.design.run_design
    tracer = tracing.Tracer()
    tracer.install(nr)
    try:
        assert nr.montecarlo.run_design is nr.design.run_design is not orig
        assert nr.cli.run_design is nr.design.run_design
        spec = nr.montecarlo.ExperimentSpec(model="er", n_values=(20,), p=0.3, reps=2, seed=1)
        start = tracer.mark()
        nr.montecarlo.run_experiment(spec)
        total, own = tracer.totals(start, tracer.mark())
    finally:
        tracer.uninstall()
    assert nr.montecarlo.run_design is orig and nr.design.run_design is orig
    assert total["design.run_design"] > 0 and total["design.step"] > 0
    assert tracer.counts["graph.validate.calls"] == 2
    assert tracer.counts["design.pairs"] == 2 * 2 * 10
    assert 0 <= own["montecarlo.run_experiment"] < total["montecarlo.run_experiment"]


def _assign_rows(cohort: workloads.EdgeList, seed: int = 0) -> list[dict]:
    """A valid ``assign`` output for ``cohort``: random order, opposite pairs, exact I."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(cohort.nodes)
    first = rng.integers(0, 2, cohort.nodes // 2)
    treat = np.stack([first, 1 - first], axis=1).ravel()
    tau = np.empty(cohort.nodes, dtype=np.int64)
    tau[order] = np.where(treat == 0, 1, -1)
    i = math.sqrt(cohort.imbalance2(tau))
    return [
        {"index": str(k), "node_id": str(cohort.labels[order[k]]), "treatment": str(treat[k]), "I": repr(i)}
        for k in range(cohort.nodes)
    ]


def test_assign_check_accepts_valid_and_catches_each_defect():
    cohort = workloads.heavy_tailed(np.random.default_rng(4), 40, 90)
    rows = _assign_rows(cohort)
    assert workloads.check_assign_rows(rows, cohort) == []

    flipped = [dict(r) for r in rows]
    flipped[3]["treatment"] = "1" if flipped[3]["treatment"] == "0" else "0"
    assert workloads.check_assign_rows(flipped, cohort)

    relabeled = [dict(r) for r in rows]
    relabeled[0]["node_id"] = rows[1]["node_id"]
    assert workloads.check_assign_rows(relabeled, cohort)

    wrong_i = [dict(r) for r in rows]
    wrong_i[-1]["I"] = repr(math.sqrt(float(rows[-1]["I"]) ** 2 + 4))
    assert workloads.check_assign_rows(wrong_i, cohort)

    assert workloads.check_assign_rows(rows[:-2], cohort)


def _imbalance_rows(n: int, reps: int) -> list[dict]:
    rows = []
    for policy, base in (("adaptive", 100), ("random", 400)):
        for r in range(reps):
            i2 = base + r
            rows.append({"policy": policy, "replicate": str(r), "n": str(n),
                         "I2": str(i2), "I": repr(math.sqrt(i2))})
    return rows


def test_imbalance_check_accepts_valid_and_catches_each_defect():
    rows = _imbalance_rows(50, 3)
    assert workloads.check_imbalance_rows(rows, 50, 3) == []
    assert workloads.check_imbalance_rows(rows[:-1], 50, 3)
    assert workloads.check_imbalance_rows(rows, 52, 3)

    fractional = [dict(r) for r in rows]
    fractional[0]["I2"] = "100.5"
    assert workloads.check_imbalance_rows(fractional, 50, 3)

    off = [dict(r) for r in rows]
    off[1]["I"] = repr(float(off[1]["I"]) + 1e-9)
    assert workloads.check_imbalance_rows(off, 50, 3)

    swapped = [dict(r, policy={"adaptive": "random", "random": "adaptive"}[r["policy"]]) for r in rows]
    assert workloads.check_imbalance_rows(swapped, 50, 3)


def test_edge_list_round_trips_through_netrand(tmp_path):
    nr = run.load_netrand()
    edges = workloads.heavy_tailed(np.random.default_rng(9), 60, 150)
    path = tmp_path / "g.txt"
    edges.write(path, "test")
    g = nr.graph.from_edge_list(path)
    assert g.n == 60 and sorted(g.labels) == sorted(map(str, edges.labels.tolist()))
    tau = np.where(np.random.default_rng(1).random(60) < 0.5, 1, -1)
    by_label = dict(zip(map(str, edges.labels.tolist()), tau))
    tau_g = np.array([by_label[x] for x in g.labels])
    assert nr.design.imbalance_recompute(g, tau_g) == edges.imbalance2(tau)
    dense = g.matrix
    assert workloads.dense_imbalance2(dense, tau_g) == edges.imbalance2(tau)
