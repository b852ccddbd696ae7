import csv
import hashlib
import io
import os
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netrand import ErParams, gen_er, summarize
from netrand.montecarlo import ResultRow
import netrand
from netrand import cli, graph, montecarlo
from netrand.cli import main

from helpers import write_edge_list


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def write_er_fixture(path, n=60, p=0.15, seed=3):
    g = gen_er(ErParams(n, p), seed=seed)
    write_edge_list(g, path)
    return g


# sha256 of small CLI outputs, recorded with numpy 2.4.6.  Most cells come from exact
# integer arithmetic and short fixed-order float reductions, so these bytes hold
# while the streams do.  The GOE entries pin the weighted I2 and the W column.  The
# "-1500" entries, recorded under one BLAS thread, draw their 1500-node graphs in two
# blocks and take W's mat-vec in many row chunks; their bytes must not depend on the
# BLAS thread count (test_outcome_bytes_independent_of_blas_threads).
# "stdout" names the printed report of a command that writes no file.
OUTCOME_FLAGS = ["--b", "0.95", "--policy", "both", "--mu0", "1", "--mu1", "0", "--sigma-z", "1",
                 "--sigma-eps", "1", "--reps", "2", "--seed", "21"]
GOLDEN = {
    "simulate-er": (
        ["simulate", "--model", "er", "--n", "20", "--n", "30", "--p", "0.3",
         "--reps", "3", "--seed", "11"],
        {
            "out.csv": "086a2d8c74c7f5afa325f45a4ceca2c727780f09cfe3b8ecbae4a691b622360b",
            "out.summary.csv": "9b25222ed9608be55e01fe1909bca5d5ddaae894f0475fb4fbe827f338c41da8",
        },
    ),
    "simulate-sbm": (
        ["simulate", "--model", "sbm", "--n", "24", "--p-in", "0.5", "--p-out", "0.1",
         "--reps", "3", "--seed", "12"],
        {
            "out.csv": "8e69dd1ddae3d5dcc31b72b0d6061dd9f57e316f8e132dbefddaa77acf5bbdc8",
            "out.summary.csv": "cf2cea57acb6112b2cb25486dcf2e0c45afacc26862d8c582b1194480371fe1d",
        },
    ),
    "real": (
        ["real", "--edges", "EDGES", "--sample", "20:40:20", "--reps", "3", "--seed", "13"],
        {
            "out.csv": "ac7a5eacb7df5a174edc3e231fcb6b267de3ca8689f6b07bab0beae4aae56c67",
            "out.summary.csv": "003551c92053abc0638e98209b1362d42fac107a8f7de1ad97590c913bdd2585",
        },
    ),
    "assign-file": (
        ["assign", "--edges", "EDGES", "--order", "file", "--seed", "14"],
        {"out.csv": "7f898bae6c7cdc7234386ed78674ee083be993fc077a946a503b37252f411136"},
    ),
    "assign-random": (
        ["assign", "--edges", "EDGES", "--order", "random", "--b", "0.9", "--seed", "15"],
        {"out.csv": "9c4a2706f17ae7bfd05c1152db7cad67eeb3a15cc57002d985e015ba93a7177c"},
    ),
    "simulate-er-random": (
        ["simulate", "--model", "er", "--n", "40", "--n", "60", "--p", "0.3",
         "--policy", "random", "--reps", "3", "--seed", "4"],
        {
            "out.csv": "caeb44954e602424e26b69ca7eec7926fbd779ef56991e4c81c3f968f3f65bdd",
            "out.summary.csv": "b3cd37d64ec2447be163291f7e531eb5583820a6a11fb846603e7d1af40ed080",
        },
    ),
    "simulate-goe-outcomes": (
        ["simulate", "--model", "goe", "--n", "24", "--n", "30", "--sigma2", "0.2",
         "--mu0", "1", "--mu1", "0", "--sigma-z", "1", "--sigma-eps", "1",
         "--reps", "3", "--seed", "16"],
        {
            "out.csv": "da773a2c201f1ebf2615eb44718f0551b054b9238e2996b164ed01c69d4c7294",
            "out.summary.csv": "7c14bbdb5ee3b576be339a8005dae381b5f06c581fa1878bb77e0bdf177be223",
        },
    ),
    "simulate-er-1500": (
        ["simulate", "--model", "er", "--n", "300", "--n", "1500", "--p", "0.2", *OUTCOME_FLAGS],
        {
            "out.csv": "8748dc57622b0addc1704b437f88440d6cf1dec16a4e26266e0da5159c95aa70",
            "out.summary.csv": "a6ef3f024ef26f2b888721942dac10962ec75ad2935ff5cd7b96f69ffff287be",
        },
    ),
    "simulate-sbm-1500": (
        ["simulate", "--model", "sbm", "--n", "1500", "--p-in", "0.3", "--p-out", "0.05",
         *OUTCOME_FLAGS],
        {
            "out.csv": "970f8d81895e1a306efecb955f8d26c475e6d2021dd5182bbca91e79cd77de65",
            "out.summary.csv": "0985e3e0e6bfb5905314404639a5020e506df163fcf484919d8bed1a481348ac",
        },
    ),
    "simulate-goe-1500": (
        ["simulate", "--model", "goe", "--n", "300", "--n", "1500", "--sigma2", "0.2",
         *OUTCOME_FLAGS],
        {
            "out.csv": "453fa6e39e1647c0c666df3d3b58d0c1c2a843a07344a90f5f2b24a20b7c16f9",
            "out.summary.csv": "294a166bf43981a51821c967856c07f90e43ddeb5ddff532a29498af8011a667",
        },
    ),
    # 79800 normal draws in two blocks of graph._DRAW_BLOCK: pins the weighted stream across a block boundary
    "simulate-goe-400": (
        ["simulate", "--model", "goe", "--n", "400", "--sigma2", "0.2", *OUTCOME_FLAGS],
        {
            "out.csv": "091e4feddaca67a5960bb8f97e6d3a8a637a88dc94f96951a33620946700b460",
            "out.summary.csv": "c45cba02b9df62e3609a7ee86ea9e90df6fce4e65d79443be9f103f9c201c5f1",
        },
    ),
    "oracle": (
        ["oracle", "--n", "10", "--p", "0.4", "--mc-reps", "2000"],
        {"stdout": "f125cdfe8c77bf4ba907d174880f833f29304739b33aa9dbf377d5a8e9c9fa1c"},
    ),
    # 100000 replicates of one graph: pins the batched kernel's coin table at many replicates
    "oracle-100000": (
        ["oracle", "--n", "20", "--p", "0.5", "--mc-reps", "100000"],
        {"stdout": "69c5d559db874cc8830174bd921fb6caf3b8d752abd197e65282f8df3ae944bf"},
    ),
    # A sparse graph whose pairs 0 and 1 have no prefix neighbours: pins the batched kernel's
    # empty-N pairs and dropped zero columns on a dense graph, through the exact-vs-MC check
    "oracle-sparse": (
        ["oracle", "--n", "16", "--p", "0.1", "--seed", "2", "--mc-reps", "20000"],
        {"stdout": "af79ed9af0360424d9674aedc45f30e8fc3d00613f66f55e1732e4d4d90452b4"},
    ),
    # b = 1/2: the batched kernel's fair-coin arm on a dense graph, whose replicates' I^2
    # come from one recompute through the 2-D float mat-vec
    "oracle-fair": (
        ["oracle", "--n", "16", "--p", "0.3", "--b", "0.5", "--mc-reps", "20000"],
        {"stdout": "3797bdc1e7ee1c5d32f6801dc1778f05dc7834bb929b305479800cf16c691ee5"},
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output_bytes(tmp_path, capsys, name):
    argv, digests = GOLDEN[name]
    edges = tmp_path / "net.txt"
    write_er_fixture(edges)
    argv = [str(edges) if a == "EDGES" else a for a in argv]
    files = [f for f in digests if f != "stdout"]
    if files:
        argv += ["--out", str(tmp_path / "out.csv")]
    assert main(argv) == 0
    got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in files}
    if "stdout" in digests:
        got["stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == digests


def test_ci_console_script_digests_are_golden():
    # Each netrand line of CI's "Installed console script" step is a GOLDEN entry's argv
    # plus an output (--out or a redirect of stdout), and each digest checked after it is
    # that entry's digest of the same output.
    workflow = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"
    lines = workflow.read_text(encoding="utf-8").splitlines()
    start = lines.index("      - name: Installed console script")
    stop = next(i for i in range(start + 1, len(lines)) if lines[i].startswith("      - name:"))
    golden = {tuple(argv): (name, digests) for name, (argv, digests) in GOLDEN.items()}
    runs = []
    for line in map(str.strip, lines[start:stop]):
        if line.startswith("netrand "):
            words = shlex.split(line)[1:]
            if words[-2] == ">":
                outputs, argv = {words[-1]: "stdout"}, words[:-2]
            else:
                at = words.index("--out")
                out = words[at + 1]
                outputs = {out: "out.csv", out.removesuffix(".csv") + ".summary.csv": "out.summary.csv"}
                argv = words[:at] + words[at + 2:]
            assert tuple(argv) in golden, f"{line!r} runs no GOLDEN entry"
            name, digests = golden[tuple(argv)]
            runs.append((name, outputs, {}))
        elif "sha256sum --check" in line:
            digest, path = shlex.split(line)[1].split()
            name, outputs, checked = runs[-1]
            checked[outputs[path]] = digest
    assert [name for name, _, _ in runs]
    for name, _, checked in runs:
        assert checked and checked.items() <= GOLDEN[name][1].items(), name


def test_outcome_bytes_independent_of_blas_threads(tmp_path):
    # W's float mat-vec runs through BLAS; OpenBLAS reads its thread count at import,
    # so each count needs its own process.
    argv = GOLDEN["simulate-er-1500"][0]
    src = str(Path(netrand.__file__).resolve().parent.parent)
    outputs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / f"threads{threads}.csv"
        subprocess.run([sys.executable, "-m", "netrand", *argv, "--out", str(out)], env=env, check=True)
        outputs[threads] = out.read_bytes(), (tmp_path / f"threads{threads}.summary.csv").read_bytes()
    assert outputs["1"] == outputs["2"]


class TestSimulate:
    def test_writes_rows_and_summary(self, tmp_path):
        out = tmp_path / "res.csv"
        rc = main([
            "simulate", "--model", "er", "--n", "20", "--p", "0.3",
            "--reps", "4", "--seed", "7", "--out", str(out),
        ])
        assert rc == 0
        rows = read_csv(out)
        assert len(rows) == 8  # 4 reps x both policies
        summary = read_csv(tmp_path / "res.summary.csv")
        assert {r["policy"] for r in summary} == {"adaptive", "random"}

    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "simulate", "--model", "goe", "--n", "12", "--sigma2", "0.2",
            "--policy", "adaptive", "--reps", "3", "--seed", "1",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.summary.csv").read_bytes() == (tmp_path / "b.summary.csv").read_bytes()

    def test_summary_recomputable_from_rows(self, tmp_path):
        out = tmp_path / "r.csv"
        main([
            "simulate", "--model", "er", "--n", "16", "--n", "20", "--p", "0.4",
            "--reps", "5", "--seed", "2", "--out", str(out),
        ])
        rows = []
        for rec in read_csv(out):
            i2_text = rec["I2"]
            row = ResultRow(
                model=rec["model"], n=int(rec["n"]), policy=rec["policy"],
                b=float(rec["b"]), p=float(rec["p"]), p_in=None, p_out=None,
                sigma2=None, replicate=int(rec["replicate"]),
                i2=float(i2_text) if "." in i2_text else int(i2_text),
                w=None, seed=int(rec["seed"]),
            )
            # the derived cells are the reprs of the row's properties
            assert rec["I"] == repr(row.i)
            assert rec["I4"] == repr(row.i4)
            assert rec["two_I_over_n"] == repr(row.two_i_over_n)
            rows.append(row)
        recomputed = {(s.model, s.n, s.policy): s for s in summarize(rows)}
        for rec in read_csv(tmp_path / "r.summary.csv"):
            s = recomputed[(rec["model"], int(rec["n"]), rec["policy"])]
            assert float(rec["mean_two_I_over_n"]) == s.mean_two_i_over_n
            assert float(rec["ci_lo"]) == s.ci_lo
            assert float(rec["ci_hi"]) == s.ci_hi
            assert float(rec["iqr_lo"]) == s.iqr_lo
            assert float(rec["iqr_hi"]) == s.iqr_hi
            assert int(rec["reps"]) == s.reps

    def test_model_parameter_conflicts_exit_2(self, tmp_path):
        rc = main([
            "simulate", "--model", "er", "--n", "10",
            "--reps", "1", "--out", str(tmp_path / "x.csv"),
        ])
        assert rc == 2
        rc = main([
            "simulate", "--model", "er", "--n", "10", "--p", "0.2",
            "--sparse-log-density", "5", "--reps", "1", "--out", str(tmp_path / "x.csv"),
        ])
        assert rc == 2
        # a parameter the model never reads, or a size given twice
        for extra in (
            ["--model", "sbm", "--p-in", "0.3", "--p-out", "0.1", "--p", "0.3"],
            ["--model", "er", "--p", "0.2", "--sigma2", "1"],
            ["--model", "goe", "--sigma2", "0.2", "--p-in", "0.3"],
            ["--model", "er", "--p", "0.2", "--n", "10"],
            ["--model", "er", "--p", "0.2", "--n", "6:10:2"],
        ):
            rc = main(["simulate", "--n", "10", *extra, "--reps", "1",
                       "--out", str(tmp_path / "x.csv")])
            assert rc == 2
        assert list(tmp_path.iterdir()) == []

    def test_partial_outcome_flags_exit_2(self, tmp_path):
        rc = main([
            "simulate", "--model", "er", "--n", "10", "--p", "0.2",
            "--mu0", "1.0", "--out", str(tmp_path / "x.csv"),
        ])
        assert rc == 2

    def test_b_out_of_range_exit_2_for_every_policy(self, tmp_path):
        for policy in ("random", "adaptive", "both"):
            out = tmp_path / f"{policy}.csv"
            rc = main([
                "simulate", "--model", "er", "--n", "10", "--p", "0.2", "--policy", policy,
                "--b", "0.3", "--reps", "1", "--out", str(out),
            ])
            assert rc == 2
            assert not out.exists()

    def test_n_range_syntax(self, tmp_path):
        out = tmp_path / "r.csv"
        main([
            "simulate", "--model", "er", "--n", "10:30:10", "--p", "0.3",
            "--policy", "random", "--reps", "1", "--seed", "0", "--out", str(out),
        ])
        assert sorted({int(r["n"]) for r in read_csv(out)}) == [10, 20, 30]


class TestReal:
    def test_rows_summary_and_density(self, tmp_path):
        edges = tmp_path / "net.txt"
        write_er_fixture(edges)
        out = tmp_path / "real.csv"
        rc = main([
            "real", "--edges", str(edges), "--sample", "30", "--b", "0.85",
            "--reps", "4", "--seed", "5", "--out", str(out),
        ])
        assert rc == 0
        rows = read_csv(out)
        assert len(rows) == 8
        assert {r["policy"] for r in rows} == {"adaptive", "random"}
        assert all(0.0 < float(r["density"]) < 1.0 for r in rows)
        summary = read_csv(tmp_path / "real.summary.csv")
        assert len(summary) == 1
        rec = summary[0]
        a, r = float(rec["adaptive_mean_I"]), float(rec["random_mean_I"])
        assert float(rec["reduction"]) == pytest.approx(1 - a / r)

    def test_n_sweep(self, tmp_path):
        edges = tmp_path / "net.txt"
        write_er_fixture(edges)
        out = tmp_path / "sweep.csv"
        rc = main([
            "real", "--edges", str(edges), "--sample", "20", "--sample", "40",
            "--reps", "2", "--seed", "1", "--out", str(out),
        ])
        assert rc == 0
        assert sorted({int(r["n"]) for r in read_csv(out)}) == [20, 40]
        assert len(read_csv(tmp_path / "sweep.summary.csv")) == 2

    def test_oversized_sample_exit_2(self, tmp_path):
        edges = tmp_path / "net.txt"
        write_er_fixture(edges, n=20)
        rc = main(["real", "--edges", str(edges), "--sample", "500",
                   "--reps", "1", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_missing_file_exit_1(self, tmp_path):
        rc = main(["real", "--edges", str(tmp_path / "absent.txt"),
                   "--sample", "10", "--reps", "1", "--out", str(tmp_path / "x.csv")])
        assert rc == 1

    def test_malformed_file_exit_1(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 2\n1 2 3\n")
        rc = main(["real", "--edges", str(bad), "--sample", "2",
                   "--reps", "1", "--out", str(tmp_path / "x.csv")])
        assert rc == 1


class TestAssign:
    def test_two_node_edge(self, tmp_path, capsys):
        edges = tmp_path / "two.txt"
        edges.write_text("a b\n")
        rc = main(["assign", "--edges", str(edges), "--seed", "0"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "index,node_id,treatment,I"
        body = [line.split(",") for line in lines[1:]]
        assert {row[2] for row in body} == {"0", "1"}
        assert all(float(row[3]) == 0.0 for row in body)

    def test_complete_graph_final_zero(self, tmp_path):
        edges = tmp_path / "k6.txt"
        lines = [f"{i} {j}" for i in range(6) for j in range(i + 1, 6)]
        edges.write_text("\n".join(lines) + "\n")
        out = tmp_path / "assign.csv"
        rc = main(["assign", "--edges", str(edges), "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert float(rows[-1]["I"]) == 0.0

    def test_deterministic_rerun(self, tmp_path):
        edges = tmp_path / "net.txt"
        write_er_fixture(edges, n=30)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for target in (a, b):
            rc = main(["assign", "--edges", str(edges), "--order", "random",
                       "--b", "0.9", "--seed", "3", "--out", str(target)])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_file_order_preserves_labels(self, tmp_path):
        edges = tmp_path / "net.txt"
        edges.write_text("x y\ny z\n")
        out = tmp_path / "a.csv"
        main(["assign", "--edges", str(edges), "--out", str(out)])
        assert [r["node_id"] for r in read_csv(out)] == ["x", "y", "z"]

    def test_labels_needing_quotes_are_quoted(self, tmp_path):
        edges = tmp_path / "net.txt"
        edges.write_text('a,b x"y\nx"y plain\n')
        out = tmp_path / "a.csv"
        assert main(["assign", "--edges", str(edges), "--out", str(out)]) == 0
        raw = out.read_bytes().decode("utf-8")
        lines = raw.split("\r\n")
        assert lines[1].startswith('0,"a,b",') and lines[2].startswith('1,"x""y",')
        assert lines[3].startswith("2,plain,") and lines[4] == ""
        rows = read_csv(out)
        assert [r["node_id"] for r in rows] == ["a,b", 'x"y', "plain"]
        # the same bytes the csv module writes for these cells
        with open(tmp_path / "b.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(cli.ASSIGN_COLUMNS)
            writer.writerows(r.values() for r in rows)
        assert (tmp_path / "b.csv").read_bytes().decode("utf-8") == raw

    def test_byte_order_mark_dropped(self, tmp_path):
        edges = tmp_path / "bom.txt"
        edges.write_bytes(b"\xef\xbb\xbfa b\nb a\na c\n")
        out = tmp_path / "x.csv"
        assert main(["assign", "--edges", str(edges), "--out", str(out)]) == 0
        assert [r["node_id"] for r in read_csv(out)] == ["a", "b", "c"]


_CELL_TEXT = st.text(st.sampled_from(["a", "7", ".", ",", '"', "\r", "\n", " ", "é", "节"]),
                     max_size=4)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 4).flatmap(lambda ncols: st.tuples(
    st.lists(_CELL_TEXT, min_size=ncols, max_size=ncols),
    st.lists(st.lists(_CELL_TEXT, min_size=ncols, max_size=ncols), max_size=5),
)))
def test_write_csv_matches_csv_module(tmp_path_factory, table):
    header, rows = table
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    cli._write_csv(str(path), header, [[row[j] for row in rows] for j in range(len(header))])
    expected = io.StringIO(newline="")
    csv.writer(expected).writerows([header, *rows])
    assert path.read_bytes() == expected.getvalue().encode("utf-8")


@pytest.fixture
def path_above_cap(tmp_path):
    # a path names every node and parses in well under a second
    n = graph._MAX_DENSE_NODES + 7232
    edges = tmp_path / "path.txt"
    edges.write_text("".join(f"{i} {i + 1}\n" for i in range(n - 1)))
    return edges


class TestRejectedBeforeWork:
    @pytest.fixture
    def no_work(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("work started before the arguments were checked")

        monkeypatch.setattr(cli, "run_experiment", forbidden)
        monkeypatch.setattr(cli, "run_design", forbidden)
        monkeypatch.setattr(graph, "from_edge_list", forbidden)

    @pytest.mark.parametrize("command", [
        "simulate", "simulate-summary", "real", "assign",
        "simulate-dir", "simulate-summary-dir", "real-dir", "assign-dir",
    ])
    def test_missing_output_directory_exits_1(self, tmp_path, capsys, no_work, command):
        edges = tmp_path / "net.txt"
        edges.write_text("a b\n")
        missing = str(tmp_path / "absent" / "x.csv")
        # an output path naming an existing directory is rejected the same way
        folder = tmp_path / "folder"
        folder.mkdir()
        to_dir = command.endswith("-dir")
        out = str(folder) if to_dir else missing
        argv = {
            "simulate": ["simulate", "--model", "er", "--n", "20", "--p", "0.3", "--out", out],
            "simulate-summary": ["simulate", "--model", "er", "--n", "20", "--p", "0.3",
                                 "--out", str(tmp_path / "x.csv"), "--summary-out", out],
            "real": ["real", "--edges", str(edges), "--sample", "2", "--out", out],
            "assign": ["assign", "--edges", str(edges), "--out", out],
        }[command.removesuffix("-dir")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert ("is a directory" if to_dir else "does not exist") in err
        assert sorted(tmp_path.iterdir()) == [folder, edges]
        assert list(folder.iterdir()) == []

    @pytest.mark.parametrize("command", ["simulate", "real", "real-sweep"])
    def test_odd_size_exits_2_without_library_keyword(self, tmp_path, capsys, no_work, command):
        edges = tmp_path / "net.txt"
        write_er_fixture(edges)
        out = str(tmp_path / "x.csv")
        argv = {
            "simulate": ["simulate", "--model", "er", "--n", "11", "--p", "0.3", "--out", out],
            "real": ["real", "--edges", str(edges), "--sample", "11", "--out", out],
            "real-sweep": ["real", "--edges", str(edges), "--sample", "10:20:5", "--out", out],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "is odd" in err and "even" in err
        assert "allow_odd" not in err


    def test_oversized_size_range_exits_2_before_it_is_expanded(self, tmp_path, capsys, no_work):
        # two million sizes would take hundreds of MB as a tuple of ints
        tracemalloc.start()
        try:
            rc = main(["simulate", "--model", "er", "--n", "2:4000000:2", "--p", "0.2",
                       "--out", str(tmp_path / "x.csv")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        assert "4000000 nodes exceed the dense-storage limit of 32768" in capsys.readouterr().err
        assert peak < 1 << 20

    def test_sample_range_past_the_list_exits_2_before_it_is_expanded(self, tmp_path, capsys,
                                                                      monkeypatch):
        # the list is read first, since only it knows its size; the range is never built
        monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: pytest.fail("sweep started"))
        edges = tmp_path / "net.txt"
        edges.write_text("a b\nb c\nc d\n")
        tracemalloc.start()
        try:
            rc = main(["real", "--edges", str(edges), "--sample", "2:1000000000000:2",
                       "--out", str(tmp_path / "x.csv")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        assert "sample size 1000000000000 exceeds graph size 4" in capsys.readouterr().err
        assert peak < 1 << 20

    @pytest.mark.parametrize("case", [
        "n-word", "n-range-word", "n-sweep-word", "real-b", "real-reps", "assign-b",
        "sparse-c-zero", "n-repeated", "n-ranges-overlap", "sample-repeated",
        "sbm-p", "er-sigma2", "goe-p-in",
        "sigma-z-nan", "sigma-eps-inf", "mu0-nan", "mu1-minus-inf",
        "simulate-seed", "real-seed", "assign-seed", "oracle-seed",
    ])
    def test_usage_error_exits_2_before_work(self, tmp_path, capsys, no_work, case):
        edges = tmp_path / "net.txt"
        edges.write_text("a b\n")
        out = str(tmp_path / "x.csv")
        argv = {
            "n-word": ["simulate", "--model", "er", "--n", "abc", "--p", "0.2", "--out", out],
            "n-range-word": ["simulate", "--model", "er", "--n", "1:x:2", "--p", "0.2",
                             "--out", out],
            "n-sweep-word": ["real", "--edges", str(edges), "--sample", "abc", "--out", out],
            "real-b": ["real", "--edges", str(edges), "--sample", "2", "--b", "0.3", "--out", out],
            "real-reps": ["real", "--edges", str(edges), "--sample", "2", "--reps", "0",
                          "--out", out],
            "assign-b": ["assign", "--edges", str(edges), "--b", "0.3", "--out", out],
            "sparse-c-zero": ["simulate", "--model", "er", "--n", "10",
                              "--sparse-log-density", "0", "--reps", "1", "--out", out],
            "n-repeated": ["simulate", "--model", "er", "--n", "20", "--n", "20", "--p", "0.2",
                           "--out", out],
            "n-ranges-overlap": ["simulate", "--model", "er", "--n", "10:30:10",
                                 "--n", "30:50:10", "--p", "0.2", "--out", out],
            "sample-repeated": ["real", "--edges", str(edges), "--sample", "2", "--sample", "2",
                                "--out", out],
            "sbm-p": ["simulate", "--model", "sbm", "--n", "10", "--p-in", "0.3",
                      "--p-out", "0.1", "--p", "0.3", "--out", out],
            "er-sigma2": ["simulate", "--model", "er", "--n", "10", "--p", "0.2",
                          "--sigma2", "1", "--out", out],
            "goe-p-in": ["simulate", "--model", "goe", "--n", "10", "--sigma2", "0.2",
                         "--p-in", "0.3", "--out", out],
            "sigma-z-nan": ["simulate", "--model", "er", "--n", "10", "--p", "0.2", "--mu0", "1",
                            "--mu1", "0", "--sigma-z", "nan", "--sigma-eps", "1", "--out", out],
            "sigma-eps-inf": ["simulate", "--model", "er", "--n", "10", "--p", "0.2", "--mu0", "1",
                              "--mu1", "0", "--sigma-z", "1", "--sigma-eps", "inf", "--out", out],
            "mu0-nan": ["simulate", "--model", "er", "--n", "10", "--p", "0.2", "--mu0", "nan",
                        "--mu1", "0", "--sigma-z", "1", "--sigma-eps", "1", "--out", out],
            "mu1-minus-inf": ["simulate", "--model", "er", "--n", "10", "--p", "0.2", "--mu0", "1",
                              "--mu1=-inf", "--sigma-z", "1", "--sigma-eps", "1", "--out", out],
            "simulate-seed": ["simulate", "--model", "er", "--n", "10", "--p", "0.2",
                              "--seed", "-1", "--out", out],
            "real-seed": ["real", "--edges", str(edges), "--sample", "2", "--seed", "-3",
                          "--out", out],
            "assign-seed": ["assign", "--edges", str(edges), "--seed", "-1", "--out", out],
            "oracle-seed": ["oracle", "--n", "8", "--p", "0.5", "--seed", "-1"],
        }[case]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == [edges]

    @pytest.mark.parametrize("command", ["simulate", "real"])
    def test_summary_out_equal_to_out_exits_2(self, tmp_path, capsys, no_work, command):
        edges = tmp_path / "net.txt"
        edges.write_text("a b\n")
        out = str(tmp_path / "s.csv")
        argv = {
            "simulate": ["simulate", "--model", "er", "--n", "20", "--p", "0.3"],
            "real": ["real", "--edges", str(edges), "--sample", "2"],
        }[command]
        assert main(argv + ["--out", out, "--summary-out", out]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == [edges]

    @pytest.mark.parametrize("case", ["assign-out", "real-out", "real-summary-out", "assign-hard-link"])
    def test_output_naming_edge_list_exits_2(self, tmp_path, capsys, monkeypatch, no_work, case):
        edges = tmp_path / "net.txt"
        edges.write_text("a b\nb c\n")
        before = edges.read_bytes()
        # a second name of the same file, which resolves to a path of its own
        link = tmp_path / "net2.txt"
        if case == "assign-hard-link":
            os.link(edges, link)
        # the edge list is named relative to the working directory, each output absolutely
        monkeypatch.chdir(tmp_path)
        argv = {
            "assign-out": ["assign", "--edges", "net.txt", "--out", str(edges)],
            "real-out": ["real", "--edges", "net.txt", "--sample", "2", "--out", str(edges)],
            "real-summary-out": ["real", "--edges", "net.txt", "--sample", "2",
                                 "--out", str(tmp_path / "x.csv"), "--summary-out", str(edges)],
            "assign-hard-link": ["assign", "--edges", "net.txt", "--out", str(link)],
        }[case]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "edge list 'net.txt'" in err
        assert edges.read_bytes() == before
        assert sorted(tmp_path.iterdir()) == [edges] + [link] * (case == "assign-hard-link")

    def test_unrunnable_sparse_cell_exits_2_before_work(self, tmp_path, capsys, monkeypatch):
        # log(n)/(c n) exceeds 1 at n = 2, the second cell; the first must not run
        def forbidden(*args, **kwargs):
            raise AssertionError("a replicate started before every cell was resolved")

        monkeypatch.setattr(montecarlo, "run_design_final", forbidden)
        monkeypatch.setattr(graph, "gen_er", forbidden)
        rc = main([
            "simulate", "--model", "er", "--n", "1200", "--n", "2",
            "--sparse-log-density", "0.1", "--reps", "40", "--out", str(tmp_path / "x.csv"),
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["real", "assign"])
    def test_non_utf8_edge_list_exits_1(self, tmp_path, capsys, command):
        edges = tmp_path / "net.txt"
        edges.write_bytes(b"a b\n\xff\xfe c\n")
        argv = {
            "real": ["real", "--edges", str(edges), "--sample", "2", "--reps", "1"],
            "assign": ["assign", "--edges", str(edges)],
        }[command]
        assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "UTF-8" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == [edges]

    @pytest.mark.parametrize("command", ["real", "assign"])
    def test_exactness_bound_exits_2_before_design(self, tmp_path, capsys, monkeypatch, command):
        # No graph whose I^2 could reach 2^53 fits in memory, so the guard is fed such degrees.
        guard = graph.check_exact_bound

        def fed(degrees, k):
            assert degrees.shape == (4,)
            guard(np.full(4, 2**26 - 1), k)

        def forbidden(*args, **kwargs):
            raise AssertionError("work started before the exactness bound was checked")

        monkeypatch.setattr(graph, "check_exact_bound", fed)
        monkeypatch.setattr(cli, "run_design", forbidden)
        monkeypatch.setattr(montecarlo, "run_design_final", forbidden)
        monkeypatch.setattr(graph, "induced_subgraph_sample", forbidden)
        edges = tmp_path / "net.txt"
        edges.write_text("a b\nb c\nc d\n")
        argv = {
            "real": ["real", "--edges", str(edges), "--sample", "2", "--reps", "1"],
            "assign": ["assign", "--edges", str(edges), "--order", "random"],
        }[command]
        assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "2^53" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["net.txt"]

    def test_small_sample_of_list_above_cap_runs(self, tmp_path, path_above_cap):
        out = tmp_path / "x.csv"
        rc = main(["real", "--edges", str(path_above_cap), "--sample", "100", "--reps", "1",
                   "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert len(rows) == 2 and {r["n"] for r in rows} == {"100"}


class TestAboveDenseCap:
    """Designs on neighbour lists: a sample or cohort above the dense cap runs, exactly."""

    @pytest.mark.parametrize("case", ["real-sample", "assign-file", "assign-random"])
    def test_above_dense_cap_runs_exactly(self, tmp_path, monkeypatch, path_above_cap, case):
        designs = []

        def recording(g, cfg):
            designs.append((g.labels, run_design_final(g, cfg)))
            return designs[-1][1]

        run_design_final = montecarlo.run_design_final
        monkeypatch.setattr(montecarlo, "run_design_final", recording)
        out = tmp_path / "x.csv"
        k = graph._MAX_DENSE_NODES + 2
        argv = {
            "real-sample": ["real", "--edges", str(path_above_cap), "--sample", str(k),
                            "--reps", "1", "--out", str(out)],
            "assign-file": ["assign", "--edges", str(path_above_cap), "--order", "file",
                            "--out", str(out)],
            "assign-random": ["assign", "--edges", str(path_above_cap), "--order", "random",
                              "--out", str(out)],
        }[case]
        assert main(argv) == 0
        rows = read_csv(out)
        if case == "real-sample":
            assert [r["policy"] for r in rows] == ["adaptive", "random"] and len(designs) == 2
            for row, (labels, (tau, final_i2)) in zip(rows, designs):
                assert int(row["I2"]) == path_imbalance2(labels, tau) == final_i2
                assert row["n"] == str(k)
        else:
            n = graph._MAX_DENSE_NODES + 7232
            assert len(rows) == n and sorted(int(r["node_id"]) for r in rows) == list(range(n))
            tau = [1 if r["treatment"] == "0" else -1 for r in rows]
            i_final = float(rows[-1]["I"])
            assert round(i_final * i_final) == path_imbalance2([r["node_id"] for r in rows], tau)
            if case == "assign-file":
                assert [r["node_id"] for r in rows] == [str(i) for i in range(n)]


def path_imbalance2(labels, tau):
    """||A tau||^2 for the nodes ``labels`` (in that order) of the path 0 - 1 - 2 - ..."""
    pos = {int(x): i for i, x in enumerate(labels)}
    s = [int(t) for t in tau]
    for x, i in pos.items():
        j = pos.get(x + 1)
        if j is not None:
            s[i] += tau[j]
            s[j] += tau[i]
    return sum(int(v) ** 2 for v in s)


class TestOracleCmd:
    def test_report_passes(self, capsys):
        rc = main(["oracle", "--n", "8", "--p", "0.5", "--seed", "1",
                   "--b", "0.9", "--mc-reps", "20000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "brute_force_min_i2" in out
        assert "check_mc_vs_exact: PASS" in out
        assert "check_min_lower_bound: PASS" in out
        assert "overall: PASS" in out

    def test_complete_instance_reports_zeros(self, capsys):
        # this seed draws all 15 edges, giving the complete 6-node graph
        rc = main(["oracle", "--n", "6", "--p", "0.9", "--seed", "2",
                   "--b", "0.95", "--mc-reps", "2000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "brute_force_min_i2: 0" in out
        assert "exact_expected_i2: 0.0" in out
        assert "mc_mean_i2: 0.0" in out
        assert "overall: PASS" in out

    def test_failed_self_check_exits_1(self, capsys):
        # three replicates all land on the minimum 14, so se = 0 and the
        # exact expectation 14.22 lies outside the zero-width band
        rc = main(["oracle", "--n", "8", "--p", "0.5", "--mc-reps", "3"])
        out = capsys.readouterr().out
        assert "check_mc_vs_exact: FAIL" in out
        assert "overall: FAIL" in out
        assert rc == 1

    @pytest.mark.parametrize("reps", ["1", "0"])
    def test_too_few_mc_reps_rejected_before_work(self, capsys, reps):
        rc = main(["oracle", "--n", "8", "--p", "0.5", "--mc-reps", reps])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "--mc-reps" in captured.err

    def test_odd_n_usage_error(self):
        assert main(["oracle", "--n", "7", "--p", "0.5"]) == 2

    def test_size_limit_usage_error(self):
        assert main(["oracle", "--n", "24", "--p", "0.5"]) == 2

    @pytest.mark.parametrize("n", ["7", "22"])
    def test_size_rejected_before_graph_is_drawn(self, capsys, monkeypatch, n):
        def forbidden(*args, **kwargs):
            raise AssertionError("a graph was drawn before n was checked")

        monkeypatch.setattr(graph, "gen_er", forbidden)
        assert main(["oracle", "--n", n, "--p", "0.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: oracle needs even n with 2 <= n <= 20, got n={n}\n"

    def test_unknown_flag_exits_2(self, tmp_path):
        # real takes its sizes through --sample alone
        for argv in (["simulate", "--bogus"],
                     ["real", "--edges", str(tmp_path / "net.txt"), "--n-sweep", "20",
                      "--out", str(tmp_path / "x.csv")]):
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 2


def test_error_vocabulary_and_exit_codes(monkeypatch, capsys):
    # Three types, one meaning each: a usage error exits 2, a bad input file exits 1,
    # and a broken engine rule is a bug that main does not turn into an exit code.
    from netrand import errors

    classes = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, BaseException)}
    assert classes == {"ParameterError", "EdgeListParseError", "ContractError"}
    def raising(exc):
        def command(args):
            raise exc
        return command

    argv = ["oracle", "--n", "8", "--p", "0.5"]
    for exc, code in ((errors.ParameterError("x"), 2), (errors.EdgeListParseError("x"), 1),
                      (FileNotFoundError("x"), 1)):
        monkeypatch.setattr(cli, "cmd_oracle", raising(exc))
        assert main(argv) == code
        assert capsys.readouterr().err == "error: x\n"
    monkeypatch.setattr(cli, "cmd_oracle", raising(errors.ContractError("x")))
    with pytest.raises(errors.ContractError):
        main(argv)
