import csv
import io
import json
import os
import pickle
import re

import pytest
from click.testing import CliRunner

from sumdisc import certifier, cli, hypergraph
from sumdisc.cli import main
from sumdisc.hypergraph import SumEdge, count_progressions
from sumdisc.numtheory import InternalInvariantViolation

import golden


@pytest.fixture
def runner():
    return CliRunner()


class TestFamilyCommand:
    def test_csv_counts_at_100(self, runner):
        res = runner.invoke(main, ["family", "--n", "100", "--format", "csv"])
        assert res.exit_code == 0
        rows = list(csv.DictReader(io.StringIO(res.output)))
        subs = [r["sub"] for r in rows]
        assert subs.count("e1") == 24
        assert subs.count("e2") == 0

    def test_jsonl_round_trip(self, runner):
        res = runner.invoke(main, ["family", "--n", "100"])
        assert res.exit_code == 0
        recs = [json.loads(line) for line in res.output.splitlines()]
        assert len(recs) == 150
        assert all(rec["sub"] in ("e1", "e2", "e3") for rec in recs)
        assert all("k" in rec for rec in recs if rec["sub"] == "e3")

    def test_file_output(self, runner, tmp_path):
        out = tmp_path / "fam.jsonl"
        res = runner.invoke(main, ["family", "--n", "100",
                                   "--family-out", str(out)])
        assert res.exit_code == 0
        assert len(out.read_text().splitlines()) == 150

    def test_output_dir_env_override(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("SUMDISC_OUT_DIR", str(tmp_path))
        res = runner.invoke(main, ["family", "--n", "100", "--out", "f.jsonl"])
        assert res.exit_code == 0
        assert (tmp_path / "f.jsonl").exists()


class TestCertifyCommand:
    def test_spec_example(self, runner):
        res = runner.invoke(main, ["certify", "--n", "1200", "--alpha", "0/1"])
        assert res.exit_code == 0
        rec = json.loads(res.output)
        assert rec["case"] == 1
        assert rec["measured"] == pytest.approx(200.0, abs=1e-9)

    def test_decimal_alpha_rejected(self, runner):
        res = runner.invoke(main, ["certify", "--n", "1200", "--alpha", "0.5"])
        assert res.exit_code == 2

    def test_usage_error_code(self, runner):
        res = runner.invoke(main, ["certify", "--n", "1200", "--alpha", "0.7"])
        assert res.exit_code == 2

    def test_file_output(self, runner, tmp_path):
        out = tmp_path / "cert.json"
        res = runner.invoke(main, ["certify", "--n", "1200", "--alpha", "0/1",
                                   "--out", str(out)])
        assert res.exit_code == 0 and res.stdout == ""
        assert json.loads(out.read_text())["case"] == 1

    def test_out_of_range_alpha_rejected(self, runner):
        res = runner.invoke(main, ["certify", "--n", "1200", "--alpha", "3/2"])
        assert res.exit_code == 2

    def test_below_min_n_is_usage_error(self, runner):
        res = runner.invoke(main, ["certify", "--n", "100", "--alpha", "1/3"])
        assert res.exit_code == 2


class TestSweepCommand:
    def test_byte_identical_reruns(self, runner):
        args = ["sweep", "--n", "1024", "--grid", "50", "--random", "10",
                "--seed", "3", "--threads", "1"]
        a = runner.invoke(main, args)
        b = runner.invoke(main, args)
        assert a.exit_code == 0 and a.output == b.output

    def test_all_rows_ok(self, runner):
        res = runner.invoke(main, ["sweep", "--n", "1024", "--grid", "40",
                                   "--no-adversarial", "--threads", "1"])
        assert res.exit_code == 0
        rows = list(csv.DictReader(io.StringIO(res.output)))
        assert len(rows) == 40
        assert all(r["ok"] == "1" for r in rows)
        assert {r["case"] for r in rows} <= {"1", "2", "3"}

    def test_threads_do_not_change_output(self, runner, tmp_path):
        base = ["sweep", "--n", "1024", "--grid", "30", "--seed", "1"]
        one = runner.invoke(main, base + ["--threads", "1"])
        two = runner.invoke(main, base + ["--threads", "2"])
        assert one.exit_code == 0 and two.exit_code == 0
        assert one.output == two.output

    def test_file_output(self, runner, tmp_path):
        out = tmp_path / "s.csv"
        res = runner.invoke(main, ["sweep", "--n", "1024", "--grid", "20",
                                   "--seed", "2", "--threads", "1",
                                   "--out", str(out)])
        assert res.exit_code == 0
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert rows and all(r["ok"] == "1" for r in rows)

    @pytest.mark.parametrize("threads, cores, workers", [
        (1000, 8, 4), (1000, 2, 2), (3, 8, 2), (1, 8, None)])
    def test_worker_count_clamped(self, runner, monkeypatch, threads, cores,
                                  workers):
        # a fake pool: records its size and maps in this process
        made = []

        class FakePool:
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        base = ["sweep", "--n", "1024", "--grid", "4", "--no-adversarial"]
        res = runner.invoke(main, base + ["--threads", str(threads)])
        assert res.exit_code == 0
        assert made == ([] if workers is None else [workers])
        assert res.output == runner.invoke(main, base + ["--threads", "1"]).output


class TestDiscCommand:
    def test_exact_small(self, runner):
        res = runner.invoke(main, ["disc", "--n", "2", "--method", "exact"])
        assert res.exit_code == 0
        assert json.loads(res.output)["disc"] == 1

    def test_random_seeded(self, runner):
        res = runner.invoke(main, ["disc", "--n", "12", "--method", "random",
                                   "--trials", "5", "--seed", "9"])
        assert res.exit_code == 0
        rec = json.loads(res.output)
        assert rec["method"] == "random" and rec["n_edges"] == 1369

    def test_exact_cap_usage_error(self, runner):
        res = runner.invoke(main, ["disc", "--n", "29", "--method", "exact"])
        assert res.exit_code == 2

    def test_random_above_enumeration_cap(self, runner):
        res = runner.invoke(main, ["disc", "--n", "80", "--method", "random",
                                   "--trials", "3", "--seed", "1"])
        assert res.exit_code == 0
        rec = json.loads(res.output)
        assert rec["n_edges"] == count_progressions(80)
        assert rec["n_edges_lower_bound"] is True
        assert rec["disc"] <= rec["envelope"]

    def test_sweep_invariant_failure_record(self, runner, monkeypatch):
        monkeypatch.setattr(hypergraph, "_trim",
                            lambda e, offset, n: (SumEdge(1, 1, 1, 1), n + 1))
        res = runner.invoke(main, ["disc", "--n", "70", "--method", "random",
                                   "--trials", "1"])
        assert res.exit_code == 1
        rec = json.loads(res.stderr)
        assert rec["invariant"] == "sweep-window-bounds"
        assert rec["module"] == "hypergraph"


class TestTwonormCommand:
    def test_csv_shape(self, runner):
        res = runner.invoke(main, ["twonorm", "--n", "576",
                                   "--colorings", "random:3,ones,alt"])
        assert res.exit_code == 0
        rows = list(csv.DictReader(io.StringIO(res.output)))
        assert [r["coloring_id"] for r in rows] == \
            ["random0", "random1", "random2", "ones", "alt"]
        assert all(r["ok"] == "1" for r in rows)

    def test_unknown_coloring_rejected(self, runner):
        res = runner.invoke(main, ["twonorm", "--n", "576",
                                   "--colorings", "bogus"])
        assert res.exit_code == 2


class TestSpectrumCommand:
    def test_rows_and_dc_value(self, runner):
        res = runner.invoke(main, ["spectrum", "--d1", "2", "--l1", "3",
                                   "--d2", "3", "--l2", "2", "--grid", "16"])
        assert res.exit_code == 0
        rows = list(csv.DictReader(io.StringIO(res.output)))
        assert len(rows) == 16
        assert float(rows[0]["magnitude"]) == pytest.approx(6.0, abs=1e-9)


class TestVerifyLemmas:
    def test_exit_zero(self, runner):
        res = runner.invoke(main, ["verify-lemmas", "--n", "576",
                                   "--grid", "60", "--trials", "40"])
        assert res.exit_code == 0, res.output
        assert "all checks passed" in res.output


class TestFailureClasses:
    @pytest.mark.parametrize("args", [
        ["family", "--n", "0"],
        ["certify", "--n", "0", "--alpha", "1/3"],
        ["sweep", "--n", "0"],
        ["disc", "--n", "0", "--method", "exact"],
        ["twonorm", "--n", "0"],
        ["verify-lemmas", "--n", "0"],
        ["spectrum", "--d1", "0", "--l1", "3", "--d2", "3", "--l2", "2"],
        ["spectrum", "--d1", "2", "--l1", "0", "--d2", "3", "--l2", "2"],
        ["spectrum", "--d1", "2", "--l1", "3", "--d2", "0", "--l2", "2"],
        ["spectrum", "--d1", "2", "--l1", "3", "--d2", "3", "--l2", "0"],
    ])
    def test_nonpositive_is_usage_error(self, runner, args):
        res = runner.invoke(main, args)
        assert res.exit_code == 2
        assert res.exception is None or isinstance(res.exception, SystemExit)

    @pytest.mark.parametrize("args", [
        ["spectrum", "--d1", "2", "--l1", "3", "--d2", "3", "--l2", "2",
         "--grid", "0"],
        ["sweep", "--n", "1024", "--grid", "-5", "--no-adversarial"],
        ["sweep", "--n", "1024", "--grid", "0"],
        ["sweep", "--n", "1024", "--grid", "8", "--random", "-1"],
        ["disc", "--n", "8", "--method", "random", "--trials", "-3"],
        ["disc", "--n", "8", "--method", "random", "--trials", "0"],
        ["disc", "--n", "8", "--method", "local", "--restarts", "0"],
        ["verify-lemmas", "--n", "576", "--grid", "0"],
        ["verify-lemmas", "--n", "576", "--trials", "-1"],
        ["twonorm", "--n", "576", "--colorings", "random:x"],
        ["twonorm", "--n", "576", "--colorings", "random:-2"],
        ["twonorm", "--n", "576", "--colorings", "ones,random:0"],
        ["twonorm", "--n", "576", "--colorings", "ones,stripes"],
        ["twonorm", "--n", "576", "--colorings", "random:\u00b2"],
        # numpy's generators refuse a negative seed
        ["twonorm", "--n", "100", "--seed", "-1"],
        ["disc", "--n", "12", "--method", "random", "--seed", "-1"],
        ["disc", "--n", "12", "--method", "local", "--seed", "-3"],
        # --threads below 1 is refused before any pool is started
        ["sweep", "--n", "1024", "--grid", "4", "--threads", "0"],
        ["sweep", "--n", "1024", "--grid", "4", "--threads", "-2"],
        # the tolerance is a constant, not an option
        ["certify", "--n", "1024", "--alpha", "1/3", "--tol-scale", "-5"],
    ])
    def test_bad_count_is_usage_error(self, runner, args):
        res = runner.invoke(main, args)
        assert res.exit_code == 2
        assert res.exception is None or isinstance(res.exception, SystemExit)

    @pytest.mark.parametrize("n", ["20", "100"])
    def test_verify_lemmas_below_min_n(self, runner, n):
        # refused before any check runs or prints
        res = runner.invoke(main, ["verify-lemmas", "--n", n])
        assert res.exit_code == 2 and res.stdout == ""

    @pytest.mark.parametrize("args", [
        # below n = 4 building the sweep's alphas used to divide by zero
        ["sweep", "--n", "1"], ["sweep", "--n", "2"], ["sweep", "--n", "3"],
        ["sweep", "--n", "100", "--grid", "2"],
        ["certify", "--n", "100", "--alpha", "1/3"],
    ])
    def test_below_min_n_refused_before_work(self, runner, args):
        res = runner.invoke(main, args)
        assert res.exit_code == 2 and res.stdout == ""
        assert res.exception is None or isinstance(res.exception, SystemExit)

    def test_invariant_violation_pickles(self):
        exc = InternalInvariantViolation("magnitude-bound", "measured 0 < bound 4")
        again = pickle.loads(pickle.dumps(exc))
        assert (again.invariant, again.module, str(again)) == \
            ("magnitude-bound", exc.module, str(exc))
        assert str(exc) == "magnitude-bound: measured 0 < bound 4"

    @pytest.mark.parametrize("threads", [1, 2])
    def test_forced_failure_record(self, runner, monkeypatch, threads):
        # forked pool workers inherit the patch
        monkeypatch.setattr(certifier, "geometric_exp_sum", lambda *args: 0j)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        res = runner.invoke(main, ["sweep", "--n", "1024", "--grid", "8",
                                   "--no-adversarial", "--threads", str(threads)])
        assert res.exit_code == 1 and res.stdout == ""
        rec = json.loads(res.stderr)
        assert rec["module"] == "certifier"
        assert rec["invariant"] == "magnitude-bound"
        assert rec["message"].startswith("magnitude-bound: measured 0")


@pytest.mark.parametrize("entry", [
    pytest.param(e, id=f"{' '.join(e['argv'])}-{e['stdout_sha256']}")
    for e in golden.load("suite")])
def test_golden_stdout(runner, entry):
    res = runner.invoke(main, entry["argv"])
    assert res.exit_code == 0
    # the bytes written, as tests/golden.py reads them from a process
    assert golden.sha256(res.stdout_bytes) == entry["stdout_sha256"]
    if entry["stderr_sha256"] is not None:
        assert golden.sha256(res.stderr_bytes) == entry["stderr_sha256"]


def test_golden_registry_well_formed():
    # an entry with a mistyped tier would be run by neither reader
    entries = golden.load()
    argvs = [tuple(e["argv"]) for e in entries]
    assert len(set(argvs)) == len(argvs)
    digest = re.compile(r"[0-9a-f]{64}")
    for e in entries:
        assert e["tier"] in golden.TIERS, e
        assert digest.fullmatch(e["stdout_sha256"]), e
        assert e["stderr_sha256"] is None or digest.fullmatch(e["stderr_sha256"]), e
