import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

from mycielski import generators
from mycielski.cli import _corpus, build_parser, main
from mycielski.generators import erdos_renyi_connected
from mycielski.graph import _numpy_word_levels, parse_edge_list
from mycielski.indices import randic
from mycielski.verify import verify_corpus


def run_cli(*args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        status = main(list(args))
    return status, buf.getvalue()


def run_process(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "mycielski", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestCompute:
    def test_cycle5_json(self):
        status, out = run_cli("compute", "--family", "cycle:5", "--format", "json")
        assert status == 0
        record = json.loads(out)
        assert record["degree_distance"] == 60
        assert record["randic"] == 2.5
        assert record["degree_distance_mu"] == 650
        assert record["is_regular"] is True

    def test_no_mu_extras_off_diameter_two(self):
        status, out = run_cli("compute", "--family", "path:4")
        assert status == 0
        record = json.loads(out)
        assert record["diameter"] == 3
        assert "degree_distance_mu" not in record

    def test_csv(self):
        status, out = run_cli("compute", "--family", "complete:2", "--format", "csv")
        assert status == 0
        header, row = out.strip().split("\n")
        assert header == "n,m,diameter,wiener,zagreb_m1,randic,degree_distance"
        assert row == "2,1,1,1,2,1,2"

    def test_from_file(self, tmp_path):
        src = tmp_path / "g.txt"
        src.write_text("3 2\n0 1\n1 2\n")
        status, out = run_cli("compute", "--input", str(src))
        assert status == 0
        assert json.loads(out)["wiener"] == 4

    def test_output_file(self, tmp_path):
        target = tmp_path / "report.json"
        status, _ = run_cli(
            "compute", "--family", "cycle:5", "--output", str(target)
        )
        assert status == 0
        assert json.loads(target.read_text())["wiener"] == 15

    def test_diameter_two_runs_one_apsp(self, monkeypatch):
        # every distance pass, matrix or sums, runs the word levels once;
        # compute needs no matrix, so all_pairs_distances is never called
        passes = []

        def counted(*args):
            passes.append(args[0])
            return _numpy_word_levels(*args)

        def no_matrix(g):
            raise AssertionError("compute called all_pairs_distances")

        monkeypatch.setattr("mycielski.graph._numpy_word_levels", counted)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "mycielski" and hasattr(module, "all_pairs_distances"):
                monkeypatch.setattr(module, "all_pairs_distances", no_matrix)
        status, out = run_cli("compute", "--family", "gnp:30,0.5,3")
        assert status == 0
        record = json.loads(out)
        assert record["diameter"] == 2 and "degree_distance_mu" in record
        assert passes == [30]

    def test_diameter_two_computes_randic_once(self, monkeypatch):
        calls = []

        def counted(g):
            calls.append(g.n)
            return randic(g)

        monkeypatch.setattr("mycielski.indices.randic", counted)
        status, out = run_cli("compute", "--family", "gnp:30,0.5,3")
        assert status == 0
        assert "randic_mu_lower" in json.loads(out)
        assert calls == [30]

    def test_first_compute_imports_no_numpy_ma(self):
        # path:300 runs the blocked kernel's sparse levels. np.unique's first
        # call imports numpy.ma, so _cuts and the kernel deduplicate by hand;
        # only a module the compute adds to what numpy itself imported counts
        script = (
            "import os, sys, numpy\n"
            "before = 'numpy.ma' in sys.modules\n"
            "from mycielski.cli import main\n"
            "status = main(['compute', '--family', 'path:300', '--output', os.devnull])\n"
            "print(status, before, 'numpy.ma' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        status, before, after = proc.stdout.split()
        assert status == "0"
        assert after == before


class TestMycielskian:
    def test_k2_emits_five_cycle(self):
        status, out = run_cli("mycielskian", "--family", "complete:2")
        assert status == 0
        lines = out.splitlines()
        assert lines[0] == "5 5"
        assert lines[1] == "# roles: original 0..1, shadow 2..3, root 4"
        mu = parse_edge_list(out)
        assert set(mu.degrees) == {2}

    def test_output_reparses_as_input(self, tmp_path):
        target = tmp_path / "mu.txt"
        run_cli("mycielskian", "--family", "cycle:4", "--output", str(target))
        status, out = run_cli("compute", "--input", str(target))
        assert status == 0
        assert json.loads(out)["degree_distance"] == 396


class TestVerify:
    def test_exhaustive_pass(self):
        status, out = run_cli(
            "verify", "--claims", "thm_dd,obs2", "--enumerate", "5"
        )
        assert status == 0
        report = json.loads(out)
        assert [r["claim"] for r in report] == ["obs2", "thm_dd"]
        assert all(r["failures"] == [] for r in report)
        assert all(r["elapsed_ms"] == 0 for r in report)

    def test_gnp_corpus(self):
        status, out = run_cli(
            "verify", "--claims", "randic_bounds", "--gnp", "10,0.3,0", "--trials", "25"
        )
        assert status == 0
        (record,) = json.loads(out)
        assert record["checked"] == 50

    @pytest.mark.parametrize("spec", ["12,0.1,0", "10,0.3,0"])
    def test_gnp_trials_draw_distinct_graphs(self, spec):
        # sample t starts _MAX_ATTEMPTS seeds after sample t-1, past the end
        # of its redraw chain; with seed + t the trials shared chains and
        # these corpora held 1 and 15 distinct graphs
        corpus = list(_corpus(build_parser().parse_args(
            ["verify", "--gnp", spec, "--trials", "20"]
        )))
        assert len(set(corpus)) == 20
        n, p, seed = spec.split(",")
        assert corpus[0] == erdos_renyi_connected(int(n), float(p), int(seed))
        assert corpus[3] == erdos_renyi_connected(
            int(n), float(p), int(seed) + 3 * generators._MAX_ATTEMPTS
        )

    @pytest.mark.parametrize("spec", ["10,0.3,0", "12,0.1,0", "10,,0.3,0"])
    def test_gnp_spec_is_a_family_spec(self, spec):
        # --gnp S is the gnp family spec S, so it parses as leniently
        # (empty fields are dropped, as in cycle:5,) and reports the same
        status, out = run_cli("verify", "--gnp", spec)
        assert (status, out) == run_cli("verify", "--family", f"gnp:{spec}")
        assert status == 0 and out

    def test_single_family(self):
        status, out = run_cli("verify", "--family", "petersen")
        assert status == 0
        report = json.loads(out)
        assert [r["claim"] for r in report] == list(
            ("obs1", "obs2", "lemma3", "thm_dd", "randic_bounds", "randic_equality")
        )

    @pytest.mark.parametrize(
        "source", [["--enumerate", "5"], ["--family", "petersen"]], ids=["enumerate", "family"]
    )
    def test_every_source_takes_the_one_corpus_road(self, source, monkeypatch):
        calls = []

        def recorded(*args, **kwargs):
            calls.append(args)
            return verify_corpus(*args, **kwargs)

        monkeypatch.setattr("mycielski.cli.verify_corpus", recorded)
        status, _ = run_cli("verify", *source)
        assert status == 0 and len(calls) == 1

    def test_failures_exit_4(self):
        status, out = run_cli(
            "verify", "--claims", "thm_dd", "--family", "path:5", "--relax-diameter"
        )
        assert status == 4
        (record,) = json.loads(out)
        assert record["failures"][0]["expected"] == 614

    def test_timings_flag(self):
        status, out = run_cli("verify", "--claims", "obs1", "--family", "cycle:4", "--timings")
        assert status == 0
        (record,) = json.loads(out)
        assert record["elapsed_ms"] > 0


class TestEnumerate:
    def test_streams_connected_graphs(self):
        status, out = run_cli("enumerate", "--enumerate", "3")
        assert status == 0
        blocks = out.strip().split("\n\n")
        assert len(blocks) == 4
        assert blocks[0] == "3 2\n0 1\n0 2"
        assert blocks[-1] == "3 3\n0 1\n0 2\n1 2"


@pytest.mark.parametrize("command", ["verify", "enumerate"])
def test_enumerate_help_names_the_cap(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    # joined, so that wrapping cannot split the bound
    assert f"(N <= {generators.ENUMERATION_CAP})" in " ".join(capsys.readouterr().out.split())


class TestExitStatuses:
    def test_usage_errors(self):
        assert run_process("compute")[0] == 1  # no input source
        assert run_process("compute", "--family", "cycle:5", "--input", "x")[0] == 1
        assert run_process("compute", "--family", "nosuch:3")[0] == 1
        assert run_process("compute", "--family", "cycle:two")[0] == 1
        assert run_process("compute", "--family", "cycle:5", "--format", "edgelist")[0] == 1
        assert run_process("verify", "--claims", "obs9", "--enumerate", "3")[0] == 1
        assert run_process("verify", "--enumerate", "3", "--family", "cycle:5")[0] == 1
        assert run_process("verify", "--gnp", "10,0.3,0", "--trials", "0")[0] == 1
        assert run_process("verify", "--enumerate", "3", "--trials", "0")[0] == 1
        assert run_process("verify", "--family", "cycle:5", "--trials", "2")[0] == 1
        assert run_process("verify", "--claims", "obs1")[0] == 1  # no corpus source
        assert run_process("enumerate")[0] == 1
        assert run_process("nosuchcommand")[0] == 1
        # an order below 2 is a bad parameter, like --gnp 1,0.5,0 or --family path:1
        for order in ("1", "0"):
            assert run_process("verify", "--enumerate", order)[:2] == (1, "")
            assert run_process("enumerate", "--enumerate", order)[:2] == (1, "")

    @pytest.mark.parametrize(
        "command,foreign",
        [
            ("compute", ["--trials", "9"]),
            ("compute", ["--claims", "obs1"]),
            ("compute", ["--relax-diameter"]),
            ("compute", ["--timings"]),
            ("mycielskian", ["--enumerate", "3"]),
            ("mycielskian", ["--format", "edgelist"]),
            ("enumerate", ["--family", "cycle:5"]),
            ("enumerate", ["--timings"]),
            ("verify", ["--format", "json"]),
        ],
        ids=lambda v: v if isinstance(v, str) else v[0],
    )
    def test_foreign_flags_are_usage_errors(self, command, foreign):
        source = ["--enumerate", "3"]
        if command in ("compute", "mycielskian"):
            source = ["--family", "cycle:5"]
        assert run_cli(command, *source)[0] == 0  # the command is valid without the flag
        code, out, err = run_process(command, *source, *foreign)
        assert (code, out) == (1, "")
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize(
        "args",
        [
            ("verify", "--gnp", "1,0.5,0"),
            ("verify", "--gnp", "5,1.5,0"),
            ("verify", "--family", "gnp:1,0.5,0"),
            ("compute", "--family", "gnp:5,1.5,0"),
            ("verify", "--gnp", "10,0.3"),
            ("verify", "--gnp", "10,0.3,x"),
            ("verify", "--gnp", "10,0.3,1.5"),
        ],
        ids=[
            "verify-gnp-n", "verify-gnp-p", "verify-family-n", "compute-family-p",
            "verify-gnp-no-seed", "verify-gnp-seed-word", "verify-gnp-seed-float",
        ],
    )
    def test_invalid_gnp_parameters_are_usage_errors(self, args):
        code, out, err = run_process(*args)
        assert (code, out) == (1, "")
        assert "mycielski: error:" in err

    def test_input_errors(self, tmp_path):
        assert run_process("compute", "--input", str(tmp_path / "missing.txt"))[0] == 2
        bad = tmp_path / "bad.txt"
        bad.write_text("2 1\n1 1\n")
        assert run_process("compute", "--input", str(bad))[0] == 2

    @pytest.mark.parametrize("command", ["compute", "mycielskian", "verify"])
    def test_undecodable_input_is_an_input_error(self, command, tmp_path):
        src = tmp_path / "bytes.txt"
        src.write_bytes(b"\xff\xfe\x00garbage\n")
        code, out, err = run_process(command, "--input", str(src))
        assert (code, out) == (2, "")
        assert err.startswith(f"mycielski: input error: cannot read {src}: ")
        assert err.count("\n") == 1  # one line, no traceback

    @pytest.mark.parametrize(
        "args",
        [
            ("compute", "--family", "cycle:5"),
            ("mycielskian", "--family", "cycle:5"),
            ("verify", "--family", "cycle:5"),
            ("enumerate", "--enumerate", "3"),
        ],
        ids=lambda args: args[0],
    )
    def test_unopenable_output_is_a_usage_error(self, args, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run_process(*args, "--output", str(target))
        assert (code, out) == (1, "")
        assert err.startswith(f"mycielski: error: cannot write {target}: ")
        assert err.count("\n") == 1  # one line, no traceback
        assert not target.parent.exists()

    def test_missing_output_directory_fails_before_the_run(self, monkeypatch, tmp_path):
        def never(args):
            raise AssertionError("the subcommand ran")

        monkeypatch.setattr("mycielski.cli._cmd_verify", never)
        target = tmp_path / "missing" / "x.json"
        assert run_cli("verify", "--enumerate", "6", "--output", str(target)) == (1, "")
        assert not target.parent.exists()

    @pytest.mark.parametrize(
        "target,error",
        [
            ("out", "[Errno 21] Is a directory: '{}'"),
            ("", "[Errno 2] No such file or directory: ''"),
            ("file/x.json", "[Errno 20] Not a directory: '{}'"),
            ("file" + os.sep, "[Errno 21] Is a directory: '{}'"),
            ("missing" + os.sep, "[Errno 21] Is a directory: '{}'"),
            (os.path.join("missing", "x") + os.sep, "[Errno 2] No such file or directory: '{}'"),
        ],
        ids=["directory", "empty", "file-parent", "file-trailing-sep", "missing-trailing-sep",
             "missing-parent-trailing-sep"],
    )
    def test_refused_output_path_fails_before_the_run(
        self, target, error, monkeypatch, tmp_path, capsys
    ):
        def never(args):
            raise AssertionError("the subcommand ran")

        monkeypatch.setattr("mycielski.cli._cmd_verify", never)
        (tmp_path / "out").mkdir()
        (tmp_path / "file").write_text("")
        if target:
            # pathlib drops a trailing separator, which the -trailing-sep cases keep
            target = str(tmp_path / target) + os.sep * target.endswith(os.sep)
        assert run_cli("verify", "--enumerate", "6", "--output", target) == (1, "")
        # worded as the late error open(target, "w") gives
        assert capsys.readouterr().err == (
            f"mycielski: error: cannot write {target}: {error.format(target)}\n"
        )
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["file", "out"]  # nothing created

    @pytest.mark.parametrize("claims", [",", ""], ids=["comma", "empty"])
    def test_empty_claims_are_a_usage_error(self, claims):
        code, out, err = run_process("verify", "--claims", claims, "--enumerate", "6")
        assert (code, out) == (1, "")
        assert err.startswith("mycielski: error: no claims given; available: ")
        assert err.count("\n") == 1  # one line, no traceback

    @pytest.mark.parametrize(
        "args,text,code",
        [
            (("compute", "--input"), "2 1\n1 1\n", 2),
            (("mycielskian", "--input"), "3 1\n0 1\n", 3),
            (("verify", "--claims", "nope", "--enumerate", "3"), None, 1),
            (("enumerate", "--enumerate", "7"), None, 3),
        ],
        ids=["compute", "mycielskian", "verify", "enumerate"],
    )
    def test_failed_run_leaves_output_unchanged(self, args, text, code, tmp_path):
        target = tmp_path / "keep.json"
        target.write_bytes(b'{"kept": 1}\n')
        if text is not None:
            src = tmp_path / "g.txt"
            src.write_text(text)
            args = (*args, str(src))
        assert run_cli(*args, "--output", str(target)) == (code, "")
        assert target.read_bytes() == b'{"kept": 1}\n'

    def test_output_may_overwrite_the_input(self, tmp_path):
        target = tmp_path / "g.txt"
        target.write_text("4 4\n0 1\n1 2\n2 3\n0 3\n")  # C4
        assert run_cli("mycielskian", "--input", str(target), "--output", str(target))[0] == 0
        mu = parse_edge_list(target.read_text())
        assert (mu.n, mu.m) == (9, 16)

    def test_hypothesis_violations(self, tmp_path):
        disconnected = tmp_path / "disc.txt"
        disconnected.write_text("4 2\n0 1\n2 3\n")
        assert run_process("compute", "--input", str(disconnected))[0] == 3
        single = tmp_path / "k1.txt"
        single.write_text("1 0\n")
        assert run_process("mycielskian", "--input", str(single))[0] == 3
        isolated = tmp_path / "isolated.txt"  # vertex 2 has no neighbour
        isolated.write_text("3 1\n0 1\n")
        assert run_process("mycielskian", "--input", str(isolated))[:2] == (3, "")
        assert run_process("enumerate", "--enumerate", "7")[0] == 3
        assert run_process("verify", "--enumerate", "7")[:2] == (3, "")

    def test_order_past_the_exact_limit_is_3(self, monkeypatch, capsys):
        monkeypatch.setattr("mycielski.graph._EXACT_ORDER_LIMIT", 10)
        assert main(["compute", "--family", "path:11"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exact int64 limit" in captured.err

    def test_verification_failure_is_4(self, tmp_path):
        args = ("verify", "--claims", "thm_dd", "--family", "path:6", "--relax-diameter")
        code, out, _ = run_process(*args)
        assert code == 4
        target = tmp_path / "report.json"  # the failing report is still written
        assert run_cli(*args, "--output", str(target)) == (4, "")
        assert target.read_bytes() == out.encode()


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ("compute", "--family", "gnp:12,0.4,42"),
            ("compute", "--family", "petersen", "--format", "csv"),
            ("mycielskian", "--family", "cycle:4"),
            ("verify", "--claims", "obs1,thm_dd", "--enumerate", "4"),
            ("verify", "--gnp", "9,0.35,7", "--trials", "10"),
            ("enumerate", "--enumerate", "4"),
        ],
        ids=["compute-gnp", "compute-csv", "mycielskian", "verify-enum", "verify-gnp", "enumerate"],
    )
    def test_byte_identical_reruns(self, args):
        first = run_process(*args)
        second = run_process(*args)
        assert first == second
        assert first[1]  # produced output
