"""Tests of the benchmark itself: the correctness gate, seeding, the tracer
and per-child memory. Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, layer_modules  # noqa: E402

from mycielski import cli, erdos_renyi_connected  # noqa: E402


def _cli(argv: list[str]) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue().encode()


# -- correctness gate ---------------------------------------------------------


@pytest.mark.parametrize("n,p,seed,d2", [(30, 0.5, 3, True), (40, 0.12, 1, False)])
def test_gate_flags_every_corrupted_digit_in_compute_output(n, p, seed, d2):
    out = _cli(["compute", "--family", f"gnp:{n},{p},{seed}"])
    assert oracle.check_compute(out, n, p, seed, d2) == []
    digits = [m.start() for m in re.finditer(rb"\d", out)]
    assert len(digits) > 20
    for i in digits:
        bad = out[:i] + str((int(out[i : i + 1]) + 1) % 10).encode() + out[i + 1 :]
        assert oracle.check_compute(bad, n, p, seed, d2), f"corruption at byte {i} passed"


def test_gate_requires_the_diameter_two_branch_to_match_the_workload():
    out = _cli(["compute", "--family", "gnp:30,0.5,3"])
    assert oracle.check_compute(out, 30, 0.5, 3, diameter_two=False)


def test_verify_oracle_matches_known_corpus_counts():
    assert oracle.corpus_classes(6) == {"connected": 26704, "diameter_two": 10923, "regular": 146}
    out = _cli(["verify", "--enumerate", "4"])
    assert oracle.check_verify(out, 4) == []
    assert oracle.check_verify(out.replace(b'"checked": 25', b'"checked": 24'), 4)


class _FakeRunner:
    """Replays canned child results in place of real processes."""

    def __init__(self, outputs: list[bytes]):
        self.outputs = list(outputs)

    def remaining(self):
        return float("inf")

    def call(self, mode, cli_args=()):
        stdout = b"" if mode == "import" else self.outputs.pop(0)
        return run.Call(0, stdout, {"import_s": 0.1, "run_s": 1.0}, 30.0, 1.1)

    def check(self, oracle_args, stdout):
        kind, n, p, seed, diameter_two = oracle_args
        return oracle.check_compute(stdout, int(n), float(p), int(seed), diameter_two == "1")


def test_measure_counts_a_corrupted_first_call_against_every_call():
    good = _cli(["compute", "--family", "gnp:30,0.5,3"])
    bad = good.replace(b'"n": 30', b'"n": 31')
    workload = run._gnp_workload(30, 0.5, diameter_two=True)
    _, calls, _ = run.measure(workload, 3, 0, False, _FakeRunner([bad, bad]))
    assert all(c.problems for c in calls)
    _, calls, _ = run.measure(workload, 3, 0, False, _FakeRunner([good, good, bad]))
    assert [bool(c.problems) for c in calls] == [False, False]
    _, calls, _ = run.measure(workload, 3, 0, False, _FakeRunner([good, bad]))
    assert [bool(c.problems) for c in calls] == [False, True]


# -- seeding ------------------------------------------------------------------


@pytest.mark.parametrize("name", ["compute_sparse", "compute_dense_d2"])
def test_seed_reaches_the_gnp_spec(name):
    argv = run.WORKLOADS[name].argv(12345)
    assert argv[-1].startswith("gnp:") and argv[-1].endswith(",12345")
    assert run.WORKLOADS[name].argv(7) != argv


def test_exhaustive_workload_ignores_the_seed():
    w = run.WORKLOADS["verify_exhaustive"]
    assert w.argv(0) == w.argv(99) == ["verify", "--enumerate", "6"]


@pytest.mark.parametrize("seed", [0, 1, 2**64 + 5])
def test_oracle_regenerates_the_same_gnp_graph(seed):
    edges = oracle.gnp_edges(60, 0.08, seed)
    assert [tuple(e) for e in edges.tolist()] == list(erdos_renyi_connected(60, 0.08, seed).edges)


# -- tracer -------------------------------------------------------------------


def _bindings() -> dict[tuple[str, str], object]:
    return {(m, k): v for m, mod in layer_modules().items() for k, v in vars(mod).items()}


def _traced(argv: list[str]) -> tuple[bytes, Tracer]:
    tracer = Tracer()
    with tracer:
        out = _cli(argv)
    return out, tracer


def test_tracer_restores_every_binding_and_keeps_stdout():
    before = _bindings()
    for argv in (["compute", "--family", "gnp:30,0.5,3"], ["verify", "--enumerate", "4"]):
        plain = _cli(argv)
        traced, _ = _traced(argv)
        assert traced == plain
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())


def test_tracer_rebinds_names_imported_by_other_modules():
    mods = layer_modules()
    originals = (mods["verify"].all_pairs_distances, mods["cli"].verify_corpus, mods["transform"].Graph)
    with Tracer():
        assert mods["verify"].all_pairs_distances is not originals[0]
        assert mods["cli"].verify_corpus is not originals[1]
        assert mods["transform"].Graph is not originals[2]
        assert mods["graph"].Graph is originals[2]


def test_tracer_counts_are_exact_on_the_n5_corpus():
    # n = 5 registers more mu graphs than the prune threshold, so pruning runs
    classes = oracle.corpus_classes(5)
    c, d2, reg = classes["connected"], classes["diameter_two"], classes["regular"]
    _, tracer = _traced(["verify", "--enumerate", "5"])
    spans = tracer.span_table()
    mycielskian_calls = 2 * c + d2 + reg  # corpus loop, thm_dd, randic_bounds, randic_equality
    assert mycielskian_calls > 1024
    assert spans["graph.apsp_base"]["calls"] == c + 2 * d2
    assert spans["graph.apsp_mu"]["calls"] == c + d2
    assert spans["transform.mycielskian"]["calls"] == mycielskian_calls
    assert spans["graph.build"]["calls"] == c + mycielskian_calls
    assert tracer.counters["enumerate_yields"] == c
    for s in spans.values():
        assert 0 <= s["self_s"] <= s["total_s"] + 1e-9


def test_tracer_counts_gnp_redraws():
    _, tracer = _traced(["compute", "--family", "gnp:12,0.1,0"])
    assert tracer.span_table()["generators.erdos_renyi_connected"]["calls"] == 1
    assert tracer.counters["gnp_builds"] > 1


# -- per-child memory ---------------------------------------------------------


def test_peak_rss_is_per_child_not_cumulative():
    # run from a fresh interpreter: a child's wait4 peak is never below the
    # RSS its parent had at fork, and this test process holds numpy and scipy
    script = """
import subprocess, sys
import run
assert "numpy" not in sys.modules
peaks = []
for code in ("b = bytearray(120 * 2**20); b[::4096] = b'x' * len(b[::4096])", "pass"):
    _, rusage = run._wait(subprocess.Popen([sys.executable, "-c", code]), 60)
    peaks.append(rusage.ru_maxrss / 1024)
print(peaks[0], peaks[1])
"""
    out = subprocess.run([sys.executable, "-c", script], cwd=BENCH, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    big, small = map(float, out.split())
    assert big > 120 > 40 > small


def test_traced_timings_report_compares_equal_after_zeroing():
    plain = _cli(["verify", "--enumerate", "4"])
    timed = _cli(["verify", "--enumerate", "4", "--timings"])
    assert timed != plain
    assert run._zero_timings(timed) == plain
