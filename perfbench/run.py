"""Benchmark of the ``mycielski`` CLI, one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` with nothing to build. Each CLI call runs in a fresh
single-threaded child process (``child.py``) whose stdout goes to a file.
The run:

1. sets up: imports the CLI entry point in ``SETUP_PROBES`` fresh
   interpreters after one warm-up import;
2. calls the workload's command again and again until ``--seconds`` have
   passed and at least ``MIN_CALLS`` calls are done;
3. with ``--trace 1``, makes one more call with ``tracer.Tracer`` installed;
4. checks every call: exit code 0, stdout byte-identical to the first call,
   and the first call equal to an independent oracle (``oracle.py``).

``setup_s`` is the median import time over the probes and the untraced
calls, which import the same way, so that its samples span the whole run.

This process imports neither numpy nor the package and runs the oracle in
a child of its own: a child's peak RSS from ``wait4`` is never below its
parent's RSS at ``fork``, so a lean parent keeps ``peak_rss_mb`` the CLI's.

The last stdout line is the result object: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``, names and units as
declared in ``BENCHMARK.json``. Lines above it print every metric with its
unit, plus ``error_rate``. A run record (machine, versions, samples, the
layer-to-end-to-end map of ``metric_map.json``) is written under
``.perfbench/records/``. Exit status 2 means the checkout cannot be
benchmarked, and then no result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD = BENCH_DIR / "child.py"

SETUP_PROBES = 7
MIN_CALLS = 2
# A run must exit within 180 s: children are killed at this budget, and no
# call starts that the last call's duration says would overrun it.
RUN_BUDGET_S = 170.0
TRACE_COST = 1.6  # traced call time over untraced, with margin

CLAIMS = ("obs1", "obs2", "lemma3", "thm_dd", "randic_bounds", "randic_equality")


@dataclass(frozen=True)
class Workload:
    argv: Callable[[int], list[str]]
    graphs: int  # corpus graphs one call processes
    oracle: Callable[[int], list[str]]  # oracle.py arguments that check a call's stdout
    trace_args: tuple[str, ...] = ()  # extra CLI args for the traced call


def _gnp_workload(n: int, p: float, diameter_two: bool) -> Workload:
    def argv(seed: int) -> list[str]:
        return ["compute", "--family", f"gnp:{n},{p},{seed}"]

    def oracle(seed: int) -> list[str]:
        return ["compute", str(n), str(p), str(seed), str(int(diameter_two))]

    return Workload(argv=argv, graphs=1, oracle=oracle)


WORKLOADS = {
    # the corpus is fixed, so the seed is not used
    "verify_exhaustive": Workload(
        argv=lambda seed: ["verify", "--enumerate", "6"],
        graphs=26704,
        oracle=lambda seed: ["verify", "6"],
        trace_args=("--timings",),
    ),
    "compute_sparse": _gnp_workload(1000, 0.02, diameter_two=False),
    "compute_dense_d2": _gnp_workload(300, 0.3, diameter_two=True),
}


@dataclass
class Call:
    exit: int
    stdout: bytes
    report: dict
    peak_rss_mb: float
    wall_s: float  # parent-side wall time of the whole child, a fallback for run_s
    problems: list[str] = field(default_factory=list)


class Runner:
    """Starts child processes in a scratch directory inside the checkout."""

    def __init__(self, scratch: Path, deadline: float):
        self.scratch = scratch
        self.deadline = deadline
        self.count = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"
        self.env["PYTHONHASHSEED"] = "0"

    def call(self, mode: str, cli_args: list[str] = ()) -> Call:
        self.count += 1
        out_path = self.scratch / f"{self.count}.out"
        err_path = self.scratch / f"{self.count}.err"
        report_path = self.scratch / f"{self.count}.json"
        cmd = [sys.executable, str(CHILD), mode, "--report", str(report_path), "--", *cli_args]
        started = time.perf_counter()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=self.env)
            status, rusage = _wait(proc, self.remaining())
        wall_s = time.perf_counter() - started
        call = Call(
            exit=os.waitstatus_to_exitcode(status),
            stdout=out_path.read_bytes(),
            report=json.loads(report_path.read_text()) if report_path.exists() else {},
            peak_rss_mb=rusage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
            wall_s=wall_s,
        )
        if call.exit != 0:
            stderr = err_path.read_bytes().decode(errors="replace").strip()
            call.problems.append(f"exit {call.exit}: {stderr[-500:]}")
        elif "import_s" not in call.report:
            call.problems.append("child wrote no report")
        return call

    def remaining(self) -> float:
        return max(1.0, self.deadline - time.monotonic())

    def check(self, oracle_args: list[str], stdout: bytes) -> list[str]:
        """Problems the independent oracle finds in one call's stdout."""
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "oracle.py"), *oracle_args],
                input=stdout, capture_output=True, cwd=ROOT, env=self.env, timeout=self.remaining(),
            )
        except subprocess.TimeoutExpired:
            return ["oracle timed out"]
        if proc.returncode != 0:
            return [f"oracle exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-500:]}"]
        return json.loads(proc.stdout)


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap ``proc`` with its own rusage (not the cumulative RUSAGE_CHILDREN).

    The child is killed once ``timeout`` passes, or when this process is
    interrupted, and is always reaped before returning or raising.
    """
    deadline = time.monotonic() + timeout
    flags = os.WNOHANG
    try:
        while True:
            pid, status, rusage = os.wait4(proc.pid, flags)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return status, rusage
            if time.monotonic() > deadline:
                proc.kill()
                flags = 0
            else:
                time.sleep(0.01)
    except BaseException:
        if proc.returncode is None:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
        raise


def _metric_specs() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
        "why": {w["name"]: w["why"] for w in spec["workloads"]},
    }


def measure(workload: Workload, seed: int, seconds: float, trace: bool, runner: Runner):
    """Set up, call the workload until ``seconds`` pass, gate every call."""
    runner.call("import")  # warm-up: compiles bytecode into src/__pycache__
    setup = [runner.call("import") for _ in range(SETUP_PROBES)]
    cli_args = workload.argv(seed)

    calls: list[Call] = []
    measure_start = time.monotonic()
    while len(calls) < MIN_CALLS or time.monotonic() - measure_start < seconds:
        if calls and calls[-1].wall_s * (1 + TRACE_COST * trace) > runner.remaining():
            break
        calls.append(runner.call("run", cli_args))
        if len(calls) == 1 and not calls[0].problems:
            calls[0].problems.extend(runner.check(workload.oracle(seed), calls[0].stdout))
    reference = calls[0].stdout
    for c in calls[1:]:
        if not c.problems and c.stdout != reference:
            c.problems.append("stdout differs from the first call")
    if calls[0].problems:  # later calls repeat a wrong output
        for c in calls[1:]:
            c.problems.append("first call failed the correctness gate")

    traced = None
    if trace:
        traced = runner.call("trace", cli_args + list(workload.trace_args))
        if not traced.problems:
            got = traced.stdout
            if workload.trace_args:
                got = _zero_timings(got)
            if got != reference:
                traced.problems.append("traced stdout differs from untraced stdout")
            if calls[0].problems:
                traced.problems.append("first call failed the correctness gate")
    return setup, calls, traced


def _zero_timings(stdout: bytes) -> bytes:
    """A ``verify --timings`` report with every ``elapsed_ms`` set to 0."""
    report = json.loads(stdout)
    for outcome in report:
        outcome["elapsed_ms"] = 0
    return (json.dumps(report, indent=2) + "\n").encode()


def end_to_end_metrics(workload: Workload, setup: list[Call], calls: list[Call]) -> dict[str, float]:
    run_s = statistics.median(_run_s(c) for c in calls)
    return {
        "setup_s": statistics.median(c.report.get("import_s", c.wall_s) for c in setup + calls),
        "run_s": run_s,
        "graphs_per_s": workload.graphs / run_s,
        "peak_rss_mb": statistics.median(c.peak_rss_mb for c in calls),
    }


def _run_s(call: Call) -> float:
    return call.report.get("run_s", call.wall_s)


def layer_metrics(workload: Workload, calls: list[Call], traced: Call) -> dict[str, float]:
    """Per-layer figures from the traced call's spans; see metric_map.json."""
    spans = traced.report.get("spans", {})
    counters = traced.report.get("counters", {})

    def stat(name: str, key: str):
        return spans.get(name, {}).get(key, 0)

    def layer(prefix: str, key: str):
        return sum(s[key] for name, s in spans.items() if name.startswith(prefix + "."))

    gnp = "generators.erdos_renyi_connected"
    gnp_calls = stat(gnp, "calls")
    graphs = counters.get("enumerate_yields", 0) + gnp_calls
    base_calls = stat("graph.apsp_base", "calls")
    claim_s = dict.fromkeys(CLAIMS, 0.0)
    if workload.trace_args and not traced.problems:
        for outcome in json.loads(traced.stdout):
            claim_s[outcome["claim"]] = outcome["elapsed_ms"] / 1000.0
    return {
        "generators.enumerate_s": stat("generators.enumerate_connected", "self_s"),
        "generators.enumerate_graphs": counters.get("enumerate_yields", 0),
        "generators.gnp_s": stat(gnp, "total_s"),
        "generators.gnp_attempts": counters.get("gnp_builds", 0) / gnp_calls if gnp_calls else 0,
        "graph.build_calls": stat("graph.build", "calls"),
        "graph.build_s": stat("graph.build", "total_s"),
        "graph.apsp_base_calls": base_calls,
        "graph.apsp_base_s": stat("graph.apsp_base", "total_s"),
        "graph.apsp_per_graph": base_calls / graphs if graphs else 0,
        "graph.apsp_mu_calls": stat("graph.apsp_mu", "calls"),
        "graph.apsp_mu_s": stat("graph.apsp_mu", "total_s"),
        "graph.apsp_vertices": counters.get("apsp_vertices", 0),
        "transform.mycielskian_calls": stat("transform.mycielskian", "calls"),
        "transform.mycielskian_s": stat("transform.mycielskian", "total_s"),
        "transform.mu_matrix_calls": stat("transform.mu_distance_matrix", "calls"),
        "transform.mu_matrix_s": stat("transform.mu_distance_matrix", "total_s"),
        "indices.self_s": layer("indices", "self_s"),
        "indices.calls": layer("indices", "calls"),
        "verify.self_s": layer("verify", "self_s"),
        **{f"verify.claim_s.{c}": s for c, s in claim_s.items()},
        "cli.self_s": layer("cli", "self_s"),
        "cli.stdout_bytes": len(calls[0].stdout),
        "trace.overhead_s": _run_s(traced) - statistics.median(_run_s(c) for c in calls),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def run_record(args, specs, setup, calls, traced, metrics) -> dict:
    return {
        "workload": args.workload,
        "why": specs["why"].get(args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv": WORKLOADS[args.workload].argv(args.seed),
        "machine": {"nproc": os.cpu_count(), "cpu": _cpu_model()},
        "python": platform.python_version(),
        "numpy": calls[0].report.get("numpy"),
        "git_sha": _git_sha(),
        "src_lines": _src_lines(),
        "samples": {
            "setup_s": [c.report.get("import_s") for c in setup + calls],
            "run_s": [_run_s(c) for c in calls],
            "cpu_s": [c.report.get("cpu_s") for c in calls],
            "peak_rss_mb": [c.peak_rss_mb for c in calls],
        },
        "problems": [p for c in calls + ([traced] if traced else []) for p in c.problems],
        "spans": traced.report.get("spans") if traced else None,
        "metrics": metrics,
        "metric_map": json.loads((BENCH_DIR / "metric_map.json").read_text())["layers"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("BENCHMARK.json", "src/mycielski/cli.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a mycielski source checkout, missing {missing}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    # SIGTERM unwinds like an exception, so children are killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    specs = _metric_specs()
    workload = WORKLOADS[args.workload]
    scratch = ROOT / ".perfbench" / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        setup, calls, traced = measure(
            workload, args.seed, args.seconds, bool(args.trace), Runner(scratch, deadline)
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = calls + ([traced] if traced else [])
    failed = sum(1 for c in attempted if c.problems)
    if args.trace:
        metrics, units = layer_metrics(workload, calls, traced), specs["per_layer"]
    else:
        metrics, units = end_to_end_metrics(workload, setup, calls), specs["end_to_end"]
    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")

    records = ROOT / ".perfbench" / "records"
    records.mkdir(parents=True, exist_ok=True)
    record_path = records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = run_record(args, specs, setup, calls, traced, metrics)
    record_path.write_text(json.dumps(record, indent=2) + "\n")

    for problem in record["problems"]:
        print(f"FAILED: {problem}")
    for name in units:
        print(f"{name:32s} {metrics[name]:>16.6f} {units[name]}")
    print(f"{'error_rate':32s} {failed / len(attempted):>16.6f} ratio  ({failed}/{len(attempted)} calls failed)")
    print(f"record: {record_path.relative_to(ROOT)}")
    result = {
        "correct": failed == 0,
        "attempted": len(attempted),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
