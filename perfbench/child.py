"""One benchmark child process: an import probe or one CLI call.

    python3 perfbench/child.py import --report R.json
    python3 perfbench/child.py run    --report R.json -- <mycielski CLI args>
    python3 perfbench/child.py trace  --report R.json -- <mycielski CLI args>

``mycielski`` must be importable (``PYTHONPATH=src``). The report file gets
the import time of the CLI entry point, and for ``run`` and ``trace`` the
wall time of ``mycielski.cli.main`` after import and its exit code. ``trace``
also records the span table of ``tracer.Tracer``. The CLI writes to this
process's stdout, which the caller points at a file. The process exits
with the CLI's exit code.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time


def _call_main(main, cli_args: list[str]) -> int:
    try:
        return main(cli_args)
    except SystemExit as exc:  # argparse usage errors exit from inside main
        return exc.code if isinstance(exc.code, int) else 1


def child(mode: str, report_path: str, cli_args: list[str]) -> int:
    started = time.perf_counter()
    import mycielski.cli as cli

    report: dict[str, object] = {
        "import_s": time.perf_counter() - started,
        "numpy": sys.modules["numpy"].__version__,
    }
    code = 0
    if mode in ("run", "trace"):
        tracer = None
        if mode == "trace":  # imported only here, so plain calls carry no tracer code
            from tracer import Tracer

            tracer = Tracer()
        with tracer or contextlib.nullcontext():
            started, cpu_started = time.perf_counter(), time.process_time()
            code = _call_main(cli.main, cli_args)
            sys.stdout.flush()
            report["run_s"] = time.perf_counter() - started
            report["cpu_s"] = time.process_time() - cpu_started
        report["exit"] = code
        if tracer is not None:
            report["spans"] = tracer.span_table()
            report["counters"] = dict(tracer.counters)
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


def main(argv: list[str]) -> int:
    mode, flag, report_path, *rest = argv
    if mode not in ("import", "run", "trace") or flag != "--report":
        raise SystemExit(f"usage: child.py import|run|trace --report PATH [-- ARGS], got {argv}")
    cli_args = rest[1:] if rest[:1] == ["--"] else rest
    return child(mode, report_path, cli_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
