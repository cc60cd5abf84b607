"""Pinned outputs, each checked byte for byte.

- each demo's stdout against demos/expected/ (the demo must also exit 0);
- the compute reports against tests/expected/. APSP runs in numpy word
  levels alone on the two gnp graphs and is handed off to the blocked
  kernel on cycle:1000 and on path:3000, whose diameter is 2,999;
- two compute CSV reports against tests/expected/;
- the n=6 verification report against tests/expected/, which must exit 0,
  and the same report with --timings: every elapsed_ms above 0 and the
  records equal to the pinned ones once it is set to 0;
- by sha256, outputs too large to commit: the n=6 enumeration (995,257
  bytes), the Mycielskians of the two benchmark gnp graphs (308,386 and
  263,422 bytes; each edge list holds every edge of G in order, so these
  pin the gnp draws and the Graph built from their edge array) and the
  relaxed n=5 and n=6 verification reports, which must exit 4 (128,126
  and 7,529,500 bytes; the n=6 one lists 15,780 failures from 52 failing
  classes, each member checked on its own labels);
- each claim run alone on n=5 (--claims ID) against that claim's object in
  the full n=5 report, since a claim run alone must compute for itself
  what it shares with the other claims in a full run.

The one other pin is in tests/test_acceptance.py: the report of every
claim over all 26,704 labeled graphs of order 6 must equal the pinned n=6
report, which verify --enumerate builds from one graph per isomorphism
class. It reads that module's one labeled n=6 sweep, which also serves
acceptance criteria 2 and 3.
"""

import hashlib
import io
import json
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from mycielski.cli import main
from mycielski.verify import CLAIM_IDS

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
VERIFY_6 = ROOT / "tests" / "expected" / "verify_enumerate_6.json"


def run_cli(*args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        status = main(list(args))
    return status, buf.getvalue().encode()


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.stem)
def test_demo_output(demo):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (ROOT / "demos" / "expected" / f"{demo.stem}.txt").read_bytes()


@pytest.mark.parametrize(
    "spec,fmt",
    [
        ("gnp:1000,0.02,7", "json"),
        ("gnp:300,0.3,7", "json"),
        ("cycle:1000", "json"),
        ("path:3000", "json"),
        ("gnp:300,0.3,7", "csv"),
        ("petersen", "csv"),
    ],
)
def test_compute_report(spec, fmt):
    expected = ROOT / "tests" / "expected" / f"compute_{spec.replace(':', '_')}.{fmt}"
    assert run_cli("compute", "--format", fmt, "--family", spec) == (0, expected.read_bytes())


def test_verify_report():
    assert run_cli("verify", "--enumerate", "6") == (0, VERIFY_6.read_bytes())


def test_verify_report_with_timings():
    status, out = run_cli("verify", "--enumerate", "6", "--timings")
    records = json.loads(out)
    assert status == 0
    assert all(r["elapsed_ms"] > 0 for r in records)
    assert [dict(r, elapsed_ms=0) for r in records] == json.loads(VERIFY_6.read_bytes())


@pytest.mark.parametrize(
    "args,status,sha256",
    [
        (("enumerate", "--enumerate", "6"), 0,
         "841efc703e89dd0d18141ed90e99d31bef15d97c733f49582afb03c9b3cc3f1d"),
        (("mycielskian", "--family", "gnp:300,0.3,7"), 0,
         "026bcea884dfe24a85ab64c72055f3edb2fddc353aad97ccdc4a20cfed79dc10"),
        (("mycielskian", "--family", "gnp:1000,0.02,7"), 0,
         "8cfc7a95109fedcf5f54e5a15bf8d5442c6bc1e5d1aadd52e684d7f5eec8b91f"),
        (("verify", "--enumerate", "5", "--relax-diameter"), 4,
         "f72099cf498addb1271172bb4b38656ee6769c25d51203f420f15a774d4dfa1a"),
        (("verify", "--enumerate", "6", "--relax-diameter"), 4,
         "44b22fe5177f3b433ab81b258368b6e5f0f915c4735a000a36145a38594ea9d2"),
        # the rule hands off at level 2 against diameter 500: the matrix goes
        # through the blocked kernel
        (("verify", "--family", "cycle:1000"), 0,
         "9a8541c54ff680846f9c4edbbe69b97e89fb428dd895c979f9c0aa4ba0922dfa"),
    ],
    ids=[
        "enumerate_6",
        "mycielskian_gnp300",
        "mycielskian_gnp1000",
        "verify_5_relaxed",
        "verify_6_relaxed",
        "verify_cycle1000",
    ],
)
def test_output_sha256(args, status, sha256):
    code, out = run_cli(*args)
    assert (code, hashlib.sha256(out).hexdigest()) == (status, sha256)


@pytest.fixture(scope="module")
def full_n5_report():
    status, out = run_cli("verify", "--enumerate", "5")
    assert status == 0
    return json.loads(out)


@pytest.mark.parametrize("claim", CLAIM_IDS)
def test_claim_alone_matches_the_full_report(claim, full_n5_report):
    status, out = run_cli("verify", "--enumerate", "5", "--claims", claim)
    assert status == 0
    assert json.loads(out) == [r for r in full_n5_report if r["claim"] == claim]
