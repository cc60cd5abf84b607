#!/usr/bin/env bash
# Diff the costlier pinned outputs against their expected files, byte for
# byte, and stop at the first difference or failing command:
# - the whole n=6 verification report against tests/expected/;
# - the same report from verify_corpus over all 26,704 labeled graphs of
#   enumerate_connected(6), which checks every labeling where the CLI checks
#   one graph per isomorphism class;
# - the compute report on path:3000 against tests/expected/, where APSP is
#   handed off to the blocked kernel over a diameter of 2,999;
# - the n=6 verification report with --timings, every elapsed_ms set to 0,
#   against the pinned n=6 report.
# The cheaper pins (the demos, the other compute reports, the sha256 pins
# and each claim run alone on n=5) are Tier-1 tests in
# tests/test_pinned_outputs.py; each pin lives in one of the two places.
# Run from the repository root:
#   bash tests/check_pinned_outputs.sh
set -euo pipefail
out=$(mktemp)
trap 'rm -f "$out"' EXIT
PYTHONPATH=src python3 -m mycielski verify --enumerate 6 > "$out"
diff -u tests/expected/verify_enumerate_6.json "$out"
PYTHONPATH=src python3 -c '
import json, sys
from mycielski import CLAIM_IDS, enumerate_connected, verify_corpus
outcomes = verify_corpus(CLAIM_IDS, enumerate_connected(6))
sys.stdout.write(json.dumps([o.as_dict(include_timing=False) for o in outcomes], indent=2) + "\n")
' > "$out"
diff -u tests/expected/verify_enumerate_6.json "$out"
PYTHONPATH=src python3 -m mycielski compute --family path:3000 > "$out"
diff -u tests/expected/compute_path_3000.json "$out"
PYTHONPATH=src python3 -m mycielski verify --enumerate 6 --timings > "$out"
python3 -c '
import json, sys
timed, pinned = sys.argv[1:]
records = json.load(open(timed))
if not all(r["elapsed_ms"] > 0 for r in records):
    sys.exit("verify --timings left an elapsed_ms at 0")
if [dict(r, elapsed_ms=0) for r in records] != json.load(open(pinned)):
    sys.exit("verify --timings differs from the pinned report beyond elapsed_ms")
' "$out" tests/expected/verify_enumerate_6.json
