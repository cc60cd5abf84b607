#!/usr/bin/env bash
# Diff every pinned output against its expected file, byte for byte, and
# stop at the first difference or failing command:
# - each demo's stdout against demos/expected/ (the demo must also exit 0);
# - the whole n=6 verification report against tests/expected/;
# - the compute reports against tests/expected/. APSP runs in numpy word
#   levels alone on the two gnp graphs and is handed off to the blocked
#   kernel on cycle and path;
# - two compute CSV reports against tests/expected/;
# - the n=6 enumeration by its sha256, as it is too large to commit
#   (995,257 bytes);
# - the Mycielskians of the two benchmark gnp graphs by their sha256
#   (308,386 and 263,422 bytes). Each edge list holds every edge of G in
#   order, so these pin the gnp draws and the Graph built from their edge
#   array byte for byte;
# - the relaxed n=5 verification report, which must exit 4, by its sha256
#   (128,126 bytes);
# - each claim run alone on n=5 (--claims ID) against that claim's object in
#   the full n=5 report, since a claim run alone must compute for itself
#   what it shares with the other claims in a full run;
# - the n=6 verification report with --timings, every elapsed_ms set to 0,
#   against the pinned n=6 report.
# Run from the repository root:
#   bash tests/check_pinned_outputs.sh
set -euo pipefail
out=$(mktemp)
full=$(mktemp)
trap 'rm -f "$out" "$full"' EXIT
for demo in demos/*.py; do
  PYTHONPATH=src python3 "$demo" > "$out"
  diff -u "demos/expected/$(basename "$demo" .py).txt" "$out"
done
PYTHONPATH=src python3 -m mycielski verify --enumerate 6 > "$out"
diff -u tests/expected/verify_enumerate_6.json "$out"
for spec in gnp:1000,0.02,7 gnp:300,0.3,7 cycle:1000 path:3000; do
  PYTHONPATH=src python3 -m mycielski compute --family "$spec" > "$out"
  diff -u "tests/expected/compute_${spec/:/_}.json" "$out"
done
for spec in gnp:300,0.3,7 petersen; do
  PYTHONPATH=src python3 -m mycielski compute --format csv --family "$spec" > "$out"
  diff -u "tests/expected/compute_${spec/:/_}.csv" "$out"
done
PYTHONPATH=src python3 -m mycielski enumerate --enumerate 6 > "$out"
echo "841efc703e89dd0d18141ed90e99d31bef15d97c733f49582afb03c9b3cc3f1d  $out" | sha256sum -c --quiet
PYTHONPATH=src python3 -m mycielski mycielskian --family gnp:300,0.3,7 > "$out"
echo "026bcea884dfe24a85ab64c72055f3edb2fddc353aad97ccdc4a20cfed79dc10  $out" | sha256sum -c --quiet
PYTHONPATH=src python3 -m mycielski mycielskian --family gnp:1000,0.02,7 > "$out"
echo "8cfc7a95109fedcf5f54e5a15bf8d5442c6bc1e5d1aadd52e684d7f5eec8b91f  $out" | sha256sum -c --quiet
status=0
PYTHONPATH=src python3 -m mycielski verify --enumerate 5 --relax-diameter > "$out" || status=$?
[ "$status" -eq 4 ]
echo "f72099cf498addb1271172bb4b38656ee6769c25d51203f420f15a774d4dfa1a  $out" | sha256sum -c --quiet
PYTHONPATH=src python3 -m mycielski verify --enumerate 5 > "$full"
for claim in $(PYTHONPATH=src python3 -c 'from mycielski.verify import CLAIM_IDS; print(*CLAIM_IDS)'); do
  PYTHONPATH=src python3 -m mycielski verify --enumerate 5 --claims "$claim" > "$out"
  python3 -c '
import json, sys
full, alone, claim = sys.argv[1:]
(record,) = json.load(open(alone))
if [record] != [r for r in json.load(open(full)) if r["claim"] == claim]:
    sys.exit(f"verify --claims {claim} differs from its object in the full report")
' "$full" "$out" "$claim"
done
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
