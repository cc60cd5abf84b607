#!/usr/bin/env bash
# Diff the pinned compute reports against tests/expected/, byte for byte.
# APSP runs in numpy word levels alone on the two gnp graphs and is handed
# off to the blocked kernel on cycle and path. Run from the repository root:
#   bash tests/check_compute_reports.sh
set -euo pipefail
out=$(mktemp)
trap 'rm -f "$out"' EXIT
for spec in gnp:1000,0.02,7 gnp:300,0.3,7 cycle:1000 path:3000; do
  PYTHONPATH=src python3 -m mycielski compute --family "$spec" > "$out"
  diff -u "tests/expected/compute_${spec/:/_}.json" "$out"
done
