#!/bin/sh
# Benchmark correctness smoke: a short run of the repository benchmark
# on serve-hot and mc-sweep.  Each run checks what it computed against
# the digests recorded in perfbench/digests.txt — the reply bytes of the
# serve workload's check requests and the makespans of a fixed-seed
# Monte-Carlo sweep — so a change that alters any reply or schedule
# fails here.  The run's last stdout line must report "correct": true
# and "failed": 0.
#
# Needs dune and python3 (run.py builds the CLI and the driver from
# source).  Run from anywhere: `scripts/smoke_perfbench.sh`.
set -eu

cd "$(dirname "$0")/.."

LOG=$(mktemp "${TMPDIR:-/tmp}/suu-perfbench.XXXXXX")
trap 'rm -f "$LOG"' EXIT

for w in serve-hot mc-sweep; do
  if ! python3 perfbench/run.py --workload "$w" --seed 1 --seconds 2 \
    --trace 0 > "$LOG" 2>&1; then
    tail -n 30 "$LOG" >&2
    echo "perfbench $w: run failed" >&2
    exit 1
  fi
  if ! tail -n 1 "$LOG" | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
sys.exit(0 if r.get("correct") is True and r.get("failed") == 0 else 1)'
  then
    tail -n 30 "$LOG" >&2
    echo "perfbench $w: result not correct or has failed operations" >&2
    exit 1
  fi
  echo "perfbench $w: $(tail -n 1 "$LOG" | cut -c1-60)..."
done
echo "perfbench smoke: ok"
