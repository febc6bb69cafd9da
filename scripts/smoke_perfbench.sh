#!/bin/sh
# Benchmark correctness smoke: a short run of the repository benchmark
# on serve-hot and mc-sweep.  Each run checks what it computed against
# the digests recorded in perfbench/digests.txt — the reply bytes of the
# serve workload's check requests and the makespans of a fixed-seed
# Monte-Carlo sweep — so a change that alters any reply or schedule
# fails here.  The run's last stdout line must report "correct": true
# and "failed": 0.
#
# mc-sweep must also keep its peak_rss_mb at or below MC_SWEEP_RSS_MIB.
# Its peak is set by the set-up's two large LP2 tableaux, whose storage
# lives outside the OCaml heap and is freed as each solve returns.
# With sparse rows that keep only their nonzeros, in one file compacted
# in place, it reads about 54 MiB; when sparse rows kept the zeros
# their updates left, in the heap, about 75 MiB (74.8-74.9 at seed 1);
# with full-width dense rows, about 112-114 MiB.  65 MiB leaves about
# 20% headroom over the first and fails the second.
#
# Needs dune and python3 (run.py builds the CLI and the driver from
# source).  Run from anywhere: `scripts/smoke_perfbench.sh`.
set -eu

cd "$(dirname "$0")/.."

MC_SWEEP_RSS_MIB=65

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
  if [ "$w" = mc-sweep ] && ! tail -n 1 "$LOG" | python3 -c '
import json, sys
rss = json.loads(sys.stdin.read())["metrics"]["peak_rss_mb"]["value"]
print("perfbench mc-sweep: peak_rss_mb %.1f, ceiling %s" % (rss, sys.argv[1]))
sys.exit(0 if rss <= float(sys.argv[1]) else 1)' "$MC_SWEEP_RSS_MIB"
  then
    echo "perfbench mc-sweep: peak_rss_mb above $MC_SWEEP_RSS_MIB MiB" >&2
    exit 1
  fi
  echo "perfbench $w: $(tail -n 1 "$LOG" | cut -c1-60)..."
done
echo "perfbench smoke: ok"
