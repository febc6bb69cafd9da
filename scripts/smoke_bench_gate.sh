#!/bin/sh
# Bench-regression gate: every check of bench/checks.ml on the
# tiny-scale results, including the baseline rules the bench itself
# skips: generous (2.5x) bands against the committed baseline, which
# catch order-of-magnitude regressions and tolerate runner jitter, and
# the >= 500 connection floor.  Expects the BENCH_*.json artifacts in
# the repo root — run the other smoke_bench_*.sh scripts first.
. "$(dirname "$0")/smoke_lib.sh"

# Gate every artifact, then fail if any failed: one failing experiment
# must not hide the verdicts of the rest.
failed=""
for f in BENCH_perf.json BENCH_serve.json BENCH_chaos.json \
         BENCH_replay.json BENCH_shard.json BENCH_table1.json; do
  "$GATE" regression "$f" bench/baseline.json || failed="$failed $f"
done
if [ -n "$failed" ]; then
  echo "bench gate failed for:$failed" >&2
  exit 1
fi
