#!/bin/sh
# Bench-regression gate: tiny-scale results vs the committed baseline,
# with generous (2.5x) tolerances — catches order-of-magnitude
# regressions, tolerates runner jitter.  Also enforces the <5%
# instrumentation-overhead budget and the correctness floors
# (connection scale, chaos success, byte identity).  Expects the
# BENCH_*.json artifacts in the repo root — run the other
# smoke_bench_*.sh scripts first.
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
