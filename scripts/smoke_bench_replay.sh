#!/bin/sh
# Replay-bench smoke: store-memoized sweeps must be byte-identical to
# direct computation, cold and after a simulated kill -9.  The bench
# checks its own artifact and exits non-zero on a failed check.
. "$(dirname "$0")/smoke_lib.sh"

SUU_PERF_SCALE=tiny "$BENCH" replay
test -s BENCH_replay.json
