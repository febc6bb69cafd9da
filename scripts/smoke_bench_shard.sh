#!/bin/sh
# Shard-bench smoke: routed vs direct throughput plus the byte-identity
# sweep.  The bench checks its own artifact (every routed response
# matches the single server's, no error replies) and exits non-zero on
# a failed check.
. "$(dirname "$0")/smoke_lib.sh"

SUU_PERF_SCALE=tiny "$BENCH" shard
test -s BENCH_shard.json
