#!/bin/sh
# Chaos-bench smoke: fault-injected server vs retrying clients, then a
# shard killed mid-load behind the router.  The bench checks its own
# artifact (every request completed, faults injected, retries made,
# the dead shard marked down) and exits non-zero on a failed check.
. "$(dirname "$0")/smoke_lib.sh"

SUU_PERF_SCALE=tiny "$BENCH" chaos
test -s BENCH_chaos.json
