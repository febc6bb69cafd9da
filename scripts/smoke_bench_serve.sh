#!/bin/sh
# Serve-bench smoke: tiny-scale load test, the connection-scale pass
# and an open-loop replay of the sample trace.  The bench checks its
# own artifact (no error replies, simulate bytes identical across
# worker counts, zero dropped or mismatched connections, every arrival
# completed, the replay deterministic) and exits non-zero on a failed
# check; the gate adds the >= 500 connection floor.  500 client
# sockets + 500 accepted sockets live in one process, so raise the fd
# ceiling where the soft default (often 1024) is too tight.
. "$(dirname "$0")/smoke_lib.sh"

ulimit -n 4096 2>/dev/null || true

SUU_PERF_SCALE=tiny "$BENCH" serve --connections "${CONNECTIONS:-500}" \
  --workload "${WORKLOAD:-swf:bench/workloads/sample20.swf}"
test -s BENCH_serve.json
