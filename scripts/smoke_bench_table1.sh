#!/bin/sh
# Table-1 harness smoke at tiny size: ratio-vs-lower-bound and
# steps/sec for the online policies (lzf, backfill) next to the LP
# policies and baselines, over synthetic shapes and the checked-in SWF
# trace.  The bench checks its own artifact (lzf and backfill rows,
# SWF rows, the single-machine 0.8531 bound, the LZF-vs-SEM cold-path
# speedup floor) and exits non-zero on a failed check.
. "$(dirname "$0")/smoke_lib.sh"

SUU_PERF_SCALE=tiny "$BENCH" table1
test -s BENCH_table1.json
