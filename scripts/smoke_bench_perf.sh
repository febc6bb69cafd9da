#!/bin/sh
# Perf-harness smoke at tiny size so it cannot rot: it must run and
# emit the JSON artifact (in the repo root, where the regression gate
# and the CI artifact upload expect it).  The bench checks the
# artifact itself, bit-identical runs at every domain count included,
# and exits non-zero on a failed check.
. "$(dirname "$0")/smoke_lib.sh"

SUU_PERF_SCALE=tiny "$BENCH" perf
test -s BENCH_perf.json
