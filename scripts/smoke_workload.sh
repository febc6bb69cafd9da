#!/bin/sh
# Workload smoke: the checked-in 20-job sample SWF trace converts
# byte-stably to SUU instances, inspects cleanly, and replays open-loop
# through the serve bench end to end (arrivals at trace-derived
# timestamps, 100% completion, byte-identical responses across two
# runs at the same seed).
. "$(dirname "$0")/smoke_lib.sh"

TRACE=bench/workloads/sample20.swf

# --- inspect: header directives and summary statistics parse out ---
"$CLI" workload inspect "$TRACE" > "$SCRATCH/inspect.txt"
grep -q '^jobs 20$' "$SCRATCH/inspect.txt"
grep -q '^users 5$' "$SCRATCH/inspect.txt"
grep -q '^; MaxProcs: 16$' "$SCRATCH/inspect.txt"

# --- convert twice: the trace -> instance mapping is deterministic,
#     so the two output trees must be byte-identical ---
"$CLI" workload convert "$TRACE" --out "$SCRATCH/conv1" --seed 7
"$CLI" workload convert "$TRACE" --out "$SCRATCH/conv2" --seed 7
[ "$(ls "$SCRATCH/conv1" | wc -l)" -eq 20 ]
diff -r "$SCRATCH/conv1" "$SCRATCH/conv2"

# a converted instance loads back through the CLI
"$CLI" describe --load "$SCRATCH/conv1/job0001.suu" > /dev/null

# --- open-loop replay through the serve bench (port 0 server inside
#     the bench): the bench's own checks require every arrival to
#     complete with deterministic responses; the greps pin the trace's
#     20 arrivals.  A small --connections keeps the closed-loop passes
#     quick, the gate's connection floor only applies to CI's full
#     serve smoke ---
SUU_PERF_SCALE=tiny "$BENCH" serve --connections 40 --workload "swf:$TRACE"
test -s BENCH_serve.json
grep -q '"workload": {"spec": "swf:sample20.swf"' BENCH_serve.json
grep -q '"arrivals": 20,' BENCH_serve.json

# --- a synthetic arrival process drives the same path ---
SUU_PERF_SCALE=tiny "$BENCH" serve --connections 40 --workload poisson:40
grep -q '"workload": {"spec": "poisson:40"' BENCH_serve.json

echo "workload smoke ok"
