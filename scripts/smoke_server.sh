#!/bin/sh
# Server smoke: the daemon end to end over a real socket.  The server
# binds port 0 (the kernel picks a free one — a fixed port collides
# with whatever else runs on a shared runner) and prints the bound
# port; scripts/wait_ready.sh parses it, probes readiness, and fails
# loudly if the server never comes up.  Also validates the SUU_TRACE
# capture: valid JSONL whose simulate request is >= 95% covered by its
# phase spans.
. "$(dirname "$0")/smoke_lib.sh"

SUU_TRACE=1 SUU_TRACE_FILE="$SCRATCH/suu-trace.jsonl" \
  "$CLI" serve --port 0 > "$SCRATCH/serve.log" 2>&1 &
SERVE_PID=$!
track "$SERVE_PID"
PORT=$(scripts/wait_ready.sh "$SCRATCH/serve.log" "$CLI" client stats)

# The same request twice: the second parse of its instance block must
# be a hit in the server's parse memo.
for _ in 1 2; do
  "$CLI" client simulate \
    --port "$PORT" -n 8 -m 3 --reps 5 --policy greedy | tee "$SCRATCH/sim.out"
  grep -q '^mean ' "$SCRATCH/sim.out"
done

# The stats endpoint must expose per-phase quantiles with --full,
# request latency among them, and keep the summary counters in its
# default view.
"$CLI" client stats --port "$PORT" --full | tee "$SCRATCH/stats.out"
grep -q '^obs\.phase\.server\.execute\.p95_ms ' "$SCRATCH/stats.out"
grep -q '^obs\.phase\.server\.request\.p95_ms ' "$SCRATCH/stats.out"
"$CLI" client stats --port "$PORT" | grep -q '^requests_total '
HITS=$(awk '$1 == "obs.counter.protocol.instance_memo.hits" { print $2 }' \
  "$SCRATCH/stats.out")
if [ "${HITS:-0}" -lt 1 ]; then
  echo "smoke_server: no parse-memo hit after a repeated request" >&2
  exit 1
fi

kill -INT "$SERVE_PID"
wait "$SERVE_PID"

"$GATE" trace-coverage "$SCRATCH/suu-trace.jsonl"

# A bad domain count is the operator's error: the daemon must refuse to
# start (non-zero exit, within seconds) instead of listening and then
# answering every simulate with bad_request.  A hang is killed and
# reported as such (137), apart from a usage error's own status.
status=0
timeout --preserve-status -s KILL 10 \
  "$CLI" serve --port 0 --sim-jobs 0 > "$SCRATCH/badjobs.log" 2>&1 || status=$?
if [ "$status" -eq 0 ] || [ "$status" -eq 137 ]; then
  echo "smoke_server: serve --sim-jobs 0 did not fail at start-up" \
    "(status $status)" >&2
  exit 1
fi
if grep -q listening "$SCRATCH/badjobs.log"; then
  echo "smoke_server: serve --sim-jobs 0 started listening" >&2
  exit 1
fi
