#!/bin/sh
# Solver smoke: the serve-path default is certified MWU with automatic
# simplex fallback; switching the backend must not change what clients
# see.  Two daemons — one per solver — answer the same seeded simulate
# request, and the replies must match byte for byte (same-server
# determinism is checked by sending it twice).
#
# The simplex daemon also answers two plans whose LP2 tableaux have a
# few thousand rows (SUU-C on chains, SUU-T on forest, n = 192, m = 16).
# Their replies must equal the files under scripts/pins/ byte for byte:
# they pin the vertex the exact tableau reaches at scale, which the
# rounded plan and its makespan follow.
#
# A solver name the library does not know ("revised" is no longer one)
# must stop the daemon at start-up, whether it comes from --solver or
# from SUU_SOLVER.
. "$(dirname "$0")/smoke_lib.sh"

# reject_at_startup LABEL CMD... — CMD must exit non-zero within seconds
# with "unknown solver" on its output, without ever listening.  A hang
# is killed and reported as such (137).
reject_at_startup() {
  label=$1
  shift
  status=0
  timeout --preserve-status -s KILL 10 "$@" \
    > "$SCRATCH/badsolver.log" 2>&1 || status=$?
  if [ "$status" -eq 0 ] || [ "$status" -eq 137 ]; then
    echo "smoke_solver: $label did not fail at start-up (status $status)" >&2
    exit 1
  fi
  if grep -q listening "$SCRATCH/badsolver.log"; then
    echo "smoke_solver: $label started listening" >&2
    exit 1
  fi
  if ! grep -q "unknown solver" "$SCRATCH/badsolver.log"; then
    echo "smoke_solver: $label failed without \"unknown solver\":" >&2
    cat "$SCRATCH/badsolver.log" >&2
    exit 1
  fi
}
reject_at_startup "serve --solver revised" \
  "$CLI" serve --port 0 --solver revised
reject_at_startup "SUU_SOLVER=revised serve" \
  env SUU_SOLVER=revised "$CLI" serve --port 0

"$CLI" serve --port 0 --solver mwu > "$SCRATCH/solver-mwu.log" 2>&1 &
MWU_PID=$!
track "$MWU_PID"
"$CLI" serve --port 0 --solver simplex > "$SCRATCH/solver-simplex.log" 2>&1 &
SIMPLEX_PID=$!
track "$SIMPLEX_PID"

MWU_PORT=$(scripts/wait_ready.sh "$SCRATCH/solver-mwu.log" "$CLI" client stats)
SIMPLEX_PORT=$(scripts/wait_ready.sh "$SCRATCH/solver-simplex.log" "$CLI" client stats)

"$CLI" client simulate --port "$MWU_PORT" \
  -n 8 -m 3 --reps 5 --seed 7 > "$SCRATCH/mwu.out"
"$CLI" client simulate --port "$MWU_PORT" \
  -n 8 -m 3 --reps 5 --seed 7 > "$SCRATCH/mwu2.out"
"$CLI" client simulate --port "$SIMPLEX_PORT" \
  -n 8 -m 3 --reps 5 --seed 7 > "$SCRATCH/simplex.out"
for shape in chains forest; do
  "$CLI" client plan --port "$SIMPLEX_PORT" \
    --shape "$shape" -n 192 -m 16 --seed 7 > "$SCRATCH/plan-$shape.out"
done

kill -INT "$MWU_PID" "$SIMPLEX_PID"
wait "$MWU_PID" "$SIMPLEX_PID"

diff "$SCRATCH/mwu.out" "$SCRATCH/mwu2.out"
diff "$SCRATCH/mwu.out" "$SCRATCH/simplex.out"
for shape in chains forest; do
  diff scripts/pins/plan_"$shape"_n192_m16_s7.txt "$SCRATCH/plan-$shape.out"
done
