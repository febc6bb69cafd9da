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
. "$(dirname "$0")/smoke_lib.sh"

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
