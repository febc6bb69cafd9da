#!/bin/sh
# Policy smoke: the lib/sched family (lzf, backfill), greedy and the
# paper's SUU-C and SUU-T (through auto) end to end over a real socket.
# Serves simulate requests for lzf and backfill on instances converted
# from the checked-in SWF trace and on synthetic instances, auto, lzf,
# backfill and greedy on synthetic chains and forests, and lzf,
# backfill and greedy under near-one hazards, and replays each request
# at the same seed — the responses must be byte-identical
# (0 mismatches): the online policies promise deterministic
# tie-breaking, with predictor state seeded from (instance digest,
# policy, seed) only, and the LP policies draw their delays from the
# request seed only.
. "$(dirname "$0")/smoke_lib.sh"

TRACE=bench/workloads/sample20.swf

"$CLI" serve --port 0 > "$SCRATCH/serve.log" 2>&1 &
SERVE_PID=$!
track "$SERVE_PID"
PORT=$(scripts/wait_ready.sh "$SCRATCH/serve.log" "$CLI" client stats)

# The server must know the whole registry, including lib/sched.
"$CLI" client stats --port "$PORT" --full > "$SCRATCH/stats0.out"

# --- SWF-derived instances: convert the trace, serve both policies
#     over a handful of jobs, replay each and diff ---
"$CLI" workload convert "$TRACE" --out "$SCRATCH/conv" --seed 7
MISMATCH=0
for inst in job0001 job0007 job0013 job0019; do
  for pol in lzf backfill; do
    "$CLI" client simulate --port "$PORT" --load "$SCRATCH/conv/$inst.suu" \
      --policy "$pol" --reps 6 --seed 42 > "$SCRATCH/$inst-$pol-a.out"
    "$CLI" client simulate --port "$PORT" --load "$SCRATCH/conv/$inst.suu" \
      --policy "$pol" --reps 6 --seed 42 > "$SCRATCH/$inst-$pol-b.out"
    grep -q '^mean ' "$SCRATCH/$inst-$pol-a.out"
    if ! cmp -s "$SCRATCH/$inst-$pol-a.out" "$SCRATCH/$inst-$pol-b.out"; then
      echo "replay mismatch: $inst policy=$pol" >&2
      MISMATCH=$((MISMATCH + 1))
    fi
  done
done

# --- synthetic instances exercise the multi-machine packing paths the
#     one-job SWF rows cannot ---
for pol in lzf backfill; do
  "$CLI" client simulate --port "$PORT" -n 12 -m 4 --reps 6 --seed 9 \
    --policy "$pol" > "$SCRATCH/syn-$pol-a.out"
  "$CLI" client simulate --port "$PORT" -n 12 -m 4 --reps 6 --seed 9 \
    --policy "$pol" > "$SCRATCH/syn-$pol-b.out"
  grep -q '^mean ' "$SCRATCH/syn-$pol-a.out"
  if ! cmp -s "$SCRATCH/syn-$pol-a.out" "$SCRATCH/syn-$pol-b.out"; then
    echo "replay mismatch: synthetic policy=$pol" >&2
    MISMATCH=$((MISMATCH + 1))
  fi
done

# --- auto picks SUU-C on chains and SUU-T on forests, and lzf, backfill
#     and greedy keep ready sets that promote successors on dags: all
#     their steppers keep per-execution queues and cursors, and must
#     still replay ---
for shape in chains forest; do
  for pol in auto lzf backfill greedy; do
    for side in a b; do
      "$CLI" client simulate --port "$PORT" --shape "$shape" -n 32 -m 6 \
        --reps 8 --seed 11 --policy "$pol" > "$SCRATCH/$pol-$shape-$side.out"
    done
    grep -q '^mean ' "$SCRATCH/$pol-$shape-a.out"
    if ! cmp -s "$SCRATCH/$pol-$shape-a.out" "$SCRATCH/$pol-$shape-b.out"; then
      echo "replay mismatch: shape=$shape policy=$pol" >&2
      MISMATCH=$((MISMATCH + 1))
    fi
  done
done

# --- near-one hazards leave many steps without a completion, where
#     lzf and greedy return their previous row and backfill skips a
#     settled queue: those reused rows must replay too ---
for pol in lzf backfill greedy; do
  for side in a b; do
    "$CLI" client simulate --port "$PORT" --hazard near-one -n 64 -m 16 \
      --reps 8 --seed 13 --policy "$pol" > "$SCRATCH/$pol-near-one-$side.out"
  done
  grep -q '^mean ' "$SCRATCH/$pol-near-one-a.out"
  if ! cmp -s "$SCRATCH/$pol-near-one-a.out" "$SCRATCH/$pol-near-one-b.out"
  then
    echo "replay mismatch: hazard=near-one policy=$pol" >&2
    MISMATCH=$((MISMATCH + 1))
  fi
done

[ "$MISMATCH" -eq 0 ]

# --- LP-free policies must bypass the plan cache, and the bypasses
#     must be visible in server stats ---
"$CLI" client stats --port "$PORT" | tee "$SCRATCH/stats.out"
BYPASS=$(awk '/^plan_cache_bypass /{print $2}' "$SCRATCH/stats.out")
[ -n "$BYPASS" ] && [ "$BYPASS" -gt 0 ]

# --- an unknown policy is a clean protocol error naming the registry,
#     not a hang or a crash ---
if "$CLI" client simulate --port "$PORT" -n 4 -m 2 --policy no-such-policy \
    > "$SCRATCH/unknown.out" 2>&1; then
  echo "unknown policy unexpectedly accepted" >&2
  exit 1
fi
grep -q 'unknown policy' "$SCRATCH/unknown.out"

kill -INT "$SERVE_PID"
wait "$SERVE_PID"

echo "policies smoke ok"
