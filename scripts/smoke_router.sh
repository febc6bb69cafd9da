#!/bin/sh
# Router multi-shard smoke: a router spawning two journal-armed shards
# must survive kill -9 of one shard — clients converge through retries
# while the keyspace fails over, the health loop respawns the dead
# shard warm from its journal on the same port, and both shard journals
# replay byte-identically afterwards.
. "$(dirname "$0")/smoke_lib.sh"

"$CLI" router --shards 2 --port 0 --journal-dir "$SCRATCH/shard-journals" \
  > "$SCRATCH/router.log" 2>&1 &
ROUTER_PID=$!
track "$ROUTER_PID"
PORT=$(scripts/wait_ready.sh "$SCRATCH/router.log" "$CLI" client stats)

# Spread load over several instances so both shards own keys.
for i in $(seq 1 8); do
  "$CLI" client simulate --port "$PORT" -n "$((6 + i))" -m 3 \
    --reps 4 --policy greedy --seed "$i" | grep -q '^mean '
done
"$CLI" client stats --port "$PORT" | tee "$SCRATCH/router-stats.out"
grep -q '^router_shards_up 2' "$SCRATCH/router-stats.out"

# The cluster view sums the shards' own counters and nothing else: the
# router's parse-memo misses (it parses every frame it proxies) stay
# under obs.router.*, so the merged figure equals the sum of the
# shards scraped one by one.
memo_misses() {
  awk '$1 == "obs.counter.protocol.instance_memo.misses" { print $2 }'
}
"$CLI" client stats --port "$PORT" --full > "$SCRATCH/router-full.out"
MERGED=$(memo_misses < "$SCRATCH/router-full.out")
SUM=0
for addr in $(awk '$1 ~ /^shard\.[0-9]+\.addr$/ { print $2 }' \
    "$SCRATCH/router-full.out"); do
  N=$("$CLI" client stats --host "${addr%:*}" --port "${addr##*:}" --full \
    | memo_misses)
  SUM=$((SUM + ${N:-0}))
done
if [ "$SUM" -lt 1 ] || [ "${MERGED:-missing}" != "$SUM" ]; then
  echo "smoke_router: merged instance_memo.misses ${MERGED:-missing}" \
    "!= shard sum $SUM" >&2
  exit 1
fi

# The router serves through the server's event loop, so its own
# registry times every request it answers: the 8 routed simulates at
# least, under obs.router.phase.server.request.*.
ROUTED=$(awk '$1 == "obs.router.phase.server.request.count" { print $2 }' \
  "$SCRATCH/router-full.out")
if [ "${ROUTED:-0}" -lt 8 ]; then
  echo "smoke_router: obs.router.phase.server.request.count" \
    "${ROUTED:-missing} < 8" >&2
  exit 1
fi

# kill -9 one shard; retrying clients must still converge.
SHARD_PID=$(sed -n 's/.*shard0 ready at .* (pid \([0-9]*\)).*/\1/p' \
  "$SCRATCH/router.log" | head -n 1)
[ -n "$SHARD_PID" ] || { cat "$SCRATCH/router.log" >&2; exit 1; }
kill -9 "$SHARD_PID"
for i in $(seq 1 8); do
  "$CLI" client simulate --port "$PORT" -n "$((6 + i))" -m 3 \
    --reps 4 --policy greedy --seed "$i" --retries 10 \
    --timeout-ms 1000 | grep -q '^mean '
done

# The health loop must respawn the dead shard warm from its journal and
# bring the cluster back to full strength.
for i in $(seq 1 50); do
  grep -q 'respawned' "$SCRATCH/router.log" && break
  sleep 0.2
done
grep 'respawned' "$SCRATCH/router.log"
for i in $(seq 1 50); do
  "$CLI" client stats --port "$PORT" \
    | grep -q '^router_shards_up 2' && break
  sleep 0.2
done
"$CLI" client stats --port "$PORT" | grep -q '^router_shards_up 2'

kill -INT "$ROUTER_PID"
wait "$ROUTER_PID" 2>/dev/null || true

# Every shard journal is a regression test of its shard.
for j in "$SCRATCH"/shard-journals/*.journal; do
  "$CLI" replay "$j" | tee "$SCRATCH/replay-$(basename "$j").out"
  grep -q ' 0 mismatched' "$SCRATCH/replay-$(basename "$j").out"
done
