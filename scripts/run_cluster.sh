#!/usr/bin/env bash
# Multi-process cluster smoke: keygen -> n scabd processes (durability =
# fsync, so every replica keeps a WAL + snapshots on disk) -> three
# scab-client phases with a kill -9 + restart in between -> metrics dumps
# validated with scab-metrics-check -> a full-cluster power loss (kill -9
# of EVERY replica mid-traffic, restart all from their data directories).
#
# Asserts, end to end over real TCP:
#   * every phase's ops commit (no loss; scab-client exits non-zero on
#     an incomplete closed loop);
#   * a surviving replica executed EXACTLY the total op count (no
#     duplication — replica-side dedup would be the broken piece);
#   * the kill -9'd replica, restarted as a fresh process, caught up via
#     the checkpoint protocol (bft.recovery.catchups_completed >= 1) and
#     converged to the same executed count;
#   * after the power loss, every replica recovered from snapshot + WAL
#     (bft.recovery.snapshot_loaded >= 1, required_durability section) and
#     converged to EXACTLY the grand-total count — nothing lost, nothing
#     re-executed;
#   * every dump is schema-valid JSON (required_daemon section).
#
# Env knobs: BUILD (build dir, default ./build), PROTOCOL (default cp0),
# F (default 1), SEED, BASE_PORT (default: randomized in 20000..32499, below
# the Linux ephemeral range, so an outgoing socket cannot already hold it).
# Exit 77 = sockets unavailable in this environment (ctest SKIP).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${BUILD:-build}"
BIN="$BUILD/src/daemon"
PROTOCOL="${PROTOCOL:-cp0}"
F="${F:-1}"
N=$((3 * F + 1))
SEED="${SEED:-42}"
BASE_PORT="${BASE_PORT:-$((20000 + RANDOM % 12500))}"
OPS_A=20 OPS_B=20 OPS_C=40 OPS_D=60
TOTAL=$((OPS_A + OPS_B + OPS_C))
GRAND_TOTAL=$((TOTAL + OPS_D))
# CP1 runs each logical op as two BFT requests (commit + reveal).
EXPECTED=$TOTAL
EXPECTED_D=$GRAND_TOTAL
if [ "$PROTOCOL" = "cp1" ]; then
  EXPECTED=$((2 * TOTAL))
  EXPECTED_D=$((2 * GRAND_TOTAL))
fi

for tool in scabd scab-client scab-keygen scab-metrics-check; do
  if [ ! -x "$BIN/$tool" ]; then
    echo "run_cluster: $BIN/$tool not built (cmake --build --preset default)" >&2
    exit 1
  fi
done

"$BIN/scabd" --probe || exit 77

DIR="$(mktemp -d)"
declare -a PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$DIR"
}
trap cleanup EXIT

# durability=fsync + a data dir: replicas WAL every acceptance/execution
# and snapshot at stable checkpoints, which is what phase D recovers from.
"$BIN/scab-keygen" --f "$F" --protocol "$PROTOCOL" --seed "$SEED" \
  --base-port "$BASE_PORT" --clients 4 --checkpoint-interval 8 \
  --durability fsync --data-dir data --out "$DIR"

start_replica() {
  local i=$1
  "$BIN/scabd" --config "$DIR/cluster.conf" --replica "$i" \
    --metrics-out "$DIR/metrics-$i.json" 2>>"$DIR/scabd-$i.log" &
  PIDS[$i]=$!
}

for i in $(seq 0 $((N - 1))); do start_replica "$i"; done
sleep 0.5
for i in $(seq 0 $((N - 1))); do
  if ! kill -0 "${PIDS[$i]}" 2>/dev/null; then
    echo "run_cluster: replica $i died at startup:" >&2
    cat "$DIR/scabd-$i.log" >&2
    # A bind failure on the randomized port range most likely means the
    # sandbox forbids sockets (the --probe above passed, so a plain port
    # clash is possible but rare); treat as a hard failure, not a skip —
    # the probe is the skip oracle.
    exit 1
  fi
done

run_client() { # <id> <ops>
  "$BIN/scab-client" --config "$DIR/cluster.conf" --id "$1" --ops "$2" \
    --timeout-s 120
}

echo "== phase A: $OPS_A ops against the full cluster"
run_client 100 "$OPS_A"

echo "== phase B: kill -9 replica $((N - 1)), $OPS_B ops with one replica down"
kill -9 "${PIDS[$((N - 1))]}"
run_client 101 "$OPS_B"

echo "== phase C: restart replica $((N - 1)), $OPS_C ops"
start_replica $((N - 1))
run_client 102 "$OPS_C"

echo "== validating metrics dumps"
# The restarted replica finishes catch-up asynchronously; poll its dump.
CAUGHT_UP=0
for attempt in $(seq 1 40); do
  kill -USR1 "${PIDS[$((N - 1))]}" 2>/dev/null || true
  sleep 0.25
  if [ -f "$DIR/metrics-$((N - 1)).json" ] &&
     "$BIN/scab-metrics-check" "$DIR/metrics-$((N - 1)).json" \
       --schema bench/metrics_schema.json --section required_daemon \
       --min metrics/counters/bft.recovery.catchups_completed=1 \
       >/dev/null 2>&1; then
    CAUGHT_UP=1
    break
  fi
done
if [ "$CAUGHT_UP" != 1 ]; then
  echo "run_cluster: restarted replica never completed a checkpoint catch-up" >&2
  "$BIN/scab-metrics-check" "$DIR/metrics-$((N - 1)).json" \
    --schema bench/metrics_schema.json --section required_daemon \
    --min metrics/counters/bft.recovery.catchups_completed=1 || true
  exit 1
fi
"$BIN/scab-metrics-check" "$DIR/metrics-$((N - 1)).json" \
  --schema bench/metrics_schema.json --section required_daemon \
  --min metrics/histograms/bft.recovery.catchup_ms/count=1

# Survivors: exact execution count = no lost and no duplicated requests.
for i in $(seq 0 $((N - 2))); do
  kill -USR1 "${PIDS[$i]}"
done
sleep 0.5
for i in $(seq 0 $((N - 2))); do
  "$BIN/scab-metrics-check" "$DIR/metrics-$i.json" \
    --schema bench/metrics_schema.json --section required_daemon \
    --eq metrics/counters/bft.requests_executed=$EXPECTED
done

echo "== phase D: power loss — kill -9 ALL replicas mid-traffic, restart all"
# The client keeps retrying across the outage; the replicas come back as
# brand-new processes whose only state is the data directory.
"$BIN/scab-client" --config "$DIR/cluster.conf" --id 103 --ops "$OPS_D" \
  --timeout-s 120 &
CLIENT_PID=$!
sleep 0.3
for i in $(seq 0 $((N - 1))); do kill -9 "${PIDS[$i]}" 2>/dev/null || true; done
sleep 0.5
for i in $(seq 0 $((N - 1))); do start_replica "$i"; done
if ! wait "$CLIENT_PID"; then
  echo "run_cluster: phase D client did not complete after the power loss" >&2
  exit 1
fi

# Every replica must converge to EXACTLY the grand total (fewer = loss,
# more = re-execution after recovery) having loaded its snapshot, with the
# durability instruments present (required_durability section).  Laggards
# finish WAL replay + catch-up asynchronously; poll like phase C.
for i in $(seq 0 $((N - 1))); do
  RECOVERED=0
  for attempt in $(seq 1 40); do
    kill -USR1 "${PIDS[$i]}" 2>/dev/null || true
    sleep 0.25
    if "$BIN/scab-metrics-check" "$DIR/metrics-$i.json" \
         --schema bench/metrics_schema.json --section required_durability \
         --eq metrics/counters/bft.requests_executed=$EXPECTED_D \
         --min metrics/counters/bft.recovery.snapshot_loaded=1 \
         >/dev/null 2>&1; then
      RECOVERED=1
      break
    fi
  done
  if [ "$RECOVERED" != 1 ]; then
    echo "run_cluster: replica $i did not recover exactly after the power loss" >&2
    "$BIN/scab-metrics-check" "$DIR/metrics-$i.json" \
      --schema bench/metrics_schema.json --section required_durability \
      --eq metrics/counters/bft.requests_executed=$EXPECTED_D \
      --min metrics/counters/bft.recovery.snapshot_loaded=1 || true
    exit 1
  fi
done

echo "== clean shutdown"
for i in $(seq 0 $((N - 1))); do kill -TERM "${PIDS[$i]}" 2>/dev/null || true; done
for i in $(seq 0 $((N - 1))); do
  if ! wait "${PIDS[$i]}"; then
    echo "run_cluster: replica $i did not exit cleanly on SIGTERM" >&2
    exit 1
  fi
done
PIDS=()

echo "run_cluster: OK — $GRAND_TOTAL ops, kill -9 + restart + catch-up + full-cluster power loss, protocol $PROTOCOL, n=$N"
