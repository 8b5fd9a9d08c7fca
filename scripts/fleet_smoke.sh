#!/usr/bin/env bash
# CI gate: the distributed control plane survives an agent murder and
# still produces the exact bytes of the local pool.
#
# Flow: start a coordinator and two worker agents sharing one result/
# checkpoint cache; submit a three-cell campaign grid with
# checkpointing; SIGKILL one agent mid-cell (its heartbeats stop, its
# lease expires after the lease TTL, and the survivor leases the
# orphaned cell and resumes it from the shared checkpoint); then run
# the identical grid on the in-process pool (`repro fleet submit
# --backend local --workers 2`) and byte-compare the two merged
# exports. Also exercises the status/roster surface so
# the observability endpoints stay honest.
#
# Knobs:
#   CMFUZZ_FLEET_PORT   coordinator port (default: 48712)
#   CMFUZZ_FLEET_HOURS  simulated hours per campaign (default: 48);
#                       must keep one cell running past the 2s kill
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}

PORT=${CMFUZZ_FLEET_PORT:-48712}
HOURS=${CMFUZZ_FLEET_HOURS:-48}
COORD="http://127.0.0.1:$PORT"

WORK=$(mktemp -d)
CLEANUP_PIDS=()
cleanup() {
    for pid in "${CLEANUP_PIDS[@]:-}"; do
        kill "$pid" 2>/dev/null || true
    done
    rm -rf "$WORK"
}
trap cleanup EXIT

SUBMIT=(fleet submit --target dnsmasq --mode cmfuzz --repetitions 3
        --instances 4 --hours "$HOURS" --seed 7 --checkpoint-every 1800)

echo "== coordinator on $COORD (tight lease TTL so the murder is cheap)"
python -m repro fleet coordinator --port "$PORT" \
    --lease-ttl 8 --heartbeat-interval 2 &
CLEANUP_PIDS+=("$!")

echo "== two agents over one shared cache"
CMFUZZ_CACHE_DIR="$WORK/cache-fleet" python -m repro fleet agent \
    --coordinator "$COORD" --name smoke-victim &
VICTIM=$!
CLEANUP_PIDS+=("$VICTIM")
CMFUZZ_CACHE_DIR="$WORK/cache-fleet" python -m repro fleet agent \
    --coordinator "$COORD" --name smoke-survivor &
CLEANUP_PIDS+=("$!")

echo "== submitting the grid"
python -m repro "${SUBMIT[@]}" --coordinator "$COORD" --timeout 900 \
    --label smoke --export "$WORK/fleet.json" &
SUBMIT_PID=$!
CLEANUP_PIDS+=("$SUBMIT_PID")

sleep 2
echo "== SIGKILLing one agent mid-cell"
kill -KILL "$VICTIM" 2>/dev/null || true

wait "$SUBMIT_PID"

echo "== roster and session status after the murder"
python -m repro fleet status --coordinator "$COORD"

echo "== identical grid on the in-process pool (workers=2)"
CMFUZZ_CACHE_DIR="$WORK/cache-local" python -m repro "${SUBMIT[@]}" \
    --backend local --workers 2 --export "$WORK/local.json"

echo "== byte-comparing the two exports"
if ! cmp "$WORK/fleet.json" "$WORK/local.json"; then
    echo "FAIL: fleet export differs from the local pool export" >&2
    exit 1
fi
echo "fleet smoke: OK (agent murdered, exports byte-identical)"
