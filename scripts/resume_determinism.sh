#!/usr/bin/env bash
# CI gate: a killed-mid-run campaign, resumed from its checkpoint, must
# export byte-identical JSON to an uninterrupted run of the same seed.
#
# Local backend (default) flow: (1) run the reference campaign to
# completion; (2) run the same campaign with --checkpoint-every and
# SIGTERM it mid-run (expect exit 75, the EX_TEMPFAIL "rerun with
# --resume" code); (3) --resume it to completion; (4) byte-compare the
# two export files. A second leg replaces the SIGTERM with SIGKILL
# once a periodic checkpoint is on disk: no interrupt save is written,
# so the resume starts from the last loop blob whose link committed. A
# third leg repeats (2)-(4) with the infrastructure fault plane switched
# on (--io-chaos-level): kill-and-resume under injected I/O faults must
# still reproduce the fault-free reference byte for byte.
#
# Fleet backend (CMFUZZ_RD_BACKEND=fleet) flow: the same gate through
# the distributed control plane. The reference is the identical grid on
# the in-process pool (`repro fleet submit --backend local`); the kill
# leg starts a coordinator plus one worker agent, submits the grid with
# checkpointing, SIGKILLs the agent mid-cell, starts a replacement
# agent over the same shared cache (so the re-leased cell resumes from
# its checkpoint), and byte-compares the merged fleet export against
# the local reference. The io-storm leg repeats it with the fault
# plane on inside every cell.
#
# The scheduler under test and the campaign length are parameterized so
# CI can drive every registered mode and both backends through the gate:
#   CMFUZZ_RD_MODE     mode name (default: cmfuzz)
#   CMFUZZ_RD_HOURS    simulated campaign hours (default: 48); raise it
#                      for fast modes so the campaign outlives the 2s
#                      kill delay
#   CMFUZZ_RD_BACKEND  'local' (default) or 'fleet'
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}

MODE=${CMFUZZ_RD_MODE:-cmfuzz}
HOURS=${CMFUZZ_RD_HOURS:-48}
BACKEND=${CMFUZZ_RD_BACKEND:-local}

WORK=$(mktemp -d)
CLEANUP_PIDS=()
cleanup() {
    for pid in "${CLEANUP_PIDS[@]:-}"; do
        kill "$pid" 2>/dev/null || true
    done
    rm -rf "$WORK"
}
trap cleanup EXIT

# ---------------------------------------------------------------------------
# Local backend: SIGTERM the campaign process, --resume it.
# ---------------------------------------------------------------------------

ARGS=(campaign --target dnsmasq --mode "$MODE" --instances 4
      --hours "$HOURS" --seed 7 --no-cache --checkpoint-every 1800)

# kill_and_resume <label> <cache-dir> <export-path> [extra flags...]
# Starts the campaign, SIGTERMs it after 2s (expects exit 75), then
# resumes it to completion into the same export path.
kill_and_resume() {
    local label=$1 cache=$2 export_path=$3
    shift 3

    echo "== $label: checkpointing run, killed mid-campaign"
    CMFUZZ_CACHE_DIR="$cache" python -m repro "${ARGS[@]}" "$@" \
        --export "$export_path" &
    local pid=$!
    sleep 2
    kill -TERM "$pid" 2>/dev/null || true
    set +e
    wait "$pid"
    local code=$?
    set -e
    if [ "$code" -ne 75 ]; then
        echo "FAIL: expected interrupt exit code 75, got $code" >&2
        echo "(the campaign may have finished before the SIGTERM landed;" >&2
        echo " raise --hours or shorten the sleep)" >&2
        exit 1
    fi

    echo "== $label: resumed run"
    CMFUZZ_CACHE_DIR="$cache" python -m repro "${ARGS[@]}" "$@" \
        --resume --export "$export_path"
}

# sigkill_and_resume <label> <cache-dir> <export-path>
# Starts the campaign, waits for its first periodic checkpoint, SIGKILLs
# it (expects exit 137: no interrupt save), then resumes it to
# completion into the same export path.
sigkill_and_resume() {
    local label=$1 cache=$2 export_path=$3

    echo "== $label: checkpointing run, SIGKILLed mid-campaign"
    CMFUZZ_CACHE_DIR="$cache" python -m repro "${ARGS[@]}" \
        --export "$export_path" &
    local pid=$!
    until compgen -G "$cache/checkpoints/*/ckpt-*.pkl" > /dev/null; do
        if ! kill -0 "$pid" 2>/dev/null; then
            echo "FAIL: the campaign ended before its first checkpoint" >&2
            exit 1
        fi
        sleep 0.1
    done
    sleep 0.5
    kill -KILL "$pid" 2>/dev/null || true
    set +e
    wait "$pid"
    local code=$?
    set -e
    if [ "$code" -ne 137 ]; then
        echo "FAIL: expected SIGKILL exit code 137, got $code" >&2
        echo "(the campaign may have finished before the SIGKILL landed;" >&2
        echo " raise --hours)" >&2
        exit 1
    fi

    echo "== $label: resumed from the last periodic checkpoint"
    CMFUZZ_CACHE_DIR="$cache" python -m repro "${ARGS[@]}" \
        --resume --export "$export_path"
}

run_local_gate() {
    echo "== uninterrupted reference run"
    CMFUZZ_CACHE_DIR="$WORK/cache-ref" python -m repro "${ARGS[@]}" \
        --export "$WORK/reference.json"

    kill_and_resume "plain" "$WORK/cache-resume" "$WORK/resumed.json"

    echo "== byte-comparing exports"
    if ! diff "$WORK/reference.json" "$WORK/resumed.json"; then
        echo "FAIL: resumed export differs from the uninterrupted run" >&2
        exit 1
    fi
    echo "resume determinism: OK (exports byte-identical)"

    sigkill_and_resume "sigkill" "$WORK/cache-sigkill" "$WORK/sigkilled.json"

    echo "== byte-comparing the SIGKILL-resumed export against the reference"
    if ! diff "$WORK/reference.json" "$WORK/sigkilled.json"; then
        echo "FAIL: resume after SIGKILL differs from the uninterrupted run" >&2
        exit 1
    fi
    echo "resume determinism after SIGKILL: OK (exports byte-identical)"

    kill_and_resume "io-storm" "$WORK/cache-storm" "$WORK/stormed.json" \
        --io-chaos-level 0.3 --io-chaos-seed 7

    echo "== byte-comparing the under-faults export against the reference"
    if ! diff "$WORK/reference.json" "$WORK/stormed.json"; then
        echo "FAIL: resume under I/O faults differs from the fault-free run" >&2
        exit 1
    fi
    echo "resume determinism under faults: OK (exports byte-identical)"
}

# ---------------------------------------------------------------------------
# Fleet backend: SIGKILL the worker agent, a replacement resumes.
# ---------------------------------------------------------------------------

FLEET_PORT=${CMFUZZ_RD_FLEET_PORT:-48731}
COORD="http://127.0.0.1:$FLEET_PORT"
SUBMIT=(fleet submit --target dnsmasq --mode "$MODE" --instances 4
        --hours "$HOURS" --seed 7 --checkpoint-every 1800)

# fleet_kill_and_resume <label> <cache-dir> <export-path> [extra flags...]
# Submits the grid against a coordinator with one agent, SIGKILLs the
# agent mid-cell, starts a replacement over the same cache and waits
# for the merged export.
fleet_kill_and_resume() {
    local label=$1 cache=$2 export_path=$3
    shift 3

    echo "== $label: fleet run, agent SIGKILLed mid-cell"
    CMFUZZ_CACHE_DIR="$cache" python -m repro fleet agent \
        --coordinator "$COORD" --name victim &
    local victim=$!
    CLEANUP_PIDS+=("$victim")

    python -m repro "${SUBMIT[@]}" "$@" --coordinator "$COORD" \
        --timeout 600 --label "$label" --export "$export_path" &
    local submit=$!
    CLEANUP_PIDS+=("$submit")

    sleep 2
    kill -KILL "$victim" 2>/dev/null || true

    echo "== $label: replacement agent resumes the orphaned lease"
    CMFUZZ_CACHE_DIR="$cache" python -m repro fleet agent \
        --coordinator "$COORD" --name replacement &
    local replacement=$!
    CLEANUP_PIDS+=("$replacement")

    wait "$submit"
    kill "$replacement" 2>/dev/null || true
}

run_fleet_gate() {
    echo "== fleet reference: identical grid on the in-process pool"
    CMFUZZ_CACHE_DIR="$WORK/cache-ref" python -m repro "${SUBMIT[@]}" \
        --backend local --workers 2 --export "$WORK/reference.json"

    echo "== starting coordinator on $COORD"
    # A tight lease TTL so the murdered agent's lease expires fast.
    python -m repro fleet coordinator --port "$FLEET_PORT" \
        --lease-ttl 8 --heartbeat-interval 2 &
    CLEANUP_PIDS+=("$!")

    fleet_kill_and_resume "fleet-plain" "$WORK/cache-fleet" \
        "$WORK/fleet.json"

    echo "== byte-comparing the fleet export against the local reference"
    if ! diff "$WORK/reference.json" "$WORK/fleet.json"; then
        echo "FAIL: fleet export differs from the local pool run" >&2
        exit 1
    fi
    echo "fleet resume determinism: OK (exports byte-identical)"

    fleet_kill_and_resume "fleet-io-storm" "$WORK/cache-fleet-storm" \
        "$WORK/fleet-stormed.json" --io-chaos-level 0.3 --io-chaos-seed 7

    echo "== byte-comparing the under-faults fleet export"
    if ! diff "$WORK/reference.json" "$WORK/fleet-stormed.json"; then
        echo "FAIL: fleet resume under I/O faults differs" >&2
        exit 1
    fi
    echo "fleet resume determinism under faults: OK (exports byte-identical)"
}

case "$BACKEND" in
    local) run_local_gate ;;
    fleet) run_fleet_gate ;;
    *)
        echo "FAIL: unknown CMFUZZ_RD_BACKEND '$BACKEND' (local|fleet)" >&2
        exit 2
        ;;
esac
