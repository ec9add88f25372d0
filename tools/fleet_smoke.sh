#!/usr/bin/env bash
# End-to-end smoke for the fleet pipeline: run `repro --fleet` at toy
# scale (all 16 Table-1 networks concurrently on one shared thread
# budget), assert one persisted .eipm per network, boot
# `eip serve` over the populated store, and byte-diff pinned-seed GEN
# batches from three networks against `eip generate --model-in` on
# the same containers — the fleet-train-once/serve-anywhere
# determinism contract, checked over a real socket. Also asserts the
# STATS residency gauges (`networks 16`, `models_resident`,
# per-model `model <id>` lines) so servability is observable, not
# assumed. Exits non-zero on any drift.
#
# Usage: tools/fleet_smoke.sh [workdir]   (default: a fresh temp dir)
set -euo pipefail

eip="target/release/eip"
repro="target/release/repro"
if [[ ! -x "$eip" || ! -x "$repro" ]]; then
    cargo build --release -p repro
fi

work="${1:-$(mktemp -d /tmp/eip_fleet_smoke.XXXXXX)}"
echo "fleet_smoke: working in $work"

# The concurrent fleet at smoke scale: 16 networks, shared budget,
# models persisted into one store, byte-identity vs the solo serial
# baseline asserted inside the run itself.
"$repro" --fleet --candidates 2000 --jobs 2 \
    --store-out "$work/models" --bench-out "$work/fleet.json" \
    | tee "$work/fleet.log"

count="$(ls "$work/models"/*.eipm | wc -l)"
if [[ "$count" -ne 16 ]]; then
    echo "fleet_smoke: expected 16 persisted models, found $count" >&2
    exit 1
fi
echo "fleet_smoke: 16 models persisted"

# Boot the daemon over the fleet store on an ephemeral port.
"$eip" serve "$work/models" --port 0 > "$work/serve.log" 2>&1 &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true' EXIT
addr=""
for _ in $(seq 100); do
    addr="$(awk '/^listening on / {print $3}' "$work/serve.log" || true)"
    [[ -n "$addr" ]] && break
    sleep 0.1
done
if [[ -z "$addr" ]]; then
    echo "fleet_smoke: daemon never reported its address" >&2
    cat "$work/serve.log" >&2
    exit 1
fi
echo "fleet_smoke: daemon at $addr"

# The store must advertise the whole fleet before anything is loaded.
"$eip" query "$addr" STATS > "$work/stats0.txt"
grep -q "^networks 16$" "$work/stats0.txt" \
    || { echo "fleet_smoke: daemon does not see all 16 networks" >&2; cat "$work/stats0.txt" >&2; exit 1; }

# Pinned-seed GEN from three networks across the families, each
# byte-diffed against the offline CLI over the same container.
for net in S1 R2 C3; do
    "$eip" generate --model-in "$work/models/$net.eipm" -n 50 --seed 7 > "$work/$net.expected.txt"
    "$eip" query "$addr" "GEN $net 50 seed=7" > "$work/$net.gen.txt"
    head -1 "$work/$net.gen.txt" | grep -q "^OK GEN $net 50 seed=7" \
        || { echo "fleet_smoke: unexpected GEN header for $net" >&2; cat "$work/$net.gen.txt" >&2; exit 1; }
    tail -n +2 "$work/$net.gen.txt" > "$work/$net.got.txt"
    diff -u "$work/$net.expected.txt" "$work/$net.got.txt" \
        || { echo "fleet_smoke: $net GEN batch drifted from eip generate --model-in" >&2; exit 1; }
    echo "fleet_smoke: $net GEN batch byte-identical to offline generate"
done

# Residency gauges: the three models just exercised must be resident
# and individually listed.
"$eip" query "$addr" STATS > "$work/stats1.txt"
grep -q "^models_resident 3$" "$work/stats1.txt" \
    || { echo "fleet_smoke: models_resident gauge wrong" >&2; cat "$work/stats1.txt" >&2; exit 1; }
for net in S1 R2 C3; do
    grep -q "^model $net$" "$work/stats1.txt" \
        || { echo "fleet_smoke: $net not reported resident" >&2; cat "$work/stats1.txt" >&2; exit 1; }
done
echo "fleet_smoke: residency gauges report all three served models"

kill "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
trap - EXIT
echo "fleet_smoke: OK"
