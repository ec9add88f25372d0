#!/usr/bin/env bash
# Bench-regression smoke: runs the `stages` bench target and fails if
# a sharded engine is not faster than its serial reference by the
# configured margin — guarding the whole point of the sharded
# execution core. Six guarded edges:
#
#   * stage_synthesize: parallel4 (keyed per-index draws through the
#     compiled address plan, DedupSet screen, presorted set build) vs
#     the straight-line keyed oracle, at the 500k paper scale where
#     the oracle's large hash table thrashes cache;
#   * stage_mine:     parallel4 vs serial (before the PR 3 sharded
#     engine the two were equal because one heavy segment owned the
#     critical path);
#   * stage_train:    parallel4 vs serial (before the PR 4 count-reuse
#     engine, training re-scanned all rows through a HashMap per
#     candidate parent set and was the largest `--full` stage);
#   * stage_generate: parallel4 (compiled sampling plan on the batched
#     scheduler) vs the serial `sample_row` oracle (before PR 5 every
#     draw allocated two Vecs and rescanned CPT weights);
#   * stage_evaluate: parallel4 (sharded sort-merge-join) vs the
#     tree/hash bookkeeping the `--full` evaluate stage used before
#     PR 5;
#   * stage_scan_evaluate: parallel4 (per-shard sort-merge join of
#     the §5.5 scan) vs the `HashSet` reference, on S1 with 1K
#     training addresses and 100K candidates; the join must take at
#     most half the reference's time.
#
# Plus one edge from the `ingest` bench target:
#
#   * stage_ingest: the chunked streaming engine (newline-aligned
#     chunks, SWAR line split, per-chunk sorted runs folded by linear
#     merges) vs the serial one-line-at-a-time oracle, over a
#     2M-line duplicate-heavy corpus. The edge must hold even on a
#     single-CPU host, where it comes purely from doing less work per
#     line — real cores only widen it.
#
# Plus one edge from the `serve` bench target:
#
#   * stage_serve fetch: an LRU hit (lock + tick + Arc clone) must
#     beat a cold registry load (disk read + checksum + container
#     decode + SamplingPlan recompile) — the decoded-model cache is
#     the reason `eip serve` can answer a 16-network fleet at
#     interactive rates.
#
# Plus one edge from the fleet driver itself:
#
#   * stage_fleet: `repro --fleet` (all 16 Table-1 networks end-to-end
#     concurrently on one shared thread budget) vs its own
#     sequential-sum baseline (the same 16 networks solo, one at a
#     time), read back from the BENCH_fleet.json the run writes. The
#     margin is two-regime: on a multi-core host the concurrent fleet
#     must genuinely beat the sequential sum; on a single-CPU host no
#     parallel speedup is physically possible, so the guard instead
#     bounds the scheduling overhead the shared pool is allowed to
#     add.
#
# Usage: tools/bench_guard.sh
#   BENCH_FLEET_MARGIN     required ratio fleet_wall/sequential_sum
#                          (default 0.95 on multi-core hosts — the
#                          concurrent fleet must win; 1.15 when nproc
#                          is 1 — bounded overhead instead)
#   BENCH_FLEET_CANDIDATES fleet guard scale per network
#                          (default 100000; the committed
#                          BENCH_fleet.json uses the paper's 1M)
#   BENCH_SYNTH_MARGIN     required ratio parallel/serial for synthesis
#                          (default 0.9, i.e. >=10% faster)
#   BENCH_MINE_MARGIN      required ratio parallel/serial for mining
#                          (default 0.9, i.e. >=10% faster)
#   BENCH_TRAIN_MARGIN     required ratio parallel/serial for training
#                          (default 1.0, i.e. parallel <= serial)
#   BENCH_GENERATE_MARGIN  required ratio for generation (default 0.9)
#   BENCH_EVALUATE_MARGIN  required ratio for evaluation (default 0.9)
#   BENCH_SCAN_EVALUATE_MARGIN
#                          required ratio parallel/reference for the
#                          scan evaluation (default 0.5)
#   BENCH_INGEST_MARGIN    required ratio streaming/serial for stage-1
#                          ingestion (default 0.95; holds at ~0.90 even
#                          on a one-CPU host)
#   BENCH_SERVE_MARGIN     required ratio lru_hit/cold_load for the
#                          model registry (default 0.5, i.e. a hit
#                          must be at least 2x faster than a cold load)
set -euo pipefail

synth_margin="${BENCH_SYNTH_MARGIN:-0.9}"
mine_margin="${BENCH_MINE_MARGIN:-0.9}"
train_margin="${BENCH_TRAIN_MARGIN:-1.0}"
generate_margin="${BENCH_GENERATE_MARGIN:-0.9}"
evaluate_margin="${BENCH_EVALUATE_MARGIN:-0.9}"
scan_evaluate_margin="${BENCH_SCAN_EVALUATE_MARGIN:-0.5}"
ingest_margin="${BENCH_INGEST_MARGIN:-0.95}"
serve_margin="${BENCH_SERVE_MARGIN:-0.5}"

out="$(cargo bench -p eip_bench --bench stages 2>&1)"
echo "$out"
echo

ingest_out="$(cargo bench -p eip_bench --bench ingest 2>&1)"
echo "$ingest_out"
echo

serve_out="$(cargo bench -p eip_bench --bench serve 2>&1)"
echo "$serve_out"
echo

# check_edge NAME SERIAL_NS PARALLEL_NS MARGIN
check_edge() {
    local name="$1" serial="$2" parallel="$3" margin="$4"
    if [[ -z "$serial" || -z "$parallel" ]]; then
        echo "bench_guard: could not find $name results in bench output" >&2
        exit 1
    fi
    echo "bench_guard: $name serial=${serial} ns/iter," \
         "parallel4=${parallel} ns/iter, required ratio <= ${margin}"
    if awk -v s="$serial" -v p="$parallel" -v m="$margin" 'BEGIN { exit !(p <= s * m) }'; then
        awk -v s="$serial" -v p="$parallel" -v n="$name" \
            'BEGIN { printf "bench_guard: %s OK (ratio %.3f)\n", n, p / s }'
    else
        awk -v s="$serial" -v p="$parallel" -v n="$name" \
            'BEGIN { printf "bench_guard: %s FAIL (ratio %.3f) — sharded path lost its edge\n", n, p / s }' >&2
        exit 1
    fi
}

check_edge stage_synthesize \
    "$(echo "$out" | awk '/bench stage_synthesize\/serial_500000:/ {print $3}')" \
    "$(echo "$out" | awk '/bench stage_synthesize\/parallel4_500000:/ {print $3}')" \
    "$synth_margin"

check_edge stage_mine \
    "$(echo "$out" | awk '/bench stage_mine\/serial_50000:/ {print $3}')" \
    "$(echo "$out" | awk '/bench stage_mine\/parallel4_50000:/ {print $3}')" \
    "$mine_margin"

check_edge stage_train \
    "$(echo "$out" | awk '/bench stage_train\/serial_10000:/ {print $3}')" \
    "$(echo "$out" | awk '/bench stage_train\/parallel4_10000:/ {print $3}')" \
    "$train_margin"

check_edge stage_generate \
    "$(echo "$out" | awk '/bench stage_generate\/serial_10000:/ {print $3}')" \
    "$(echo "$out" | awk '/bench stage_generate\/parallel4_10000:/ {print $3}')" \
    "$generate_margin"

check_edge stage_evaluate \
    "$(echo "$out" | awk '/bench stage_evaluate\/serial_10000:/ {print $3}')" \
    "$(echo "$out" | awk '/bench stage_evaluate\/parallel4_10000:/ {print $3}')" \
    "$evaluate_margin"

check_edge stage_scan_evaluate \
    "$(echo "$out" | awk '/bench stage_scan_evaluate\/reference_100000:/ {print $3}')" \
    "$(echo "$out" | awk '/bench stage_scan_evaluate\/parallel4_100000:/ {print $3}')" \
    "$scan_evaluate_margin"

check_edge stage_ingest \
    "$(echo "$ingest_out" | awk '/bench stage_ingest\/serial_2000000:/ {print $3}')" \
    "$(echo "$ingest_out" | awk '/bench stage_ingest\/parallel4_2000000:/ {print $3}')" \
    "$ingest_margin"

# For the serve edge the "serial" baseline is the cold registry load
# and the "parallel" contender is the LRU hit.
check_edge stage_serve_fetch \
    "$(echo "$serve_out" | awk '/bench stage_serve\/fetch_cold:/ {print $3}')" \
    "$(echo "$serve_out" | awk '/bench stage_serve\/fetch_lru_hit:/ {print $3}')" \
    "$serve_margin"

# The fleet edge: run the concurrent 16-network sweep at guard scale
# and compare its wall-clock against the sequential-sum baseline the
# same run measures. Two-regime margin (see header): real speedup on
# multi-core hosts, bounded overhead on a single CPU.
cores="$(nproc 2>/dev/null || echo 1)"
if [[ -n "${BENCH_FLEET_MARGIN:-}" ]]; then
    fleet_margin="$BENCH_FLEET_MARGIN"
elif [[ "$cores" -gt 1 ]]; then
    fleet_margin="0.95"
else
    fleet_margin="1.15"
    echo "bench_guard: single-CPU host — fleet edge checks bounded" \
         "pool overhead (<= ${fleet_margin}x sequential), not speedup"
fi
fleet_candidates="${BENCH_FLEET_CANDIDATES:-100000}"
fleet_tmp="$(mktemp -d)"
fleet_json="$fleet_tmp/BENCH_fleet.json"
cargo run --release -q -p repro -- --fleet \
    --candidates "$fleet_candidates" --jobs 2 \
    --store-out "$fleet_tmp/models" --bench-out "$fleet_json"
echo

# For the fleet edge the "serial" baseline is the sequential sum and
# the "parallel" contender is the concurrent fleet wall-clock.
check_edge stage_fleet \
    "$(awk -F': ' '/"sequential_sum"/ {gsub(/[ ,]/, "", $2); print $2}' "$fleet_json")" \
    "$(awk -F': ' '/"fleet_wall"/ {gsub(/[ ,]/, "", $2); print $2}' "$fleet_json")" \
    "$fleet_margin"
rm -rf "$fleet_tmp"
