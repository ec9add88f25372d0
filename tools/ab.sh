#!/usr/bin/env bash
# A/B comparison of the workspace benchmark (perfbench) between a git
# ref and the working tree.
#
# Builds perfbench twice in release — the ref from `git archive` into
# a temp dir, the working tree into its own target directory
# (perfbench/target, or $CARGO_TARGET_DIR, so an earlier build there is
# reused) — then runs N alternating pairs per workload with `--trace 0`
# (odd pairs run the ref first, even pairs the working tree first).
# For every end-to-end metric of BENCHMARK.json it prints
# the median [q1, q3] of both sides, the change of the medians, and
# in how many pairs the working tree was better (ties count for
# neither side).
#
# It flags, and exits 1 on:
#   * a metric whose working-tree median is worse than the ref's by
#     more than the metric's BENCHMARK.json bound (not with --aa: both
#     sides are the same build, so a breach there is the host's noise;
#     it is marked in the table but not flagged);
#   * any run reporting `correct: false` or a nonzero `failed`;
#   * any run whose `scan_hits` or `new_slash64` differs from the
#     others of its workload (both sides, all pairs).
#
# Usage: tools/ab.sh [--ref REF] [--aa] [--pairs N] [--seconds S]
#                    [--workload NAME]...
#   --ref REF       the A side (default HEAD)
#   --aa            run the working tree against itself (one build):
#                   shows the host's own run-to-run spread
#   --pairs N       alternating pairs per workload (default 10)
#   --seconds S     perfbench run length (default: BENCHMARK.json's
#                   run_seconds)
#   --workload W    a workload to run; repeatable (default: every
#                   workload of BENCHMARK.json)
#
# The temp dir (under $TMPDIR: the ref's build and the raw result
# lines) is removed on exit.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

ref=HEAD
aa=0
pairs=10
seconds=""
workloads=()
while [[ $# -gt 0 ]]; do
    case "$1" in
        --ref) ref="${2:?--ref needs a value}"; shift 2 ;;
        --aa) aa=1; shift ;;
        --pairs) pairs="${2:?--pairs needs a value}"; shift 2 ;;
        --seconds) seconds="${2:?--seconds needs a value}"; shift 2 ;;
        --workload) workloads+=("${2:?--workload needs a value}"); shift 2 ;;
        -h|--help) sed -n '2,36p' "$0"; exit 0 ;;
        *) echo "ab: unknown argument $1" >&2; exit 2 ;;
    esac
done
if ! [[ "$pairs" =~ ^[1-9][0-9]*$ ]]; then
    echo "ab: --pairs needs a positive integer" >&2
    exit 2
fi
read_bench() {
    python3 -c "import json, sys; b = json.load(open('BENCHMARK.json')); $1"
}
[[ -n "$seconds" ]] || seconds="$(read_bench 'print(b["run_seconds"])')"
if [[ ${#workloads[@]} -eq 0 ]]; then
    mapfile -t workloads < <(read_bench 'print("\n".join(w["name"] for w in b["workloads"]))')
fi

tmp="$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT

build() { # build SRC_DIR TARGET_DIR
    CARGO_TARGET_DIR="$2" cargo build --release --offline --quiet \
        --manifest-path "$1/perfbench/Cargo.toml"
}
b_target="${CARGO_TARGET_DIR:-$root/perfbench/target}"
if [[ "$aa" == 1 ]]; then
    a_label="working tree"
    a_target="$b_target"
else
    a_label="$(git rev-parse --short "$ref")"
    echo "ab: building $ref ($a_label)"
    mkdir -p "$tmp/a-src"
    git archive "$ref" | tar -x -C "$tmp/a-src"
    build "$tmp/a-src" "$tmp/a-target"
    a_target="$tmp/a-target"
fi
echo "ab: building the working tree"
build "$root" "$b_target"

run() { # run SIDE TARGET WORKLOAD PAIR
    local out
    # Each run's scratch files go under its own side's target dir.
    out="$(CARGO_TARGET_DIR="$2" "$2/release/perfbench" \
        --workload "$3" --seconds "$seconds" --trace 0)"
    tail -n 1 <<<"$out" >"$tmp/results/$3.$1.$4.json"
}
mkdir -p "$tmp/results"
for w in "${workloads[@]}"; do
    for ((i = 1; i <= pairs; i++)); do
        echo "ab: $w pair $i/$pairs"
        if ((i % 2)); then
            run a "$a_target" "$w" "$i"
            run b "$b_target" "$w" "$i"
        else
            run b "$b_target" "$w" "$i"
            run a "$a_target" "$w" "$i"
        fi
    done
done

python3 - "$tmp/results" "$pairs" "$a_label" "$aa" "${workloads[@]}" <<'EOF'
import json, statistics, sys

results, pairs, a_label = sys.argv[1], int(sys.argv[2]), sys.argv[3]
aa, workloads = sys.argv[4] == "1", sys.argv[5:]
bench = json.load(open("BENCHMARK.json"))
flags = []

def load(w, side, i):
    return json.load(open(f"{results}/{w}.{side}.{i}.json"))

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

def fmt(x):
    return f"{x:.6g}"

def spread(xs):
    q1, q3 = quartiles(xs)
    return f"{fmt(statistics.median(xs))} [{fmt(q1)}, {fmt(q3)}]"

for w in workloads:
    runs = {s: [load(w, s, i) for i in range(1, pairs + 1)] for s in "ab"}
    print(f"\n== {w}: A = {a_label}, B = working tree, {pairs} pairs ==")
    rows = [("metric", "A median [q1, q3]", "B median [q1, q3]", "change", "B wins")]
    for side, rs in runs.items():
        for i, r in enumerate(rs, 1):
            if not r["correct"] or r["failed"] != 0:
                flags.append(f"{w}: side {side.upper()} pair {i}: correct={r['correct']} failed={r['failed']}")
    for key in ("scan_hits", "new_slash64"):
        seen = {r["metrics"][key]["value"] for rs in runs.values() for r in rs}
        if len(seen) > 1:
            flags.append(f"{w}: {key} differs between runs: {sorted(seen)}")
    for m in bench["end_to_end"]:
        name, better, bound = m["name"], m["better"], m["bound"]
        a = [r["metrics"][name]["value"] for r in runs["a"]]
        b = [r["metrics"][name]["value"] for r in runs["b"]]
        sign = 1 if better == "higher" else -1
        wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
        ma, mb = statistics.median(a), statistics.median(b)
        change = (mb - ma) / ma if ma else 0.0
        mark = ""
        if -sign * change > bound and aa:
            mark = "  <- past bound (A/A spread, not flagged)"
        elif -sign * change > bound:
            mark = "  <- past bound"
            flags.append(f"{w}: {name} median {fmt(ma)} -> {fmt(mb)} ({change:+.1%}) is worse than its bound {bound:.0%}")
        rows.append((name, spread(a), spread(b), f"{change:+.1%}", f"{wins}/{pairs}{mark}"))
    widths = [max(len(r[c]) for r in rows) for c in range(4)]
    for r in rows:
        print("  ".join(r[c].ljust(widths[c]) if c == 0 else r[c].rjust(widths[c]) for c in range(4)) + "  " + r[4])

print()
if flags:
    for f in flags:
        print(f"ab: FLAG {f}")
    sys.exit(1)
print("ab: no flags")
EOF
