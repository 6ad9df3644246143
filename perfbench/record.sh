#!/usr/bin/env bash
# Records paired result sets of two checkouts for `perfbench compare`.
#
#   perfbench/record.sh <parent-checkout> <change-checkout> <out-dir> [seed ...]
#
# For every seed (default 1..10) and workload it runs the benchmark once
# in each checkout, alternating which side goes first, untraced and then
# traced, and appends the result lines to
# <out-dir>/{parent,change}/<workload>.jsonl and .trace.jsonl (the full
# output, with the host and build record, goes to the matching .log).
# Then:
#
#   (cd <change-checkout> && cargo run --quiet --offline --release \
#       --manifest-path perfbench/Cargo.toml -- compare <out-dir>/parent <out-dir>/change)
set -euo pipefail
[ $# -ge 3 ] || { sed -n '2,14p' "$0"; exit 2; }
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
mkdir -p "$3/parent" "$3/change"
out=$(cd "$3" && pwd)
shift 3
seeds=("$@")
[ ${#seeds[@]} -gt 0 ] || seeds=(1 2 3 4 5 6 7 8 9 10)

read -r secs workloads < <(python3 -c '
import json, sys
b = json.load(open(sys.argv[1]))
print(b["run_seconds"], " ".join(w["name"] for w in b["workloads"]))
' "$change/BENCHMARK.json")

run() { # <checkout> <side> <workload> <seed> <trace>
    local suffix=.jsonl
    [ "$5" = 1 ] && suffix=.trace.jsonl
    (cd "$1" && cargo run --quiet --offline --release --manifest-path perfbench/Cargo.toml -- \
        --workload "$3" --seed "$4" --seconds "$secs" --trace "$5") |
        tee -a "$out/$2/$3$suffix.log" | tail -n 1 >>"$out/$2/$3$suffix"
}

i=0
for seed in "${seeds[@]}"; do
    for w in $workloads; do
        for trace in 0 1; do
            if [ $((i % 2)) -eq 0 ]; then
                run "$parent" parent "$w" "$seed" "$trace"
                run "$change" change "$w" "$seed" "$trace"
            else
                run "$change" change "$w" "$seed" "$trace"
                run "$parent" parent "$w" "$seed" "$trace"
            fi
        done
    done
    i=$((i + 1))
done
