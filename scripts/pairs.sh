#!/usr/bin/env bash
# Alternating parent/change pairs of one perfbench workload: the
# measurement discipline a performance claim in this repo rests on.
#
# Usage: scripts/pairs.sh <workload>|all [pairs=10] [seconds=12]
#
# `all` runs the eight workloads of BENCHMARK.json one after the other
# against one build of each side and ends with one table row apiece —
# the no-regression table a change to shared code owes.
#
# Both sides are exports into one temporary directory, at paths of equal
# length: the parent is `git archive HEAD` in `parent/`, the change is
# the working tree's tracked files plus its untracked, not-ignored ones
# in `change/`. Each side is built there into a CARGO_TARGET_DIR of its
# own, also of equal length. (Built from the working tree itself, the
# change embedded source paths of another length than the parent's, and
# in an A/A run of identical sources the side built as "change" lost 9
# pairs of 10 on cm14-plan-cold, 2.5 % slower.) Every pair runs both
# sides once with BENCHMARK.json's command (`--trace 0`), alternating
# which side goes first; at the end each side's median and quartiles of
# the three end-to-end metrics are printed with the change's win count
# (lower wins, ties count for neither), the quartiles of the per-pair
# change/parent ratio and the two-sided sign-test p-value of the win
# count (ties dropped). The ratio cancels drift that both sides of a
# pair share; the p-value is the chance of a split at least as lopsided
# if neither side were faster (10 pairs: 9 wins read 0.021, 8 read 0.11).
#
# Why separate exports and target directories, instead of `git stash`
# or `git checkout` in place: cargo decides what to rebuild from mtime
# fingerprints, and sources rewound in place can be older than the rlib
# a later state left behind. While sizing the sharded scheduler a
# root-workspace build silently linked a `cuberun` rlib left by an
# unmerged attempt and read 80 ms where perfbench, built from the same
# sources into its own directory, read 230.
#
# Run it on an otherwise idle box, and read the quartiles before the
# medians: on a time-sliced host the spread between runs of one side is
# often wider than the effect.

set -euo pipefail
cd "$(dirname "$0")/.."

workloads=("${1:?usage: scripts/pairs.sh <workload>|all [pairs=10] [seconds=12]}")
if [ "${workloads[0]}" = all ]; then
    workloads=(ipsc6-2d-spt ipsc6-1d-exchange cm16-2d-mpt cm16-spmd-exchange
        ipsc6-convert-alg2 cm14-router cm14-plan-cold cm14-plan-warm)
fi
pairs="${2:-10}"
seconds="${3:-12}"
metrics=(wall_ms setup_s peak_rss_mib)

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir "$work/parent" "$work/change"
git archive HEAD | tar -x -C "$work/parent"
# Tracked files deleted in the working tree are listed but missing:
# skipped, as the change deletes them.
git ls-files -z --cached --others --exclude-standard \
    | tar --null --files-from=- --ignore-failed-read -c 2>/dev/null \
    | tar -x -C "$work/change"

# cargo_in <side> <cargo arguments…>: cargo in that side's export, on
# that side's target directory.
cargo_in() {
    local side="$1"
    shift
    (cd "$work/$side" && CARGO_TARGET_DIR="$work/target-$side" cargo "$@")
}

# run <side> <workload>: one benchmark run; prints the three end-to-end
# metrics on one line.
run() {
    local verdict
    verdict="$(cargo_in "$1" run --release --offline --quiet \
        --manifest-path perfbench/Cargo.toml -- \
        --workload "$2" --seconds "$seconds" --trace 0 | tail -n 1)"
    case "$verdict" in
        *'"correct": true'*'"failed": 0'*) ;;
        *) echo "FAIL: $1 $2: $verdict" >&2; exit 1 ;;
    esac
    for m in "${metrics[@]}"; do
        printf '%s ' "$(sed -E "s/.*\"$m\": \{\"value\": ([0-9.eE+-]+).*/\1/" <<<"$verdict")"
    done
    echo
}

echo "building parent ($(git rev-parse --short HEAD)) and change (working tree) ..."
for side in parent change; do
    cargo_in "$side" build --release --offline --quiet --manifest-path perfbench/Cargo.toml
done

# quartiles <file> <column>: q1 median q3 by linear interpolation.
quartiles() {
    cut -d' ' -f"$2" "$1" | sort -g | awk '
        { v[NR] = $1 }
        function q(p,  pos, lo) {
            pos = (NR - 1) * p + 1; lo = int(pos)
            return lo == NR ? v[NR] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
        }
        END { printf "%.4g %.4g %.4g", q(0.25), q(0.5), q(0.75) }'
}

# sign_p <wins> <losses>: the two-sided sign-test p-value of that split.
sign_p() {
    awk -v w="$1" -v l="$2" 'BEGIN {
        m = w + l; k = w < l ? w : l; c = 1; s = 0
        for (i = 0; i <= k; i++) { s += c; c = c * (m - i) / (i + 1) }
        p = 2 * s / 2 ^ m
        printf "%.3g", (p > 1 ? 1 : p)
    }'
}

# summary <workload> <column>: sets p1 p2 p3 / c1 c2 c3 (each side's
# quartiles of that metric), wins (pairs in which the change read
# lower), r1 r2 r3 (quartiles of the per-pair change/parent ratio) and
# sign (the sign-test p-value of wins against losses).
summary() {
    local both="$work/$1.pairs.txt"
    paste -d' ' "$work/$1.parent.txt" "$work/$1.change.txt" >"$both"
    read -r wins losses <<<"$(awk -v p="$2" -v c="$(($2 + 3))" \
        '$c < $p { w++ } $c > $p { l++ } END { print w + 0, l + 0 }' "$both")"
    read -r p1 p2 p3 <<<"$(quartiles "$work/$1.parent.txt" "$2")"
    read -r c1 c2 c3 <<<"$(quartiles "$work/$1.change.txt" "$2")"
    awk -v p="$2" -v c="$(($2 + 3))" '{ print $c / $p }' "$both" >"$work/$1.ratio.txt"
    read -r r1 r2 r3 <<<"$(quartiles "$work/$1.ratio.txt" 1)"
    sign="$(sign_p "$wins" "$losses")"
}

for workload in "${workloads[@]}"; do
    for ((i = 1; i <= pairs; i++)); do
        if ((i % 2)); then order=(parent change); else order=(change parent); fi
        for side in "${order[@]}"; do
            run "$side" "$workload" >>"$work/$workload.$side.txt"
        done
        echo "$workload pair $i: parent $(tail -n 1 "$work/$workload.parent.txt")|" \
            "change $(tail -n 1 "$work/$workload.change.txt")"
    done

    echo
    echo "$workload: $pairs pairs of ${seconds} s, nproc $(nproc) — q1 / median / q3"
    for c in 1 2 3; do
        summary "$workload" "$c"
        printf '  %-13s parent %s / %s / %s   change %s / %s / %s   change wins %s/%s' \
            "${metrics[c - 1]}" "$p1" "$p2" "$p3" "$c1" "$c2" "$c3" "$wins" "$pairs"
        printf '   ratio %s / %s / %s   sign p %s\n' "$r1" "$r2" "$r3" "$sign"
    done
    echo
done

if ((${#workloads[@]} > 1)); then
    echo "| workload | wall_ms parent q1 / med / q3 | change q1 / med / q3 | wins |" \
        "setup_s med | peak_rss_mib med | wall_ms ratio q1 / med / q3 | sign p |"
    echo "| --- | --- | --- | --- | --- | --- | --- | --- |"
    for workload in "${workloads[@]}"; do
        summary "$workload" 1
        row="| \`$workload\` | $p1 / $p2 / $p3 | $c1 / $c2 / $c3 | $wins/$pairs |"
        ratio=" $r1 / $r2 / $r3 | $sign |"
        for c in 2 3; do
            summary "$workload" "$c"
            row+=" $p2 → $c2 ($wins/$pairs) |"
        done
        echo "$row$ratio"
    done
fi
