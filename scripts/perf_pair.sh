#!/usr/bin/env bash
# Alternating same-seed A/B of two prebuilt `perf` binaries on one workload:
# the measurement every host-time claim against a parent commit rests on.
#
# Usage:
#   scripts/perf_pair.sh <bin-a> <bin-b> <workload> [pairs] [seed]
#
# Build each side's benchmark first (`cargo build --release --offline
# --manifest-path perf/Cargo.toml` in each checkout) and pass the two
# `perf/target/release/perf` paths; A is the baseline, B the candidate.
# Each pair runs `perf run --workload W --seed S --seconds 10 --trace 0`
# once with each binary (default 10 pairs, seed 1), A first in odd pairs
# and B first in even ones, so slow drift of a shared box hits both sides
# alike.
#
# Run it with ASLR on, not under `setarch -R`: each run then draws its own
# address layout, so both sides are sampled over many layouts. With ASLR
# off each binary keeps one layout, and a change that only moves code reads
# as a steady shift: 1.07× under `setarch -R` against 1.04× with ASLR on,
# for the same two binaries.
#
# Prints, per end-to-end metric, each side's median and quartiles, the B/A
# ratio of medians, A's interquartile range, k/n: the pairs in which B did
# better (every end-to-end metric is lower-is-better; ties count for
# neither side), and a verdict by the pairing rule: "gain" when B wins at
# least nine tenths of the pairs and its median is below A's by more than
# A's IQR, "loss" for the same with the sides swapped, "-" otherwise.
# Then every pair of each metric that varies between runs, parent first.
# Exits 1 when a run fails, or when any `virt_*` metric,
# `stored_mb_per_gen`, `attempted`, `failed` or `correct` differs between
# any two runs — these repeat bit-exactly per seed, so such a difference
# is a behaviour change, not noise.
set -euo pipefail

if [[ $# -lt 3 || $# -gt 5 ]]; then
    sed -n '5,6p' "$0" | sed 's/^# *//' >&2
    exit 2
fi
A="$1"
B="$2"
WORKLOAD="$3"
PAIRS="${4:-10}"
SEED="${5:-1}"
for bin in "$A" "$B"; do
    [[ -x "$bin" ]] || { echo "perf_pair: '$bin' is not an executable" >&2; exit 2; }
done

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

for ((i = 1; i <= PAIRS; i++)); do
    order="A B"
    ((i % 2)) || order="B A"
    for side in $order; do
        bin="$A"
        [[ "$side" == B ]] && bin="$B"
        if ! line="$("$bin" run --workload "$WORKLOAD" --seed "$SEED" --seconds 10 \
            --trace 0 --out "$out/perf" 2>/dev/null | tail -n 1)"; then
            echo "perf_pair: $side run $i failed" >&2
            exit 1
        fi
        echo "$side $line" >>"$out/runs"
        echo "pair $i/$PAIRS $side done" >&2
    done
done

# One line per run: the side, then the run's JSON result. Flatten the
# `"name":{"value":x` pairs and the top-level scalars with awk.
awk -v pairs="$PAIRS" '
    # Linear-interpolated quantile q of arr[1..n] (q = 0.5: the median).
    function quantile(arr, n, q,    tmp, i, j, t, pos, lo) {
        for (i = 1; i <= n; i++) tmp[i] = arr[i]
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && tmp[j - 1] > tmp[j]; j--) {
                t = tmp[j]; tmp[j] = tmp[j - 1]; tmp[j - 1] = t
            }
        pos = 1 + (n - 1) * q
        lo = int(pos)
        return lo >= n ? tmp[n] : tmp[lo] + (pos - lo) * (tmp[lo + 1] - tmp[lo])
    }
    {
        side = $1
        run = ++count[side]
        line = substr($0, 3)
        while (match(line, /"[a-z_]+":\{"value":[-0-9.eE+]+/)) {
            kv = substr(line, RSTART + 1, RLENGTH - 1)
            name = substr(kv, 1, index(kv, "\"") - 1)
            val = substr(kv, index(kv, "\"value\":") + 8)
            v[side, name, run] = val
            if (!(name in seen)) { seen[name] = 1; names[++nn] = name }
            line = substr(line, RSTART + RLENGTH)
        }
        top = substr($0, 3)
        for (f = 1; f <= 3; f++) {
            key = f == 1 ? "correct" : f == 2 ? "attempted" : "failed"
            if (match(top, "\"" key "\":[a-z0-9]+")) {
                s = substr(top, RSTART, RLENGTH)
                scalar[side, key, run] = substr(s, index(s, ":") + 1)
            }
        }
    }
    END {
        bad = 0
        n = count["A"] < count["B"] ? count["A"] : count["B"]
        if (n < pairs) { print "perf_pair: incomplete runs" > "/dev/stderr"; exit 1 }
        printf "%-20s %12s %23s %12s %23s %8s %10s %7s %7s\n", "metric", "median A", "Q1-Q3 A", \
            "median B", "Q1-Q3 B", "B/A", "IQR A", "B wins", "verdict"
        for (m = 1; m <= nn; m++) {
            name = names[m]
            wins = 0; losses = 0
            for (r = 1; r <= n; r++) {
                a[r] = v["A", name, r] + 0
                b[r] = v["B", name, r] + 0
                if (b[r] < a[r]) wins++
                if (b[r] > a[r]) losses++
                if (name ~ /^(virt_|stored_mb_per_gen$)/ && (v["A", name, r] != v["A", name, 1] || v["B", name, r] != v["A", name, 1])) {
                    printf "perf_pair: %s differs: A %s, B %s (pair %d)\n", name, v["A", name, r], v["B", name, r], r > "/dev/stderr"
                    bad = 1
                }
            }
            ma = quantile(a, n, 0.5); mb = quantile(b, n, 0.5)
            qa1 = quantile(a, n, 0.25); qa3 = quantile(a, n, 0.75)
            qb1 = quantile(b, n, 0.25); qb3 = quantile(b, n, 0.75)
            iqr = qa3 - qa1
            verdict = "-"
            if (wins * 10 >= 9 * n && ma - mb > iqr) verdict = "gain"
            if (losses * 10 >= 9 * n && mb - ma > iqr) verdict = "loss"
            printf "%-20s %12.6g %11.5g-%-11.5g %12.6g %11.5g-%-11.5g %8.4f %10.4g %4d/%d %7s\n", name, ma, qa1, qa3, \
                mb, qb1, qb3, ma ? mb / ma : 0, iqr, wins, n, verdict
        }
        for (f = 1; f <= 3; f++) {
            key = f == 1 ? "correct" : f == 2 ? "attempted" : "failed"
            for (r = 1; r <= n; r++)
                if (scalar["A", key, r] != scalar["A", key, 1] || scalar["B", key, r] != scalar["A", key, 1]) {
                    printf "perf_pair: %s differs: A %s, B %s (pair %d)\n", key, scalar["A", key, r], scalar["B", key, r], r > "/dev/stderr"
                    bad = 1
                }
            printf "%-20s %12s %23s %12s\n", key, scalar["A", key, 1], "", scalar["B", key, 1]
        }
        print "every pair, A>B:"
        for (m = 1; m <= nn; m++) {
            name = names[m]
            varies = 0
            for (r = 1; r <= n; r++)
                if (v["A", name, r] != v["A", name, 1] || v["B", name, r] != v["A", name, 1])
                    varies = 1
            if (!varies) continue
            printf "%-20s", name
            for (r = 1; r <= n; r++) printf " %.4g>%.4g", v["A", name, r], v["B", name, r]
            printf "\n"
        }
        exit bad
    }
' "$out/runs"
