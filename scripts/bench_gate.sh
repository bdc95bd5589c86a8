#!/usr/bin/env bash
# Host-time gate for the `sim` bench: compare results/BENCH_sim.json (one
# numeric key per line) against the committed baseline.
#
# Usage:
#   scripts/bench_gate.sh compare [NEW] [BASELINE]   # default: the sim files
#   scripts/bench_gate.sh self-test                  # gate-must-fail test
#
# Every key is higher-is-better: `*_per_sec` (events per host second) and
# `*_ratio` (wheel over heap). A key falls short when new < baseline *
# (1 - TOL). Events per second are wall-clock, so the baseline is set well
# below measured values and TOL is wide: the gate catches engine-speed
# collapses, not machine variance. A baseline key missing from the new
# results fails, and so does a key with any other suffix. Everything
# virtual-time is gated exactly by `scripts/tier1.sh paper` instead.
set -euo pipefail
cd "$(dirname "$0")/.."

readonly TOL=0.5

compare() {
    local new="${1:-results/BENCH_sim.json}"
    local base="${2:-scripts/BENCH_sim.baseline.json}"
    local f
    for f in "$new" "$base"; do
        if [[ ! -f "$f" ]]; then
            echo "bench_gate: '$f' not found (run: ./target/release/sim --smoke)" >&2
            return 1
        fi
    done
    echo "bench_gate: $new vs $base (tolerance ${TOL})"
    awk -v tol="$TOL" '
        FNR == 1 { fi++ }
        match($0, /"[A-Za-z0-9_]+"[[:space:]]*:[[:space:]]*-?[0-9.][0-9.eE+-]*/) {
            kv = substr($0, RSTART, RLENGTH)
            colon = index(kv, ":")
            key = substr(kv, 1, colon - 1); gsub(/"/, "", key)
            val = substr(kv, colon + 1) + 0
            if (fi == 1) base[key] = val
            else newv[key] = val
        }
        END {
            fail = 0
            n_checked = 0
            for (k in base) {
                if (k !~ /_(per_sec|ratio)$/) {
                    printf "  UNKNOWN    %-26s neither _per_sec nor _ratio\n", k
                    fail = 1
                    continue
                }
                if (!(k in newv)) {
                    printf "  MISSING    %-26s in baseline but absent from new results\n", k
                    fail = 1
                    continue
                }
                b = base[k]; n = newv[k]; n_checked++; lim = b * (1 - tol)
                if (n < lim) {
                    printf "  REGRESSION %-26s %.6g vs baseline %.6g (limit %.6g)\n", k, n, b, lim
                    fail = 1
                } else {
                    printf "  ok         %-26s %.6g (baseline %.6g)\n", k, n, b
                }
            }
            if (n_checked == 0) {
                print "  no shared metrics found — malformed input?"
                fail = 1
            }
            exit fail
        }
    ' "$base" "$new"
}

# Negative test: a drop past the tolerance, a dropped key and a key of any
# other suffix must trip the gate; a drop within it and a gain must not.
self_test() {
    local d
    d="$(mktemp -d)"
    trap 'rm -rf "$d"' RETURN
    json() { printf '{\n  "sim_timer_events_per_sec": %s,\n  "sim_timer_speedup_ratio": %s\n}\n' "$1" "$2"; }
    json 8000000.0 6.0 >"$d/base.json"
    local -a cases=(
        "fail 3000000.0 6.0 60% events/sec drop"
        "fail 8000000.0 2.0 60% ratio drop"
        "pass 5000000.0 4.0 drop within tolerance"
        "pass 12000000.0 9.0 gain"
    )
    local c want rate ratio what got
    for c in "${cases[@]}"; do
        read -r want rate ratio what <<<"$c"
        json "$rate" "$ratio" >"$d/new.json"
        if compare "$d/new.json" "$d/base.json" >/dev/null; then got=pass; else got=fail; fi
        if [[ "$got" != "$want" ]]; then
            echo "bench_gate self-test FAILED: $what must $want" >&2
            return 1
        fi
    done
    printf '{\n  "sim_timer_events_per_sec": 8000000.0\n}\n' >"$d/dropped.json"
    if compare "$d/dropped.json" "$d/base.json" >/dev/null; then
        echo "bench_gate self-test FAILED: dropped metric not caught" >&2
        return 1
    fi
    printf '{\n  "sim_timer_events_s": 1.0\n}\n' >"$d/odd.json"
    if compare "$d/odd.json" "$d/odd.json" >/dev/null; then
        echo "bench_gate self-test FAILED: key of unknown direction not caught" >&2
        return 1
    fi
    echo "bench_gate self-test: OK"
}

case "${1:-compare}" in
    compare) shift || true; compare "$@" ;;
    self-test) self_test ;;
    *)
        echo "usage: $0 [compare [NEW] [BASELINE] | self-test]" >&2
        exit 2
        ;;
esac
