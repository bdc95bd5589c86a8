#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green.
#
# Usage: scripts/tier1.sh [stage...]
#   stages: build test faults bench sim scale tenants migrate replay perf lint
#   No arguments runs every stage in that order (the full PR gate). CI runs
#   the same stages one job each — `scripts/tier1.sh build`, etc. — so a
#   local no-arg run reproduces the whole pipeline stage by stage.
#
# Fault-matrix knobs (crates/core/tests/faults.rs):
#   DMTCP_FAULT_ROTATING=N  run the matrix with N extra date-derived base
#                           seeds on top of the fixed ones (default here: 2),
#                           so CI gradually sweeps fresh fault schedules
#                           while staying reproducible — a failing cell
#                           prints the exact DMTCP_FAULT_SEEDS value to
#                           replay it. Set to 0 for fixed seeds only.
#   DMTCP_FAULT_SEEDS       comma-separated explicit base seeds (hex or
#                           decimal) — replaces the fixed defaults; use the
#                           value printed by a failing run to reproduce it.
#   DMTCP_TEST_EV_BUDGET    per-run simulation event budget for the heavier
#                           integration tests (default 8000000).
set -euo pipefail
cd "$(dirname "$0")/.."

stage_build() {
    echo "== cargo build --release =="
    cargo build --release --workspace
}

stage_test() {
    echo "== cargo test (fault matrix deferred to the faults stage) =="
    # The matrix is a stage of its own; skip it here so a full pipeline run
    # executes each cell exactly once.
    DMTCP_FAULT_SKIP_DEFAULT=1 cargo test -q --workspace
}

stage_faults() {
    echo "== fault matrix (fixed + rotating seeds) =="
    DMTCP_FAULT_ROTATING="${DMTCP_FAULT_ROTATING:-2}" cargo test -q -p dmtcp --test faults
}

stage_bench() {
    echo "== ckptstore smoke bench (3 generations, NAS/MG + incremental >=10x gate) =="
    cargo build --release -p dmtcp-bench
    ./target/release/ckptstore --smoke
    echo "== downtime smoke bench (perceived vs total checkpoint time) =="
    ./target/release/downtime --smoke
    echo "== bench-regression gate =="
    scripts/bench_gate.sh self-test
    scripts/bench_gate.sh compare
    echo "== szip/crc32 host micro-bench (recorded in results/BENCH_host.json, not gated) =="
    # Wall-clock on a shared box, so no gate: the kernels are gated by the
    # differential tests (crates/szip/tests/prop.rs) and by perf. Running it
    # here keeps the bench compiling and the recorded keys fresh.
    cargo bench -p dmtcp-bench --bench micro -- szip crc32
    test -s results/BENCH_host.json
}

stage_sim() {
    echo "== sim engine throughput bench (timer wheel vs reference heap, >=5x gate) =="
    cargo build --release -p dmtcp-bench
    ./target/release/sim --smoke
    echo "== sim bench-regression gate =="
    scripts/bench_gate.sh self-test
    # Unlike every other gate file, events/sec is wall-clock: the committed
    # baseline is set well below measured values and the tolerance widened,
    # so the gate catches engine-speed collapses, not machine variance.
    BENCH_GATE_TOLERANCE="${BENCH_GATE_TOLERANCE:-0.5}" \
        scripts/bench_gate.sh compare results/BENCH_sim.json scripts/BENCH_sim.baseline.json
}

stage_scale() {
    echo "== scale smoke bench (flat star vs per-node relays) =="
    cargo build --release -p dmtcp-bench
    ./target/release/scale --smoke
    echo "== scale bench-regression gate =="
    scripts/bench_gate.sh compare results/BENCH_scale.json scripts/BENCH_scale.baseline.json
}

stage_tenants() {
    echo "== multi-tenant service tests (admission, isolation, quotas, shard faults) =="
    cargo test -q -p svc
    echo "== tenants smoke bench (shared coordinator vs sharded dmtcpd, >=3x gate) =="
    cargo build --release -p dmtcp-bench
    ./target/release/tenants --smoke
    echo "== tenants bench-regression gate =="
    scripts/bench_gate.sh compare results/BENCH_tenants.json scripts/BENCH_tenants.baseline.json
}

stage_migrate() {
    echo "== heterogeneous restart + live migration tests (RestartPlan API) =="
    cargo test -q -p dmtcp --test migrate
    echo "== migrate smoke bench (subset migration pause vs full cycle, >=3x gate) =="
    cargo build --release -p dmtcp-bench
    ./target/release/migrate --smoke
    echo "== migrate bench-regression gate =="
    scripts/bench_gate.sh compare results/BENCH_migrate.json scripts/BENCH_migrate.baseline.json
}

stage_replay() {
    echo "== flight-recorder record/replay smoke (zero divergence) =="
    cargo test -q -p dmtcp --test replay
    echo "== journal codec property tests =="
    cargo test -q -p obs --test prop_journal
}

stage_perf() {
    # The benchmark package sits outside the workspace (its own lockfile and
    # target dir), so no other stage compiles it: a rename in crates/* could
    # break its frozen surface unnoticed. Build it, run its unit tests, and
    # drive the shortest real run end to end.
    echo "== perf package: build + unit tests (perf/Cargo.toml, outside the workspace) =="
    cargo build --release --offline --manifest-path perf/Cargo.toml
    cargo test --offline --manifest-path perf/Cargo.toml
    # Two smoke runs, one per half of the system: scale-relay never installs
    # the chunk store; tenants-svc is the only path through svc admission,
    # the tenant ledger and the store's GC.
    local workload last
    for workload in scale-relay tenants-svc; do
        echo "== perf smoke run ($workload, 1 s, untraced) =="
        last=$(./perf/target/release/perf run --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1)
        echo "$last"
        if [[ "$last" != *'"correct":true'* || "$last" != *'"failed":0'* ]]; then
            echo "tier1: perf smoke run ($workload) did not report correct:true and failed:0" >&2
            exit 1
        fi
    done
}

stage_lint() {
    echo "== cargo clippy (-D warnings) =="
    cargo clippy --workspace --all-targets -- -D warnings
    echo "== cargo fmt --check =="
    cargo fmt --all -- --check
    echo "== cargo doc (a doc comment linking a removed item fails) =="
    RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --workspace --no-deps
    echo "== deleted-API guard (a count, not a review) =="
    # What PR 14 deleted stays deleted: no compatibility shim, no stringly
    # extension slot, no engine env switch, no second restart path, no
    # second recorder. `downcast_` is allowed in exactly two files: the
    # typed store behind World::ext* and the per-process Hijack accessors.
    # What PR 16 deleted too: nothing parses the restart script or rewrites
    # a generation number inside a path (a generation is a catalog record),
    # and the image file name is spelled in exactly one file.
    local hits
    hits=$({
        grep -rnE '#\[deprecated|ext_slots|DMTCP_SIM_ENGINE|restart_resilient|trace_with\(' \
            crates/*/src src
        grep -rnE 'rewrite_gen|script_groups|newest_gen|default_restart' crates/*/src src
        grep -rn 'downcast_' crates/*/src src |
            grep -vE '^crates/(oskit/src/world|core/src/hijack)\.rs:'
        grep -rlF '"_gen"' crates/*/src src | grep -vxF 'crates/mtcp/src/image.rs'
        grep -qF '"_gen"' crates/mtcp/src/image.rs ||
            echo 'crates/mtcp/src/image.rs: no longer spells the image file name ("_gen")'
    } || true)
    if [[ -n "$hits" ]]; then
        echo "$hits" >&2
        echo "tier1: lint found a deleted API, an open-coded downcast, or a second spelling of the image file name (see above)" >&2
        exit 1
    fi
    echo "== safe-and-in-the-world guard (also a count) =="
    # szip stays safe Rust; state lives in the World (typed extensions), never
    # in the process — a process-wide memo would be the easy wrong answer and
    # would leak one world's results into the next; and the build stays
    # offline: thirteen path packages, no registry dependency.
    hits=$({
        grep -q '^#!\[forbid(unsafe_code)\]' crates/szip/src/lib.rs ||
            echo "crates/szip/src/lib.rs: lost #![forbid(unsafe_code)]"
        grep -rnE 'thread_local!|static[[:space:]]+mut[[:space:]]|static[[:space:]]+[A-Za-z_0-9]+[[:space:]]*:[^=;]*(OnceLock|OnceCell|LazyLock|Mutex|RwLock)' \
            crates/*/src src
        grep -n '^source = ' Cargo.lock
    } || true)
    if [[ -n "$hits" ]]; then
        echo "$hits" >&2
        echo "tier1: lint found unsafe szip, process-wide state, or a registry dependency (see above)" >&2
        exit 1
    fi
    echo "== one-place-for-host-threads guard (also a count) =="
    # The simulator is single-threaded: a world, its Rc/RefCell state and its
    # virtual clock live on one host thread. Host threads start in one file,
    # mtcp's fan-out, which packs and checks bytes lent to it; the other
    # exception is the bench harness, which runs whole independent worlds
    # side by side.
    hits=$(grep -rnE 'thread::scope|thread::spawn|spawn_scoped|available_parallelism' crates/*/src src |
        grep -vE '^crates/(mtcp/src/fanout|bench/src/lib)\.rs:' || true)
    if [[ -n "$hits" ]]; then
        echo "$hits" >&2
        echo "tier1: lint found a host thread outside crates/mtcp/src/fanout.rs (see above)" >&2
        exit 1
    fi
}

# Record one stage's wall-clock seconds in results/tier1_stages.json, keeping
# what earlier runs recorded for the other stages. Not gated: it says where
# the gate's own time goes, on whatever machine ran it.
record_stage_seconds() {
    local file=results/tier1_stages.json
    mkdir -p results
    {
        [[ -f "$file" ]] && grep -oE '"[a-z0-9]+": [0-9]+' "$file" | grep -v "^\"$1\":"
        echo "\"$1\": $2"
    } | sort | awk 'BEGIN { print "{" } { printf "%s  %s", (NR > 1 ? ",\n" : ""), $0 } END { print "\n}" }' >"$file.tmp"
    mv "$file.tmp" "$file"
}

run_stage() {
    local name="$1"
    case "$name" in
        build | test | faults | bench | sim | scale | tenants | migrate | replay | perf | lint) ;;
        *)
            echo "tier1: unknown stage '$name' (stages: build test faults bench sim scale tenants migrate replay perf lint)" >&2
            exit 2
            ;;
    esac
    local t0 t1
    t0=$SECONDS
    "stage_$name"
    t1=$SECONDS
    record_stage_seconds "$name" "$((t1 - t0))"
    echo "tier1: stage $name OK ($((t1 - t0))s)"
}

if [[ $# -eq 0 ]]; then
    set -- build test faults bench sim scale tenants migrate replay perf lint
fi
for stage in "$@"; do
    run_stage "$stage"
done
echo "tier1: OK"
