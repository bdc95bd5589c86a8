#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green.
#
# Usage: scripts/tier1.sh [stage...]
#   stages: build test faults perf lint paper
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
#
# Each stage's wall seconds land in results/tier1_stages.json (ungated). They
# include whatever the stage had to compile, so they depend on the cache
# state: compare them only between runs on warm trees.
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

stage_perf() {
    # The benchmark package sits outside the workspace (its own lockfile and
    # target dir), so no other stage compiles it: a rename in crates/* could
    # break its frozen surface unnoticed. Build it, run its unit tests, and
    # drive the shortest real run end to end.
    echo "== perf package: build + unit tests (perf/Cargo.toml, outside the workspace) =="
    cargo build --release --offline --manifest-path perf/Cargo.toml
    cargo test --offline --manifest-path perf/Cargo.toml
    # Five smoke runs: scale-relay never installs the chunk store;
    # tenants-svc is the only path through svc admission, the tenant ledger
    # and the store's GC; realmem-idle is the only one where real bytes pass
    # szip, CRC-32, incremental alias extents and a live migration under the
    # oracle; realmem-churn is the only kill + restart of real compressed
    # bytes through the store, so both decode paths (verify, then restore)
    # run under the oracle; mg-cluster is the only one with MPI ranks,
    # plain-file images and in-line compressed writes — the manager's
    # CHECKPOINTED path, where the in-line writer acks CKPT_WRITTEN early.
    local workload last
    for workload in scale-relay tenants-svc realmem-idle realmem-churn mg-cluster; do
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
    echo "== counts: non-test lines and panic-class sites per crate (printed, not gated) =="
    scripts/counts.sh
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
    # Gone with the five beyond-paper bench binaries, whose figures now
    # live in `paper`'s figure table: their knobs, the gate's tolerance knob
    # and their four gate files. Gone with the timer wheel: the second event
    # queue, its constructor and name, its events/s bench and its gate.
    local hits
    hits=$({
        grep -rnE '#\[deprecated|ext_slots|DMTCP_SIM_ENGINE|restart_resilient|trace_with\(' \
            crates/*/src src
        grep -rnE --exclude=tier1.sh \
            'DMTCP_SCALE_FULL|DMTCP_SCALE_POINTS|DMTCP_REPS|BENCH_GATE_TOLERANCE|BENCH_(ckpt|migrate|scale|tenants)' \
            crates src scripts .github
        grep -rnE --exclude=tier1.sh 'new_reference|engine_name|wheel::|bench_gate|BENCH_sim' \
            crates src scripts .github
        grep -rnE 'rewrite_gen|script_groups|newest_gen|default_restart' crates/*/src src
        # Gone with the state mirrors and the caller-less API: a coordinator
        # or relay is read where it lives (`World::program`), never copied.
        # `\b` keeps `allreduce_sum_f64`, which is live, out of the match.
        grep -rnE 'RelayMirror|relay_shared|mirror_state|span_begin|SpanGuard|session_vpids|\breduce_sum_f64|looks_like_image|_assert_types' \
            crates/*/src src
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

stage_paper() {
    echo "== paper figures: regenerate results/ and check the paper's shapes =="
    cargo build --release -p dmtcp-bench
    # Start from no JSON file, so a key that no figure writes any more shows
    # up in the diff below as a deletion.
    rm -f results/BENCH_paper.json
    ./target/release/paper
    echo "== paper figures: byte-identical to the committed files =="
    # Virtual time is deterministic, so there is no tolerance: any difference
    # is a paper number that moved, in either direction. A change that moves
    # one on purpose commits the regenerated files, and their diff shows it.
    # Every figure writes results/<id>.txt, so the glob covers each one; a
    # figure whose file was never committed shows up as untracked.
    local paths=(results/BENCH_paper.json 'results/*.txt') untracked
    untracked=$(git ls-files --others --exclude-standard -- "${paths[@]}")
    if ! git diff --exit-code -- "${paths[@]}" || [[ -n "$untracked" ]]; then
        [[ -n "$untracked" ]] && echo "untracked: $untracked" >&2
        echo "tier1: paper figures differ from the committed results/ (diff above)" >&2
        exit 1
    fi
}

# Record one stage's wall-clock seconds in results/tier1_stages.json, keeping
# what earlier runs recorded for the other stages that still exist: a key
# with no stage_<key> function here (a deleted stage) drops out. Not gated:
# it says where the gate's own time goes, on whatever machine ran it.
record_stage_seconds() {
    local file=results/tier1_stages.json line key
    mkdir -p results
    {
        if [[ -f "$file" ]]; then
            grep -oE '"[a-z0-9]+": [0-9]+' "$file" | while read -r line; do
                key=${line%%\":*}
                key=${key#\"}
                if [[ "$key" != "$1" ]] && declare -F "stage_$key" >/dev/null; then
                    echo "$line"
                fi
            done || true
        fi
        echo "\"$1\": $2"
    } | sort | awk 'BEGIN { print "{" } { printf "%s  %s", (NR > 1 ? ",\n" : ""), $0 } END { print "\n}" }' >"$file.tmp"
    mv "$file.tmp" "$file"
}

run_stage() {
    local name="$1"
    case "$name" in
        build | test | faults | perf | lint | paper) ;;
        *)
            echo "tier1: unknown stage '$name' (stages: build test faults perf lint paper)" >&2
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
    set -- build test faults perf lint paper
fi
for stage in "$@"; do
    run_stage "$stage"
done
echo "tier1: OK"
