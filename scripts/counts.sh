#!/usr/bin/env bash
# Non-test lines and panic-class sites per crate, for ROADMAP's counts.
#
# Usage: scripts/counts.sh [file...]
#   With no arguments, prints one row per crate under crates/*/src, then a
#   total. With files, prints one row per file instead.
#
# A line is test code only when it sits inside an item gated by
# `#[cfg(test)]` — a `mod tests { ... }` block, a test-only function — or is
# that attribute and its one-line item (`#[cfg(test)] mod tests;`). Every
# other line of a .rs file counts, blank lines and comments included.
# Panic-class sites are the non-test occurrences of `unwrap(`, `expect(`,
# `panic!` and `unreachable!`, comments included (a count, not a parse).
set -euo pipefail
cd "$(dirname "$0")/.."

# Prints "<lines> <panics>" for the files on stdin.
count_files() {
    xargs -r awk '
        FNR == 1 { skip = 0; pending = 0; depth = 0 }
        {
            line = $0
            if (!skip && line ~ /^[[:space:]]*#\[cfg\(test\)\]/) {
                pending = 1
                next
            }
            if (pending && !skip) {
                # The gated item: skip it up to its closing brace, or a
                # one-line item ending in ";".
                if (line ~ /^[[:space:]]*#\[/) { next }
                skip = 1
                pending = 0
                depth = 0
                opened = 0
            }
            if (skip) {
                tmp = line
                n_open = gsub(/\{/, "", tmp)
                tmp = line
                n_close = gsub(/\}/, "", tmp)
                depth += n_open - n_close
                if (n_open > 0) opened = 1
                if ((opened && depth <= 0) || (!opened && line ~ /;[[:space:]]*$/)) skip = 0
                next
            }
            lines++
            tmp = line
            panics += gsub(/unwrap\(|expect\(|panic!|unreachable!/, "", tmp)
        }
        END { printf "%d %d\n", lines, panics }
    '
}

row() {
    printf '%-34s %7s %6s\n' "$1" "$2" "$3"
}

row "crate" "lines" "panics"
total_lines=0
total_panics=0
if [[ $# -gt 0 ]]; then
    for f in "$@"; do
        read -r lines panics < <(echo "$f" | count_files)
        row "$f" "$lines" "$panics"
        total_lines=$((total_lines + lines))
        total_panics=$((total_panics + panics))
    done
else
    for dir in crates/*/src; do
        read -r lines panics < <(find "$dir" -name '*.rs' | sort | count_files)
        crate=${dir#crates/}
        row "${crate%/src}" "$lines" "$panics"
        total_lines=$((total_lines + lines))
        total_panics=$((total_panics + panics))
    done
fi
row "total" "$total_lines" "$total_panics"
