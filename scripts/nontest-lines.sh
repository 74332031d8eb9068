#!/bin/sh
# Non-test line counts by ROADMAP working rule (d): for every *.rs file
# under each directory given (default: src), the lines before the
# file's first `#[cfg(test)]` — the whole file when it has none. Prints
# one line per file and a total per directory.
#
#   scripts/nontest-lines.sh crates/core/src src
set -eu
for dir in "${@:-src}"; do
    find "$dir" -name '*.rs' | LC_ALL=C sort | while read -r file; do
        awk '/#\[cfg\(test\)\]/ { exit } { n++ } END { printf "%6d %s\n", n, FILENAME }' "$file"
    done | awk -v dir="$dir" '{ print; total += $1 } END { printf "%6d %s (total)\n", total, dir }'
done
