#!/usr/bin/env bash
# The mutant kill table: proves the tests bite. Each line of the mutant
# list (default tests/mutants.txt) holds four tab-separated fields:
#
#   file  fragment  replacement  tests
#
# `fragment` is exact source text that must occur exactly once in
# `file`; `replacement` is the fault put in its place. `tests` names
# the tests expected to kill it, space-separated: `NAME` is the root
# package's integration test `--test NAME`, `-p:CRATE` is that crate's
# unit tests. Blank lines and lines starting with `#` are skipped.
#
# The script copies the working tree (tracked and untracked files, not
# ignored ones) to target/mutants/tree, applies one mutant at a time,
# runs the tests named for it, and prints one row per mutant: its
# number, file and line, and the tests that failed on it, or SURVIVED.
# A fragment that is missing or ambiguous, or a mutant that does not
# compile, is reported and makes the script exit non-zero. Builds go to
# target/mutants/target, so reruns are incremental.
#
#   scripts/mutants.sh                # the whole table
#   scripts/mutants.sh list.txt 3 7   # mutants 3 and 7 of list.txt
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
list=$(realpath "${1:-$root/tests/mutants.txt}")
shift || true
work=$root/target/mutants
tree=$work/tree
export CARGO_TARGET_DIR=$work/target

rm -rf "$tree"
mkdir -p "$tree"
(cd "$root" && git ls-files -z --cached --others --exclude-standard) |
    (cd "$root" && tar --null -T - -cf -) | tar -xf - -C "$tree"

status=0
n=0
while IFS=$'\t' read -r file fragment replacement tests; do
    [[ -z $file || $file == \#* ]] && continue
    n=$((n + 1))
    if (($# > 0)) && [[ " $* " != *" $n "* ]]; then
        continue
    fi
    src=$tree/$file
    orig=$(cat "$src" && printf x)
    orig=${orig%x}
    rest=${orig#*"$fragment"}
    if [[ $rest == "$orig" || $rest == *"$fragment"* ]]; then
        printf '%3d %s: fragment must occur exactly once\n' "$n" "$file"
        status=1
        continue
    fi
    prefix=${orig%%"$fragment"*}
    line=$(($(printf '%s' "$prefix" | wc -l) + 1))
    printf '%s' "$prefix$replacement$rest" >"$src"
    killers=()
    for spec in $tests; do
        case $spec in
        -p:*) args=(-p "${spec#-p:}" --lib) ;;
        *) args=(--test "$spec") ;;
        esac
        if ! (cd "$tree" && cargo test -q --offline --no-run "${args[@]}" >/dev/null 2>&1); then
            killers=("DOES-NOT-COMPILE")
            status=1
            break
        fi
        if ! (cd "$tree" && cargo test -q --offline "${args[@]}" >/dev/null 2>&1); then
            killers+=("$spec")
        fi
    done
    printf '%s' "$orig" >"$src"
    printf '%3d %-40s %s\n' "$n" "$file:$line" "${killers[*]:-SURVIVED}"
done <"$list"
exit $status
