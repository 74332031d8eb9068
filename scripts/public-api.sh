#!/usr/bin/env bash
# The public surface of the workspace's library crates, as rustdoc
# renders it: runs `cargo doc --no-deps` and writes docs/PUBLIC_API.txt,
# one line per public item of each crate's `all.html` and one per
# inherent method or associated constant of its structs, enums and
# unions:
#
#   validrtf struct engine::SearchEngine
#   validrtf method engine::SearchEngine::execute
#
# The offline stand-ins under crates/compat/ are left out: their surface
# mirrors the crates.io packages they replace. A change that adds or
# removes public API regenerates the file, so the diff names the items.
#
#   scripts/public-api.sh           # rewrite docs/PUBLIC_API.txt
#   scripts/public-api.sh --check   # fail when it is stale
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out=$root/docs/PUBLIC_API.txt
doc=${CARGO_TARGET_DIR:-$root/target}/doc
check=false
case ${1:-} in
--check) check=true ;;
"") ;;
*)
    echo "usage: $0 [--check]" >&2
    exit 2
    ;;
esac

cd "$root"
cargo doc --no-deps --offline -q

# Library target names and sources of the workspace members, from
# cargo's own JSON (no JSON tool needed: one target object per match).
crates=$(cargo metadata --no-deps --offline --format-version 1 |
    grep -oE '\{"kind":\["lib"\],"crate_types":\["lib"\],"name":"[^"]*","src_path":"[^"]*"' |
    grep -v '/crates/compat/' |
    sed -E 's/.*"name":"([^"]*)".*/\1/' | LC_ALL=C sort)

surface() {
    echo "# The public API of the workspace's library crates, generated by"
    echo "# scripts/public-api.sh from rustdoc's all.html pages. Do not edit."
    for crate in $crates; do
        # rustdoc writes each page on one line, and may break long
        # names with <wbr>: split the page at list items.
        { grep -oE '<li><a href="[^"]*">([^<]|<wbr>)*</a>' "$doc/$crate/all.html" || true; } |
            sed -E 's/<wbr>//g; s/<li><a href="([^"]*)">(.*)<\/a>/\1 \2/' |
            while read -r href name; do
                kind=$(basename "$href")
                kind=${kind%%.*}
                echo "$crate $kind $name"
                case $kind in struct | enum | union) ;; *) continue ;; esac
                page=$(cat "$doc/$crate/$href")
                [[ $page == *'id="implementations-list"'* ]] || continue
                page=${page#*id=\"implementations-list\"}
                page=${page%%<h2 *}
                { grep -oE 'id="(method|associatedconstant)\.[A-Za-z0-9_]+"' <<<"$page" || true; } |
                    sed -E "s/id=\"([a-z]+)\.([A-Za-z0-9_]+)\"/$crate \1 $name::\2/"
            done
    done
}

if $check; then
    if ! surface | diff -u "$out" -; then
        echo "docs/PUBLIC_API.txt is stale: run scripts/public-api.sh" >&2
        exit 1
    fi
else
    surface >"$out"
fi
