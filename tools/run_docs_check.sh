#!/bin/sh
# Documentation drift check (invoked by tools/run_lint.sh):
#
#   1. every relative link in the markdown pages must resolve to an
#      existing file (absolute URLs and #anchors are skipped);
#   2. every CLI flag a markdown page documents must actually appear in
#      the help/usage text of one of the built binaries, so the docs
#      cannot drift ahead of (or behind) the tools;
#   3. the distributed-training surface is pinned positively: each of
#      the --ranks/--world-size/--rank/--rendezvous/--grad-slices flags
#      must appear BOTH in sns-cli's usage text and in
#      docs/distributed.md (check 2 only proves documented => real;
#      this one also proves the page covers the whole surface);
#   4. every backticked `tools/...` or `bench/...` path in the pages
#      must exist, as written or with `.cc` added (ROADMAP.md and
#      CHANGES.md are history and may name what is gone).
#
# Usage: tools/run_docs_check.sh [BUILD_DIR]   (default: build)
# Exit status: 0 clean, 1 on any dead link or undocumented flag.
set -e

REPO="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$REPO/build}"

PAGES="$REPO/README.md $REPO/DESIGN.md $REPO/EXPERIMENTS.md $REPO/docs"
DOCS="$PAGES $REPO/ROADMAP.md"
fail=0

echo "== docs: relative links =="
# shellcheck disable=SC2086
for file in $(find $DOCS -name '*.md' | sort); do
    dir="$(dirname "$file")"
    # One link target per line: everything between "](" and ")".
    for target in $(grep -o '](\([^)]*\))' "$file" \
                        | sed 's/^](//; s/)$//'); do
        case "$target" in
        http://* | https://* | mailto:* | \#*) continue ;;
        esac
        path="${target%%#*}" # drop the anchor, keep the file part
        [ -n "$path" ] || continue
        if [ ! -e "$dir/$path" ]; then
            echo "dead link in $file: $target" >&2
            fail=1
        fi
    done
done

echo "== docs: documented CLI flags exist in --help =="
# The union of every long flag the built binaries admit to. Tools
# print usage when invoked bare (nonzero exit — tolerated here);
# sns-serve and the bench harnesses take --help.
helps="$BUILD/help_texts.$$"
{
    "$BUILD/tools/sns-cli" 2>&1 || true
    "$BUILD/tools/sns_lint" 2>&1 || true
    "$BUILD/tools/sns-dataset" 2>&1 || true
    "$BUILD/tools/sns-serve" --help 2>&1 || true
    "$BUILD/tools/sns-router" --help 2>&1 || true
    "$BUILD/bench/fig05_circuitformer_loss" --help 2>&1 || true
} >"$helps"
known="$(grep -o '\-\-[a-z][a-z0-9-]*' "$helps" | sort -u)"
rm -f "$helps"

# cmake/ctest flags documented in build instructions are not ours.
known="$known
--build
--test-dir
--output-on-failure"

# shellcheck disable=SC2086
documented="$(grep -h -o '\-\-[a-z][a-z0-9-]*' \
    $(find $DOCS -name '*.md') | sort -u)"
for flag in $documented; do
    case "$flag" in
    *-)
        # A family like "--promote-*": some known flag must extend it.
        if printf '%s\n' "$known" | grep -q -- "^$flag"; then
            continue
        fi
        ;;
    esac
    if ! printf '%s\n' "$known" | grep -qx -- "$flag"; then
        echo "documented flag $flag missing from every --help" >&2
        # shellcheck disable=SC2086
        grep -ln -- "$flag" $(find $DOCS -name '*.md') \
            | sed 's/^/  mentioned in /' >&2
        fail=1
    fi
done

echo "== docs: distributed-training flags documented and real =="
doc_flags="$(grep -o '\-\-[a-z][a-z0-9-]*' "$REPO/docs/distributed.md" \
    | sort -u)"
for flag in --ranks --world-size --rank --rendezvous --grad-slices; do
    if ! printf '%s\n' "$known" | grep -qx -- "$flag"; then
        echo "distributed flag $flag missing from sns-cli usage" >&2
        fail=1
    fi
    if ! printf '%s\n' "$doc_flags" | grep -qx -- "$flag"; then
        echo "distributed flag $flag not documented" \
             "in docs/distributed.md" >&2
        fail=1
    fi
done

echo "== docs: backticked tools/ and bench/ paths exist =="
# shellcheck disable=SC2086
for file in $(find $PAGES -name '*.md' | sort); do
    # The first word of each span, so `bench/x --flag` checks bench/x.
    for path in $(grep -o '`\(tools\|bench\)/[^` ]*' "$file" \
                      | sed 's/^`//' | sort -u); do
        if [ ! -e "$REPO/$path" ] && [ ! -e "$REPO/$path.cc" ]; then
            echo "missing path in $file: $path" >&2
            fail=1
        fi
    done
done

if [ "$fail" -ne 0 ]; then
    echo "run_docs_check: FAILED" >&2
    exit 1
fi
echo "run_docs_check: docs are in sync"
