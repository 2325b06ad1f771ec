#!/bin/sh
# check-doc-drift.sh — fail if any command-line flag registered under
# cmd/ (the binaries' main.go files and the shared cmd/internal/ packages)
# is missing from the docs/ARCHITECTURE.md knob reference, or if a table
# row of that reference names a flag no binary registers.
#
# The knob reference only stays trustworthy if it cannot silently rot:
# every `flag.Type("name", ...)` registration — or `fs.Type(...)` on a
# *flag.FlagSet named fs — must appear in the docs as a backticked `-name`
# cell, and every `| `-name` |` row under "## Knob reference" must be
# registered, so a deleted flag's row cannot survive. Run from the
# repository root (CI does).
set -eu

cd "$(dirname "$0")/.."
docs=docs/ARCHITECTURE.md

if [ ! -f "$docs" ]; then
    echo "doc drift: $docs does not exist" >&2
    exit 1
fi

sources=$(find cmd -name '*.go' ! -name '*_test.go' | sort)

# Both registration forms: flag.Int("name", ...) and
# flag.IntVar(&x, "name", ...), on the package or on a FlagSet named fs.
extract() {
    {
        grep -ohE '\b(flag|fs)\.[A-Za-z0-9]+\("[a-zA-Z0-9-]+"' "$@" \
            | sed -E 's/.*\("([^"]+)"$/\1/'
        grep -ohE '\b(flag|fs)\.[A-Za-z0-9]+Var\([^,]+,[[:space:]]*"[a-zA-Z0-9-]+"' "$@" \
            | sed -E 's/.*"([^"]+)"$/\1/'
    } | sort -u
}
flags=$(extract $sources)

if [ -z "$flags" ]; then
    echo "doc drift: extracted no flags from cmd/ — the extraction regex has rotted" >&2
    exit 1
fi
# The shared deployment flags live in cmd/internal/; if none is seen there
# the script has gone blind to that directory and would pass silently.
if [ -z "$(extract $(find cmd/internal -name '*.go' ! -name '*_test.go'))" ]; then
    echo "doc drift: extracted no flags from cmd/internal/ — the extraction regex has rotted" >&2
    exit 1
fi

status=0
for f in $flags; do
    if ! grep -q -- "\`-$f\`" "$docs"; then
        echo "doc drift: flag -$f (registered under cmd/) is not documented in $docs" >&2
        status=1
    fi
done

# The reverse direction: the flag of every row in the knob reference's
# tables (the first cell, a backticked -name) must be registered.
documented=$(sed -n '/^## Knob reference/,/^## /p' "$docs" \
    | grep -oE '^\| `-[a-zA-Z0-9-]+`' | sed -E 's/^\| `-([^`]+)`$/\1/' | sort -u)
if [ -z "$documented" ]; then
    echo "doc drift: found no flag rows under \"## Knob reference\" in $docs — the extraction regex has rotted" >&2
    exit 1
fi
for f in $documented; do
    if ! printf '%s\n' $flags | grep -qxF -- "$f"; then
        echo "doc drift: flag -$f has a row in the knob reference of $docs but no binary under cmd/ registers it" >&2
        status=1
    fi
done

if [ "$status" -ne 0 ]; then
    echo "doc drift: make the knob reference in $docs list exactly the flags the binaries register" >&2
fi
exit $status
