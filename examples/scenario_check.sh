#!/bin/sh
# Run an rssd_fleet scenario twice and hold it to every check:
#   - both runs exit 0 (the scenario's --*-check flag asserts its
#     guarantee through the exit code),
#   - the first run's output matches each PATTERN (grep BRE), so a
#     run that never exercised the path under test fails,
#   - the two --json reports are byte-identical (determinism).
#
#   scenario_check.sh OUTDIR PATTERN... -- BINARY ARG...
set -eu
out=$1
shift
mkdir -p "$out"
: > "$out/patterns"
while [ "$1" != "--" ]; do
    printf '%s\n' "$1" >> "$out/patterns"
    shift
done
shift

"$@" --json "$out/report.json" > "$out/run.log"
cat "$out/run.log"
while IFS= read -r pattern; do
    if ! grep -q -- "$pattern" "$out/run.log"; then
        echo "scenario_check: no output line matches: $pattern" >&2
        exit 1
    fi
done < "$out/patterns"
"$@" --json "$out/report-2.json" > /dev/null
cmp "$out/report.json" "$out/report-2.json"
