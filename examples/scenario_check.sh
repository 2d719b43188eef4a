#!/bin/sh
# Run an example CLI scenario twice and hold it to every check:
#   - both runs exit 0 (the scenario's --*-check / --check flag
#     asserts its guarantee through the exit code),
#   - the first run's output matches each PATTERN and no line matches
#     a !PATTERN (grep BRE), so a run that never exercised the path
#     under test, or that left an alert open, fails,
#   - every file an output flag names is written, and the two runs
#     write the same files, byte for byte (determinism),
#   - the first run's files pass scenario_outputs.py's structure
#     checks (trace, metrics and time-series layout).
# Each run works in its own directory, so the output paths among the
# ARGs are relative: the `--json report.json` this script appends and
# any --trace-out/--metrics-out/--health-out the scenario adds.
#
#   scenario_check.sh OUTDIR [PATTERN | !PATTERN]... -- BINARY ARG...
set -eu
here=$(cd "$(dirname "$0")" && pwd)
out=$1
shift
rm -rf "$out/run-1" "$out/run-2"
mkdir -p "$out/run-1" "$out/run-2"
: > "$out/patterns"
while [ "$1" != "--" ]; do
    printf '%s\n' "$1" >> "$out/patterns"
    shift
done
shift

for run in 1 2; do
    if ! (cd "$out/run-$run" && "$@" --json report.json) \
            > "$out/run-$run.log"; then
        cat "$out/run-$run.log"
        echo "scenario_check: run $run exited nonzero" >&2
        exit 1
    fi
done
cat "$out/run-1.log"

while IFS= read -r pattern; do
    case $pattern in
        !*)
            if grep -q -- "${pattern#!}" "$out/run-1.log"; then
                echo "scenario_check: an output line matches:" \
                     "${pattern#!}" >&2
                exit 1
            fi
            ;;
        *)
            if ! grep -q -- "$pattern" "$out/run-1.log"; then
                echo "scenario_check: no output line matches:" \
                     "$pattern" >&2
                exit 1
            fi
            ;;
    esac
done < "$out/patterns"

# Every file an output flag names must exist; the cmp of the two file
# lists below then holds run 2 to the same.
expect=report.json
prev=
for arg in "$@"; do
    case $prev in
        --trace-out|--metrics-out|--health-out) expect="$expect $arg" ;;
    esac
    prev=$arg
done
for name in $expect; do
    if [ ! -f "$out/run-1/$name" ]; then
        echo "scenario_check: run 1 wrote no $name" >&2
        exit 1
    fi
done

(cd "$out/run-1" && ls) > "$out/files-1"
(cd "$out/run-2" && ls) > "$out/files-2"
cmp "$out/files-1" "$out/files-2"
while IFS= read -r name; do
    cmp "$out/run-1/$name" "$out/run-2/$name"
done < "$out/files-1"

python3 "$here/scenario_outputs.py" "$out/run-1"
