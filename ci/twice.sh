#!/usr/bin/env bash
# Run-twice determinism check: run a command, keep the deterministic
# outputs it names, run again, `cmp` each kept file with its successor.
#
#   ci/twice.sh '<files or globs>' '<command>' ['<second command>']
#
# The deterministic outputs of this repo are its CSVs and the
# `X.det.json` twin that `fib_trace::artifact::save` writes next to
# every `X.json` (the same record without wall-clock values and worker
# counts), so no key is named and nothing is masked here. The optional
# second command is for runs that must agree though they differ in a
# flag (`sweep --jobs 1` vs `--jobs 4`).
set -euo pipefail
files=$1
first=$2
second=${3:-$2}
keep=$(mktemp -d)
trap 'rm -rf "$keep"' EXIT

bash -ec "$first"
# Unquoted on purpose: the globs expand against what the run wrote. A
# pattern that matches nothing stays literal and fails the `cp`.
for f in $files; do cp "$f" "$keep/"; done
bash -ec "$second"
for f in $files; do cmp "$keep/$(basename "$f")" "$f"; done
echo "byte-identical across both runs: $files"
