#!/usr/bin/env bash
# Net Rust line delta between a base commit and HEAD, the one figure
# the change log and the roadmap's simplicity budget report: first
# `git diff --shortstat` over the `*.rs` files under crates/, src/,
# tests/ and examples/ as `+A −D = N`, then the same files' line
# counts at both commits, split into library and test lines. Test
# lines are every line of a file under a `tests/` directory, and every
# line at or after a file's first top-level `#[cfg(test)]`. A `vendor`
# row counts the `*.rs` lines of the offline shims under vendor/, and
# `all` adds them to the total, so a shim's removal shows in the
# figure while the library, tests and total rows stay comparable with
# figures reported before the row existed.
#
#   ci/delta.sh 5366faa
#
# Reads committed trees through git only; the working tree, and
# bench/ (its own workspace), are not counted.
set -euo pipefail
if [ $# -ne 1 ]; then
  echo "usage: ci/delta.sh BASE" >&2
  exit 2
fi
base=$(git rev-parse --verify --quiet "$1^{commit}") || {
  echo "ci/delta.sh: no commit named $1" >&2
  exit 2
}
paths=('crates/*.rs' 'src/*.rs' 'tests/*.rs' 'examples/*.rs')
short=$(git diff --shortstat "$base" HEAD -- "${paths[@]}")
python3 - "$1" "$base" "$short" <<'PY'
import re, subprocess, sys

name, base, short = sys.argv[1:]
added = int((re.search(r"(\d+) insertion", short) or [0, 0])[1])
deleted = int((re.search(r"(\d+) deletion", short) or [0, 0])[1])
net = added - deleted
sign = lambda n: f"+{n}" if n > 0 else (f"−{-n}" if n < 0 else "0")
print(f"rust delta {name}..HEAD (*.rs under crates/ src/ tests/ examples/): +{added} −{deleted} = {sign(net)}")

def split(rev):
    """(library lines, test lines) over the tracked files at `rev`."""
    files = subprocess.run(
        ["git", "ls-tree", "-r", "--name-only", rev, "--", "crates", "src", "tests", "examples"],
        check=True, capture_output=True, text=True,
    ).stdout.split()
    files = [f for f in files if f.endswith(".rs")]
    lib = test = 0
    for path in files:
        text = subprocess.run(
            ["git", "cat-file", "blob", f"{rev}:{path}"],
            check=True, capture_output=True,
        ).stdout.decode("utf-8", "replace")
        lines = text.splitlines()
        if "tests" in path.split("/")[:-1]:
            test += len(lines)
            continue
        cut = next((i for i, l in enumerate(lines) if l.rstrip() == "#[cfg(test)]"), len(lines))
        lib += cut
        test += len(lines) - cut
    return lib, test

def vendored(rev):
    """Lines of the tracked `*.rs` files under vendor/ at `rev`."""
    files = subprocess.run(
        ["git", "ls-tree", "-r", "--name-only", rev, "--", "vendor"],
        check=True, capture_output=True, text=True,
    ).stdout.split()
    return sum(
        len(subprocess.run(
            ["git", "cat-file", "blob", f"{rev}:{path}"], check=True, capture_output=True,
        ).stdout.splitlines())
        for path in files if path.endswith(".rs")
    )

(bl, bt), (hl, ht) = split(base), split("HEAD")
bv, hv = vendored(base), vendored("HEAD")
print(f"{'':8} {name[:12]:>12} → {'HEAD':>8} {'delta':>7}")
for label, b, h in (
    ("library", bl, hl),
    ("tests", bt, ht),
    ("total", bl + bt, hl + ht),
    ("vendor", bv, hv),
    ("all", bl + bt + bv, hl + ht + hv),
):
    print(f"{label:8} {b:>12} → {h:>8} {sign(h - b):>7}")
PY
