#!/usr/bin/env bash
# Interleaved ledger pairs, BASE against HEAD, on one workload or on
# every workload BENCHMARK.json names: the tables a performance entry in
# CHANGES.md reports.
#
#   ci/pairs.sh BASE WORKLOAD N [SEEDS]
#   ci/pairs.sh BASE all N [SEEDS]
#
# Builds the ledger from the committed tree at BASE and at HEAD, each in
# a temporary `git worktree` with a target directory of its own, then
# runs N pairs at `--seconds 6 --trace 0` per seed of SEEDS (a
# comma-separated list such as `2016,7`; 2016 if not given), each side
# from a scratch directory of its own (the ledger writes `results/`
# under its working directory). Odd pairs run BASE first, even pairs
# HEAD; one workload's and seed's N pairs after the other's (seeds
# within a workload, workloads in order), from the one build a side.
# Prints, per workload and seed, each pair's
# `run_cal_s`, `setup_s` and `peak_rss_mb` on both sides, then per
# metric each side's median [lower quartile, upper quartile] and in how
# many pairs HEAD was lower ("PR lower"). Exits non-zero if `qoe_score`
# differs between any two runs of one workload at one seed or a run
# failed an operation. Uncommitted changes are not
# measured. The temporary directory is made under `$TMPDIR` (default
# /tmp) and removed on exit, worktrees included; `bench/` is only read.
set -euo pipefail
if [ $# -lt 3 ]; then
  echo "usage: ci/pairs.sh BASE WORKLOAD|all N [SEEDS]" >&2
  exit 2
fi
base=$(git rev-parse --verify "$1^{commit}")
head=$(git rev-parse --verify "HEAD^{commit}")
n=$3
seeds=${4:-2016}
repo=$(git rev-parse --show-toplevel)
workloads=$2
if [ "$workloads" = all ]; then
  workloads=$(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$repo/BENCHMARK.json")
fi
tmp=$(mktemp -d)
cleanup() {
  for side in base head; do
    git -C "$repo" worktree remove --force "$tmp/$side" 2>/dev/null || true
  done
  rm -rf "$tmp"
  git -C "$repo" worktree prune
}
trap cleanup EXIT

for side in base head; do
  rev=$base
  [ "$side" = head ] && rev=$head
  git -C "$repo" worktree add --detach --quiet "$tmp/$side" "$rev"
  cargo build --release --offline --quiet \
    --manifest-path "$tmp/$side/bench/Cargo.toml" --target-dir "$tmp/$side-target"
  mkdir -p "$tmp/run-$side"
done

one() { # <side>: the last stdout line of a run is its result object
  (cd "$tmp/run-$1" && "$tmp/$1-target/release/ledger" \
     --workload "$workload" --seed "$seed" --seconds 6 --trace 0) | tail -1 >> "$tmp/$1-$workload-$seed.jsonl"
}
status=0
for workload in $workloads; do for seed in ${seeds//,/ }; do
  i=1
  while [ "$i" -le "$n" ]; do
    if [ $((i % 2)) -eq 1 ]; then one base; one head; else one head; one base; fi
    i=$((i + 1))
  done

  # One block per workload.
  python3 - "$tmp" "$workload" "$seed" "${base:0:7}" "${head:0:7}" <<'EOF' || status=1
import json, statistics, sys
tmp, workload, seed, base_rev, head_rev = sys.argv[1:]
keys = ("run_cal_s", "setup_s", "peak_rss_mb")
runs = {side: [json.loads(l) for l in open(f"{tmp}/{side}-{workload}-{seed}.jsonl")]
        for side in ("base", "head")}
value = lambda run, k: run["metrics"][k]["value"]

print(f"{workload}, seed {seed}, --seconds 6: {len(runs['base'])} pairs, "
      f"base {base_rev} against HEAD {head_rev}")
print("pair  " + "  ".join(f"{s}: " + " ".join(keys) for s in ("base", "head")))
for i, (b, h) in enumerate(zip(runs["base"], runs["head"]), 1):
    cols = lambda run: " ".join(f"{value(run, k):.5g}" for k in keys)
    print(f"{i:>4}  base: {cols(b)}  head: {cols(h)}")

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

for k in keys:
    b = [value(r, k) for r in runs["base"]]
    h = [value(r, k) for r in runs["head"]]
    lower = sum(y < x for x, y in zip(b, h))
    (b1, bm, b3), (h1, hm, h3) = quartiles(b), quartiles(h)
    print(f"{k}: base {bm:.5g} [{b1:.5g}, {b3:.5g}]  head {hm:.5g} [{h1:.5g}, {h3:.5g}]  "
          f"({100 * (hm - bm) / bm:+.1f} %), PR lower in {lower} of {len(b)} pairs")

every = runs["base"] + runs["head"]
qoe = {repr(value(r, "qoe_score")) for r in every}
failed = sum(r["failed"] for r in every)
print(f"qoe_score: {' '.join(sorted(qoe))} ({'bit-equal' if len(qoe) == 1 else 'DIFFERS'}); "
      f"failed operations: {failed}")
sys.exit(0 if len(qoe) == 1 and failed == 0 else 1)
EOF
  echo
done; done
exit $status
