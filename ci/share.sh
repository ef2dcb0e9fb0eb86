#!/usr/bin/env bash
# Separation share of a traced ledger run, next to the floor
# `bench/src/measure.rs::separation` holds it to (a run under its floor
# already reports `"correct": false`; this prints the margin).
#
#   bench/run.sh --workload predictive_storm --seed 2016 --seconds 6 --trace 1 | ci/share.sh
#
# Reads the stdout of one or more `--trace 1` runs: the header line
# names the workload, the `detail:` line carries every phase's span
# self time. `crowd_grid` has no floor and prints nothing.
set -euo pipefail
python3 -c '
import json, re, sys
floors = {
    "metro_core": (["kernel.dispatch"], 50),
    "predictive_storm": (["ctrl.optimize", "ctrl.poll", "solver.probe", "spf.prefix_routes"], 70),
    "dataplane_churn": (["fluid.settle"], 60),
}
workload = None
for line in sys.stdin:
    header = re.match(r"(\w+) seed \d+ trace 1:", line)
    if header:
        workload = header.group(1)
    if line.startswith("detail: ") and workload in floors:
        ms = json.loads(line[len("detail: "):])["phase_self_ms"]
        phases, floor = floors[workload]
        inside, total, names = sum(ms[p] for p in phases), sum(ms.values()), " + ".join(phases)
        print(f"{workload}: {names} = {inside:.1f} of {total:.1f} ms "
              f"= {100 * inside / total:.1f} % of traced span self time (floor {floor} %)")
'
