#!/usr/bin/env bash
# Separation share of a traced ledger run, next to the floor
# `bench/src/measure.rs::separation` holds it to (a run under its floor
# already reports `"correct": false`; this prints the margin), the IGP
# packets the run received per LSA it flooded, and what one full SPF
# and one `augment` call cost (`igp.spf_full_us`,
# `core.augment_probe_us`). The values live in the runs' output, not
# here.
#
#   bench/run.sh --workload predictive_storm --seed 2016 --seconds 6 --trace 1 | ci/share.sh
#
# Reads the stdout of one or more `--trace 1` runs: the header line
# names the workload, the metric lines carry `igp.rx_pkts`,
# `igp.lsas_flooded` and the two costs, the `detail:` line every phase's
# span self time.
# `crowd_grid` has no floor and prints its packet ratio and costs only.
set -euo pipefail
python3 -c '
import json, re, sys
floors = {
    "metro_core": (["kernel.dispatch"], 50),
    "predictive_storm": (["ctrl.optimize", "ctrl.poll", "solver.probe", "spf.prefix_routes"], 70),
    "dataplane_churn": (["fluid.settle"], 60),
}
workload, counts = None, {}
for line in sys.stdin:
    header = re.match(r"(\w+) seed \d+ trace 1:", line)
    if header:
        workload, counts = header.group(1), {}
    names = r"igp\.rx_pkts|igp\.lsas_flooded|igp\.spf_full_us|core\.augment_probe_us"
    metric = re.match(rf"\s+({names})\s+([\d.]+)\s", line)
    if metric:
        counts[metric.group(1)] = float(metric.group(2))
    if not line.startswith("detail: "):
        continue
    if workload in floors:
        ms = json.loads(line[len("detail: "):])["phase_self_ms"]
        phases, floor = floors[workload]
        inside, total, names = sum(ms[p] for p in phases), sum(ms.values()), " + ".join(phases)
        print(f"{workload}: {names} = {inside:.1f} of {total:.1f} ms "
              f"= {100 * inside / total:.1f} % of traced span self time (floor {floor} %)")
    pkts, flooded = counts.get("igp.rx_pkts"), counts.get("igp.lsas_flooded")
    if pkts is not None and flooded:
        print(f"{workload}: {pkts:.0f} IGP packets received for {flooded:.0f} flooded LSAs "
              f"= {pkts / flooded:.2f} per flooded LSA")
    spf, augment = counts.get("igp.spf_full_us"), counts.get("core.augment_probe_us")
    if spf is not None and augment is not None:
        print(f"{workload}: {spf:.1f} us per full SPF, {augment:.1f} us per augment probe")
'
