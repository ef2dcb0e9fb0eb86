#!/usr/bin/env bash
# Separation share of a traced ledger run, next to the floor
# `bench/src/measure.rs::separation` holds it to and the margin over it
# (a run under its floor already reports `"correct": false`; a change
# that makes the floored layer cheaper narrows the margin), the IGP
# packets the run received per LSA it flooded, what one full and one
# partial SPF cost (`igp.spf_full_us`, `igp.spf_partial_us`: the
# Dijkstra plus the route phase, and the route phase alone), and what one call of each step of a controller
# reaction costs in the outside probes (`core.plan_paths_probe_us`,
# `core.augment_probe_us`, `core.reduce_probe_us`,
# `core.verify_probe_us`), and the run's wall time under no span
# (`trace.untraced_ms`: the video driver's rate changes and wake-ups,
# for one, live there). The
# values live in the runs' output, not here.
#
#   bench/run.sh --workload predictive_storm --seed 2016 --seconds 6 --trace 1 | ci/share.sh
#
# Reads the stdout of one or more `--trace 1` runs: the header line
# names the workload, the metric lines carry `igp.rx_pkts`,
# `igp.lsas_flooded`, the costs and the untraced time, the `detail:`
# line every phase's span self time.
# `crowd_grid` has no floor and prints its packet ratio and costs only.
set -euo pipefail
python3 -c '
import json, re, sys
floors = {
    "metro_core": (["kernel.dispatch"], 50),
    "predictive_storm": (["ctrl.optimize", "ctrl.poll", "solver.probe", "spf.prefix_routes"], 70),
    "dataplane_churn": (["fluid.settle"], 60),
}
steps = ("plan_paths", "augment", "reduce", "verify")
workload, counts = None, {}
for line in sys.stdin:
    header = re.match(r"(\w+) seed \d+ trace 1:", line)
    if header:
        workload, counts = header.group(1), {}
    names = r"igp\.rx_pkts|igp\.lsas_flooded|igp\.spf_\w+_us|core\.\w+_probe_us|trace\.untraced_ms"
    metric = re.match(rf"\s+({names})\s+([\d.]+)\s", line)
    if metric:
        counts[metric.group(1)] = float(metric.group(2))
    if not line.startswith("detail: "):
        continue
    if workload in floors:
        ms = json.loads(line[len("detail: "):])["phase_self_ms"]
        phases, floor = floors[workload]
        inside, total, names = sum(ms[p] for p in phases), sum(ms.values()), " + ".join(phases)
        share = 100 * inside / total
        print(f"{workload}: {names} = {inside:.1f} of {total:.1f} ms "
              f"= {share:.1f} % of traced span self time "
              f"(floor {floor} %, margin {share - floor:+.1f} points)")
    pkts, flooded = counts.get("igp.rx_pkts"), counts.get("igp.lsas_flooded")
    if pkts is not None and flooded:
        print(f"{workload}: {pkts:.0f} IGP packets received for {flooded:.0f} flooded LSAs "
              f"= {pkts / flooded:.2f} per flooded LSA")
    spf, partial = counts.get("igp.spf_full_us"), counts.get("igp.spf_partial_us")
    if spf is not None and partial is not None:
        print(f"{workload}: {spf:.1f} us per full SPF, {partial:.2f} us per partial SPF")
    untraced = counts.get("trace.untraced_ms")
    if untraced is not None:
        print(f"{workload}: {untraced:.1f} ms of wall time under no span")
    probes = [(s, counts.get(f"core.{s}_probe_us")) for s in steps]
    if all(us is not None for _, us in probes):
        print(f"{workload}: us per probe call: "
              + ", ".join(f"{s} {us:.1f}" for s, us in probes))
'
