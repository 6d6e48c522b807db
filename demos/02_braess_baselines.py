#!/usr/bin/env python3
"""The two constant-headway baselines on the Braess-geometry scenario.

Runs the classic 5-link diamond under (1) autonomous headway pinned to the
human 6 m and (2) maximal platooning at 1 m, prints the total-travel-time
comparison, and writes a density heat map per baseline (green = free flow,
red = at jam density).
"""

import sys
from pathlib import Path

import numpy as np

from headwayctl import braess5_scenario, make_controller, run_episode
from headwayctl.heatmap import write_heatmap

out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("demo_output")
out_dir.mkdir(parents=True, exist_ok=True)

scenario = braess5_scenario()
net = scenario.network
seeds = [0, 1, 2]

print("Braess-5, 200 min horizon, autonomy fraction 0.8, mu 0.1")
print(f"{'controller':>10} | {'mean TTT (veh-steps)':>20} | congested link-steps")
for name in ("uniform", "min"):
    controller = make_controller(name, net)
    traces = [run_episode(scenario, controller, seed) for seed in seeds]
    ttt = np.mean([t.ttt for t in traces])
    congested = np.mean([t.congested.mean() for t in traces])
    print(f"{name:>10} | {ttt:>20.4e} | {congested:>8.1%}")

    grid = (traces[0].density / net.jam_density).T  # links x steps
    svg_path = out_dir / f"heatmap_{name}.svg"
    write_heatmap(grid, scenario.sim.dt_s, svg_path)
    print(f"{'':>10}   heat map -> {svg_path}")

print()
print("With every critical density tripled, the 1 m baseline keeps the whole")
print("horizon in free flow here; the 6 m baseline saturates links 0-2 during")
print("the demand peak (red bands in the heat map).")
