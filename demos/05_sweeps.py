#!/usr/bin/env python3
"""Parameter sweeps: rationality factor and autonomy fraction.

Mirrors the CLI's sweep-mu / sweep-alpha commands through the API. Uses the
constant baselines only, so it runs in seconds; substitute a trained
checkpoint (see demo 04) for the full picture.
"""

from dataclasses import replace

import numpy as np

from headwayctl import braess5_scenario, make_controller, run_episode

seeds = [0, 1]
base = braess5_scenario()

print("TTT vs rationality factor mu (uniform baseline, log-spaced axis)")
for mu in (0.01, 0.1, 1.0):
    sc = replace(base, sim=replace(base.sim, mu_h=mu, mu_a=mu))
    ctrl = make_controller("uniform", sc.network)
    ttt = np.mean([run_episode(sc, ctrl, s).ttt for s in seeds])
    print(f"  mu={mu:<5}: {ttt:.4e}")

print()
print("TTT vs autonomy fraction (min-platooning relative to uniform):")
print("the larger the controllable share, the more headway control moves")
for alpha in (0.0, 0.2, 0.5, 0.8, 1.0):
    sc = replace(base, demand=replace(base.demand, autonomy_fraction=alpha))
    ttts = {}
    for name in ("uniform", "min"):
        ctrl = make_controller(name, sc.network)
        ttts[name] = np.mean([run_episode(sc, ctrl, s).ttt for s in seeds])
    shift = 100.0 * (ttts["min"] - ttts["uniform"]) / ttts["uniform"]
    print(f"  alpha={alpha:<4}: uniform {ttts['uniform']:.4e}  min {ttts['min']:.4e}  ({shift:+.2f}%)")
