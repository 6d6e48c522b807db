#!/usr/bin/env python3
"""How headway control reshapes a link's fundamental diagram.

The critical density of a mixed-autonomy link is lanes divided by the
average headway. Autonomous vehicles at 1 m headway triple the capacity of
a link whose human drivers keep 6 m; pushing their headway to 10 m cuts it
by a third. This is the control authority everything else builds on.
"""

import numpy as np

from headwayctl import capacity, critical_density, sending_flow

LANES = 4
V = 30.0  # m/s
BETA_H = 6.0
JAM = LANES / 0.5  # veh/m

print("capacity of a 4-lane link (veh/s) vs autonomy fraction and headway")
print(f"{'alpha':>6} | " + " ".join(f"beta_a={b:>4.1f}" for b in (1.0, 3.0, 6.0, 10.0)))
for alpha in (0.0, 0.2, 0.5, 0.8, 1.0):
    caps = [capacity(V, critical_density(LANES, alpha, b, BETA_H)) for b in (1, 3, 6, 10)]
    print(f"{alpha:>6.1f} | " + " ".join(f"{c:>10.2f}" for c in caps))

print()
print("flow vs density at alpha=0.8: free up to the critical")
print("density, then decaying to zero at the jam density")
for beta_a in (1.0, 6.0, 10.0):
    nc = critical_density(LANES, 0.8, beta_a, BETA_H)
    rhos = np.linspace(0.0, JAM, 9)
    flows = sending_flow(rhos, V, nc, JAM)
    row = " ".join(f"{f:6.1f}" for f in flows)
    print(f"beta_a={beta_a:>4.1f}  n_c={nc:5.2f} veh/m | {row}")

print()
print("note the jam density is headway-independent: control moves the peak,")
print("not the right endpoint.")
