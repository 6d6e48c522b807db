"""Per-link fundamental diagram for mixed-autonomy traffic.

All functions broadcast over numpy arrays so the engine can evaluate a whole
network at once. Unit conventions: meters, seconds, vehicles. Densities are
veh/m (total across lanes), flows veh/s, latencies seconds.

The link capacity is not fixed: it depends on the autonomy fraction and on
the headways kept by each vehicle class. Critical density is

    n_c = lanes / (alpha * beta_a + (1 - alpha) * beta_h)

and capacity is v * n_c. Jam density stays constant per link.

The functions the engine calls every step do arithmetic only; callers pass
values validated where they enter. ``Network`` holds headways finite and
positive and jam spacing below the minimum headway (so n_c < n_jam), ``Link``
lengths and speeds finite and positive, ``DemandProfile`` the autonomy
fraction in [0, 1], ``SimConfig`` the rationality factors non-negative,
``Scenario`` the largest values the step derives from them finite, and
``TrafficEnv.apply_action`` clamps each finite action into the headway bounds.
"""

from __future__ import annotations

import numpy as np

# Congested latency diverges as flow -> 0; route choice and rewards need a
# finite number, so latencies are capped here.
LATENCY_CAP_S = 1.0e6


def critical_density(lanes, autonomy_fraction, beta_a_m, beta_h_m):
    """Density (veh/m) at which a link leaves free flow.

    The denominator is the average headway when autonomous vehicles keep
    ``beta_a_m`` meters and human-driven ones ``beta_h_m`` meters.
    """
    alpha = autonomy_fraction
    return lanes / (alpha * beta_a_m + (1.0 - alpha) * beta_h_m)


def capacity(free_flow_speed_mps, crit_density):
    """Maximum sustainable flow (veh/s): speed times critical density."""
    return free_flow_speed_mps * crit_density


def sending_flow(density, free_flow_speed_mps, crit_density, jam_density):
    """Flow (veh/s) a link can discharge at its current density (veh/m).

    Triangular-style diagram: linear in density up to the critical density,
    then decreasing to zero at jam density. Continuous at the critical point.
    When no link is above its critical density the free branch is the whole
    answer, since n_c < n_jam, and it is returned without the congested one
    (with the shape of ``v * rho``; the engine passes arrays of one shape).
    """
    rho, v, n_c, n_jam = density, free_flow_speed_mps, crit_density, jam_density
    free = v * rho
    below = rho <= n_c
    if np.logical_and.reduce(below, axis=None):
        return free
    congested = v * n_c * (n_jam - rho) / (n_jam - n_c)
    flow = np.where(below, free, np.maximum(congested, 0.0))
    return np.where(rho > n_jam, 0.0, flow)


def congestion_state(density, crit_density):
    """0 when the link is in free flow (density <= critical), 1 otherwise."""
    return np.greater(density, crit_density).astype(int)


def link_latency(flow, congested, length_m, free_flow_speed_mps, crit_density, jam_density):
    """Traversal time (s) of a link given its flow and congestion state.

    Free flow: length / speed. Congested: grows with the flow deficit and
    equals the free-flow value exactly when flow sits at capacity. Capped at
    LATENCY_CAP_S because the congested branch diverges as flow vanishes.
    When no link is congested the answer is ``d / v``, returned as is (with
    that shape).
    """
    d, v, n_c, n_jam = length_m, free_flow_speed_mps, crit_density, jam_density
    # Only congested links with positive flow divide. A congested link with no
    # flow reads inf, which the cap turns into LATENCY_CAP_S. On a congested
    # link sending_flow gives either 0 or at least about eps of capacity, and
    # a Scenario is refused at load if the latency at that flow overflows.
    congested = congested > 0
    if not np.logical_or.reduce(congested, axis=None):  # all free flow
        return d / v
    jam_over_flow = np.empty_like(flow, dtype=float)
    jam_over_flow.fill(np.inf)
    np.divide(n_jam, flow, out=jam_over_flow, where=congested & (flow > 0.0))
    jammed = d * (jam_over_flow + (n_c - n_jam) / (v * n_c))
    return np.where(congested, np.minimum(jammed, LATENCY_CAP_S), d / v)


def path_latency(path_links, link_latencies) -> float:
    """Total latency (s) along a path: the sum over its links.

    ``link_latencies`` may be an array or a list (a list indexes faster).
    The sum runs left to right along the path; ``ndarray.sum`` would add
    three or more terms in a different order.
    """
    total = 0.0
    for l in path_links:
        total += link_latencies[l]
    return float(total)
