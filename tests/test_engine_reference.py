"""The loop-free engine step against the per-path loop it replaced.

``loop_step`` is the step written as explicit loops over paths, links and
classes. The engine's array form promises the same floating-point operations
in the same order, so every state array and every row the engine records in
its trace must match bit for bit, step after step, including where links are
rationed, paths exit, and route shares underflow to zero.
"""

from dataclasses import replace

import numpy as np
import pytest

from headwayctl import fundamental as fd
from headwayctl.engine import TrafficEnv
from headwayctl.network import demand_at
from headwayctl.routing import AUTO, HUMAN, step_shares
from headwayctl.scenario import braess5_scenario, braess8_scenario

NOT_ON_PATH = -2
EXIT = -1


def loop_step(env):
    """One sim step of ``env`` with per-path loops; returns the trace row
    (one value per ``EpisodeTrace`` array) and the vehicles that exited."""
    net, sim, counts, queues = env.net, env.sim, env.counts, env.queues
    dt = sim.dt_s
    length, jam = net.length_array(), net.jam_density_array()
    jam_count = jam * length
    paths = net.paths
    next_link = np.full((net.n_links, len(paths)), NOT_ON_PATH)
    for gp, links in enumerate(paths):
        for i, l in enumerate(links):
            next_link[l, gp] = links[i + 1] if i + 1 < len(links) else EXIT

    n_link = counts.sum(axis=(1, 2))
    n_auto = counts[:, :, AUTO].sum(axis=1)
    with np.errstate(invalid="ignore"):
        alpha = np.where(n_link > 0.0, n_auto / np.where(n_link > 0.0, n_link, 1.0), 0.0)
    ncrit = fd.critical_density(net.lanes_array(), alpha, env.beta_a, net.beta_h_m)
    rho = n_link / length
    flow = fd.sending_flow(rho, net.speed_array(), ncrit, jam)
    congested = fd.congestion_state(rho, ncrit)
    latency = fd.link_latency(flow, congested, length, net.speed_array(), ncrit, jam)
    path_lat = np.array([fd.path_latency(p, latency) for p in paths])
    row = {"t_s": env.t_s, "count": n_link, "density": rho, "autonomy": alpha,
           "congested": congested, "flow_vps": flow, "latency_s": latency,
           "beta_a_m": env.beta_a}

    out_total = np.minimum(flow * dt, n_link)
    with np.errstate(invalid="ignore"):
        out_frac = np.where(n_link > 0.0, out_total / np.where(n_link > 0.0, n_link, 1.0), 0.0)
    send = counts * out_frac[:, None, None]

    arrivals = np.zeros_like(queues)
    profile = env.scenario.demand
    vol = demand_at(profile, env.t_s) * dt
    arrivals[AUTO] = vol * profile.autonomy_fraction
    arrivals[HUMAN] = vol * (1.0 - profile.autonomy_fraction)
    queues += arrivals
    env.injected += float(arrivals.sum())

    claim = np.zeros(net.n_links)
    for gp in range(len(paths)):
        for l in np.nonzero(next_link[:, gp] >= 0)[0]:
            claim[next_link[l, gp]] += send[l, gp, :].sum()
    inject_attempt = np.zeros((len(paths), 2))
    for gp in range(len(paths)):
        for cls in (HUMAN, AUTO):
            amount = queues[cls] * env.shares[cls, gp]
            inject_attempt[gp, cls] = amount
            claim[paths[gp][0]] += amount

    space = jam_count - n_link
    ration = np.ones(net.n_links)
    over = claim > space
    ration[over] = space[over] / claim[over]
    ration = np.clip(ration, 0.0, 1.0)

    exited_now = 0.0
    for gp in range(len(paths)):
        for l in np.nonzero(next_link[:, gp] != NOT_ON_PATH)[0]:
            moving = send[l, gp, :]
            if not moving.any():
                continue
            dest = next_link[l, gp]
            if dest == EXIT:
                counts[l, gp, :] -= moving
                exited_now += moving.sum()
            else:
                counts[l, gp, :] -= moving * ration[dest]
                counts[dest, gp, :] += moving * ration[dest]
    env.exited += exited_now
    for gp in range(len(paths)):
        for cls in (HUMAN, AUTO):
            moved = inject_attempt[gp, cls] * ration[paths[gp][0]]
            counts[paths[gp][0], gp, cls] += moved
            queues[cls] -= moved

    for arr in (counts, queues):
        bad = arr < 0.0
        assert not (arr[bad] < -1e-6).any()
        arr[bad] = 0.0
    assert np.isfinite(counts).all() and np.isfinite(queues).all()

    env.shares = step_shares(env.shares, path_lat / sim.latency_unit_s, sim.mu_h, sim.mu_a)
    env.t_s += dt
    env.step_index += 1
    row["reward"] = env.current_reward()
    return row, exited_now


def fast_routing_scenario():
    """braess5 with sharp route choice and its demand scaled from peak factor
    6 to 9, so that within one episode links are rationed, vehicles exit and
    route shares underflow to zero."""
    sc = braess5_scenario()
    demand = replace(sc.demand, breakpoints=tuple((t, r * 9.0 / 6.0)
                                                  for t, r in sc.demand.breakpoints))
    return replace(sc, demand=demand, sim=replace(sc.sim, mu_h=5.0, mu_a=2.0))


SCENARIOS = {
    "braess5": braess5_scenario,
    "braess8": braess8_scenario,
    "braess5_fast_routing": fast_routing_scenario,
}


def assert_same_bits(a, b, what):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype, what
    assert a.tobytes() == b.tobytes(), what


@pytest.mark.parametrize("name", sorted(SCENARIOS))
@pytest.mark.parametrize("seed", [1, 2])
def test_array_step_matches_loop_step_bit_for_bit(name, seed):
    scenario = SCENARIOS[name]()
    env, ref = TrafficEnv(scenario), TrafficEnv(scenario)
    env.reset(seed)
    ref.reset(seed)
    rng = np.random.default_rng(100 + seed)
    net = scenario.network
    rationed = exits = dead_paths = 0
    while not env.done:
        # Out-of-bounds actions are clamped; both envs see the same ones.
        action = rng.uniform(0.5 * net.beta_min_m, 1.2 * net.beta_max_m, net.n_links)
        env.apply_action(action)
        ref.apply_action(action)
        for _ in range(scenario.sim.steps_per_action):
            step = env.step_index
            reward = env.step_sim()
            want, exited_now = loop_step(ref)
            for key, value in want.items():
                assert_same_bits(getattr(env.trace, key)[step], value, f"{key} at step {step}")
            assert_same_bits(reward, want["reward"], "returned reward")
            assert_same_bits(env.injected, ref.injected, "injected")
            assert_same_bits(env.exited, ref.exited, "exited")
            assert_same_bits(env.trace.total_exited, ref.exited, "total_exited")
            assert_same_bits(env.counts, ref.counts, "counts")
            assert_same_bits(env.queues, ref.queues, "queues")
            assert_same_bits(env.shares, ref.shares, "shares")
            # critical_density trusts its autonomy fractions to lie in [0, 1].
            autonomy = env.trace.autonomy[step]
            assert ((0.0 <= autonomy) & (autonomy <= 1.0)).all()
            rationed += ref.queues.sum() > 0.0
            exits += exited_now > 0.0
            dead_paths += (ref.shares == 0.0).any()
            if env.done:
                break
    # The comparison covered rationed inflow, exits and paths whose share
    # underflowed to zero, not only free flow.
    assert rationed > 0 and exits > 0 and dead_paths > 0
