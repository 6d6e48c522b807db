"""The loop-free engine step against the per-path loop it replaced.

``loop_step`` is the step written as explicit loops over paths, links and
classes. The engine's array form promises the same floating-point operations
in the same order, so every state and trace array must match bit for bit,
step after step, including where links are rationed, paths exit, and route
shares underflow to zero.
"""

from dataclasses import replace

import numpy as np
import pytest

from headwayctl import fundamental as fd
from headwayctl.engine import TrafficEnv
from headwayctl.network import ODPair, demand_at, enumerate_paths
from headwayctl.routing import AUTO, HUMAN, step_shares
from headwayctl.scenario import braess5_scenario, braess8_scenario, trapezoid_demand

NOT_ON_PATH = -2
EXIT = -1


def loop_step(env):
    """One sim step of ``env`` with per-path loops; returns the trace row."""
    net, sim, counts, queues = env.net, env.sim, env.counts, env.queues
    dt = sim.dt_s
    length, jam = net.length_array(), net.jam_density_array()
    jam_count = jam * length
    paths = [p.links for od in net.od_pairs for p in od.paths]
    od_paths = []
    for od in net.od_pairs:
        start = sum(len(ids) for ids in od_paths)
        od_paths.append(list(range(start, start + len(od.paths))))
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
    flow = fd.sending_flow(n_link, length, net.speed_array(), ncrit, jam)
    congested = fd.congestion_state(rho, ncrit)
    latency = fd.link_latency(flow, congested, length, net.speed_array(), ncrit, jam)
    path_lat = np.array([fd.path_latency(p, latency) for p in paths])
    row = {"t_s": env.t_s, "count": n_link, "density": rho, "autonomy": alpha,
           "congested": congested, "flow_vps": flow, "latency_s": latency,
           "beta_a_m": env.beta_a, "queued": float(queues.sum())}

    out_total = np.minimum(flow * dt, n_link)
    with np.errstate(invalid="ignore"):
        out_frac = np.where(n_link > 0.0, out_total / np.where(n_link > 0.0, n_link, 1.0), 0.0)
    send = counts * out_frac[:, None, None]

    arrivals = np.zeros_like(queues)
    for od_idx, profile in enumerate(env.scenario.demands):
        vol = demand_at(profile, env.t_s) * dt
        arrivals[od_idx, AUTO] = vol * profile.autonomy_fraction
        arrivals[od_idx, HUMAN] = vol * (1.0 - profile.autonomy_fraction)
    queues += arrivals
    env.injected += float(arrivals.sum())

    claim = np.zeros(net.n_links)
    for gp in range(len(paths)):
        for l in np.nonzero(next_link[:, gp] >= 0)[0]:
            claim[next_link[l, gp]] += send[l, gp, :].sum()
    inject_attempt = np.zeros((len(paths), 2))
    for od_idx, ids in enumerate(od_paths):
        for local, gp in enumerate(ids):
            for cls in (HUMAN, AUTO):
                amount = queues[od_idx, cls] * env.shares[od_idx].shares[cls, local]
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
    for od_idx, ids in enumerate(od_paths):
        for gp in ids:
            for cls in (HUMAN, AUTO):
                moved = inject_attempt[gp, cls] * ration[paths[gp][0]]
                counts[paths[gp][0], gp, cls] += moved
                queues[od_idx, cls] -= moved

    for arr in (counts, queues):
        bad = arr < 0.0
        assert not (arr[bad] < -1e-6).any()
        arr[bad] = 0.0
    assert np.isfinite(counts).all() and np.isfinite(queues).all()

    scaled = path_lat / sim.latency_unit_s
    for od_idx, ids in enumerate(od_paths):
        env.shares[od_idx] = step_shares(env.shares[od_idx], scaled[ids])
    env.t_s += dt
    env.step_index += 1
    row.update(reward=env.current_reward(), injected_cum=env.injected,
               exited_cum=env.exited, exited_step=exited_now)
    return row


def two_od_scenario():
    """braess8 plus a second O/D pair A -> D that shares links with the first."""
    base = braess8_scenario()
    net = base.network
    od2 = ODPair(origin="A", destination="D", paths=tuple(enumerate_paths(net.links, "A", "D")))
    demand2 = trapezoid_demand(0.5 * base.demands[0].peak_rate, 0.3)
    return replace(base, network=replace(net, od_pairs=(net.od_pairs[0], od2)),
                   demands=(base.demands[0], demand2),
                   sim=replace(base.sim, initial_counts={0: 1000.0, 5: 3000.0}))


SCENARIOS = {
    "braess5": braess5_scenario,
    "braess8": braess8_scenario,
    "braess5_fast_routing": lambda: braess5_scenario(mu_h=5.0, mu_a=2.0, peak_factor=9.0),
    "two_od": two_od_scenario,
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
            info = env.step_sim().info
            want = loop_step(ref)
            for key, value in want.items():
                assert_same_bits(info[key], value, f"{key} at step {ref.step_index}")
            assert_same_bits(env.counts, ref.counts, "counts")
            assert_same_bits(env.queues, ref.queues, "queues")
            for mine, theirs in zip(env.shares, ref.shares):
                assert_same_bits(mine.shares, theirs.shares, "shares")
            rationed += ref.queues.sum() > 0.0
            exits += info["exited_step"] > 0.0
            dead_paths += any((s.shares == 0.0).any() for s in ref.shares)
            if env.done:
                break
    # The comparison covered rationed inflow, exits and paths whose share
    # underflowed to zero, not only free flow.
    assert rationed > 0 and exits > 0 and dead_paths > 0
