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
from hypothesis import example, given, settings
from hypothesis import strategies as st

from headwayctl import fundamental as fd
from headwayctl.engine import TrafficEnv
from headwayctl.network import DemandProfile, Link, Network, ODPair, demand_at
from headwayctl.routing import AUTO, HUMAN, step_shares
from headwayctl.scenario import Scenario, SimConfig, braess5_scenario, braess8_scenario

NOT_ON_PATH = -2
EXIT = -1


def loop_step(env):
    """One sim step of ``env`` with per-path loops; returns the trace row
    (one value per ``EpisodeTrace`` array) and the vehicles that exited."""
    net, sim, counts, queues = env.net, env.sim, env.counts, env.queues
    dt = sim.dt_s
    length, jam = net.length_m, net.jam_density
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
    ncrit = fd.critical_density(net.lanes, alpha, env.beta_a, net.beta_h_m)
    rho = n_link / length
    flow = fd.sending_flow(rho, net.speed_mps, ncrit, jam)
    congested = fd.congestion_state(rho, ncrit)
    latency = fd.link_latency(flow, congested, length, net.speed_mps, ncrit, jam)
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
    # A link that rounding left above jam can have a zero claim: -inf, clipped to 0.
    with np.errstate(divide="ignore"):
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


def compare_episode(scenario, seed, action_seed):
    """Run one episode of ``scenario`` on the engine and on ``loop_step``
    under the same random actions, asserting equal bits at every step.
    Returns how many steps ended with vehicles queued at the origin (its
    drain was rationed), with vehicles exiting, and with a dead path."""
    env, ref = TrafficEnv(scenario), TrafficEnv(scenario)
    env.reset(seed)
    ref.reset(seed)
    rng = np.random.default_rng(action_seed)
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
    return rationed, exits, dead_paths


@pytest.mark.parametrize("name", sorted(SCENARIOS))
@pytest.mark.parametrize("seed", [1, 2])
def test_array_step_matches_loop_step_bit_for_bit(name, seed):
    rationed, exits, dead_paths = compare_episode(SCENARIOS[name](), seed, 100 + seed)
    # The comparison covered rationed inflow, exits and paths whose share
    # underflowed to zero, not only free flow.
    assert rationed > 0 and exits > 0 and dead_paths > 0


def small_scenario(links, peak_vps, autonomy=0.5, mu=1.0, initial_fill=()):
    """A half-hour, one-minute-step scenario from "o" to "d" over ``links``:
    demand ramps to ``peak_vps`` and back, and link i starts at
    ``initial_fill[i]`` of its jam count (links on no path start empty)."""
    network = Network(links=tuple(links), od_pairs=(ODPair("o", "d"),),
                      beta_min_m=1.0, beta_max_m=10.0, beta_h_m=6.0)
    on_path = {l for path in network.paths for l in path}
    counts = {l.id: fill * l.jam_density * l.length_m / 1.05
              for l, fill in zip(links, initial_fill) if l.id in on_path}
    demand = DemandProfile(((0.0, 0.0), (600.0, peak_vps), (1200.0, peak_vps), (1800.0, 0.0)),
                           autonomy_fraction=autonomy)
    sim = SimConfig(dt_s=60.0, horizon_s=1800.0, action_period_s=300.0,
                    initial_counts=counts, mu_h=mu, mu_a=mu)
    return Scenario(network, demand, sim)


def short_links(edges):
    """Link i runs along edges[i]: 500 m, one lane, 20 m/s, 0.5-m jam spacing."""
    return [Link(i, frm, to, 500.0, 1, 20.0, 0.5) for i, (frm, to) in enumerate(edges)]


# Path (0,) is a single link: its queue feeds a cell that exits at once.
ONE_LINK_PATH = small_scenario(short_links([("o", "d"), ("o", "a"), ("a", "d")]), 20.0)
# Path (2, 1, 0) runs against the link ids, so every inflow is added after
# the outflow is taken.
DESCENDING_IDS = small_scenario(short_links([("b", "d"), ("a", "b"), ("o", "a"), ("o", "d")]),
                                20.0)
EXAMPLES = [ONE_LINK_PATH, DESCENDING_IDS]

NODES = "oabcd"


@st.composite
def small_networks(draw):
    """A scenario on a random network with an O->D chain through up to three
    of the inner nodes plus up to four other links, ids in random order."""
    inner = draw(st.permutations("abc"))[:draw(st.integers(0, 3))]
    chain = ["o", *inner, "d"]
    edges = list(zip(chain, chain[1:])) + draw(st.lists(
        st.tuples(st.sampled_from(NODES), st.sampled_from(NODES)).filter(lambda e: e[0] != e[1]),
        max_size=4))
    edges = draw(st.permutations(edges))
    links = [Link(i, frm, to, draw(st.floats(200.0, 5000.0)), draw(st.integers(1, 3)),
                  draw(st.floats(5.0, 30.0)), draw(st.floats(0.3, 0.9)))
             for i, (frm, to) in enumerate(edges)]
    fill = draw(st.lists(st.floats(0.0, 0.9), min_size=len(links), max_size=len(links)))
    return small_scenario(links, draw(st.floats(0.0, 40.0)), draw(st.floats(0.0, 1.0)),
                          draw(st.floats(0.0, 5.0)), fill)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(scenario=small_networks(), seed=st.integers(0, 9), action_seed=st.integers(0, 9))
@example(scenario=ONE_LINK_PATH, seed=0, action_seed=0)
@example(scenario=DESCENDING_IDS, seed=0, action_seed=0)
def test_array_step_matches_loop_step_on_generated_networks(scenario, seed, action_seed):
    """The same comparison on small random networks under random actions."""
    rationed, exits, _ = compare_episode(scenario, seed, action_seed)
    if any(scenario is case for case in EXAMPLES):
        assert rationed > 0 and exits > 0
