"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``python3 -m pytest tests/test_acceptance.py -v -s`` to see every
line. Criterion 5 is expected to fail: in this model the min-headway
baseline weakly dominates the uniform baseline whenever congestion exists
(see the engine's monotone dependence on critical density); the test states
the criterion faithfully and reports the measured gap.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

import headwayctl as h
from headwayctl.engine import TrafficEnv
from headwayctl.fundamental import (
    capacity,
    congestion_state,
    critical_density,
    link_latency,
    path_latency,
    sending_flow,
)
from headwayctl.harness import main
from headwayctl.ppo import TrainConfig, evaluate_policy, loss_and_grads, train
from headwayctl.routing import logit_update
from headwayctl.scenario import braess5_scenario

REL = 1e-9
EVAL_SEEDS = [0, 1, 2, 3, 4]
TRAIN_BUDGET = 65_536  # decision steps; criterion allows up to 200k


def report(num, desc, ok, detail=""):
    line = f"ACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {desc}"
    if detail:
        line += f" -- {detail}"
    print(line)


def rel_close(a, b, tol=REL):
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


def test_criterion_1_core_formula_suite():
    start = time.time()
    ok = True
    # critical density
    ok &= rel_close(critical_density(2, 0.0, 2.0, 6.0), 1.0 / 3.0)
    ok &= rel_close(critical_density(2, 1.0, 2.0, 6.0), 1.0)
    ok &= rel_close(critical_density(2, 0.5, 2.0, 6.0), 0.5)
    # capacity
    ok &= rel_close(capacity(30.0, 0.5), 15.0)
    ok &= capacity(30.0, 0.0) == 0.0
    ok &= rel_close(capacity(30.0, critical_density(4, 0.3, 6.0, 6.0)), 20.0)
    # flow branches (v=30, n_c=0.5, jam=2, d=1000)
    args = (1000.0, 30.0, 0.5, 2.0)
    ok &= rel_close(sending_flow(0.2, *args[1:]), 6.0)
    ok &= rel_close(sending_flow(0.5, *args[1:]), 15.0)
    ok &= rel_close(sending_flow(1.25, *args[1:]), 7.5)
    ok &= sending_flow(2.0, *args[1:]) == 0.0
    # congestion flag
    ok &= congestion_state(0.0, 0.5) == 0
    ok &= congestion_state(0.5, 0.5) == 0
    ok &= congestion_state(1.25, 0.5) == 1
    # link latency
    ok &= rel_close(link_latency(1.0, 0, *args), 1000.0 / 30.0)
    ok &= rel_close(link_latency(15.0, 1, *args), 1000.0 / 30.0)
    ok &= rel_close(link_latency(7.5, 1, *args), 500.0 / 3.0)
    # path latency
    lat = np.array([8000.0, 8000.0, 8000.0, 8000.0, 2000.0])
    ok &= path_latency((), lat) == 0.0
    ok &= rel_close(path_latency((0, 1), lat), 16000.0)
    ok &= rel_close(path_latency((0, 4, 3), lat), 18000.0)
    # Eqs. (6)-(7) routing examples
    ok &= np.allclose(
        logit_update(np.array([0.5, 0.5]), np.array([9.0, 9.0]), 0.3), [0.5, 0.5], rtol=REL
    )
    ok &= np.allclose(
        logit_update(np.array([0.2, 0.8]), np.array([1.0, 99.0]), 0.0), [0.2, 0.8], rtol=REL
    )
    expect = 1.0 / (1.0 + math.exp(-1.0))
    got = logit_update(np.array([0.5, 0.5]), np.array([10.0, 20.0]), 0.1)
    ok &= rel_close(got[0], expect)
    elapsed = time.time() - start
    report(1, "core formula suite (1e-9 rel)", ok and elapsed < 1.0, f"{elapsed:.2f}s")
    assert ok and elapsed < 1.0


def test_criterion_2_continuity_properties():
    start = time.time()
    rng = np.random.default_rng(2024)
    worst_flow, worst_lat = 0.0, 0.0
    for _ in range(1000):
        lanes = rng.integers(1, 9)
        beta_h = rng.uniform(1.0, 10.0)
        beta_a = rng.uniform(1.0, 10.0)
        alpha = rng.uniform(0.0, 1.0)
        v = rng.uniform(5.0, 40.0)
        d = rng.uniform(500.0, 300_000.0)
        n_c = critical_density(lanes, alpha, beta_a, beta_h)
        jam = lanes / 0.5
        eps = 1e-12 * n_c
        lo = sending_flow(n_c - eps, v, n_c, jam)
        hi = sending_flow(n_c + eps, v, n_c, jam)
        worst_flow = max(worst_flow, abs(lo - hi) / max(abs(lo), abs(hi)))
        lat = link_latency(v * n_c, 1, d, v, n_c, jam)
        worst_lat = max(worst_lat, abs(lat - d / v) / (d / v))
    elapsed = time.time() - start
    ok = worst_flow <= REL and worst_lat <= REL and elapsed < 5.0
    report(2, "flow/latency continuity over 1000 draws",
           ok, f"flow gap {worst_flow:.2e}, latency gap {worst_lat:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_3_conservation_100_episodes():
    start = time.time()
    sc = braess5_scenario()
    env = TrafficEnv(sc)
    jam_counts = sc.network.jam_density * sc.network.length_m
    rng = np.random.default_rng(77)
    worst_rel = 0.0
    for episode in range(100):
        env.reset(episode)
        while not env.done:
            env.apply_action(rng.uniform(1.0, 10.0, size=5))
            for _ in range(env.sim.steps_per_action):
                env.step_sim()
                balance = env.counts.sum() + env.queues.sum() + env.exited
                worst_rel = max(worst_rel, abs(balance - env.injected) / env.injected)
                assert np.all(env.counts.sum(axis=(1, 2)) <= jam_counts * (1.0 + REL))
    elapsed = time.time() - start
    ok = worst_rel <= REL and elapsed < 30.0
    report(3, "conservation + jam cap over 100 random-action episodes",
           ok, f"worst rel error {worst_rel:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_4_route_choice_properties():
    start = time.time()
    rng = np.random.default_rng(4)
    worst_sum = 0.0
    worst_id = 0.0
    for _ in range(10_000):
        n = rng.integers(2, 6)
        shares = rng.dirichlet(np.ones(n))
        lat = rng.uniform(0.0, 1e5, size=n)
        out = logit_update(shares, lat, rng.uniform(0.0, 2.0))
        worst_sum = max(worst_sum, abs(out.sum() - 1.0))
        frozen = logit_update(shares, lat, 0.0)
        worst_id = max(worst_id, np.max(np.abs(frozen - shares)))
    elapsed = time.time() - start
    ok = worst_sum <= 1e-12 and worst_id <= 1e-12 and elapsed < 5.0
    report(4, "simplex preservation + mu=0 identity over 1e4 updates",
           ok, f"sum err {worst_sum:.1e}, id err {worst_id:.1e}, {elapsed:.1f}s")
    assert ok


def test_criterion_5_braess_directionality():
    start = time.time()
    sc = braess5_scenario()  # mu=0.1, alpha_OD=0.8 defaults
    uniform = h.make_controller("uniform", sc.network)
    minimum = h.make_controller("min", sc.network)
    ttt_uniform = [h.run_episode(sc, uniform, s).ttt for s in EVAL_SEEDS]
    ttt_min = [h.run_episode(sc, minimum, s).ttt for s in EVAL_SEEDS]
    mean_u, mean_m = float(np.mean(ttt_uniform)), float(np.mean(ttt_min))
    elapsed = time.time() - start
    ok = mean_m >= mean_u and elapsed < 120.0
    report(5, "TTT(min headway) >= TTT(uniform) on Braess-5 defaults", ok,
           f"min {mean_m:.4e} vs uniform {mean_u:.4e} "
           f"({100 * (mean_m - mean_u) / mean_u:+.2f}%), {elapsed:.1f}s")
    assert ok, (
        f"min-headway baseline undercuts uniform: {mean_m:.6e} < {mean_u:.6e}. "
        "Known model-level limitation: with equal rationality factors the "
        "min action scales every critical density by the same factor, which "
        "weakly dominates at every state; see the decisions ledger."
    )


def test_criterion_6_training_efficacy():
    start = time.time()
    sc = braess5_scenario()
    config = TrainConfig(total_steps=TRAIN_BUDGET, seed=0)
    params, curve = train(sc, config)
    ttt_policy = evaluate_policy(sc, params, EVAL_SEEDS)
    uniform = h.make_controller("uniform", sc.network)
    ttt_uniform = [h.run_episode(sc, uniform, s).ttt for s in EVAL_SEEDS]
    mean_p, mean_u = float(np.mean(ttt_policy)), float(np.mean(ttt_uniform))
    wins = sum(p < u for p, u in zip(ttt_policy, ttt_uniform))
    elapsed = time.time() - start
    ok = mean_p <= mean_u and wins >= 3 and elapsed < 1800.0
    report(6, f"trained policy beats uniform (budget {TRAIN_BUDGET} decision steps)",
           ok, f"policy {mean_p:.4e} vs uniform {mean_u:.4e} "
               f"({100 * (mean_u - mean_p) / mean_u:+.2f}%), wins {wins}/5, {elapsed:.0f}s")
    assert ok


def test_criterion_7_gradient_check():
    from tests.test_ppo import flatten_arrays, small_instance, unflatten_like

    start = time.time()
    worst = 0.0
    for seed in range(20):
        ac, obs, u, logp_old, adv, ret = small_instance(seed)
        params = ac.param_list()
        _, grads, _ = loss_and_grads(ac, obs, u, logp_old, adv, ret)
        flat_g = flatten_arrays(grads)
        base = flatten_arrays(params)
        rng = np.random.default_rng(seed + 500)
        idxs = rng.choice(base.size, size=min(40, base.size), replace=False)
        h_step = 1e-5
        for i in idxs:
            probe = base.copy()
            probe[i] += h_step
            for dst, src in zip(params, unflatten_like(probe, params)):
                dst[...] = src
            plus, _, _ = loss_and_grads(ac, obs, u, logp_old, adv, ret)
            probe[i] -= 2 * h_step
            for dst, src in zip(params, unflatten_like(probe, params)):
                dst[...] = src
            minus, _, _ = loss_and_grads(ac, obs, u, logp_old, adv, ret)
            for dst, src in zip(params, unflatten_like(base, params)):
                dst[...] = src
            fd = (plus - minus) / (2 * h_step)
            worst = max(worst, abs(fd - flat_g[i]) / max(abs(fd), abs(flat_g[i]), 1e-6))
    elapsed = time.time() - start
    ok = worst <= 1e-4 and elapsed < 10.0
    report(7, "analytic vs central-difference gradients (20 instances)",
           ok, f"max rel err {worst:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_8_alpha_zero_neutrality(tmp_path):
    start = time.time()
    sc = braess5_scenario()
    sc = replace(sc, demand=replace(sc.demand, autonomy_fraction=0.0))
    env = TrafficEnv(sc)
    rng = np.random.default_rng(0)
    params = h.PolicyParams.new(env.obs_dim, 5, rng, beta_min_m=1.0, beta_max_m=10.0)
    results = {}
    for name, ctrl in (
        ("uniform", h.make_controller("uniform", sc.network)),
        ("min", h.make_controller("min", sc.network)),
        ("policy", lambda obs: h.policy_act(params, obs)),
    ):
        results[name] = h.run_episode(sc, ctrl, seed=0).ttt
    spread = max(results.values()) - min(results.values())
    rel = spread / max(results.values())
    elapsed = time.time() - start
    ok = rel <= REL and elapsed < 60.0
    report(8, "alpha=0: all controllers identical TTT",
           ok, f"relative spread {rel:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_9_manifest_determinism(tmp_path):
    start = time.time()
    first = tmp_path / "a"
    again = tmp_path / "b"
    assert main(["simulate", "--scenario", "braess5", "--out", str(first),
                 "--seed", "0,1"]) == 0
    assert main(["simulate", "--from-manifest", str(first / "manifest.json"),
                 "--out", str(again)]) == 0
    names_a = sorted(p.name for p in first.glob("*.csv"))
    names_b = sorted(p.name for p in again.glob("*.csv"))
    identical = names_a == names_b and all(
        (first / n).read_bytes() == (again / n).read_bytes() for n in names_a
    )
    # and a second command family: sweep-mu
    mu_a = tmp_path / "mu_a"
    mu_b = tmp_path / "mu_b"
    assert main(["sweep-mu", "--scenario", "braess5", "--out", str(mu_a),
                 "--mu", "0.05,0.1", "--seed", "0"]) == 0
    assert main(["sweep-mu", "--from-manifest", str(mu_a / "manifest.json"),
                 "--out", str(mu_b)]) == 0
    identical &= (mu_a / "sweep_mu.csv").read_bytes() == (mu_b / "sweep_mu.csv").read_bytes()
    elapsed = time.time() - start
    report(9, "manifest replay is byte-identical", identical, f"{elapsed:.1f}s")
    assert identical
