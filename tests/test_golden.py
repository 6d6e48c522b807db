"""Behaviour pin: golden TTTs, byte-exact trace CSVs and a short learning curve.

The values were recorded once, before the loop-free engine step replaced the
per-path loops, and must never be re-recorded to absorb a drift: a refactor
that moves them has changed what the simulator computes. The engine performs
the same floating-point operations in the same order as the loops did, so
the trace CSV is pinned byte for byte; the tolerances below leave room only
for refactors that reorder float sums on purpose (and must say so).
"""

import hashlib

import numpy as np
import pytest

from headwayctl.engine import run_episode
from headwayctl.harness import EXIT_OK, main
from headwayctl.policies import make_controller
from headwayctl.ppo import TrainConfig, evaluate_policy, train
from headwayctl.scenario import load_scenario

TTT_RTOL = 1e-12
CURVE_RTOL = 1e-9

# (scenario, controller, seed): (TTT, total exited)
EPISODES = {
    ("braess5", "uniform", 0): (86466527.92277597, 126509.27352066878),
    ("braess5", "uniform", 1): (86647142.46526977, 126717.50680172346),
    ("braess5", "uniform", 2): (86153491.24590735, 126164.80537382928),
    ("braess5", "uniform", 3): (85974954.05058716, 125963.81869817695),
    ("braess5", "uniform", 4): (86835788.93811221, 126873.58898103944),
    ("braess5", "min", 0): (83210724.83270593, 190929.61924819226),
    ("braess5", "min", 1): (83374838.19967878, 191413.2564010091),
    ("braess5", "min", 2): (82918658.482594, 190241.04278216313),
    ("braess5", "min", 3): (82752462.35715905, 189838.38920281568),
    ("braess5", "min", 4): (83552136.06046426, 191772.717006655),
    ("braess8", "uniform", 0): (86902521.71794131, 123232.11396461114),
    ("braess8", "uniform", 1): (87077383.72821735, 123485.87819717219),
    ("braess8", "uniform", 2): (86573357.00870153, 123011.75771249627),
    ("braess8", "uniform", 3): (86387258.30375178, 122868.88790227778),
    ("braess8", "uniform", 4): (87284743.10772139, 123497.46983403742),
    ("braess8", "min", 0): (83745919.90998928, 185190.52083818236),
    ("braess8", "min", 1): (83903426.33228923, 185745.0067474519),
    ("braess8", "min", 2): (83434036.4551212, 184714.45065122328),
    ("braess8", "min", 3): (83258550.11867155, 184411.41950405345),
    ("braess8", "min", 4): (84103491.82077521, 185860.32150508254),
}

# sha256 of trace_seed0.csv from `simulate --scenario braess8 --controller uniform`.
TRACE_SHA256 = "a77ea129e7e7f6dc6f2068884b31fc7c6f567770ebb8b27ba21109f7d50e593a"

# The same for runs with more free-flow steps, where the step takes its early
# returns: every step of braess8 under `min` is free flow. Recorded before
# the early returns existed.
FREE_FLOW_TRACE_SHA256 = {
    ("braess8", "min"): "f60e9f774a7b648fbd7a9856b9d95576db9df50aac86d45ec483c842bd4f8011",
    ("braess5", "uniform"): "6b4dcb1bca60629e9029bb199722b6c3a82d668369854ec1d70c43bbc2ff642b",
    ("braess5", "min"): "4290fbb04509efc6cf740774d1de4d42a36291d9133d9353bd4d4afa2b41635a",
}

# train() on braess5 with CURVE_CONFIG, one row per update:
# (mean_eval_ttt, policy_loss, value_loss, clip_fraction, best_eval_ttt)
CURVE_CONFIG = TrainConfig(total_steps=384, n_steps=128, n_envs=4, seed=5)
CURVE = [
    (86273259.08528262, -0.01038278429989813, 60.46991668217421, 0.01484375, 86273259.08528262),
    (86338843.87967633, -0.01653367490554249, 0.8032478482018218, 0.084375, 86273259.08528262),
    (86358190.82706822, -0.004543708269511401, 0.9757913761080564, 0.003125, 86273259.08528262),
]
CURVE_KEYS = ("mean_eval_ttt", "policy_loss", "value_loss", "clip_fraction", "best_eval_ttt")


@pytest.mark.parametrize("name,controller", [
    ("braess5", "uniform"), ("braess5", "min"), ("braess8", "uniform"), ("braess8", "min"),
])
def test_per_seed_ttt_and_exits(name, controller):
    scenario = load_scenario(name)
    ctrl = make_controller(controller, scenario.network)
    for seed in range(5):
        trace = run_episode(scenario, ctrl, seed)
        ttt, exited = EPISODES[name, controller, seed]
        assert trace.ttt == pytest.approx(ttt, rel=TTT_RTOL, abs=0.0), seed
        assert trace.total_exited == pytest.approx(exited, rel=TTT_RTOL, abs=0.0), seed


def test_trace_csv_bytes(tmp_path):
    out = tmp_path / "run"
    assert main(["simulate", "--scenario", "braess8", "--controller", "uniform",
                 "--out", str(out)]) == EXIT_OK
    digest = hashlib.sha256((out / "trace_seed0.csv").read_bytes()).hexdigest()
    assert digest == TRACE_SHA256


@pytest.mark.parametrize("name,controller", list(FREE_FLOW_TRACE_SHA256))
def test_free_flow_trace_csv_bytes(tmp_path, name, controller):
    out = tmp_path / "run"
    assert main(["simulate", "--scenario", name, "--controller", controller,
                 "--seed", "0", "--out", str(out)]) == EXIT_OK
    digest = hashlib.sha256((out / "trace_seed0.csv").read_bytes()).hexdigest()
    assert digest == FREE_FLOW_TRACE_SHA256[name, controller]


@pytest.fixture(scope="module")
def trained():
    scenario = load_scenario("braess5")
    return scenario, *train(scenario, CURVE_CONFIG)


def test_learning_curve(trained):
    _, _, curve = trained
    assert len(curve) == len(CURVE)
    for row, want in zip(curve, CURVE):
        got = tuple(row[k] for k in CURVE_KEYS)
        assert got == pytest.approx(want, rel=CURVE_RTOL, abs=0.0), row["update_index"]


def test_train_returns_the_best_policy_not_the_last(trained):
    # The first of the three updates evaluates best, so parameters that still
    # shared memory with the trainer's would evaluate as the last update did.
    scenario, params, curve = trained
    evals = [row["mean_eval_ttt"] for row in curve]
    assert evals.index(min(evals)) == 0 and evals[0] < evals[-1]
    ttts = evaluate_policy(scenario, params, TrainConfig.eval_seeds)
    assert float(np.mean(ttts)) == curve[-1]["best_eval_ttt"]
