"""Findings about the model, pinned so that a model change announces itself.

``scenarios/braess5_min_loses.json`` keeps braess5's topology, demand shape
and initial counts, with links 0-4 of (length km, lanes) 200/3, 80/2, 140/1,
64/3 and 16/7, an autonomy fraction of 0.34, every demand rate times 1.5
(peak 180 veh/s) and equal rationality factors ``mu_h`` = ``mu_a`` = 1.5.
There, under constant actions on seeds 0-4:

- minimum headway on every link loses to uniform (human) headway on every
  seed, by 4.29% to 4.49%;
- with route choice frozen (``mu_h`` = ``mu_a`` = 0) minimum headway wins
  instead (-2.84%), so the loss comes from route choice: it is Braess-like;
- minimum headway everywhere except link 2 (O->B, one lane), which stays at
  the human 6 m, beats both uniform (-1.82%) and minimum everywhere (-5.9%).

So equal rationality factors do not make minimum headway dominate uniform
in general; on braess5's defaults it does (criterion 5).
"""

import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from headwayctl.engine import run_episode
from headwayctl.scenario import load_scenario, save_scenario

SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "braess5_min_loses.json"
SCENARIO_SHA256 = "6f99071ae7d4bc70c5e591634f67d434527e089c0eea20aaa7f623cf3e2c8928"
SEEDS = range(5)
LINK_2 = 2


def seed_ttts(scenario, action):
    return np.array([run_episode(scenario, lambda obs: action, s).ttt for s in SEEDS])


@pytest.fixture(scope="module")
def ttts():
    """Per-seed TTTs of the constant actions, keyed by name."""
    scenario = load_scenario(SCENARIO)
    net = scenario.network
    uniform = np.full(net.n_links, net.beta_h_m)
    minimum = np.full(net.n_links, net.beta_min_m)
    min_but_link_2 = minimum.copy()
    min_but_link_2[LINK_2] = net.beta_h_m
    frozen = replace(scenario, sim=replace(scenario.sim, mu_h=0.0, mu_a=0.0))
    return {
        "uniform": seed_ttts(scenario, uniform),
        "min": seed_ttts(scenario, minimum),
        "min but link 2": seed_ttts(scenario, min_but_link_2),
        "frozen uniform": seed_ttts(frozen, uniform),
        "frozen min": seed_ttts(frozen, minimum),
    }


def test_the_committed_scenario_is_pinned(tmp_path):
    data = SCENARIO.read_bytes()
    assert hashlib.sha256(data).hexdigest() == SCENARIO_SHA256
    scenario = load_scenario(SCENARIO)
    assert scenario.sim.mu_h == scenario.sim.mu_a == 1.5
    assert scenario.demand.peak_rate == 180.0
    save_scenario(scenario, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == data


def test_min_headway_everywhere_loses_to_uniform_on_every_seed(ttts):
    loss = ttts["min"] / ttts["uniform"] - 1.0
    assert (loss >= 0.03).all(), loss


def test_the_loss_vanishes_when_route_choice_is_frozen(ttts):
    assert (ttts["frozen min"] < ttts["frozen uniform"]).all()


def test_min_headway_except_on_link_2_beats_both_baselines(ttts):
    best = ttts["min but link 2"]
    assert (best < ttts["uniform"]).all() and (best < ttts["min"]).all()
