"""Baseline controllers, the squashed Gaussian policy head, checkpoints."""

import numpy as np
import pytest

from headwayctl.nn import mlp_forward
from headwayctl.policies import (
    CheckpointError,
    PolicyParams,
    load_checkpoint,
    make_controller,
    policy_act,
    save_checkpoint,
    squash_to_bounds,
)
from headwayctl.scenario import braess5_scenario


@pytest.fixture
def net():
    return braess5_scenario().network


def zeroed_params(obs_dim=12, n_links=5):
    params = PolicyParams.new(obs_dim, n_links, np.random.default_rng(0), 1.0, 10.0)
    params.layers = [(np.zeros_like(W), np.zeros_like(b)) for W, b in params.layers]
    return params


class TestBaselines:
    def test_uniform_equals_human_headway(self, net):
        assert np.array_equal(make_controller("uniform", net)(np.zeros(12)), np.full(5, 6.0))

    def test_min_equals_lower_bound(self, net):
        assert np.array_equal(make_controller("min", net)(np.zeros(12)), np.full(5, 1.0))

    def test_constant_across_observations(self, net):
        ctrl = make_controller("uniform", net)
        a = ctrl(np.zeros(12))
        b = ctrl(np.ones(12))
        assert np.array_equal(a, b)


class TestPolicyAct:
    def test_zero_params_center_of_bounds(self):
        params = zeroed_params()
        beta = policy_act(params, np.zeros(12))
        assert beta == pytest.approx(np.full(5, 5.5), rel=1e-12)

    def test_sigmoid_asymptotes(self):
        assert squash_to_bounds(1e3, 1.0, 10.0) == pytest.approx(10.0, rel=1e-12)
        assert squash_to_bounds(-1e3, 1.0, 10.0) == pytest.approx(1.0, rel=1e-12)

    def test_actions_always_within_bounds(self):
        # Training squashes pre-squash samples mean + exp(log_std) * noise
        # (ppo.train); wide noise reaches both tails of the sigmoid.
        rng = np.random.default_rng(3)
        params = PolicyParams.new(12, 5, rng, 1.0, 10.0)
        params.log_std[:] = 2.0
        obs = rng.uniform(size=(100, 12))
        mean, _ = mlp_forward(params.layers, obs)
        u = mean + np.exp(params.log_std) * rng.standard_normal(mean.shape)
        beta = squash_to_bounds(u, params.beta_min_m, params.beta_max_m)
        assert np.all(beta >= 1.0) and np.all(beta <= 10.0)
        assert beta.min() < 1.5 and beta.max() > 9.5

    def test_dimension_mismatch_rejected(self):
        params = zeroed_params()
        with pytest.raises(ValueError):
            policy_act(params, np.zeros(7))


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        params = PolicyParams.new(12, 5, np.random.default_rng(5), 1.0, 10.0)
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        for (W1, b1), (W2, b2) in zip(params.layers, loaded.layers):
            assert np.array_equal(W1, W2)
            assert np.array_equal(b1, b2)
        assert np.array_equal(params.log_std, loaded.log_std)
        assert loaded.beta_min_m == params.beta_min_m

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "ghost.json")

    def test_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_controller_from_checkpoint(self, tmp_path, net):
        params = PolicyParams.new(12, 5, np.random.default_rng(6), 1.0, 10.0)
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, path)
        ctrl = make_controller(f"policy:{path}", net)
        beta = ctrl(np.zeros(12))
        assert beta.shape == (5,)
        assert np.all((beta >= 1.0) & (beta <= 10.0))

    def test_controller_link_count_mismatch(self, tmp_path, net):
        params = PolicyParams.new(12, 3, np.random.default_rng(7), 1.0, 10.0)
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, path)
        with pytest.raises(CheckpointError):
            make_controller(f"policy:{path}", net)

    def test_unknown_controller_name(self, net):
        with pytest.raises(ValueError):
            make_controller("chaos", net)
