"""Trainer internals: MLP gradients, GAE, the clipped surrogate, determinism."""

import math

import numpy as np
import pytest

from headwayctl.engine import TrafficEnv, run_episode
from headwayctl.nn import (
    Adam,
    gaussian_log_prob,
    init_layers,
    mlp_backward,
    mlp_forward,
)
from headwayctl.policies import PolicyParams, policy_act
from headwayctl.ppo import (
    ActorCritic,
    TrainConfig,
    _ReturnNormalizer,
    compute_gae,
    evaluate_policy,
    loss_and_grads,
    train,
)
from headwayctl.scenario import braess5_scenario
from tests.test_engine import single_link_scenario


def flatten_arrays(arrays) -> np.ndarray:
    """One vector of every array's entries, in order: finite differences probe it."""
    return np.concatenate([a.ravel() for a in arrays])


def unflatten_like(vector: np.ndarray, arrays) -> list[np.ndarray]:
    """Split ``vector`` back into arrays shaped like ``arrays``."""
    out = []
    i = 0
    for a in arrays:
        out.append(vector[i:i + a.size].reshape(a.shape))
        i += a.size
    return out


class TestMLP:
    def test_zero_params_zero_output(self):
        layers = init_layers([3, 4, 2], np.random.default_rng(0))
        layers = [(np.zeros_like(W), np.zeros_like(b)) for W, b in layers]
        out, _ = mlp_forward(layers, np.ones((5, 3)))
        assert np.array_equal(out, np.zeros((5, 2)))

    def test_single_linear_layer_hand_value(self):
        layers = [(np.array([[2.0]]), np.array([1.0]))]
        out, _ = mlp_forward(layers, np.array([[3.0]]))
        assert out[0, 0] == pytest.approx(7.0, rel=1e-12)

    def test_tanh_saturation_bounds_output(self):
        rng = np.random.default_rng(1)
        layers = init_layers([2, 8, 1], rng)
        W_out, b_out = layers[-1]
        bound = np.abs(W_out).sum() + np.abs(b_out).sum()
        out, _ = mlp_forward(layers, np.array([[1e9, -1e9]]))
        assert abs(out[0, 0]) <= bound + 1e-12

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        layers = init_layers([3, 5, 2], rng, out_scale=1.0)
        x = rng.normal(size=(4, 3))
        dout = rng.normal(size=(4, 2))

        def objective(flat):
            restored = unflatten_like(flat, [a for Wb in layers for a in Wb])
            ls = [(restored[2 * i], restored[2 * i + 1]) for i in range(len(layers))]
            out, _ = mlp_forward(ls, x)
            return float((out * dout).sum())

        _, caches = mlp_forward(layers, x)
        grads = mlp_backward(layers, caches, dout)
        flat_g = flatten_arrays([a for Wb in grads for a in Wb])
        flat_p = flatten_arrays([a for Wb in layers for a in Wb])
        h = 1e-6
        for i in range(0, flat_p.size, 7):
            probe = flat_p.copy()
            probe[i] += h
            plus = objective(probe)
            probe[i] -= 2 * h
            minus = objective(probe)
            fd = (plus - minus) / (2 * h)
            assert flat_g[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)


class TestGaussianLogProb:
    def test_standard_normal_at_mode(self):
        lp = gaussian_log_prob(np.zeros((1, 1)), np.zeros(1), np.zeros((1, 1)))
        assert lp[0] == pytest.approx(-0.5 * math.log(2 * math.pi), rel=1e-12)

    def test_mode_is_maximum(self):
        mean = np.array([[0.3, -0.7]])
        ls = np.array([0.1, -0.2])
        at_mode = gaussian_log_prob(mean, ls, mean)
        for _ in range(20):
            x = mean + np.random.default_rng(1).normal(size=(1, 2))
            assert gaussian_log_prob(mean, ls, x)[0] <= at_mode[0]

    def test_doubling_sigma_costs_ln2_per_dim(self):
        mean = np.zeros((1, 3))
        lp1 = gaussian_log_prob(mean, np.zeros(3), mean)
        lp2 = gaussian_log_prob(mean, np.full(3, math.log(2.0)), mean)
        assert lp1[0] - lp2[0] == pytest.approx(3 * math.log(2.0), rel=1e-12)


class TestGAE:
    def test_hand_example_gamma_lambda_one(self):
        adv, ret = compute_gae([1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0], 1.0, 1.0)
        assert adv == pytest.approx([2.0, 1.0], rel=1e-12)
        assert ret == pytest.approx([2.0, 1.0], rel=1e-12)

    def test_lambda_zero_is_one_step_td(self):
        rng = np.random.default_rng(3)
        r = rng.normal(size=6)
        v = rng.normal(size=7)
        d = np.zeros(6)
        adv, _ = compute_gae(r, v, d, 0.9, 0.0)
        delta = r + 0.9 * v[1:] - v[:-1]
        assert adv == pytest.approx(delta, rel=1e-12)

    def test_all_zero_inputs(self):
        adv, ret = compute_gae(np.zeros(4), np.zeros(5), np.zeros(4), 0.99, 0.95)
        assert np.array_equal(adv, np.zeros(4))
        assert np.array_equal(ret, np.zeros(4))

    def test_done_blocks_bootstrap(self):
        # Terminal steps must not look at the next value (here 5.0): each
        # advantage reduces to r_t - v_t.
        adv, _ = compute_gae([1.0, 1.0], [0.0, 5.0, 5.0], [1.0, 1.0], 0.9, 0.9)
        assert adv == pytest.approx([1.0, -4.0], rel=1e-12)


def small_instance(seed, n_obs=3, n_act=2, batch=8, ratio_spread=0.05):
    """Random PPO minibatch with ratios safely inside the clip band."""
    rng = np.random.default_rng(seed)
    ac = ActorCritic.new(n_obs, n_act, 1.0, 10.0, rng)
    for W, b in ac.policy.layers + ac.value_layers:
        W += rng.normal(0.0, 0.05, size=W.shape)
        b += rng.normal(0.0, 0.05, size=b.shape)
    obs = rng.normal(size=(batch, n_obs))
    mean, _ = mlp_forward(ac.policy.layers, obs)
    u = mean + np.exp(ac.policy.log_std) * rng.standard_normal((batch, n_act))
    logp_old = gaussian_log_prob(mean, ac.policy.log_std, u)
    logp_old = logp_old + rng.uniform(-ratio_spread, ratio_spread, size=batch)
    adv = rng.normal(size=batch)
    ret = rng.normal(size=batch)
    return ac, obs, u, logp_old, adv, ret


class TestClippedSurrogate:
    def test_clip_arithmetic_single_sample(self):
        # One sample with ratio exactly 1.3 and advantage +1: the clipped
        # objective contributes min(1.3, 1.2) = 1.2.
        ac, obs, u, logp_old, _, _ = small_instance(0, batch=1)
        mean, _ = mlp_forward(ac.policy.layers, obs)
        logp_now = gaussian_log_prob(mean, ac.policy.log_std, u)
        logp_old = logp_now - math.log(1.3)
        ret = ac.value(obs)  # zero value loss
        loss, _, stats = loss_and_grads(ac, obs, u, logp_old, np.array([1.0]), ret)
        assert loss == pytest.approx(-1.2, rel=1e-9)
        assert stats["clip_fraction"] == 1.0

    def test_surrogate_bounded_by_clip(self):
        rng = np.random.default_rng(7)
        eps = 0.2
        for _ in range(200):
            ratio = rng.uniform(0.0, 3.0)
            a = rng.normal()
            surrogate = min(ratio * a, np.clip(ratio, 1 - eps, 1 + eps) * a)
            assert surrogate <= (1 + eps) * abs(a) + 1e-12

    def test_identical_params_give_unit_ratios(self):
        ac, obs, u, _, adv, ret = small_instance(1)
        mean, _ = mlp_forward(ac.policy.layers, obs)
        logp_old = gaussian_log_prob(mean, ac.policy.log_std, u)
        _, _, stats = loss_and_grads(ac, obs, u, logp_old, adv, ret)
        assert stats["clip_fraction"] == 0.0

    def test_unit_ratio_gradient_equals_reinforce_with_baseline(self):
        # At old == new the clip is inactive and the policy gradient must
        # equal the plain likelihood-ratio gradient -E[A * grad log pi].
        ac, obs, u, _, adv, ret = small_instance(2)
        mean, caches = mlp_forward(ac.policy.layers, obs)
        logp_old = gaussian_log_prob(mean, ac.policy.log_std, u)
        _, grads, _ = loss_and_grads(ac, obs, u, logp_old, adv, ret)

        from headwayctl.nn import gaussian_log_prob_grads

        B = obs.shape[0]
        dlogp = -adv / B
        dmean, dlog_std = gaussian_log_prob_grads(mean, ac.policy.log_std, u, dlogp)
        ref = mlp_backward(ac.policy.layers, caches, dmean)
        n_pol = 2 * len(ref)
        flat_ppo = flatten_arrays(grads[:n_pol])
        flat_ref = flatten_arrays([a for Wb in ref for a in Wb])
        assert np.allclose(flat_ppo, flat_ref, rtol=1e-10, atol=1e-12)
        assert np.allclose(grads[n_pol], dlog_std, rtol=1e-10, atol=1e-12)


class TestGradientOracle:
    def test_analytic_matches_central_differences(self):
        # Full PPO loss vs finite differences over every parameter, on 20
        # randomized small instances.
        worst = 0.0
        for seed in range(20):
            ac, obs, u, logp_old, adv, ret = small_instance(seed)
            params = ac.param_list()
            loss, grads, _ = loss_and_grads(ac, obs, u, logp_old, adv, ret)
            flat_g = flatten_arrays(grads)
            flat_p = flatten_arrays(params)

            def loss_at(vec):
                restored = unflatten_like(vec, params)
                for dst, src in zip(params, restored):
                    dst[...] = src
                value, _, _ = loss_and_grads(ac, obs, u, logp_old, adv, ret)
                return value

            h = 1e-5
            rng = np.random.default_rng(seed + 1000)
            idxs = rng.choice(flat_p.size, size=min(60, flat_p.size), replace=False)
            base = flat_p.copy()
            for i in idxs:
                probe = base.copy()
                probe[i] += h
                plus = loss_at(probe)
                probe[i] -= 2 * h
                minus = loss_at(probe)
                fd = (plus - minus) / (2 * h)
                scale = max(abs(fd), abs(flat_g[i]), 1e-6)
                worst = max(worst, abs(fd - flat_g[i]) / scale)
            loss_at(base)  # restore
        assert worst <= 1e-4


class TestAdvantageNormalization:
    def test_post_normalization_moments(self):
        rng = np.random.default_rng(11)
        adv = rng.normal(3.0, 7.0, size=2048)
        norm = (adv - adv.mean()) / (adv.std() + 1e-8)
        assert abs(norm.mean()) <= 1e-10
        assert abs(norm.std() - 1.0) <= 1e-6


class TestReturnNormalizer:
    def test_scales_toward_unit_returns(self):
        rng = np.random.default_rng(12)
        norm = _ReturnNormalizer(n_envs=2)
        for _ in range(500):
            r = rng.normal(-1000.0, 50.0, size=2)
            out = norm.update(r, np.zeros(2))
        scaled = r / norm.std
        assert np.allclose(out, scaled)
        # discounted return magnitude ~ 1000/(1-0.99) = 1e5
        assert 1e4 < norm.std < 1e6


class TestTrainLoop:
    def test_zero_budget_returns_initial_params(self):
        sc = single_link_scenario(horizon_s=1_200.0)
        cfg = TrainConfig(total_steps=0, n_steps=64, n_envs=4, seed=1)
        params, curve = train(sc, cfg)
        assert curve == []
        assert params.n_actions == 1

    def test_deterministic_given_seed(self):
        sc = single_link_scenario(horizon_s=1_200.0, demand_peak=0.5)
        cfg = TrainConfig(total_steps=128, n_steps=64, n_envs=4, seed=3)
        p1, c1 = train(sc, cfg)
        p2, c2 = train(sc, cfg)
        assert c1 == c2
        for (W1, _), (W2, _) in zip(p1.layers, p2.layers):
            assert np.array_equal(W1, W2)

    def test_curve_rows_and_best_monotone(self):
        sc = single_link_scenario(horizon_s=1_200.0, demand_peak=0.5)
        cfg = TrainConfig(total_steps=192, n_steps=64, n_envs=4, seed=4)
        _, curve = train(sc, cfg)
        assert len(curve) == 3
        best = [row["best_eval_ttt"] for row in curve]
        assert all(b <= a + 1e-9 for a, b in zip(best, best[1:]))
        for row in curve:
            assert set(row) == {
                "update_index", "env_steps", "mean_eval_ttt",
                "policy_loss", "value_loss", "clip_fraction", "best_eval_ttt",
            }

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(n_steps=100)
        with pytest.raises(ValueError):
            TrainConfig(n_steps=64, n_envs=5)

    def test_evaluate_policy_is_run_episode_ttt(self):
        # One TTT definition: evaluation runs the same episode as
        # run_episode, under the policy's deterministic action.
        sc = braess5_scenario()
        net = sc.network
        params = PolicyParams.new(TrafficEnv(sc).obs_dim, net.n_links,
                                  np.random.default_rng(0), beta_min_m=net.beta_min_m,
                                  beta_max_m=net.beta_max_m)
        seeds = [0, 1, 2, 3]
        want = [run_episode(sc, lambda obs: policy_act(params, obs), s).ttt for s in seeds]
        assert evaluate_policy(sc, params, seeds) == want


class TestAdam:
    def test_converges_on_quadratic(self):
        x = np.array([5.0, -3.0])
        opt = Adam([x.shape], lr=0.1)
        for _ in range(500):
            opt.step([x], [2.0 * x])
        assert np.allclose(x, 0.0, atol=1e-3)
