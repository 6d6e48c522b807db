"""Clipped policy-gradient training of the headway policy, from scratch.

The agent acts once per action period (the 10 inner one-minute sim steps are
rolled into a single decision-step reward), collects fixed-size rollouts
from several sequentially-stepped environments, estimates advantages with
GAE, and ascends the PPO clipped surrogate with Adam. Policy and value
networks are separate tanh MLPs; all gradients are exact reverse-mode
(see nn.py), no autodiff framework involved.

The hyperparameters are fixed constants: learning rate 2e-4, clip range
0.2, discount 0.99, GAE lambda 0.95, value-loss weight 0.5, two 64-wide
hidden layers per network, initial log std 0, and per update 10 epochs of
64-sample minibatches, then one evaluation episode on each of seeds 9001,
9002 and 9003. ``TrainConfig`` holds only the four values the CLI sets: the
budget, the seed, the decision steps per update and the number of envs.

Everything is seeded: same config -> same parameters, same learning curve.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .engine import TrafficEnv, observation_size, run_episode
from .nn import (
    Adam,
    LOG_STD_MAX,
    LOG_STD_MIN,
    gaussian_log_prob,
    gaussian_log_prob_grads,
    init_layers,
    mlp_backward,
    mlp_forward,
)
from .network import ConfigError
from .policies import HIDDEN, PolicyParams, policy_act, squash_to_bounds
from .scenario import Scenario

LEARNING_RATE = 2e-4
CLIP_RANGE = 0.2
GAMMA = 0.99
GAE_LAMBDA = 0.95
VALUE_COEF = 0.5


@dataclass(frozen=True)
class TrainConfig:
    total_steps: int = 40_960      # decision-step budget
    seed: int = 0
    n_steps: int = 2048            # decision steps gathered per update
    n_envs: int = 8
    n_epochs: ClassVar[int] = 10
    batch_size: ClassVar[int] = 64
    eval_seeds: ClassVar[tuple[int, ...]] = (9001, 9002, 9003)

    def __post_init__(self):
        if min(self.n_envs, self.n_steps) < 1 or self.total_steps < 0:
            raise ConfigError(f"need n_envs, n_steps >= 1 and total_steps >= 0: {self}")
        if self.n_steps % self.batch_size != 0:
            raise ConfigError("batch_size must divide n_steps")
        if self.n_steps % self.n_envs != 0:
            raise ConfigError("n_envs must divide n_steps")


@dataclass
class ActorCritic:
    policy: PolicyParams
    value_layers: list

    @classmethod
    def new(cls, obs_dim: int, n_links: int, beta_min: float, beta_max: float,
            rng) -> "ActorCritic":
        policy = PolicyParams.new(obs_dim, n_links, rng, beta_min_m=beta_min, beta_max_m=beta_max)
        value_layers = init_layers([obs_dim, *HIDDEN, 1], rng, out_scale=1.0)
        return cls(policy=policy, value_layers=value_layers)

    def param_list(self) -> list[np.ndarray]:
        """Canonical flat ordering: policy layers, log_std, value layers."""
        out = []
        for W, b in self.policy.layers:
            out.extend((W, b))
        out.append(self.policy.log_std)
        for W, b in self.value_layers:
            out.extend((W, b))
        return out

    def value(self, obs_batch: np.ndarray) -> np.ndarray:
        v, _ = mlp_forward(self.value_layers, obs_batch)
        return v[:, 0]


def compute_gae(rewards, values, dones, gamma: float, lam: float):
    """Generalized advantage estimation over one trajectory stream.

    ``values`` must carry one extra trailing element: the bootstrap value of
    the state after the last transition. Returns (advantages, returns).
    """
    T = len(rewards)
    if len(values) != T + 1 or len(dones) != T:
        raise ValueError("misaligned GAE inputs")
    adv = np.zeros(T)
    last = 0.0
    for t in range(T - 1, -1, -1):
        nonterminal = 1.0 - dones[t]
        delta = rewards[t] + gamma * values[t + 1] * nonterminal - values[t]
        last = delta + gamma * lam * nonterminal * last
        adv[t] = last
    return adv, adv + values[:-1]


class _ReturnNormalizer:
    """Running std of the discounted return. Training divides rewards by it so
    the value head regresses O(1) targets regardless of vehicle counts."""

    def __init__(self, n_envs: int):
        self.ret = np.zeros(n_envs)
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0

    def update(self, rewards: np.ndarray, dones: np.ndarray) -> np.ndarray:
        self.ret = self.ret * GAMMA + rewards
        for r in self.ret:
            self.count += 1
            delta = r - self.mean
            self.mean += delta / self.count
            self.m2 += delta * (r - self.mean)
        self.ret[dones > 0.0] = 0.0
        return rewards / self.std

    @property
    def std(self) -> float:
        if self.count < 2:
            return 1.0
        return max(math.sqrt(self.m2 / (self.count - 1)), 1e-8)


def loss_and_grads(ac: ActorCritic, obs, actions_u, log_probs_old, advantages, returns):
    """PPO loss on one minibatch and its exact gradients.

    Returns (loss, grads aligned with ac.param_list(), stats dict).
    """
    B = obs.shape[0]
    mean, pol_caches = mlp_forward(ac.policy.layers, obs)
    log_std = ac.policy.log_std
    logp = gaussian_log_prob(mean, log_std, actions_u)
    ratio = np.exp(logp - log_probs_old)
    clipped = np.clip(ratio, 1.0 - CLIP_RANGE, 1.0 + CLIP_RANGE)
    surr1 = ratio * advantages
    surr2 = clipped * advantages
    surrogate = np.minimum(surr1, surr2)
    policy_loss = -surrogate.mean()

    v_out, val_caches = mlp_forward(ac.value_layers, obs)
    v = v_out[:, 0]
    value_err = v - returns
    value_loss = float(np.mean(value_err ** 2))

    loss = policy_loss + VALUE_COEF * value_loss

    # d(policy_loss)/d(ratio): zero where the clipped branch is active.
    unclipped_active = (surr1 <= surr2).astype(float)
    dratio = -(advantages * unclipped_active) / B
    dlogp = dratio * ratio
    dmean, dlog_std = gaussian_log_prob_grads(mean, log_std, actions_u, dlogp)
    pol_grads = mlp_backward(ac.policy.layers, pol_caches, dmean)

    dv = (VALUE_COEF * 2.0 / B) * value_err
    val_grads = mlp_backward(ac.value_layers, val_caches, dv[:, None])

    grads: list[np.ndarray] = []
    for gW, gb in pol_grads:
        grads.extend((gW, gb))
    grads.append(dlog_std)
    for gW, gb in val_grads:
        grads.extend((gW, gb))

    stats = {
        "policy_loss": float(policy_loss),
        "value_loss": value_loss,
        "clip_fraction": float(np.mean(np.abs(ratio - 1.0) > CLIP_RANGE)),
    }
    return float(loss), grads, stats


def ppo_update(ac: ActorCritic, batch, adam: Adam, rng) -> dict:
    """Run the epochs/minibatch schedule over one update's rollout, in place.

    ``batch`` is (obs, pre-squash actions, log probs, advantages, returns),
    aligned along their first axis.
    """
    obs, actions_u, log_probs, adv, returns = batch
    N = obs.shape[0]
    adv = (adv - adv.mean()) / (adv.std() + 1e-8)
    agg = {"policy_loss": 0.0, "value_loss": 0.0, "clip_fraction": 0.0}
    batches = 0
    params = ac.param_list()
    for _ in range(TrainConfig.n_epochs):
        order = rng.permutation(N)
        for start in range(0, N, TrainConfig.batch_size):
            idx = order[start:start + TrainConfig.batch_size]
            loss, grads, stats = loss_and_grads(ac, obs[idx], actions_u[idx], log_probs[idx],
                                                adv[idx], returns[idx])
            if not np.isfinite(loss):
                raise FloatingPointError(f"non-finite PPO loss: {loss}")
            adam.step(params, grads)
            np.clip(ac.policy.log_std, LOG_STD_MIN, LOG_STD_MAX, out=ac.policy.log_std)
            for key in agg:
                agg[key] += stats[key]
            batches += 1
    return {key: val / batches for key, val in agg.items()}


def evaluate_policy(scenario: Scenario, params: PolicyParams, seeds) -> list[float]:
    """TTT of one episode per seed under the policy's deterministic action."""
    return [run_episode(scenario, lambda obs: policy_act(params, obs), seed).ttt
            for seed in seeds]


def train(scenario: Scenario, config: TrainConfig = TrainConfig()):
    """Train the headway policy; returns (best PolicyParams, learning curve).

    The curve has one row per update with the running best evaluation TTT;
    the returned parameters are the best-so-far evaluation checkpoint.
    """
    rng = np.random.default_rng(config.seed)
    net = scenario.network
    obs_dim = observation_size(net.n_links)
    ac = ActorCritic.new(obs_dim, net.n_links, net.beta_min_m, net.beta_max_m, rng)

    n_updates = config.total_steps // config.n_steps
    curve: list[dict] = []
    best_params = copy.deepcopy(ac.policy)
    if n_updates == 0:
        return best_params, curve

    steps_per_env = config.n_steps // config.n_envs
    envs = [TrafficEnv(scenario) for _ in range(config.n_envs)]
    episode_counter = 0

    def next_episode_seed() -> int:
        nonlocal episode_counter
        episode_counter += 1
        return (config.seed * 1_000_003 + episode_counter) % (2**63)

    obs_now = np.stack([env.reset(next_episode_seed()) for env in envs])
    normalizer = _ReturnNormalizer(config.n_envs)
    adam = Adam([p.shape for p in ac.param_list()], lr=LEARNING_RATE)
    best_ttt = math.inf

    E, S, D, A = config.n_envs, steps_per_env, obs_dim, net.n_links
    for update in range(1, n_updates + 1):
        obs_buf = np.zeros((E, S, D))
        u_buf = np.zeros((E, S, A))
        logp_buf = np.zeros((E, S))
        rew_buf = np.zeros((E, S))
        val_buf = np.zeros((E, S))
        done_buf = np.zeros((E, S))

        for step in range(S):
            mean, _ = mlp_forward(ac.policy.layers, obs_now)
            noise = rng.standard_normal((E, A))
            u = mean + np.exp(ac.policy.log_std) * noise
            logp = gaussian_log_prob(mean, ac.policy.log_std, u)
            values = ac.value(obs_now)

            obs_buf[:, step] = obs_now
            u_buf[:, step] = u
            logp_buf[:, step] = logp
            val_buf[:, step] = values

            rewards = np.zeros(E)
            dones = np.zeros(E)
            for e, env in enumerate(envs):
                beta = squash_to_bounds(u[e], net.beta_min_m, net.beta_max_m)
                result = env.decision_step(beta)
                rewards[e] = result.reward
                dones[e] = float(result.done)
                obs_now[e] = env.reset(next_episode_seed()) if result.done else result.obs
            rew_buf[:, step] = normalizer.update(rewards, dones)
            done_buf[:, step] = dones

        bootstrap = ac.value(obs_now)
        adv_buf = np.zeros((E, S))
        ret_buf = np.zeros((E, S))
        for e in range(E):
            adv_buf[e], ret_buf[e] = compute_gae(
                rew_buf[e], np.append(val_buf[e], bootstrap[e]), done_buf[e], GAMMA, GAE_LAMBDA,
            )

        batch = (obs_buf.reshape(E * S, D), u_buf.reshape(E * S, A), logp_buf.reshape(E * S),
                 adv_buf.reshape(E * S), ret_buf.reshape(E * S))
        stats = ppo_update(ac, batch, adam, rng)

        eval_ttts = evaluate_policy(scenario, ac.policy, config.eval_seeds)
        mean_ttt = float(np.mean(eval_ttts))
        if mean_ttt < best_ttt:
            best_ttt = mean_ttt
            best_params = copy.deepcopy(ac.policy)
        curve.append({
            "update_index": update,
            "env_steps": update * config.n_steps,
            "mean_eval_ttt": mean_ttt,
            "policy_loss": stats["policy_loss"],
            "value_loss": stats["value_loss"],
            "clip_fraction": stats["clip_fraction"],
            "best_eval_ttt": best_ttt,
        })

    return best_params, curve


LEARNING_CURVE_HEADER = [
    "update_index", "env_steps", "mean_eval_ttt",
    "policy_loss", "value_loss", "clip_fraction", "best_eval_ttt",
]
