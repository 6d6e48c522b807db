"""Engine behavior: conservation, caps, determinism, latency bookkeeping."""

from dataclasses import replace

import numpy as np
import pytest

from headwayctl.engine import InvariantViolation, TrafficEnv, run_episode, total_travel_time
from headwayctl.network import ConfigError, DemandProfile, Link, Network, ODPair, Path
from headwayctl.policies import min_headway_policy, uniform_headway_policy
from headwayctl.scenario import Scenario, SimConfig, braess5_scenario


def single_link_scenario(length_m=10_000.0, v=10.0, initial=100.0, horizon_s=6_000.0,
                         demand_peak=0.0, reward_scale=1.0, jam_spacing=0.5):
    link = Link(0, "a", "b", length_m, 1, v, jam_spacing)
    net = Network(
        links=(link,),
        od_pairs=(ODPair("a", "b", (Path(0, (0,)),)),),
        beta_min_m=1.0,
        beta_max_m=10.0,
        beta_h_m=6.0,
    )
    demand = DemandProfile(
        breakpoints=((0.0, demand_peak), (horizon_s, demand_peak)),
        autonomy_fraction=0.5,
    )
    sim = SimConfig(
        horizon_s=horizon_s,
        initial_counts={0: initial} if initial else {},
        initial_jitter=0.0,
        reward_scale=reward_scale,
    )
    return Scenario(network=net, demand=demand, sim=sim)


class TestReset:
    def test_braess5_initial_loading(self):
        env = TrafficEnv(braess5_scenario())
        env.reset(0)
        n = env.counts.sum(axis=(1, 2))
        assert n[0] > 0 and n[2] > 0
        assert n[1] == n[3] == n[4] == 0.0

    def test_same_seed_bit_identical(self):
        env1 = TrafficEnv(braess5_scenario())
        env2 = TrafficEnv(braess5_scenario())
        env1.reset(42)
        env2.reset(42)
        assert np.array_equal(env1.counts, env2.counts)
        assert env1.t_s == env2.t_s

    def test_initial_count_above_jam_rejected(self):
        with pytest.raises(ConfigError):
            single_link_scenario(length_m=100.0, initial=1.1 * 200.0)  # jam count 200

    def test_jitter_varies_with_seed_but_not_run(self):
        sc = braess5_scenario()
        env = TrafficEnv(sc)
        a = env.reset(1).copy()
        b = env.reset(2).copy()
        c = env.reset(1).copy()
        assert not np.array_equal(a, b)
        assert np.array_equal(a, c)


class TestApplyAction:
    def test_out_of_bounds_clamped_and_flagged(self):
        env = TrafficEnv(braess5_scenario())
        env.reset(0)
        action = np.array([0.5, 6.0, 6.0, 6.0, 20.0])
        result = env.decision_step(action)
        assert result.info["action_clamped"]
        assert env.beta_a[0] == 1.0
        assert env.beta_a[4] == 10.0

    def test_in_bounds_not_flagged(self):
        env = TrafficEnv(braess5_scenario())
        env.reset(0)
        result = env.decision_step(uniform_headway_policy(env.net))
        assert not result.info["action_clamped"]

    def test_action_persists_through_period(self):
        env = TrafficEnv(braess5_scenario())
        env.reset(0)
        env.apply_action(np.full(5, 2.5))
        for _ in range(env.sim.steps_per_action):
            row = env.step_sim()
            assert np.all(row["beta_a_m"] == 2.5)

    def test_mid_period_action_rejected(self):
        env = TrafficEnv(braess5_scenario())
        env.reset(0)
        env.step_sim()
        with pytest.raises(ValueError):
            env.apply_action(np.full(5, 5.0))

    def test_wrong_shape_rejected(self):
        env = TrafficEnv(braess5_scenario())
        env.reset(0)
        with pytest.raises(ValueError):
            env.apply_action(np.full(4, 5.0))


class TestStep:
    def test_empty_network_is_fixed_point(self):
        sc = single_link_scenario(initial=0.0)
        env = TrafficEnv(sc)
        env.reset(0)
        row = env.step_sim()
        assert row["reward"] == 0.0
        assert env.counts.sum() == 0.0
        assert env.queues.sum() == 0.0

    def test_free_flow_exit_fraction(self):
        # 100 vehicles at d=240 km, v=30: one minute removes v*dt/d = 0.75%.
        sc = single_link_scenario(length_m=240_000.0, v=30.0, initial=100.0,
                                  horizon_s=600.0)
        env = TrafficEnv(sc)
        env.reset(0)
        env.step_sim()
        assert env.counts.sum() == pytest.approx(99.25, rel=1e-12)

    def test_conservation_along_trajectory(self):
        sc = braess5_scenario()
        env = TrafficEnv(sc)
        env.reset(0)
        rng = np.random.default_rng(0)
        while not env.done:
            env.apply_action(rng.uniform(1.0, 10.0, size=5))
            for _ in range(env.sim.steps_per_action):
                env.step_sim()
            total = env.counts.sum() + env.queues.sum() + env.exited
            assert total == pytest.approx(env.injected, rel=1e-9)

    def test_jam_cap_and_queueing_under_overload(self):
        # 100 m link, jam count 200, demand 5 veh/s = 300 veh/min: the link
        # must saturate at jam and the origin queue must absorb the rest.
        sc = single_link_scenario(length_m=100.0, v=10.0, initial=0.0,
                                  horizon_s=1_800.0, demand_peak=5.0)
        env = TrafficEnv(sc)
        env.reset(0)
        jam_count = 200.0
        while not env.done:
            env.apply_action(np.array([1.0]))
            for _ in range(env.sim.steps_per_action):
                env.step_sim()
                assert env.counts.sum() <= jam_count * (1.0 + 1e-9)
        assert env.queues.sum() > 0.0
        assert env.counts.sum() + env.queues.sum() + env.exited == pytest.approx(
            env.injected, rel=1e-9
        )


class TestInvariantGuards:
    """The guards raise with the seed and step of the offending state."""

    def env_mid_episode(self):
        env = TrafficEnv(braess5_scenario())
        env.reset(3)
        env.decision_step(uniform_headway_policy(env.net))
        env.apply_action(uniform_headway_policy(env.net))
        return env

    def assert_violation(self, env, match):
        step = env.step_index
        with pytest.raises(InvariantViolation, match=match) as info:
            env.step_sim()
        assert f"step {step}, seed 3" in str(info.value)

    def test_nan_count_raises(self):
        env = self.env_mid_episode()
        env.counts[0, 0, 1] = np.nan
        self.assert_violation(env, "non-finite state")

    def test_nan_queue_raises(self):
        env = self.env_mid_episode()
        env.queues[0] = np.nan
        self.assert_violation(env, "non-finite state")

    def test_count_above_jam_raises(self):
        env = self.env_mid_episode()
        link = 1  # not an entry link, so the loading above is all there is
        env.counts[link, 0, 0] = 1.5 * env._jam_count[link]
        self.assert_violation(env, "link above jam density")

    def empty_env_mid_episode(self):
        # On an empty link a negative count of both classes leaves the
        # autonomy fraction at 0, so the step reaches the guards.
        env = TrafficEnv(single_link_scenario(initial=0.0))
        env.reset(3)
        env.apply_action(np.array([6.0]))
        for _ in range(4):
            env.step_sim()
        return env

    def test_negative_count_beyond_tolerance_raises(self):
        env = self.empty_env_mid_episode()
        env.counts[0, 0, :] = -1.0
        self.assert_violation(env, "negative count")

    def test_negative_noise_within_tolerance_is_scrubbed(self):
        env = self.empty_env_mid_episode()
        env.counts[0, 0, :] = -1e-9
        env.step_sim()
        assert env.counts.min() == 0.0


class TestReward:
    def test_hand_counts(self):
        sc = single_link_scenario(reward_scale=1.0)
        env = TrafficEnv(sc)
        env.reset(0)
        env.counts[:] = 0.0
        env.counts[0, 0, 0] = 1.0
        env.counts[0, 0, 1] = 2.0
        env.queues[:] = 0.0
        assert env.current_reward() == pytest.approx(-3.0, rel=1e-12)
        env.queues[0] = 3.0
        assert env.current_reward() == pytest.approx(-6.0, rel=1e-12)

    def test_empty_state_zero(self):
        env = TrafficEnv(single_link_scenario(initial=0.0))
        env.reset(0)
        assert env.current_reward() == 0.0

    def test_monotone_in_vehicles(self):
        env = TrafficEnv(single_link_scenario(reward_scale=1.0))
        env.reset(0)
        before = env.current_reward()
        env.counts[0, 0, 0] += 1.0
        assert env.current_reward() < before


class TestTotalTravelTime:
    def test_zero_everything_gives_zero(self):
        sc = single_link_scenario(initial=0.0)
        trace = run_episode(sc, lambda obs: np.array([6.0]), seed=0)
        assert total_travel_time(trace) == 0.0

    def test_identity_with_cumulative_reward(self):
        sc = braess5_scenario()
        trace = run_episode(sc, lambda obs: uniform_headway_policy(sc.network), seed=1)
        assert trace.ttt == pytest.approx(-trace.reward.sum() / sc.sim.reward_scale, rel=1e-12)

    def test_geometric_decay_oracle(self):
        # Single free-flow cohort, no demand: n(t) = n0 * q^t with
        # q = 1 - v*dt/d, so TTT telescopes to a geometric series.
        sc = single_link_scenario(length_m=10_000.0, v=10.0, initial=100.0,
                                  horizon_s=6_000.0)
        trace = run_episode(sc, lambda obs: np.array([6.0]), seed=0)
        q = 1.0 - 10.0 * 60.0 / 10_000.0
        steps = int(6_000.0 / 60.0)
        oracle = 100.0 * sum(q**k for k in range(1, steps + 1))
        assert trace.ttt == pytest.approx(oracle, rel=1e-9)

    def test_mean_residence_matches_free_flow_latency(self):
        d, v, dt = 10_000.0, 10.0, 60.0
        sc = single_link_scenario(length_m=d, v=v, initial=50.0, horizon_s=60_000.0)
        trace = run_episode(sc, lambda obs: np.array([6.0]), seed=0)
        mean_steps = trace.ttt / 50.0
        assert abs(mean_steps - d / (v * dt)) <= 1.0


class TestObserve:
    def test_empty_network_zero_density(self):
        env = TrafficEnv(single_link_scenario(initial=0.0))
        obs = env.reset(0)
        assert obs[0] == 0.0

    def test_jammed_link_reads_one(self):
        env = TrafficEnv(single_link_scenario(length_m=100.0, initial=0.0))
        env.reset(0)
        env.counts[0, 0, 0] = 200.0  # jam count for 100 m, 1 lane, 0.5 m spacing
        assert env.observe()[0] == pytest.approx(1.0, rel=1e-12)

    def test_time_component(self):
        sc = braess5_scenario()
        env = TrafficEnv(sc)
        env.reset(0)
        half = sc.sim.n_steps // 2
        for _ in range(half):
            if env.t_s % sc.sim.action_period_s == 0:
                env.apply_action(uniform_headway_policy(sc.network))
            env.step_sim()
        obs = env.observe()
        assert obs[2 * env.n_links] == pytest.approx(0.5, rel=1e-12)

    def test_all_components_in_unit_interval(self):
        sc = braess5_scenario()
        env = TrafficEnv(sc)
        obs = env.reset(0)
        rng = np.random.default_rng(3)
        while not env.done:
            res = env.decision_step(rng.uniform(1.0, 10.0, size=5))
            obs = res.obs
            assert np.all(obs >= 0.0) and np.all(obs <= 1.0)


class TestWorkPerEpisode:
    """The engine computes only what the decision step reads."""

    def test_one_reset_and_one_observation_per_decision(self, monkeypatch):
        calls = {"reset": 0, "observe": 0}
        for name in calls:
            def counted(self, *args, _name=name, _original=getattr(TrafficEnv, name)):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(TrafficEnv, name, counted)
        sc = braess5_scenario()
        run_episode(sc, lambda obs: uniform_headway_policy(sc.network), seed=0)
        n_decisions = sc.sim.n_steps // sc.sim.steps_per_action
        # One observation at reset, then one per decision step.
        assert calls == {"reset": 1, "observe": n_decisions + 1}

    def test_decision_step_obs_is_the_state_after_the_period(self):
        env = TrafficEnv(braess5_scenario())
        env.reset(4)
        rng = np.random.default_rng(4)
        while not env.done:
            obs = env.decision_step(rng.uniform(1.0, 10.0, size=5)).obs
            assert obs.tobytes() == env.observe().tobytes()


class TestDeterminism:
    def test_identical_traces_for_same_inputs(self):
        sc = braess5_scenario()
        rng = np.random.default_rng(11)
        actions = [rng.uniform(1.0, 10.0, size=5) for _ in range(20)]

        def controller_factory():
            it = iter(actions)
            return lambda obs: next(it)

        t1 = run_episode(sc, controller_factory(), seed=5)
        t2 = run_episode(sc, controller_factory(), seed=5)
        assert np.array_equal(t1.count, t2.count)
        assert np.array_equal(t1.reward, t2.reward)
        assert t1.ttt == t2.ttt

    def test_baseline_equivalence_alpha_inert_at_human_headway(self):
        # With beta_a == beta_h everywhere and equal rationality factors,
        # the autonomy split must not affect the aggregate dynamics.
        base = braess5_scenario(autonomy_fraction=0.0)
        mixed = braess5_scenario(autonomy_fraction=0.8)
        ctrl = lambda obs: uniform_headway_policy(base.network)
        t0 = run_episode(base, ctrl, seed=7)
        t1 = run_episode(mixed, ctrl, seed=7)
        assert np.allclose(t0.count, t1.count, rtol=1e-12, atol=1e-9)
        assert t0.ttt == pytest.approx(t1.ttt, rel=1e-12)


class TestTraceShape:
    def test_rows_cover_links_and_steps(self):
        sc = braess5_scenario()
        trace = run_episode(sc, lambda obs: min_headway_policy(sc.network), seed=0)
        assert trace.count.shape == (sc.sim.n_steps, sc.network.n_links)
        from headwayctl.engine import TRACE_CSV_HEADER, trace_to_csv_rows

        rows = trace_to_csv_rows(trace)
        assert len(rows) == sc.sim.n_steps * sc.network.n_links
        assert len(rows[0]) == len(TRACE_CSV_HEADER)


class TestStepIndexTime:
    """Time is the step index: t_s = step_index * dt_s, never accumulated."""

    def scenario(self, dt_s, horizon_s, action_period_s):
        sc = braess5_scenario()
        return replace(sc, sim=replace(sc.sim, dt_s=dt_s, horizon_s=horizon_s,
                                       action_period_s=action_period_s))

    def test_tenth_second_steps_end_at_the_horizon(self):
        # Summing 0.1 seven times gives 0.7000000000000001 > 0.7: a float
        # clock would run an eighth step.
        sc = self.scenario(0.1, 0.7, 0.1)
        assert sc.sim.n_steps == 7
        trace = run_episode(sc, lambda obs: uniform_headway_policy(sc.network), seed=0)
        assert np.array_equal(trace.t_s, np.arange(7) * 0.1)

    def test_trailing_partial_period_is_a_decision(self):
        sc = self.scenario(60.0, 1_500.0, 600.0)  # 25 steps, periods of 10
        env = TrafficEnv(sc)
        assert env.n_decisions == 3
        calls = []

        def controller(obs):
            calls.append(obs)
            return uniform_headway_policy(sc.network)

        trace = run_episode(sc, controller, seed=0)
        assert len(calls) == 3 and trace.count.shape[0] == 25

    @pytest.mark.parametrize("field, value", [("horizon_s", 0.75), ("action_period_s", 0.25),
                                              ("horizon_s", 0.01)])
    def test_fractional_step_counts_rejected(self, field, value):
        with pytest.raises(ConfigError, match="whole number of steps"):
            SimConfig(**{"dt_s": 0.1, "horizon_s": 2.0, "action_period_s": 0.1, field: value})
