"""Discrete-time network simulator with per-link headway control.

State is kept as vehicle counts per (link, path, class) cohort, which makes
flow conservation an exact bookkeeping identity. Each step:

1. evaluate the fundamental diagram with the current autonomy fractions and
   controlled headways,
2. move each link's sending flow downstream (cohorts split proportionally,
   receiving links cap inflow by their free space, excess is rationed
   proportionally and stays upstream),
3. inject new demand into origin queues and drain the queues onto each
   path's first link according to the current route shares,
4. advance the route shares with this step's path latencies,
5. emit the reward: minus the scaled total of vehicles in the network and
   in the origin queues.

Steps 2 and 3 have no Python loops over paths or links: index tables built
once per engine (one row per (link, path) cell on a path) turn the transfer,
rationing and queue drain into array arithmetic that performs the same
floating-point operations, in the same order, as a per-cell loop would.

A network has one O/D pair: one (human, auto) origin queue and one
(2, n_paths) share array. ``step_sim`` writes its row into the episode's
trace and returns the step's reward; ``decision_step`` returns the
observation after its action period. Episode state, the trace included,
exists from ``reset(seed)`` on; one engine holds one episode at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fundamental as fd
from .network import demand_at
from .routing import AUTO, HUMAN, step_shares
from .scenario import Scenario

# Tolerance for float bookkeeping noise when clamping counts at zero.
_NEGATIVE_TOL = 1e-6


class InvariantViolation(RuntimeError):
    """The engine reached a state that should be unreachable."""


@dataclass
class StepResult:
    obs: np.ndarray
    reward: float
    done: bool


class EpisodeTrace:
    """Per-step, per-link history of one episode; ``step_sim`` fills row t."""

    def __init__(self, n_steps: int, n_links: int, reward_scale: float):
        self.reward_scale = reward_scale
        self.t_s = np.zeros(n_steps)
        self.count = np.zeros((n_steps, n_links))      # state at t
        self.density = np.zeros((n_steps, n_links))
        self.autonomy = np.zeros((n_steps, n_links))
        # 0/1, kept integer: the CSV writes it as 0 or 1, not 0.0 or 1.0.
        self.congested = np.zeros((n_steps, n_links), dtype=int)
        self.flow_vps = np.zeros((n_steps, n_links))   # sending flow during [t, t+dt)
        self.latency_s = np.zeros((n_steps, n_links))
        self.beta_a_m = np.zeros((n_steps, n_links))
        self.reward = np.zeros(n_steps)  # reward received for the step starting at t
        self.total_exited = 0.0

    @property
    def ttt(self) -> float:
        """Vehicle-steps spent in the network and queues: -(sum of rewards)/scale."""
        return -float(self.reward.sum()) / self.reward_scale


def observation_size(n_links: int) -> int:
    """Observation length: density and autonomy per link, then time and demand."""
    return 2 * n_links + 2


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den where den > 0, else 0."""
    return np.divide(num, den, out=np.zeros(num.shape), where=den > 0.0)


class TrafficEnv:
    """Simulator plus the decision-step MDP wrapper used for control.

    Observations: per-link count normalized by jam count, per-link autonomy
    fraction, episode progress t/T, and the current demand rate normalized
    by the profile peak; every component lies in [0, 1].
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        net = scenario.network
        self.net = net
        self.sim = scenario.sim
        self.n_links = net.n_links

        self._jam_count = net.jam_density * net.length_m
        self._jam_tolerance = _NEGATIVE_TOL * np.maximum(self._jam_count, 1.0)

        self._paths = net.paths
        self.n_paths = len(self._paths)
        self._first_link = np.array([links[0] for links in self._paths], dtype=int)

        # Index tables for the loop-free step. A cell is one (link, path)
        # pair on a path; cells run path-major with links ascending, the
        # order in which claims are accumulated. A cell's outflow goes to the
        # next link on its path or, past the last link, to the extra ration
        # slot n_links, whose ration is always 1. Its inflow is the outflow
        # of the cell upstream on its path or, on a first link, the drain of
        # the path's origin queue (row n_cells + path of the inflow sources).
        cells = [(gp, l) for gp, links in enumerate(self._paths) for l in sorted(links)]
        index = {cell: i for i, cell in enumerate(cells)}
        n_cells = len(cells)
        cell_dest, upstream, inflow_first = [], [], []
        for gp, l in cells:
            links = self._paths[gp]
            k = links.index(l)
            cell_dest.append(links[k + 1] if k + 1 < len(links) else self.n_links)
            upstream.append(index[gp, links[k - 1]] if k else n_cells + gp)
            # The inflow is added before the outflow is taken when the
            # upstream link has the lower index, and after it otherwise: the
            # order of a per-path walk over links in ascending index order
            # (tests/test_engine_reference.py), so results match it bit for bit.
            inflow_first.append(k > 0 and links[k - 1] < l)
        cell_link = np.array([l for _, l in cells], dtype=int)
        self._cell_link = cell_link
        self._cell_dest = np.array(cell_dest, dtype=int)
        self._upstream = np.array(upstream, dtype=int)
        self._inflow_first = np.array(inflow_first)[:, None]
        # Flat element indices of each cell's (human, auto) pair in counts.
        rows = cell_link * self.n_paths + np.array([gp for gp, _ in cells], dtype=int)
        self._cell_elems = np.stack([2 * rows, 2 * rows + 1], axis=1)
        transfer = self._cell_dest < self.n_links
        self._claim_cells = np.nonzero(transfer)[0]
        self._claim_index = np.concatenate([self._cell_dest[transfer],
                                            np.repeat(self._first_link, 2)])
        self._exit_cells = np.nonzero(~transfer)[0]
        self._beta_h = net.beta_h_m

    # ------------------------------------------------------------------
    # episode lifecycle

    def reset(self, seed: int) -> np.ndarray:
        """Start a new episode; deterministic for a given seed."""
        self.seed = int(seed)
        rng = np.random.default_rng(self.seed)

        self.t_s = 0.0
        self.step_index = 0
        self.counts = np.zeros((self.n_links, self.n_paths, 2))
        self.queues = np.zeros(2)  # (human, auto) at the origin
        self.beta_a = np.full(self.n_links, self._beta_h)
        # (human, auto) x path route shares, uniform at reset.
        self.shares = np.full((2, self.n_paths), 1.0 / self.n_paths)
        self.injected = 0.0
        self.exited = 0.0
        # Fresh arrays, so a trace already handed out is never overwritten.
        self.trace = EpisodeTrace(self.sim.n_steps, self.n_links, self.sim.reward_scale)

        alpha = self.scenario.demand.autonomy_fraction
        for link_id, base in sorted(self.sim.initial_counts.items()):
            count = base
            if self.sim.initial_jitter > 0.0:
                count = base * (1.0 + self.sim.initial_jitter * rng.uniform(-1.0, 1.0))
            # Split the cohort across the paths that traverse this link, per
            # the (uniform) shares, and across classes by the autonomy fraction.
            carriers = [p for p, links in enumerate(self._paths) if link_id in links]
            weights = self.shares[HUMAN, carriers]
            weights = weights / weights.sum()
            self.counts[link_id, carriers, AUTO] += count * weights * alpha
            self.counts[link_id, carriers, HUMAN] += count * weights * (1.0 - alpha)
        self.injected += float(self.counts.sum())
        return self.observe()

    # ------------------------------------------------------------------
    # control

    def apply_action(self, beta_a_m: np.ndarray) -> bool:
        """Set per-link autonomous headways; returns True if clamping occurred.

        Only legal at action-period boundaries, which are counted in steps.
        Out-of-bounds components are clamped to the network's headway bounds;
        non-finite ones are refused, so every headway the step sees is valid.
        """
        period = self.sim.steps_per_action
        if self.step_index % period:
            raise ValueError(f"action applied at step {self.step_index}, "
                             f"not a multiple of {period} steps")
        beta = np.asarray(beta_a_m, dtype=float)
        if beta.shape != (self.n_links,):
            raise ValueError(f"action must have shape ({self.n_links},)")
        if not np.isfinite(beta).all():
            raise ValueError(f"action components must be finite, got {beta}")
        clipped = np.clip(beta, self.net.beta_min_m, self.net.beta_max_m)
        clamped = bool(np.any(clipped != beta))
        self.beta_a = clipped
        return clamped

    # ------------------------------------------------------------------
    # dynamics

    def step_sim(self) -> float:
        """Advance one dt: transfer, inject, reroute, reward; records the
        step in ``trace`` and returns its reward."""
        self._refuse_if_done()
        sim = self.sim
        dt = sim.dt_s
        counts = self.counts

        n_link = counts.sum(axis=(1, 2))
        alpha = _ratio(counts[:, :, AUTO].sum(axis=1), n_link)

        net = self.net
        ncrit = fd.critical_density(net.lanes, alpha, self.beta_a, self._beta_h)
        rho = n_link / net.length_m
        flow = fd.sending_flow(rho, net.speed_mps, ncrit, net.jam_density)
        congested = fd.congestion_state(rho, ncrit)
        latency = fd.link_latency(flow, congested, net.length_m, net.speed_mps, ncrit,
                                  net.jam_density)
        link_lat = latency.tolist()
        path_lat = np.array([fd.path_latency(p, link_lat) for p in self._paths])

        # Desired sends, proportional across cohorts resident on each link.
        out_frac = _ratio(np.minimum(flow * dt, n_link), n_link)
        cells = counts.take(self._cell_elems)  # (cell, class)
        send = cells * out_frac.take(self._cell_link)[:, None]
        send_total = send[:, 0] + send[:, 1]

        # Demand arrives at the origin queue before the drain attempt.
        demand = self.scenario.demand
        vol = demand_at(demand, self.t_s) * dt
        arrivals = np.array([vol * (1.0 - demand.autonomy_fraction),  # (human, auto)
                             vol * demand.autonomy_fraction])
        self.queues += arrivals
        self.injected += float(arrivals.sum())

        # Claims on each receiving link: cohort transfers plus queue drains,
        # accumulated in path order (bincount adds sequentially).
        inject_attempt = self.queues * self.shares.T  # (path, class)
        claim = np.bincount(
            self._claim_index,
            np.concatenate([send_total.take(self._claim_cells), inject_attempt.ravel()]),
            minlength=self.n_links,
        )

        space = self._jam_count - n_link
        ration = np.ones(self.n_links + 1)  # the extra slot is the exit's
        oversubscribed = claim > space
        if oversubscribed.any():
            ration[:-1][oversubscribed] = np.clip(
                space[oversubscribed] / claim[oversubscribed], 0.0, 1.0)

        # Move cohorts downstream (or out of the network) and drain the
        # origin queues onto first links, subject to the same cap.
        moved = send * ration.take(self._cell_dest)[:, None]
        drained = inject_attempt * ration.take(self._first_link)[:, None]
        inflow = np.concatenate([moved, drained]).take(self._upstream, axis=0)
        counts.put(self._cell_elems, np.where(self._inflow_first, (cells + inflow) - moved,
                                              (cells - moved) + inflow))
        # The queue gives up each path's drain in turn, path by path.
        self.queues = np.subtract.reduce(np.concatenate([self.queues[None], drained]))
        # Left to right, as a running total (sum() would add pairwise).
        self.exited += float(np.add.accumulate(send_total.take(self._exit_cells))[-1])

        self._check_state()

        # Routing reacts to the latencies realized this step. The knob
        # latency_unit_s sets the time unit mu is expressed in.
        self.shares = step_shares(self.shares, path_lat / sim.latency_unit_s,
                                  sim.mu_h, sim.mu_a)

        reward = self.current_reward()
        trace, i = self.trace, self.step_index
        trace.t_s[i] = self.t_s
        trace.count[i] = n_link
        trace.density[i] = rho
        trace.autonomy[i] = alpha
        trace.congested[i] = congested
        trace.flow_vps[i] = flow
        trace.latency_s[i] = latency
        trace.beta_a_m[i] = self.beta_a
        trace.reward[i] = reward
        trace.total_exited = self.exited

        # Time is the step index; t_s is derived from it, never accumulated.
        self.step_index += 1
        self.t_s = self.step_index * dt
        return reward

    def decision_step(self, beta_a_m: np.ndarray) -> StepResult:
        """Apply an action and run one full action period of sim steps.

        The returned reward is the sum over the inner steps and ``obs`` the
        observation after the last of them. The period ends early at the end
        of the episode.
        """
        self._refuse_if_done()
        self.apply_action(beta_a_m)
        total = 0.0
        for _ in range(self.sim.steps_per_action):
            total += self.step_sim()
            if self.done:
                break
        return StepResult(obs=self.observe(), reward=total, done=self.done)

    # ------------------------------------------------------------------
    # readouts

    def current_reward(self) -> float:
        """-scale * (vehicles on links + vehicles queued at origins)."""
        return -self.sim.reward_scale * float(self.counts.sum() + self.queues.sum())

    def observe(self) -> np.ndarray:
        n_link = self.counts.sum(axis=(1, 2))
        alpha = _ratio(self.counts[:, :, AUTO].sum(axis=1), n_link)
        t_part = min(self.t_s / self.sim.horizon_s, 1.0)
        peak = self.scenario.demand.peak_rate
        rate_part = min(demand_at(self.scenario.demand, self.t_s) / peak, 1.0) if peak > 0 else 0.0
        # One clamp for all parts: the last two already lie in [0, 1].
        obs = np.concatenate([n_link / self._jam_count, alpha, [t_part, rate_part]])
        return np.minimum(np.maximum(obs, 0.0), 1.0)

    @property
    def obs_dim(self) -> int:
        return observation_size(self.n_links)

    @property
    def done(self) -> bool:
        return self.step_index >= self.sim.n_steps

    @property
    def n_decisions(self) -> int:
        """Decision steps per episode, a trailing partial period included."""
        return -(-self.sim.n_steps // self.sim.steps_per_action)

    # ------------------------------------------------------------------
    # internal guards

    def _refuse_if_done(self) -> None:
        if self.done:
            raise ValueError(f"episode of seed {self.seed} is over: step {self.step_index} "
                             f"is past its {self.sim.n_steps} steps; reset first")

    def _check_state(self) -> None:
        """Zero the float noise below zero, then refuse states that should be
        unreachable: non-finite, beyond the negative tolerance or above jam."""
        for arr in (self.counts, self.queues):
            if arr.min() >= 0.0:  # nothing negative and no NaN: nothing to scrub
                continue
            bad = arr < 0.0
            if bad.any():
                worst = arr[bad].min()
                if worst < -_NEGATIVE_TOL:
                    raise InvariantViolation(self._diagnostic(f"negative count {worst}"))
                arr[bad] = 0.0
        if not (np.isfinite(self.counts).all() and np.isfinite(self.queues).all()):
            raise InvariantViolation(self._diagnostic("non-finite state"))
        over = self.counts.sum(axis=(1, 2)) - self._jam_count
        if (over > self._jam_tolerance).any():
            raise InvariantViolation(self._diagnostic("link above jam density"))

    def _diagnostic(self, message: str) -> str:
        return (
            f"{message} at t={self.t_s}s (step {self.step_index}, seed {self.seed}); "
            f"link counts={self.counts.sum(axis=(1, 2))}, queues={self.queues.sum()}, "
            f"beta_a={self.beta_a}"
        )


def run_episode(scenario: Scenario, controller, seed: int) -> EpisodeTrace:
    """Roll one full episode under a controller and record the trace.

    ``controller`` is called with the observation at every action-period
    boundary and must return the per-link headway action.
    """
    env = TrafficEnv(scenario)
    obs = env.reset(seed)
    while not env.done:
        obs = env.decision_step(controller(obs)).obs
    return env.trace


def trace_to_csv_rows(trace: EpisodeTrace) -> list[tuple]:
    """Flatten a trace to one row per (t, link), schema-stable."""
    T, L = trace.count.shape
    columns = [np.repeat(trace.t_s, L), np.tile(np.arange(L), T)]
    columns += [a.ravel() for a in (trace.count, trace.density, trace.autonomy,
                                     trace.congested, trace.flow_vps,
                                     trace.latency_s, trace.beta_a_m)]
    return list(zip(*(c.tolist() for c in columns)))


TRACE_CSV_HEADER = [
    "t_s", "link_id", "count", "density", "autonomy_fraction",
    "s_l", "flow_vps", "latency_s", "beta_a_m",
]
