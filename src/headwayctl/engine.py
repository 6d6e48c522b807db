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

Steps 2 and 3 have no Python loops over paths or links. Every source of
vehicles, a (link, path) cell on a path or a path's origin queue, sends to
one slot: the next link on its path, the queue's first link, or, past a
path's last link, the exit slot. One table of those slots, built once per
engine, turns claims, rationing, the transfer, the queue drain and the exit
count into array arithmetic that performs the same floating-point
operations, in the same order, as a per-cell loop would.

A network has one O/D pair: one (human, auto) origin queue and one
(2, n_paths) share array. ``step_sim`` writes its row into the episode's
trace and returns the step's reward; ``decision_step`` returns (obs, reward,
done) for its action period. Episode state, the trace included, exists from
``reset(seed)`` on; one engine holds one episode at a time. ``harness``
holds a trace's CSV form.
"""

from __future__ import annotations

from functools import reduce
from operator import sub

import numpy as np

from . import fundamental as fd
from .network import demand_at
from .routing import AUTO, HUMAN, step_shares
from .scenario import Scenario

# Tolerance for float bookkeeping noise when clamping counts at zero.
_NEGATIVE_TOL = 1e-6


class InvariantViolation(RuntimeError):
    """The engine reached a state that should be unreachable."""


class EpisodeTrace:
    """Per-step, per-link history of one episode; ``step_sim`` fills row t.
    Time and density are derived from it where its CSV is written (``harness``)."""

    def __init__(self, n_steps: int, n_links: int, reward_scale: float):
        self.reward_scale = reward_scale
        self.count = np.zeros((n_steps, n_links))      # state at t
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

        # Index tables for the loop-free step, one row per source: the cells,
        # path-major with links ascending, then row n_cells + path for each
        # path's origin queue. _dest is each source's slot: the next link on
        # its path, a queue's first link, or past a path's last link the exit
        # slot n_links, whose ration is always 1. A cell's inflow is what its
        # upstream source moves: the cell before it on its path or its queue.
        cells = [(gp, l) for gp, links in enumerate(self._paths) for l in sorted(links)]
        index = {cell: i for i, cell in enumerate(cells)}
        n_cells = len(cells)
        dest, upstream, inflow_first = [], [], []
        for gp, l in cells:
            links = self._paths[gp]
            k = links.index(l)
            dest.append(links[k + 1] if k + 1 < len(links) else self.n_links)
            upstream.append(index[gp, links[k - 1]] if k else n_cells + gp)
            # The inflow is added before the outflow is taken when the
            # upstream link has the lower index, and after it otherwise: the
            # order of a per-path walk over links in ascending index order
            # (tests/test_engine_reference.py), so results match it bit for bit.
            inflow_first.append(k > 0 and links[k - 1] < l)
        self._dest = np.array(dest + [links[0] for links in self._paths], dtype=int)
        # Each claim's slot: each cell's send, then each queue's (human, auto).
        self._claim_index = np.concatenate([self._dest[:n_cells],
                                            np.repeat(self._dest[n_cells:], 2)])
        self._upstream = np.array(upstream, dtype=int)
        self._inflow_first = np.array(inflow_first)[:, None]
        self._cell_link = cell_link = np.array([l for _, l in cells], dtype=int)
        # Flat element indices of each cell's (human, auto) pair in counts.
        rows = cell_link * self.n_paths + np.array([gp for gp, _ in cells], dtype=int)
        self._cell_elems = np.stack([2 * rows, 2 * rows + 1], axis=1)
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

    def apply_action(self, beta_a_m: np.ndarray) -> None:
        """Set per-link autonomous headways, each clamped into the network's
        headway bounds; non-finite ones are refused, so every headway the step
        sees is valid. Only legal at action-period boundaries, counted in steps."""
        period = self.sim.steps_per_action
        if self.step_index % period:
            raise ValueError(f"action applied at step {self.step_index}, "
                             f"not a multiple of {period} steps")
        beta = np.asarray(beta_a_m, dtype=float)
        if beta.shape != (self.n_links,):
            raise ValueError(f"action must have shape ({self.n_links},)")
        if not np.logical_and.reduce(np.isfinite(beta)):
            raise ValueError(f"action components must be finite, got {beta}")
        # np.clip's result, without its Python-level wrapper.
        self.beta_a = np.minimum(np.maximum(beta, self.net.beta_min_m), self.net.beta_max_m)

    # ------------------------------------------------------------------
    # dynamics

    def step_sim(self) -> float:
        """Advance one dt: transfer, inject, reroute, reward; records the
        step in ``trace`` and returns its reward."""
        self._refuse_if_done()
        sim = self.sim
        dt = sim.dt_s
        counts = self.counts

        # ufunc reductions, called directly: the ndarray methods run the same
        # reductions behind a Python-level wrapper.
        n_link = np.add.reduce(counts, axis=(1, 2))
        alpha = _ratio(np.add.reduce(counts[:, :, AUTO], axis=1), n_link)

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
        human, auto = vol * (1.0 - demand.autonomy_fraction), vol * demand.autonomy_fraction
        queues = self.queues
        queues[HUMAN] += human
        queues[AUTO] += auto
        self.injected += human + auto

        # Claims on every slot, added in source order (bincount adds
        # sequentially): cohort sends, then queue drain attempts. The exit
        # slot's claim is the volume that leaves the network.
        inject_attempt = queues * self.shares.T  # (path, class)
        claim = np.bincount(self._claim_index,
                            np.concatenate([send_total, inject_attempt.ravel()]))
        link_claim = claim[:-1]

        # A link that rounding left above jam has no space rather than
        # negative space, so a zero claim on it is never divided by.
        space = np.maximum(self._jam_count - n_link, 0.0)
        oversubscribed = link_claim > space

        # Every source moves its send times its slot's ration: cohorts move
        # downstream (or out of the network), and queues drain onto first links.
        # With no link oversubscribed every ration is 1 and x * 1.0 == x, so
        # the rations are built and multiplied in only when one is.
        moves = np.concatenate([send, inject_attempt])
        if True in oversubscribed.tolist():  # then space / claim lies in [0, 1]
            ration = np.ones(self.n_links + 1)  # the exit slot's stays 1
            ration[:-1][oversubscribed] = space[oversubscribed] / link_claim[oversubscribed]
            moves *= ration.take(self._dest)[:, None]
        moved, drained = moves[:-self.n_paths], moves[-self.n_paths:]
        inflow = moves.take(self._upstream, axis=0)
        counts.put(self._cell_elems, np.where(self._inflow_first, (cells + inflow) - moved,
                                              (cells - moved) + inflow))
        # Each class's queue gives up each path's drain in turn, path by path.
        queues[:] = [reduce(sub, col, q) for q, col in zip(queues.tolist(), drained.T.tolist())]
        self.exited += float(claim[-1])

        self._check_state()

        # Routing reacts to the latencies realized this step. The knob
        # latency_unit_s sets the time unit mu is expressed in.
        self.shares = step_shares(self.shares, path_lat / sim.latency_unit_s,
                                  sim.mu_h, sim.mu_a)

        reward = self.current_reward()
        trace, i = self.trace, self.step_index
        trace.count[i] = n_link
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

    def decision_step(self, beta_a_m: np.ndarray) -> tuple[np.ndarray, float, bool]:
        """Apply an action and run one action period of sim steps, cut short at
        the end of the episode. Returns (obs, reward, done): the observation
        after the period, the sum of its steps' rewards, and whether the
        episode is over."""
        self._refuse_if_done()
        self.apply_action(beta_a_m)
        total = 0.0
        for _ in range(self.sim.steps_per_action):
            total += self.step_sim()
            if self.done:
                break
        return self.observe(), total, self.done

    # ------------------------------------------------------------------
    # readouts

    def current_reward(self) -> float:
        """-scale * (vehicles on links + vehicles queued at origins)."""
        # Unlike numpy's, their sum may be -0.0; the count total (never -0.0) absorbs it.
        human, auto = self.queues.tolist()
        return -self.sim.reward_scale * float(np.add.reduce(self.counts, axis=None)
                                              + (human + auto))

    def observe(self) -> np.ndarray:
        n_link = np.add.reduce(self.counts, axis=(1, 2))
        alpha = _ratio(np.add.reduce(self.counts[:, :, AUTO], axis=1), n_link)
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
        """Refuse an unreachable state: a count beyond the negative tolerance,
        then a non-finite value, then a link above jam. Otherwise zero the
        float noise below zero (x < 0 becomes 0.0, so -0.0 stays -0.0)."""
        # One pass settles the usual case: nothing negative or NaN, no queue
        # infinite and no link above jam. Links are summed once no count is
        # negative, so no total is inf - inf, and one is inf only if a count is.
        counts, queues = self.counts, self.queues
        human, auto = queues.tolist()
        low = np.minimum.reduce(counts, axis=None)
        if low >= 0.0:
            over = np.add.reduce(counts, axis=(1, 2)) - self._jam_count
            if (0.0 <= human < np.inf and 0.0 <= auto < np.inf
                    and True not in (over > self._jam_tolerance).tolist()):
                return
        # A miss, most often noise such as -1e-13 left on drained cells. The
        # worst count is the most negative, NaN aside (low is NaN if any is).
        negative = [x for x in (human, auto) if x < 0.0]
        for worst in (low if low == low else np.fmin.reduce(counts, axis=None),
                      min(negative, default=0.0)):
            if worst < -_NEGATIVE_TOL:
                raise InvariantViolation(self._diagnostic(f"negative count {worst}"))
        # No count is -inf now, so their maximum is below inf unless one is inf or NaN.
        if not (-np.inf < human < np.inf and -np.inf < auto < np.inf
                and np.maximum.reduce(counts, axis=None) < np.inf):
            raise InvariantViolation(self._diagnostic("non-finite state"))
        if negative:
            np.copyto(queues, 0.0, where=queues < 0.0)
        if low < 0.0:  # the jam test reads the scrubbed totals
            np.copyto(counts, 0.0, where=counts < 0.0)
            over = np.add.reduce(counts, axis=(1, 2)) - self._jam_count
        if True in (over > self._jam_tolerance).tolist():
            raise InvariantViolation(self._diagnostic("link above jam density"))

    def _diagnostic(self, message: str) -> str:
        with np.errstate(invalid="ignore"):  # a link may hold inf and -inf
            totals = self.counts.sum(axis=(1, 2))
        return (
            f"{message} at t={self.t_s}s (step {self.step_index}, seed {self.seed}); "
            f"link counts={totals}, queues={self.queues.sum()}, "
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
        obs, _, _ = env.decision_step(controller(obs))
    return env.trace
