"""The benchmark's workloads: CLI calls, reference checks and exact counts.

Each workload is a closed loop with one client: the next call of
``headwayctl.harness.main`` starts when the previous one has returned. One
call is one timed operation; its decision steps over the CPU time the process
spent on it is one throughput sample.

Episode seeds, checkpoint seeds and training seeds come from fixed pools
that all have stored references (``references.json``), so every output the
benchmark can produce is checked; the workload seed picks from the pools and
sets their order.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import shutil
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from headwayctl import harness
from headwayctl.engine import TrafficEnv
from headwayctl.policies import CheckpointError, PolicyParams, load_checkpoint, save_checkpoint
from headwayctl.ppo import TrainConfig
from headwayctl.scenario import load_scenario

REFERENCES = Path(__file__).resolve().parent / "references.json"

# Relative tolerances from the behaviour pin the roadmap fixes: batching
# reorders float sums, so refactors may move results in the last digits.
TTT_RTOL = 1e-12
CURVE_RTOL = 1e-9

EPISODE_POOL = 64
CHECKPOINT_POOL = 4
TRAIN_POOL = 8


@dataclass
class Op:
    """One CLI call and what it is expected to produce."""

    argv: list[str]
    out: Path
    group: str          # reference group: controller, checkpoint seed or training seed
    items: list[str]    # operations it attempts: episode seeds or update indices
    decision_steps: int


@dataclass
class OpResult:
    op: Op
    seconds: float      # wall time of the call
    cpu_seconds: float  # CPU time of the process, all threads, during the call
    failed: int


def _close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * abs(want)


class Workload:
    name: str
    scenario: str
    trace_ops: int  # CLI calls in each half of a traced run

    def __init__(self, seed: int, work: Path, references: dict):
        self.rng = random.Random(seed)
        self.work = work
        self.references = references.get(self.name, {})
        self._skipped: set[tuple[str, str]] = set()

    def setup(self) -> None:
        """Load the scenario and build one env; this is what setup_s times."""
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = TrafficEnv(load_scenario(self.scenario))

    def op(self, i: int) -> Op:
        raise NotImplementedError

    def observe(self, op: Op) -> dict:
        """Per-item outputs of a finished call, as stored in the references."""
        raise NotImplementedError

    def matches(self, got, want) -> bool:
        raise NotImplementedError

    def expected_counts(self, report, ops: list[Op]) -> list[tuple[str, int, int]]:
        """(metric, measured, expected) for the span counts of a traced run."""
        raise NotImplementedError

    def episode_workers(self) -> int:
        return 1

    def run(self, i: int) -> OpResult:
        op = self.op(i)
        shutil.rmtree(op.out, ignore_errors=True)
        status = None
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                status = harness.main(op.argv)
        except Exception:
            traceback.print_exc()
        seconds = time.perf_counter() - start
        cpu_seconds = time.process_time() - cpu_start
        if status != 0:
            print(f"{self.name}: {' '.join(op.argv)} exited with {status}", file=sys.stderr)
            return OpResult(op, seconds, cpu_seconds, len(op.items))
        try:
            observed = self.observe(op)
        except (OSError, KeyError, ValueError) as exc:
            print(f"{self.name}: unreadable output in {op.out}: {exc!r}", file=sys.stderr)
            observed = {}
        return OpResult(op, seconds, cpu_seconds, self.check(op, observed))

    def check(self, op: Op, observed: dict) -> int:
        """Number of the call's operations whose output misses its reference."""
        refs = self.references.get(op.group, {})
        failed = 0
        for item in op.items:
            if item not in observed:
                print(f"{self.name}: {op.group}/{item}: no output", file=sys.stderr)
                failed += 1
            elif item not in refs:
                if (op.group, item) not in self._skipped:
                    self._skipped.add((op.group, item))
                    print(f"{self.name}: {op.group}/{item}: no stored reference, "
                          "check skipped", file=sys.stderr)
            elif not self.matches(observed[item], refs[item]):
                print(f"{self.name}: {op.group}/{item}: got {observed[item]}, "
                      f"reference {refs[item]}", file=sys.stderr)
                failed += 1
        return failed

    def engine_counts(self, report, steps: int) -> list[tuple[str, int, int]]:
        """Counts every workload shares: per step, each layer runs once per
        link vector, once per path or once per class."""
        env = self.env
        n_od = len(env.net.od_pairs)
        return [
            ("engine.step_sim.calls", report.calls("engine.step_sim"), steps),
            *[(f"fundamental.{f}.calls", report.calls(f"fundamental.{f}"), steps)
              for f in ("critical_density", "sending_flow", "congestion_state", "link_latency")],
            ("fundamental.path_latency.calls", report.calls("fundamental.path_latency"),
             steps * env.n_paths),
            ("routing.step_shares.calls", report.calls("routing.step_shares"), steps * n_od),
            ("routing.logit_update.calls", report.calls("routing.logit_update"), 2 * steps * n_od),
            ("network.demand_at.calls", report.calls("network.demand_at"),
             (steps + report.calls("engine.observe")) * n_od),
        ]


class _EpisodeWorkload(Workload):
    """A simulate or evaluate call: one episode per seed, summary.csv out."""

    seeds_per_op: int
    writes_traces: bool

    def _seeds(self, order: list[int], chunk: int) -> list[int]:
        n = self.seeds_per_op
        chunk %= len(order) // n
        return order[chunk * n:(chunk + 1) * n]

    def _episode_op(self, command: str, controller: str, group: str, seeds: list[int]) -> Op:
        out = self.work / "out"
        argv = [command, "--scenario", self.scenario, "--controller", controller,
                "--seed", ",".join(map(str, seeds)), "--out", str(out)]
        return Op(argv, out, group, [str(s) for s in seeds],
                  len(seeds) * self.env.n_decisions)

    def observe(self, op: Op) -> dict:
        with open(op.out / "summary.csv", newline="") as fh:
            rows = {r["seed"]: r for r in csv.DictReader(fh)}
        observed = {}
        for item in op.items:
            if item not in rows:
                continue
            trace = op.out / f"trace_seed{item}.csv"
            trace_rows = 0
            if trace.exists():
                with open(trace, newline="") as fh:
                    trace_rows = sum(1 for _ in fh) - 1
            observed[item] = [float(rows[item]["ttt"]), float(rows[item]["total_exited"]),
                              trace_rows]
        return observed

    def matches(self, got, want) -> bool:
        return (_close(got[0], want[0], TTT_RTOL) and _close(got[1], want[1], TTT_RTOL)
                and got[2] == want[2])

    def episode_workers(self) -> int:
        resolve = getattr(harness, "_max_workers", None)
        return resolve(self.seeds_per_op) if resolve else 1

    def expected_counts(self, report, ops):
        episodes = sum(len(op.items) for op in ops)
        steps = episodes * self.env.sim.n_steps
        per_episode = report.calls_per_episode("engine.step_sim")
        counts = [
            ("engine.run_episode.calls", report.calls("engine.run_episode"), episodes),
            ("episodes with step_sim spans", len(per_episode), episodes),
            ("episodes with a short or long step_sim count",
             int((per_episode != self.env.sim.n_steps).sum()), 0),
            ("engine.trace_to_csv_rows.calls", report.calls("engine.trace_to_csv_rows"),
             episodes if self.writes_traces else 0),
            ("harness.write_csv.calls", report.calls("harness.write_csv"),
             len(ops) + (episodes if self.writes_traces else 0)),
            ("scenario.load_scenario.calls", report.calls("scenario.load_scenario"), len(ops)),
        ]
        return counts + self.engine_counts(report, steps)


class SimulateBraess8(_EpisodeWorkload):
    """simulate with the two constant baselines, writing per-seed traces."""

    name = "simulate-braess8"
    scenario = "braess8"
    seeds_per_op = 8
    writes_traces = True
    trace_ops = 8
    controllers = ("uniform", "min")

    def __init__(self, seed, work, references):
        super().__init__(seed, work, references)
        self.order = self.rng.sample(range(EPISODE_POOL), EPISODE_POOL)

    def op(self, i):
        controller = self.controllers[i % 2]
        return self._episode_op("simulate", controller, controller,
                                self._seeds(self.order, i // 2))


class EvaluateBraess5(_EpisodeWorkload):
    """evaluate of a freshly initialised policy checkpoint, no traces."""

    name = "evaluate-braess5"
    scenario = "braess5"
    seeds_per_op = 16
    writes_traces = False
    trace_ops = 6

    def __init__(self, seed, work, references):
        super().__init__(seed, work, references)
        self.checkpoint_seed = self.rng.randrange(CHECKPOINT_POOL)
        self.order = self.rng.sample(range(EPISODE_POOL), EPISODE_POOL)
        self.checkpoint = work / "checkpoint.json"

    def setup(self):
        super().setup()
        net = self.env.net
        params = PolicyParams.new(self.env.obs_dim, net.n_links,
                                  np.random.default_rng(self.checkpoint_seed),
                                  beta_min_m=net.beta_min_m, beta_max_m=net.beta_max_m)
        save_checkpoint(params, self.checkpoint)

    def op(self, i):
        return self._episode_op("evaluate", f"policy:{self.checkpoint}",
                                str(self.checkpoint_seed), self._seeds(self.order, i))

    def expected_counts(self, report, ops):
        decisions = sum(len(op.items) for op in ops) * self.env.n_decisions
        return super().expected_counts(report, ops) + [
            ("policies.policy_act.calls", report.calls("policies.policy_act"), decisions),
            ("nn.mlp_forward.calls", report.calls("nn.mlp_forward"), decisions),
        ]


class TrainBraess5(Workload):
    """train with the default rollout size and env count, two updates."""

    name = "train-braess5"
    scenario = "braess5"
    budget = 4096
    trace_ops = 1
    config = TrainConfig()

    def __init__(self, seed, work, references):
        super().__init__(seed, work, references)
        self.order = self.rng.sample(range(TRAIN_POOL), TRAIN_POOL)
        self.n_updates = self.budget // self.config.n_steps

    def _eval_steps(self) -> int:
        return self.n_updates * len(self.config.eval_seeds) * self.env.n_decisions

    def op(self, i):
        train_seed = self.order[i % TRAIN_POOL]
        out = self.work / "out"
        argv = ["train", "--scenario", self.scenario, "--budget", str(self.budget),
                "--seed", str(train_seed), "--out", str(out)]
        return Op(argv, out, str(train_seed), [str(u) for u in range(1, self.n_updates + 1)],
                  self.budget + self._eval_steps())

    def observe(self, op):
        try:
            params = load_checkpoint(op.out / "checkpoint.json")
        except CheckpointError as exc:
            print(f"{self.name}: {exc}", file=sys.stderr)
            return {}
        if params.n_actions != self.env.n_links:
            print(f"{self.name}: checkpoint controls {params.n_actions} links", file=sys.stderr)
            return {}
        with open(op.out / "learning_curve.csv", newline="") as fh:
            return {r["update_index"]: float(r["mean_eval_ttt"]) for r in csv.DictReader(fh)}

    def matches(self, got, want):
        return _close(got, want, CURVE_RTOL)

    def expected_counts(self, report, ops):
        cfg = self.config
        updates = len(ops) * self.n_updates
        decisions = len(ops) * (self.budget + self._eval_steps())
        minibatches = updates * cfg.n_epochs * (cfg.n_steps // cfg.batch_size)
        return [
            ("ppo.train.calls", report.calls("ppo.train"), len(ops)),
            ("ppo.ppo_update.calls", report.calls("ppo.ppo_update"), updates),
            ("ppo.loss_and_grads.calls", report.calls("ppo.loss_and_grads"), minibatches),
            ("nn.Adam.step.calls", report.calls("nn.Adam.step"), minibatches),
            ("ppo.compute_gae.calls", report.calls("ppo.compute_gae"), updates * cfg.n_envs),
            ("ppo.evaluate_policy.calls", report.calls("ppo.evaluate_policy"), updates),
            ("engine.decision_step.calls", report.calls("engine.decision_step"), decisions),
            ("decision steps under evaluate_policy",
             report.calls_under("engine.decision_step", "ppo.evaluate_policy"),
             len(ops) * self._eval_steps()),
        ] + self.engine_counts(report, decisions * self.env.sim.steps_per_action)


WORKLOADS = {w.name: w for w in (SimulateBraess8, EvaluateBraess5, TrainBraess5)}


def make(name: str, seed: int, work: str | Path) -> Workload:
    references = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    return WORKLOADS[name](seed, Path(work), references)
