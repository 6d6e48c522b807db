"""Span tracer for the per-layer run, patched in from outside the program.

Each layer's public function is replaced, at every place where its caller
looks the name up, by a wrapper that records one span: its id, the metric
prefix, the parent span, the episode it belongs to, start and end. Spans stay
in memory (one buffer and one span stack per thread, because the harness runs
episodes on a thread pool) and are reduced to per-layer metrics at the end.

An episode is everything a ``TrafficEnv`` does between one ``reset`` and the
next; its spans, and the spans they cause, share one episode id.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time
from array import array

import numpy as np

HOT = ("calls", "self_s", "p50_us", "p99_us")
WARM = ("calls", "self_s", "p50_us")
COLD = ("calls", "self_s")

# (metric prefix, statistics reported, places where callers look the name up
# as "module:attribute path"). A name imported into another module has to be
# patched there, since ``from x import f`` binds the function at import time.
LAYERS = [
    ("engine.TrafficEnv", COLD, ["headwayctl.engine:TrafficEnv.__init__"]),
    ("engine.reset", COLD, ["headwayctl.engine:TrafficEnv.reset"]),
    ("engine.observe", WARM, ["headwayctl.engine:TrafficEnv.observe"]),
    ("engine.step_sim", HOT, ["headwayctl.engine:TrafficEnv.step_sim"]),
    ("engine.decision_step", COLD, ["headwayctl.engine:TrafficEnv.decision_step"]),
    ("engine.run_episode", COLD, ["headwayctl.harness:run_episode"]),
    ("engine.trace_to_csv_rows", COLD, ["headwayctl.harness:trace_to_csv_rows"]),
    ("fundamental.critical_density", HOT, ["headwayctl.fundamental:critical_density"]),
    ("fundamental.sending_flow", HOT, ["headwayctl.fundamental:sending_flow"]),
    ("fundamental.congestion_state", HOT, ["headwayctl.fundamental:congestion_state"]),
    ("fundamental.link_latency", HOT, ["headwayctl.fundamental:link_latency"]),
    ("fundamental.path_latency", HOT, ["headwayctl.fundamental:path_latency"]),
    ("routing.step_shares", HOT, ["headwayctl.engine:step_shares"]),
    ("routing.logit_update", HOT, ["headwayctl.routing:logit_update"]),
    ("network.demand_at", WARM, ["headwayctl.engine:demand_at"]),
    ("policies.policy_act", HOT, ["headwayctl.policies:policy_act", "headwayctl.ppo:policy_act"]),
    ("nn.mlp_forward", HOT, ["headwayctl.policies:mlp_forward", "headwayctl.ppo:mlp_forward"]),
    ("nn.mlp_backward", WARM, ["headwayctl.ppo:mlp_backward"]),
    ("nn.Adam.step", WARM, ["headwayctl.nn:Adam.step"]),
    ("ppo.loss_and_grads", WARM, ["headwayctl.ppo:loss_and_grads"]),
    ("ppo.ppo_update", COLD, ["headwayctl.ppo:ppo_update"]),
    ("ppo.compute_gae", COLD, ["headwayctl.ppo:compute_gae"]),
    ("ppo.evaluate_policy", COLD, ["headwayctl.ppo:evaluate_policy",
                                   "headwayctl.harness:evaluate_policy"]),
    ("ppo.train", COLD, ["headwayctl.harness:train"]),
    ("harness.write_csv", COLD, ["headwayctl.harness:write_csv"]),
    ("scenario.load_scenario", COLD, ["headwayctl.harness:load_scenario"]),
]

# Per-layer metrics that are not a statistic of one wrapped function, with
# their units. run.py fills in harness.episode_workers and trace.*.
DERIVED = {
    "ppo.rollout_s": "s",
    "ppo.eval_share": "frac",
    "harness.write_csv.bytes": "bytes",
    "harness.episode_workers": "count",
    "trace.untraced_steps_per_s": "1/s",
    "trace.traced_steps_per_s": "1/s",
    "trace.overhead": "ratio",
}

STAT_UNITS = {"calls": "count", "self_s": "s", "p50_us": "us", "p99_us": "us"}

_NEW_EPISODE = "new_episode"   # TrafficEnv.reset: starts an episode of that env
_ENV_METHOD = "env_method"     # other TrafficEnv methods: the env's episode
_NESTED = "nested"             # anything else: the caller's episode

_ENV_KINDS = {
    "engine.reset": _NEW_EPISODE,
    "engine.observe": _ENV_METHOD,
    "engine.step_sim": _ENV_METHOD,
    "engine.decision_step": _ENV_METHOD,
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {f"{prefix}.{stat}": STAT_UNITS[stat]
             for prefix, stats, _ in LAYERS for stat in stats}
    units.update(DERIVED)
    return units


class _Buffer:
    """Spans finished on one thread, column-wise."""

    def __init__(self):
        self.sid = array("q")
        self.name = array("i")
        self.parent = array("q")
        self.episode = array("q")
        self.start = array("d")
        self.end = array("d")


class Tracer:
    """Patches the layers while active; ``report`` reduces the spans."""

    def __init__(self):
        self._names = [prefix for prefix, _, _ in LAYERS]
        self._span_ids = itertools.count()
        self._episode_ids = itertools.count()
        self._episode_of: dict[int, int] = {}
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []
        self.csv_bytes = 0

    # ------------------------------------------------------------------
    # patching

    def __enter__(self) -> "Tracer":
        for index, (prefix, _, sites) in enumerate(LAYERS):
            for site in sites:
                module_name, path = site.split(":")
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = vars(owner)[attr]
                self._patched.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, index, _ENV_KINDS.get(prefix, _NESTED),
                                                prefix == "harness.write_csv"))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _thread_state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.buffer = _Buffer()
            with self._lock:
                self._buffers.append(local.buffer)
        return local.stack, local.buffer

    def _wrap(self, fn, name_index: int, kind: str, count_bytes: bool):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, buf = tracer._thread_state()
            sid = next(tracer._span_ids)
            parent, episode = stack[-1] if stack else (-1, -1)
            if kind == _NEW_EPISODE:
                episode = next(tracer._episode_ids)
                tracer._episode_of[id(args[0])] = episode
            elif kind == _ENV_METHOD:
                episode = tracer._episode_of.get(id(args[0]), -1)
            stack.append((sid, episode))
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                buf.sid.append(sid)
                buf.name.append(name_index)
                buf.parent.append(parent)
                buf.episode.append(episode)
                buf.start.append(start)
                buf.end.append(end)
                if count_bytes:
                    tracer.csv_bytes += os.path.getsize(args[0])

        return traced

    # ------------------------------------------------------------------
    # reduction

    def report(self) -> "SpanReport":
        def column(field, dtype):
            parts = [np.frombuffer(getattr(b, field), dtype=dtype) for b in self._buffers]
            return np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)

        sid = column("sid", np.int64)
        order = np.argsort(sid)
        name = column("name", np.int32)[order]
        parent = column("parent", np.int64)[order]
        episode = column("episode", np.int64)[order]
        duration = (column("end", np.float64) - column("start", np.float64))[order]
        # Span ids are handed out densely from 0, so after sorting a span's
        # id is its row; a parent that never finished would break this.
        if not np.array_equal(sid[order], np.arange(len(sid))):
            raise RuntimeError("span ids are not dense: a span was lost")
        return SpanReport(self._names, name, parent, episode, duration, self.csv_bytes)


class SpanReport:
    """Per-layer statistics over all spans of one traced run."""

    def __init__(self, names, name, parent, episode, duration, csv_bytes):
        self.index = {n: i for i, n in enumerate(names)}
        self.name = name
        self.parent = parent
        self.episode = episode
        self.duration = duration
        self.csv_bytes = csv_bytes
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=duration[has_parent],
                                 minlength=len(duration))
        self.self_time = duration - child_time

    def _mask(self, prefix: str) -> np.ndarray:
        return self.name == self.index[prefix]

    def calls(self, prefix: str) -> int:
        return int(self._mask(prefix).sum())

    def total_s(self, prefix: str) -> float:
        return float(self.duration[self._mask(prefix)].sum())

    def stat(self, prefix: str, stat: str) -> float:
        mask = self._mask(prefix)
        if stat == "calls":
            return int(mask.sum())
        if stat == "self_s":
            return float(self.self_time[mask].sum())
        if not mask.any():
            return 0.0
        q = {"p50_us": 50, "p99_us": 99}[stat]
        return float(np.percentile(self.duration[mask], q) * 1e6)

    def calls_under(self, prefix: str, parent_prefix: str) -> int:
        """Calls of ``prefix`` made directly from ``parent_prefix``."""
        mask = self._mask(prefix) & (self.parent >= 0)
        parents = self.name[self.parent[mask]]
        return int((parents == self.index[parent_prefix]).sum())

    def calls_per_episode(self, prefix: str) -> np.ndarray:
        """Calls of ``prefix`` in each episode that made any."""
        counts = np.bincount(self.episode[self._mask(prefix) & (self.episode >= 0)])
        return counts[counts > 0]

    def metrics(self) -> dict[str, float]:
        out = {f"{prefix}.{stat}": self.stat(prefix, stat)
               for prefix, stats, _ in LAYERS for stat in stats}
        rollout = (self.total_s("ppo.train") - self.total_s("ppo.ppo_update")
                   - self.total_s("ppo.evaluate_policy"))
        decisions = self.calls("engine.decision_step")
        out["ppo.rollout_s"] = rollout
        out["ppo.eval_share"] = (self.calls_under("engine.decision_step", "ppo.evaluate_policy")
                                 / decisions if decisions else 0.0)
        out["harness.write_csv.bytes"] = self.csv_bytes
        return out
