"""Scenario = network + demand + simulation config, with JSON round-tripping;
the built-in Braess scenarios braess5 and braess8.

The on-disk format has five sections: ``network`` (links array), ``od``
(single origin/destination plus autonomy split), ``demand`` (piecewise-linear
breakpoints), ``control`` (headway bounds and action cadence) and ``sim``
(step sizes, initial loading, rationality factors). Every random draw comes
from the episode seed, so a scenario holds none; keys the format does not
name, such as the ``sim.seed`` of older files, are ignored. Any bad
scenario, from an unreadable file to an origin with no path to its
destination, raises ``ConfigError`` when it is loaded or built.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path as FsPath

from .network import ConfigError, DemandProfile, Link, Network, ODPair

# Share of the built-in scenarios' demand that is autonomous.
AUTONOMY_FRACTION = 0.8

# Fraction of link 0's human-headway capacity injected at the demand peak.
# The 240 km links drain over ~8000 s, far slower than the demand pulse, so
# the peak must overfill the entry links well past their critical density to
# congest the network within the 200-minute horizon; a lighter load leaves
# the whole episode in free flow, where headway control cannot change
# anything. Calibrated so the constant-human-headway baseline spends roughly
# a third of its link-steps congested.
PEAK_FACTOR = 6.0

# Initial loading of the entry links, as a fraction of critical count at the
# human headway.
INITIAL_FILL = 0.30

# Demand pulse (s): ramp up to the peak, hold it, ramp down to zero, and
# stay at zero to the end of the 200-minute horizon.
RAMP_UP_S, HOLD_UNTIL_S, RAMP_DOWN_UNTIL_S, DEMAND_END_S = 2_400.0, 4_800.0, 7_200.0, 12_000.0

# The built-in networks as (from, to, length_m, lanes) edges, each a link at
# 30 m/s with 0.5 m jam spacing. braess5 is the diamond O-A-B-D with the
# short wide shortcut A->B in the middle.
_BRAESS5_EDGES = (
    ("O", "A", 240_000.0, 4),
    ("A", "D", 240_000.0, 2),
    ("O", "B", 240_000.0, 2),
    ("B", "D", 240_000.0, 4),
    ("A", "B", 60_000.0, 8),
)
# braess8 nests a second diamond after the first: A->C has link 2's
# geometry, C->D link 1's, and C->B is its own short wide shortcut, as link
# 4. Links 3 and 4 are shared between the two diamonds.
_BRAESS8_EDGES = _BRAESS5_EDGES + (
    ("A", "C", 240_000.0, 2),
    ("C", "D", 240_000.0, 2),
    ("C", "B", 60_000.0, 8),
)

# Longest episode a scenario may ask for, in sim steps (the built-in
# scenarios take 200). Anything longer is almost surely a typo in dt_s or
# horizon_s and would run for hours.
MAX_EPISODE_STEPS = 100_000


@dataclass(frozen=True)
class SimConfig:
    dt_s: float = 60.0
    horizon_s: float = 12_000.0
    action_period_s: float = 600.0
    initial_counts: dict[int, float] = field(default_factory=dict)
    mu_h: float = 0.1
    mu_a: float = 0.1
    # Per-seed multiplicative jitter applied to the initial counts.
    initial_jitter: float = 0.05
    # Latencies are divided by this before entering the route-choice
    # exponent, so mu is "per minute of latency" by default.
    latency_unit_s: float = 60.0
    reward_scale: float = 1e-3

    def __post_init__(self):
        for name in ("dt_s", "horizon_s", "action_period_s", "latency_unit_s", "reward_scale"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and positive, got {value}")
        for name in ("mu_h", "mu_a"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be finite and non-negative, got {value}")
        # Whole numbers of steps, up to float rounding: 0.7 / 0.1 is 6.999...
        for name in ("horizon_s", "action_period_s"):
            steps = getattr(self, name) / self.dt_s
            whole = round(steps) if math.isfinite(steps) else 0
            if not (1 <= whole <= MAX_EPISODE_STEPS and math.isclose(steps, whole)):
                raise ConfigError(f"{name} / dt_s = {steps} is not a whole number of steps "
                                  f"between 1 and the limit of {MAX_EPISODE_STEPS}")
        if not 0.0 <= self.initial_jitter < 1.0:
            raise ConfigError("initial_jitter must lie in [0, 1)")

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon_s / self.dt_s))

    @property
    def steps_per_action(self) -> int:
        return int(round(self.action_period_s / self.dt_s))


@dataclass(frozen=True)
class Scenario:
    network: Network
    demand: DemandProfile  # of the network's one O/D pair
    sim: SimConfig

    def __post_init__(self):
        on_path = {l for path in self.network.paths for l in path}
        for link_id, count in self.sim.initial_counts.items():
            if not 0 <= link_id < self.network.n_links:
                raise ConfigError(f"initial count for unknown link {link_id}")
            if link_id not in on_path:
                raise ConfigError(f"initial count on link {link_id}, which no path uses")
            link = self.network.links[link_id]
            if not (math.isfinite(count) and count >= 0):
                raise ConfigError(f"initial count on link {link_id} must be finite and "
                                  f"non-negative, got {count}")
            # The most that reset's jitter can draw, so no episode starts above jam.
            if count * (1.0 + self.sim.initial_jitter) / link.length_m > link.jam_density:
                raise ConfigError(f"initial count on link {link_id}, jittered up by "
                                  f"{self.sim.initial_jitter}, exceeds jam density")


def _braess_scenario(edges) -> Scenario:
    """The network of ``edges`` from O to D, with headways 6 m (human) within
    [1, 10] m, peak-hour demand (ramp to the peak, hold, ramp to zero, cool
    down) and the two entry links loaded so the top of the network starts
    crowded."""
    links = tuple(Link(id=i, from_node=frm, to_node=to, length_m=length, lanes=lanes,
                       free_flow_speed_mps=30.0, jam_spacing_m=0.5)
                  for i, (frm, to, length, lanes) in enumerate(edges))
    network = Network(links=links, od_pairs=(ODPair("O", "D"),),
                      beta_min_m=1.0, beta_max_m=10.0, beta_h_m=6.0)
    link0 = network.links[0]
    peak = PEAK_FACTOR * (link0.free_flow_speed_mps * link0.lanes / network.beta_h_m)
    demand = DemandProfile(
        breakpoints=((0.0, 0.0), (RAMP_UP_S, peak), (HOLD_UNTIL_S, peak),
                     (RAMP_DOWN_UNTIL_S, 0.0), (DEMAND_END_S, 0.0)),
        autonomy_fraction=AUTONOMY_FRACTION,
    )
    initial_counts = {}
    for link_id in (0, 2):
        link = network.links[link_id]
        critical_count = link.lanes / network.beta_h_m * link.length_m
        initial_counts[link_id] = INITIAL_FILL * critical_count
    return Scenario(network=network, demand=demand, sim=SimConfig(initial_counts=initial_counts))


def braess5_scenario() -> Scenario:
    """The 4-node, 5-link Braess diamond (3 paths)."""
    return _braess_scenario(_BRAESS5_EDGES)


def braess8_scenario() -> Scenario:
    """Eight links: a second Braess diamond nested after the first (5 paths)."""
    return _braess_scenario(_BRAESS8_EDGES)


BUILTIN_SCENARIOS = {
    "braess5": braess5_scenario,
    "braess8": braess8_scenario,
}


def scenario_to_dict(scenario: Scenario) -> dict:
    """The JSON document of a scenario; the format holds one O/D pair."""
    net = scenario.network
    od = net.od_pairs[0]
    demand = scenario.demand
    sim = scenario.sim
    return {
        "network": {
            "links": [
                {
                    "id": l.id,
                    "from": l.from_node,
                    "to": l.to_node,
                    "length_m": l.length_m,
                    "lanes": l.lanes,
                    "vff_mps": l.free_flow_speed_mps,
                    "jam_spacing_m": l.jam_spacing_m,
                }
                for l in net.links
            ]
        },
        "od": {
            "origin": od.origin,
            "destination": od.destination,
            "autonomy_fraction": demand.autonomy_fraction,
        },
        "demand": {"breakpoints": [[t, r] for t, r in demand.breakpoints]},
        "control": {
            "beta_min_m": net.beta_min_m,
            "beta_max_m": net.beta_max_m,
            "beta_h_m": net.beta_h_m,
            "action_period_s": sim.action_period_s,
        },
        "sim": {
            "dt_s": sim.dt_s,
            "horizon_s": sim.horizon_s,
            "initial_counts": {str(k): v for k, v in sim.initial_counts.items()},
            "mu_h": sim.mu_h,
            "mu_a": sim.mu_a,
            "initial_jitter": sim.initial_jitter,
            "latency_unit_s": sim.latency_unit_s,
            "reward_scale": sim.reward_scale,
        },
    }


def scenario_from_dict(data: dict) -> Scenario:
    """Build and validate a scenario; any bad field raises ConfigError."""
    try:
        return _scenario_from_dict(data)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ConfigError(f"malformed scenario document: {exc}") from exc


def _integer(value, name: str) -> int:
    """A whole number, refusing what ``int()`` would silently truncate."""
    whole = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not whole:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _scenario_from_dict(data: dict) -> Scenario:
    links = tuple(
        Link(
            id=_integer(entry["id"], "link id"),
            from_node=str(entry["from"]),
            to_node=str(entry["to"]),
            length_m=float(entry["length_m"]),
            lanes=_integer(entry["lanes"], f"link {entry['id']} lanes"),
            free_flow_speed_mps=float(entry["vff_mps"]),
            jam_spacing_m=float(entry["jam_spacing_m"]),
        )
        for entry in data["network"]["links"]
    )
    od_section = data["od"]
    control = data["control"]
    sim_section = data["sim"]
    demand = DemandProfile(
        breakpoints=tuple((float(t), float(r)) for t, r in data["demand"]["breakpoints"]),
        autonomy_fraction=float(od_section["autonomy_fraction"]),
    )
    network = Network(
        links=links,
        od_pairs=(ODPair(str(od_section["origin"]), str(od_section["destination"])),),
        beta_min_m=float(control["beta_min_m"]),
        beta_max_m=float(control["beta_max_m"]),
        beta_h_m=float(control["beta_h_m"]),
    )
    # Optional keys a document leaves out take SimConfig's defaults.
    optional = {k: float(sim_section[k]) for k in ("initial_jitter", "latency_unit_s",
                                                    "reward_scale") if k in sim_section}
    sim = SimConfig(
        dt_s=float(sim_section["dt_s"]),
        horizon_s=float(sim_section["horizon_s"]),
        action_period_s=float(control["action_period_s"]),
        initial_counts={int(k): float(v) for k, v in sim_section.get("initial_counts", {}).items()},
        mu_h=float(sim_section["mu_h"]),
        mu_a=float(sim_section["mu_a"]),
        **optional,
    )
    return Scenario(network=network, demand=demand, sim=sim)


def save_scenario(scenario: Scenario, path: str | FsPath) -> None:
    FsPath(path).write_text(json.dumps(scenario_to_dict(scenario), indent=2) + "\n")


def load_scenario(spec: str | FsPath) -> Scenario:
    """Load a scenario from a JSON file, or build a named built-in one."""
    name = str(spec)
    if name in BUILTIN_SCENARIOS:
        return BUILTIN_SCENARIOS[name]()
    try:
        data = json.loads(FsPath(spec).read_text())
    except (OSError, ValueError) as exc:  # missing, unreadable, not UTF-8 or not JSON
        raise ConfigError(f"cannot read scenario {spec}: {exc}") from exc
    return scenario_from_dict(data)
