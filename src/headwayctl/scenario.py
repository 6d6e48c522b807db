"""Scenario = network + demand + simulation config, with JSON round-tripping.

The on-disk format has five sections: ``network`` (links array), ``od``
(single origin/destination plus autonomy split), ``demand`` (piecewise-linear
breakpoints), ``control`` (headway bounds and action cadence) and ``sim``
(step sizes, initial loading, rationality factors, seed).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path as FsPath

from .network import (
    ConfigError,
    DemandProfile,
    Link,
    Network,
    ODPair,
    ScenarioError,
    build_braess_5,
    build_braess_8,
    enumerate_paths,
)

# Fraction of link 0's human-headway capacity injected at the demand peak.
# The 240 km links drain over ~8000 s, far slower than the demand pulse, so
# the peak must overfill the entry links well past their critical density to
# congest the network within the 200-minute horizon; a lighter load leaves
# the whole episode in free flow, where headway control cannot change
# anything. Calibrated so the constant-human-headway baseline spends roughly
# a third of its link-steps congested.
DEFAULT_PEAK_FACTOR = 6.0

# Initial loading of the entry links, as a fraction of critical count at the
# human headway.
DEFAULT_INITIAL_FILL = 0.30

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
    seed: int = 0
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
        on_path = {l for p in self.network.od_pairs[0].paths for l in p.links}
        for link_id, count in self.sim.initial_counts.items():
            if not 0 <= link_id < self.network.n_links:
                raise ConfigError(f"initial count for unknown link {link_id}")
            if link_id not in on_path:
                raise ConfigError(f"initial count on link {link_id}, which no path uses")
            link = self.network.links[link_id]
            if not (math.isfinite(count) and count >= 0):
                raise ConfigError(f"initial count on link {link_id} must be finite and "
                                  f"non-negative, got {count}")
            if count / link.length_m > link.jam_density:
                raise ConfigError(f"initial count on link {link_id} exceeds jam density")


def trapezoid_demand(peak_vps: float, autonomy_fraction: float,
                     ramp_up_s: float = 2_400.0, hold_until_s: float = 4_800.0,
                     ramp_down_until_s: float = 7_200.0, end_s: float = 12_000.0) -> DemandProfile:
    """Peak-hour style profile: ramp to peak, hold, ramp to zero, cool down."""
    return DemandProfile(
        breakpoints=(
            (0.0, 0.0),
            (ramp_up_s, peak_vps),
            (hold_until_s, peak_vps),
            (ramp_down_until_s, 0.0),
            (end_s, 0.0),
        ),
        autonomy_fraction=autonomy_fraction,
    )


def _entry_link_capacity_vps(network: Network) -> float:
    link0 = network.links[0]
    return link0.free_flow_speed_mps * link0.lanes / network.beta_h_m


def _default_initial_counts(network: Network, fill: float) -> dict[int, float]:
    # Load the two entry links so the top of the network starts crowded.
    counts = {}
    for link_id in (0, 2):
        link = network.links[link_id]
        critical_count = link.lanes / network.beta_h_m * link.length_m
        counts[link_id] = fill * critical_count
    return counts


def _braess_scenario(network: Network, autonomy_fraction: float, peak_factor: float,
                     initial_fill: float, mu_h: float, mu_a: float, seed: int) -> Scenario:
    peak = peak_factor * _entry_link_capacity_vps(network)
    demand = trapezoid_demand(peak, autonomy_fraction)
    sim = SimConfig(
        initial_counts=_default_initial_counts(network, initial_fill),
        mu_h=mu_h,
        mu_a=mu_a,
        seed=seed,
    )
    return Scenario(network=network, demand=demand, sim=sim)


def braess5_scenario(autonomy_fraction: float = 0.8, peak_factor: float = DEFAULT_PEAK_FACTOR,
                     initial_fill: float = DEFAULT_INITIAL_FILL, mu_h: float = 0.1,
                     mu_a: float = 0.1, seed: int = 0) -> Scenario:
    return _braess_scenario(build_braess_5(), autonomy_fraction, peak_factor,
                            initial_fill, mu_h, mu_a, seed)


def braess8_scenario(autonomy_fraction: float = 0.8, peak_factor: float = DEFAULT_PEAK_FACTOR,
                     initial_fill: float = DEFAULT_INITIAL_FILL, mu_h: float = 0.1,
                     mu_a: float = 0.1, seed: int = 0) -> Scenario:
    return _braess_scenario(build_braess_8(), autonomy_fraction, peak_factor,
                            initial_fill, mu_h, mu_a, seed)


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
            "seed": sim.seed,
            "initial_jitter": sim.initial_jitter,
            "latency_unit_s": sim.latency_unit_s,
            "reward_scale": sim.reward_scale,
        },
    }


def scenario_from_dict(data: dict) -> Scenario:
    """Build and validate a scenario; any bad field raises ConfigError."""
    try:
        return _scenario_from_dict(data)
    except (ConfigError, ScenarioError):
        raise
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ConfigError(f"malformed scenario document: {exc}") from exc


def _scenario_from_dict(data: dict) -> Scenario:
    links = tuple(
        Link(
            id=int(entry["id"]),
            from_node=str(entry["from"]),
            to_node=str(entry["to"]),
            length_m=float(entry["length_m"]),
            lanes=int(entry["lanes"]),
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
    paths = enumerate_paths(links, str(od_section["origin"]), str(od_section["destination"]))
    od = ODPair(origin=str(od_section["origin"]), destination=str(od_section["destination"]),
                paths=tuple(paths))
    network = Network(
        links=links,
        od_pairs=(od,),
        beta_min_m=float(control["beta_min_m"]),
        beta_max_m=float(control["beta_max_m"]),
        beta_h_m=float(control["beta_h_m"]),
    )
    sim = SimConfig(
        dt_s=float(sim_section["dt_s"]),
        horizon_s=float(sim_section["horizon_s"]),
        action_period_s=float(control["action_period_s"]),
        initial_counts={int(k): float(v) for k, v in sim_section.get("initial_counts", {}).items()},
        mu_h=float(sim_section["mu_h"]),
        mu_a=float(sim_section["mu_a"]),
        seed=int(sim_section.get("seed", 0)),
        initial_jitter=float(sim_section.get("initial_jitter", 0.05)),
        latency_unit_s=float(sim_section.get("latency_unit_s", 60.0)),
        reward_scale=float(sim_section.get("reward_scale", 1e-3)),
    )
    return Scenario(network=network, demand=demand, sim=sim)


def save_scenario(scenario: Scenario, path: str | FsPath) -> None:
    FsPath(path).write_text(json.dumps(scenario_to_dict(scenario), indent=2) + "\n")


def load_scenario(spec: str | FsPath) -> Scenario:
    """Load a scenario from a JSON file, or build a named built-in one."""
    name = str(spec)
    if name in BUILTIN_SCENARIOS:
        return BUILTIN_SCENARIOS[name]()
    path = FsPath(spec)
    if not path.exists():
        raise ScenarioFileError(f"scenario not found: {spec}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioFileError(f"scenario is not valid JSON: {spec}: {exc}") from exc
    return scenario_from_dict(data)


class ScenarioFileError(ConfigError):
    """Scenario file missing or unreadable."""
