"""Scenario = network + demand + simulation config, with JSON round-tripping;
the built-in Braess scenarios braess5 and braess8.

The on-disk format has five sections: ``network`` (links array), ``od``
(single origin/destination plus autonomy split), ``demand`` (piecewise-linear
breakpoints), ``control`` (headway bounds and action cadence) and ``sim``
(step sizes, initial loading, rationality factors). One table of fields
drives both the writer and the reader. Every random draw comes from the
episode seed, so a scenario holds none; keys the format does not name, such
as the ``sim.seed`` of older files, are ignored. Any bad scenario, from an
unreadable file or a value of the wrong JSON type to an origin with no path
to its destination or finite values whose step would overflow, raises
``ConfigError`` when it is loaded or built.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path as FsPath

import numpy as np

from .fundamental import LATENCY_CAP_S
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
    # Whole numbers of steps, set by __post_init__ from the checked values.
    n_steps: int = field(init=False, repr=False, compare=False)
    steps_per_action: int = field(init=False, repr=False, compare=False)

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
        for name, derived in (("horizon_s", "n_steps"), ("action_period_s", "steps_per_action")):
            steps = getattr(self, name) / self.dt_s
            whole = round(steps) if math.isfinite(steps) else 0
            if not (1 <= whole <= MAX_EPISODE_STEPS and math.isclose(steps, whole)):
                raise ConfigError(f"{name} / dt_s = {steps} is not a whole number of steps "
                                  f"between 1 and the limit of {MAX_EPISODE_STEPS}")
            object.__setattr__(self, derived, whole)
        if not 0.0 <= self.initial_jitter < 1.0:
            raise ConfigError("initial_jitter must lie in [0, 1)")


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
        for name, value in _step_bounds(self).items():
            if not np.isfinite(value).all():
                raise ConfigError(f"{name} is not finite: {value}")


def _step_bounds(scenario: Scenario) -> dict:
    """The largest values an episode's step can compute, by name.

    Each field is finite on its own, but the step multiplies them; if one of
    these overflows, an episode would fail mid-run instead of at load. The
    diagram's branches are evaluated on every link at every density up to
    jam density, with the critical density between the maximum and the
    minimum headway's. On a congested link the density falls short of jam
    by zero or at least one rounding step, ``eps / 4`` of jam density, so a
    positive flow is at least ``eps / 4`` of capacity. A link's latency is at
    most its free-flow time or the cap. The TTT bound counts every link full
    and all demand queued, on every step.
    """
    net, sim = scenario.network, scenario.sim
    v, n_jam, length = net.speed_mps, net.jam_density, net.length_m
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        n_c_max, n_c_min = net.lanes / net.beta_min_m, net.lanes / net.beta_max_m
        jam_counts = n_jam * length
        link_s = np.maximum(length / v, LATENCY_CAP_S).tolist()
        path_s = max(sum(link_s[l] for l in path) for path in net.paths)
        volume = scenario.demand.peak_rate * sim.horizon_s
        return {
            "jam count": jam_counts,
            "capacity at the minimum headway over one step": v * n_c_max * sim.dt_s,
            "free-flow branch at jam density": v * n_jam,
            "congested branch at zero density": v * n_c_max * n_jam / (n_jam - n_c_max),
            "congested latency at the least positive flow":
                length * n_jam / (v * n_c_min * (np.finfo(float).eps / 4)),
            "route-choice exponent of the slowest path":
                max(sim.mu_h, sim.mu_a) * (path_s / sim.latency_unit_s),
            "total demand volume": volume,
            "TTT bound": sim.n_steps * (jam_counts.sum() + volume) * max(sim.reward_scale, 1.0),
        }


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


def _integer(value, name: str) -> int:
    """A whole number, refusing what ``int()`` would silently truncate."""
    whole = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not whole:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def numbers(value, ndim: int, name: str):
    """A JSON number as a float (``ndim`` 0) or an ``ndim``-D list of them as an
    array; a bool, a string, a ragged list or another depth raises TypeError."""
    leaves = np.array(value, dtype=object)
    if leaves.ndim != ndim or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                                      for x in leaves.flat):
        want = f"a {ndim}-D list of numbers" if ndim else "a number"
        raise TypeError(f"{name} must be {want}, got {value!r:.60}")
    return np.array(value, dtype=float) if ndim else float(value)


def _real(value, name: str) -> float:
    return numbers(value, 0, name)


def _name(value, name: str) -> str:
    if not isinstance(value, str):
        raise TypeError(f"{name} must be a string, got {value!r}")
    return value


def _breakpoints(value, name: str) -> tuple:
    return tuple((_real(t, name), _real(r, name)) for t, r in value)


def _counts(value, name: str) -> dict:
    """Counts keyed by link id written as ``str(id)``: int() alone would read
    "00", " 2", "+2", "-0" and "1_0" too, so two keys could name one link."""
    for k in value:
        if str(int(k)) != k:
            raise ConfigError(f"{name} key {k!r} is not a link id written as a plain integer")
    return {int(k): _real(v, f"{name}.{k}") for k, v in value.items()}


# The format's fields in file order: (section, key, owner, attribute, parser,
# optional). The owner "od" is the network's O/D pair, "demand" the
# DemandProfile, "network" the Network and "sim" the SimConfig. An optional
# key may be absent and then takes SimConfig's default.
_FIELDS = (
    ("od", "origin", "od", "origin", _name, False),
    ("od", "destination", "od", "destination", _name, False),
    ("od", "autonomy_fraction", "demand", "autonomy_fraction", _real, False),
    ("demand", "breakpoints", "demand", "breakpoints", _breakpoints, False),
    ("control", "beta_min_m", "network", "beta_min_m", _real, False),
    ("control", "beta_max_m", "network", "beta_max_m", _real, False),
    ("control", "beta_h_m", "network", "beta_h_m", _real, False),
    ("control", "action_period_s", "sim", "action_period_s", _real, False),
    ("sim", "dt_s", "sim", "dt_s", _real, False),
    ("sim", "horizon_s", "sim", "horizon_s", _real, False),
    ("sim", "initial_counts", "sim", "initial_counts", _counts, True),
    ("sim", "mu_h", "sim", "mu_h", _real, False),
    ("sim", "mu_a", "sim", "mu_a", _real, False),
    ("sim", "initial_jitter", "sim", "initial_jitter", _real, True),
    ("sim", "latency_unit_s", "sim", "latency_unit_s", _real, True),
    ("sim", "reward_scale", "sim", "reward_scale", _real, True),
)
# Each entry of ``network.links``: (key, Link attribute, parser).
_LINK_FIELDS = (
    ("id", "id", _integer),
    ("from", "from_node", _name),
    ("to", "to_node", _name),
    ("length_m", "length_m", _real),
    ("lanes", "lanes", _integer),
    ("vff_mps", "free_flow_speed_mps", _real),
    ("jam_spacing_m", "jam_spacing_m", _real),
)


def scenario_to_dict(scenario: Scenario) -> dict:
    """The JSON document of a scenario: every row of the field tables."""
    net, sim = scenario.network, scenario.sim
    owners = {"od": net.od_pairs[0], "demand": scenario.demand, "network": net, "sim": sim}
    links = [{key: getattr(link, attribute) for key, attribute, _ in _LINK_FIELDS}
             for link in net.links]
    doc = {"network": {"links": links}}
    for section, key, owner, attribute, *_ in _FIELDS:
        doc.setdefault(section, {})[key] = getattr(owners[owner], attribute)
    # JSON has neither tuples nor integer keys; a rewritten key keeps its place.
    doc["demand"]["breakpoints"] = [list(knot) for knot in scenario.demand.breakpoints]
    doc["sim"]["initial_counts"] = {str(k): v for k, v in sim.initial_counts.items()}
    return doc


def scenario_from_dict(data: dict) -> Scenario:
    """Build and validate a scenario; any bad field raises ConfigError."""
    try:
        links = tuple(Link(**{attribute: parser(entry[key], f"link {i} {key}")
                              for key, attribute, parser in _LINK_FIELDS})
                      for i, entry in enumerate(data["network"]["links"]))
        values = {"od": {}, "demand": {}, "network": {}, "sim": {}}
        for section, key, owner, attribute, parser, optional in _FIELDS:
            if key in data[section] or not optional:
                values[owner][attribute] = parser(data[section][key], f"{section}.{key}")
        network = Network(links=links, od_pairs=(ODPair(**values["od"]),), **values["network"])
        return Scenario(network, DemandProfile(**values["demand"]), SimConfig(**values["sim"]))
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ConfigError(f"malformed scenario document: {exc}") from exc


def save_scenario(scenario: Scenario, path: str | FsPath) -> None:
    FsPath(path).write_text(json.dumps(scenario_to_dict(scenario), indent=2) + "\n")


def read_document(path: str | FsPath, what: str, error: type, format: str | None) -> dict:
    """The JSON object in the file at ``path``, a ``what``; a file that cannot
    be read or decoded, or whose ``format`` key is not ``format`` (unless that
    is None), raises ``error``."""
    try:
        doc = json.loads(FsPath(path).read_text())
    except (OSError, ValueError) as exc:  # missing, unreadable, not UTF-8 or not JSON
        raise error(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(doc, dict) or format is not None and doc.get("format") != format:
        raise error(f"not a {what}: {path}")
    return doc


def load_scenario(spec: str | FsPath) -> Scenario:
    """Load a scenario from a JSON file, or build a named built-in one."""
    name = str(spec)
    if name in BUILTIN_SCENARIOS:
        return BUILTIN_SCENARIOS[name]()
    return scenario_from_dict(read_document(spec, "scenario", ConfigError, None))
