"""Road network model: links, the O/D pair, path enumeration, demand profiles.

Networks are immutable after construction and safe to share between
concurrently running simulations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


class ConfigError(ValueError):
    """Invalid network or scenario configuration."""


class ScenarioError(ValueError):
    """A scenario cannot be realized (e.g. origin cannot reach destination)."""


def _finite_positive(x: float) -> bool:
    return math.isfinite(x) and x > 0


@dataclass(frozen=True)
class Link:
    """Directed road segment with fixed geometry and diagram parameters."""

    id: int
    from_node: str
    to_node: str
    length_m: float
    lanes: int
    free_flow_speed_mps: float
    jam_spacing_m: float

    def __post_init__(self):
        if not _finite_positive(self.length_m):
            raise ConfigError(f"link {self.id}: length must be finite and positive")
        if self.lanes < 1:
            raise ConfigError(f"link {self.id}: needs at least one lane")
        if not _finite_positive(self.free_flow_speed_mps):
            raise ConfigError(f"link {self.id}: free-flow speed must be finite and positive")
        if not _finite_positive(self.jam_spacing_m):
            raise ConfigError(f"link {self.id}: jam spacing must be finite and positive")

    @property
    def jam_density(self) -> float:
        """Maximum density (veh/m), constant regardless of headway control."""
        return self.lanes / self.jam_spacing_m


@dataclass(frozen=True)
class Path:
    """Simple directed link sequence from an origin to a destination."""

    id: int
    links: tuple[int, ...]


@dataclass(frozen=True)
class ODPair:
    origin: str
    destination: str
    paths: tuple[Path, ...]

    def __post_init__(self):
        if self.origin == self.destination:
            raise ConfigError("origin and destination must differ")
        if not self.paths:
            raise ConfigError("an O/D pair needs at least one path")


@dataclass(frozen=True)
class DemandProfile:
    """Piecewise-linear inflow rate (veh/s) with a fixed autonomy split.

    Breakpoints are (time_s, rate_vps) knots; the rate is interpolated
    linearly between them and is zero outside their time range.
    """

    breakpoints: tuple[tuple[float, float], ...]
    autonomy_fraction: float
    # Knot arrays for np.interp, built once instead of on every call.
    times: np.ndarray = field(init=False, repr=False, compare=False)
    rates: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        times = [t for t, _ in self.breakpoints]
        rates = [r for _, r in self.breakpoints]
        if not all(math.isfinite(x) for x in times + rates):
            raise ConfigError("demand breakpoints must be finite")
        if times != sorted(times):
            raise ConfigError("demand breakpoints must be time-sorted")
        if any(r < 0 for r in rates):
            raise ConfigError("demand rates must be non-negative")
        if not 0.0 <= self.autonomy_fraction <= 1.0:
            raise ConfigError("autonomy fraction must lie in [0, 1]")
        object.__setattr__(self, "times", np.array(times, dtype=float))
        object.__setattr__(self, "rates", np.array(rates, dtype=float))

    @property
    def peak_rate(self) -> float:
        return max((r for _, r in self.breakpoints), default=0.0)


def demand_at(profile: DemandProfile, t_s: float) -> float:
    """Inflow rate (veh/s) at time ``t_s``: linear between breakpoints, 0 outside."""
    pts = profile.breakpoints
    if not pts or t_s < pts[0][0] or t_s > pts[-1][0]:
        return 0.0
    return float(np.interp(t_s, profile.times, profile.rates))


@dataclass(frozen=True)
class Network:
    """Directed link graph, its one O/D pair and the headway control envelope.

    ``beta_h_m`` is the (uncontrolled) human headway; autonomous headways are
    per-link actions bounded to [beta_min_m, beta_max_m].
    """

    links: tuple[Link, ...]
    od_pairs: tuple[ODPair, ...]
    beta_min_m: float
    beta_max_m: float
    beta_h_m: float

    def __post_init__(self):
        if len(self.od_pairs) != 1:
            raise ConfigError(f"a network holds one O/D pair, got {len(self.od_pairs)}")
        if not all(map(_finite_positive, (self.beta_min_m, self.beta_max_m, self.beta_h_m))):
            raise ConfigError("headways must be finite and positive")
        if not self.beta_min_m < self.beta_max_m:
            raise ConfigError("need beta_min < beta_max")
        if not self.beta_min_m <= self.beta_h_m <= self.beta_max_m:
            raise ConfigError("human headway must lie within the action bounds")
        ids = [l.id for l in self.links]
        if ids != list(range(len(self.links))):
            raise ConfigError("link ids must be 0..n-1 in order")
        for link in self.links:
            # Keeps the critical density below jam density for every
            # admissible action (and for the human headway).
            if link.jam_spacing_m >= self.beta_min_m:
                raise ConfigError(
                    f"link {link.id}: jam spacing {link.jam_spacing_m} must be "
                    f"smaller than the minimum headway {self.beta_min_m}"
                )

    @property
    def n_links(self) -> int:
        return len(self.links)

    def lanes_array(self) -> np.ndarray:
        return np.array([l.lanes for l in self.links], dtype=float)

    def length_array(self) -> np.ndarray:
        return np.array([l.length_m for l in self.links], dtype=float)

    def speed_array(self) -> np.ndarray:
        return np.array([l.free_flow_speed_mps for l in self.links], dtype=float)

    def jam_density_array(self) -> np.ndarray:
        return np.array([l.jam_density for l in self.links], dtype=float)


def enumerate_paths(links: Sequence[Link], origin: str, destination: str) -> list[Path]:
    """All simple directed paths from origin to destination.

    Deterministic order: lexicographic by link-id sequence. Raises
    ScenarioError when no path exists.
    """
    out_links: dict[str, list[Link]] = {}
    for link in links:
        out_links.setdefault(link.from_node, []).append(link)
    for lst in out_links.values():
        lst.sort(key=lambda l: l.id)

    found: list[tuple[int, ...]] = []

    def walk(node: str, visited: set[str], trail: list[int]):
        if node == destination:
            found.append(tuple(trail))
            return
        for link in out_links.get(node, []):
            if link.to_node in visited:
                continue
            visited.add(link.to_node)
            trail.append(link.id)
            walk(link.to_node, visited, trail)
            trail.pop()
            visited.remove(link.to_node)

    walk(origin, {origin}, [])
    if not found:
        raise ScenarioError(f"no path from {origin} to {destination}")
    found.sort()
    return [Path(id=i, links=seq) for i, seq in enumerate(found)]


@dataclass(frozen=True)
class ScenarioOverrides:
    """Optional knobs for the built-in scenario builders.

    ``None`` keeps the builder default. ``lanes`` overrides per-link lane
    counts (must match the link count of the chosen geometry).
    """

    lanes: tuple[int, ...] | None = None
    beta_h_m: float | None = None
    beta_jam_m: float | None = None
    beta_min_m: float | None = None
    beta_max_m: float | None = None
    free_flow_speed_mps: float | None = None


_BRAESS5_EDGES = [
    # (from, to, length_m, lanes) -- diamond O-A-B-D with the short wide
    # shortcut A->B in the middle.
    ("O", "A", 240_000.0, 4),
    ("A", "D", 240_000.0, 2),
    ("O", "B", 240_000.0, 2),
    ("B", "D", 240_000.0, 4),
    ("A", "B", 60_000.0, 8),
]

# Second diamond nested after the first: A->C mirrors O->B, C->D mirrors
# A->D, and C->B is its own short wide shortcut. Links 3 and 4 are shared
# between the two diamonds, which keeps the total at eight links.
_BRAESS8_EXTRA_EDGES = [
    ("A", "C", 2),  # copies link 2's geometry
    ("C", "D", 1),  # copies link 1's geometry
    ("C", "B", 4),  # copies link 4's geometry
]


def _build_network(edges, overrides: ScenarioOverrides, origin: str, destination: str) -> Network:
    beta_h = 6.0 if overrides.beta_h_m is None else overrides.beta_h_m
    beta_jam = 0.5 if overrides.beta_jam_m is None else overrides.beta_jam_m
    beta_min = 1.0 if overrides.beta_min_m is None else overrides.beta_min_m
    beta_max = 10.0 if overrides.beta_max_m is None else overrides.beta_max_m
    vff = 30.0 if overrides.free_flow_speed_mps is None else overrides.free_flow_speed_mps
    if overrides.lanes is not None and len(overrides.lanes) != len(edges):
        raise ConfigError(f"lanes override must have {len(edges)} entries")
    links = []
    for i, (frm, to, length, lanes) in enumerate(edges):
        if overrides.lanes is not None:
            lanes = overrides.lanes[i]
        links.append(
            Link(
                id=i,
                from_node=frm,
                to_node=to,
                length_m=length,
                lanes=lanes,
                free_flow_speed_mps=vff,
                jam_spacing_m=beta_jam,
            )
        )
    paths = enumerate_paths(links, origin, destination)
    od = ODPair(origin=origin, destination=destination, paths=tuple(paths))
    return Network(
        links=tuple(links),
        od_pairs=(od,),
        beta_min_m=beta_min,
        beta_max_m=beta_max,
        beta_h_m=beta_h,
    )


def build_braess_5(overrides: ScenarioOverrides = ScenarioOverrides()) -> Network:
    """Classic 4-node, 5-link Braess diamond with one O->D pair (3 paths)."""
    return _build_network(_BRAESS5_EDGES, overrides, "O", "D")


def build_braess_8(overrides: ScenarioOverrides = ScenarioOverrides()) -> Network:
    """Eight-link network with a second Braess diamond nested after the first."""
    edges = list(_BRAESS5_EDGES)
    for frm, to, copy_of in _BRAESS8_EXTRA_EDGES:
        _, _, length, lanes = _BRAESS5_EDGES[copy_of]
        edges.append((frm, to, length, lanes))
    return _build_network(edges, overrides, "O", "D")
