"""Road network model: links, the one O/D pair, derived paths, demand profiles.

Every object is frozen and checks its values when built: a bad value, or
an origin that cannot reach its destination, raises ``ConfigError``. A
network derives its paths from its links, so each path is a simple chain of
its links from the origin to the destination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class ConfigError(ValueError):
    """Invalid network or scenario: unreadable, malformed, out of range or unroutable."""


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
class ODPair:
    origin: str
    destination: str

    def __post_init__(self):
        if self.origin == self.destination:
            raise ConfigError("origin and destination must differ")


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
    per-link actions bounded to [beta_min_m, beta_max_m]. ``paths`` holds
    every simple origin-to-destination path as link ids, in lexicographic order.
    """

    links: tuple[Link, ...]
    od_pairs: tuple[ODPair, ...]
    beta_min_m: float
    beta_max_m: float
    beta_h_m: float
    paths: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "paths", _simple_paths(self.links, self.od_pairs[0]))

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


def _simple_paths(links: tuple[Link, ...], od: ODPair) -> tuple[tuple[int, ...], ...]:
    """Every simple directed path from ``od.origin`` to ``od.destination``, as
    link ids in lexicographic order; ConfigError when there is none."""
    out_links: dict[str, list[Link]] = {}
    for link in links:
        out_links.setdefault(link.from_node, []).append(link)

    found: list[tuple[int, ...]] = []

    def walk(node: str, visited: set[str], trail: list[int]):
        if node == od.destination:
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

    walk(od.origin, {od.origin}, [])
    if not found:
        raise ConfigError(f"no path from {od.origin} to {od.destination}")
    return tuple(sorted(found))
