"""Exponential-weight route-choice dynamics.

Each vehicle class (human / autonomous) keeps a share vector over the paths
of its O/D pair; the two vectors are the rows of a (2, n_paths) array. Every step the share of a path is reweighted by
exp(-mu * latency) and renormalized, so slower paths lose mass at a rate set
by the class's rationality factor mu.

Shares describe how *newly injected* vehicles split across paths; vehicles
already en route keep the path they were assigned at injection.
"""

from __future__ import annotations

import math

import numpy as np

HUMAN, AUTO = 0, 1


def logit_update(shares: np.ndarray, latencies: np.ndarray, mu: float) -> np.ndarray:
    """Reweight a share vector by exp(-mu * latency) and renormalize.

    Weights are shifted by the minimum latency before exponentiation so the
    update is exactly invariant to adding a constant to all latencies and
    never underflows on the slow paths alone. Zero shares stay zero.
    """
    shares = np.asarray(shares, dtype=float)
    latencies = np.asarray(latencies, dtype=float)
    if mu < 0:
        raise ValueError("rationality factor must be non-negative")
    if shares.size and shares.min() > 0.0:
        # Fast path, every path carries mass: the masked form below without
        # the masks. min and max propagate NaN, so both finite means every
        # latency is.
        shift = latencies.min()
        if math.isfinite(shift) and math.isfinite(latencies.max()):
            weights = shares * np.exp(-mu * (latencies - shift))
            return weights / weights.sum()
    if not np.isfinite(latencies).all():
        raise ValueError("latencies must be finite")
    if (shares < 0).any():
        raise ValueError("shares must be non-negative")
    alive = shares > 0.0
    if not alive.any():
        raise ValueError("at least one share must be positive")
    # Shift by the best latency among paths that still carry mass: that
    # path's weight stays O(1), so the normalizer can never underflow.
    shift = latencies[alive].min()
    weights = np.zeros_like(shares)
    weights[alive] = shares[alive] * np.exp(-mu * (latencies[alive] - shift))
    return weights / weights.sum()


def step_shares(shares: np.ndarray, path_latencies: np.ndarray,
                mu_h: float, mu_a: float) -> np.ndarray:
    """Advance both rows of a (2, n_paths) share array one step on the same
    latencies, each with its class's rationality factor."""
    new = np.empty_like(shares)
    new[HUMAN] = logit_update(shares[HUMAN], path_latencies, mu_h)
    new[AUTO] = logit_update(shares[AUTO], path_latencies, mu_a)
    return new
