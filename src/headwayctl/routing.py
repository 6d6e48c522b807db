"""Exponential-weight route-choice dynamics.

Each vehicle class (human / autonomous) keeps a share vector over the paths
of its O/D pair; the two vectors are the rows of a (2, n_paths) array. Every step the share of a path is reweighted by
exp(-mu * latency) and renormalized, so slower paths lose mass at a rate set
by the class's rationality factor mu.

Shares describe how *newly injected* vehicles split across paths; vehicles
already en route keep the path they were assigned at injection.
"""

from __future__ import annotations

import numpy as np

HUMAN, AUTO = 0, 1


def logit_update(shares: np.ndarray, latencies: np.ndarray, mu: float) -> np.ndarray:
    """Reweight a share vector by exp(-mu * latency) and renormalize.

    Weights are shifted by the best latency among paths that still carry
    mass, so the update is exactly invariant to adding a constant to all
    latencies and that path's weight stays O(1): the normalizer never
    underflows. Zero shares stay zero; a dead path faster than every live one
    has its exponent clamped at 0. Both vectors are float arrays;
    ``SimConfig`` holds ``mu`` non-negative.
    """
    if not np.isfinite(latencies).all():
        raise ValueError("latencies must be finite")
    if shares.min(initial=0.0) < 0.0:
        raise ValueError("shares must be non-negative")
    # Latencies are finite, so only a vector with no share alive shifts by inf.
    shift = latencies.min(where=shares > 0.0, initial=np.inf)
    if shift == np.inf:
        raise ValueError("at least one share must be positive")
    weights = shares * np.exp(-mu * np.maximum(latencies - shift, 0.0))
    return weights / weights.sum()


def step_shares(shares: np.ndarray, path_latencies: np.ndarray,
                mu_h: float, mu_a: float) -> np.ndarray:
    """Advance both rows of a (2, n_paths) share array one step on the same
    latencies, each with its class's rationality factor."""
    new = np.empty_like(shares)
    new[HUMAN] = logit_update(shares[HUMAN], path_latencies, mu_h)
    new[AUTO] = logit_update(shares[AUTO], path_latencies, mu_a)
    return new
