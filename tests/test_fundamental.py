"""Unit checks for the mixed-autonomy fundamental diagram."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headwayctl.fundamental import (
    LATENCY_CAP_S,
    capacity,
    congestion_state,
    critical_density,
    link_latency,
    path_latency,
    sending_flow,
)

REL = 1e-9


def test_critical_density_pure_human():
    assert critical_density(2, 0.0, 2.0, 6.0) == pytest.approx(1.0 / 3.0, rel=REL)


def test_critical_density_pure_auto():
    assert critical_density(2, 1.0, 2.0, 6.0) == pytest.approx(1.0, rel=REL)


def test_critical_density_half_mix():
    # 2 / (0.5*2 + 0.5*6) = 2/4
    assert critical_density(2, 0.5, 2.0, 6.0) == pytest.approx(0.5, rel=REL)


def test_capacity_product():
    assert capacity(30.0, 0.5) == pytest.approx(15.0, rel=REL)


def test_capacity_zero_critical_density():
    assert capacity(30.0, 0.0) == 0.0


def test_capacity_alpha_independent_when_headways_equal():
    for alpha in np.linspace(0.0, 1.0, 11):
        nc = critical_density(4, alpha, 6.0, 6.0)
        assert capacity(30.0, nc) == pytest.approx(20.0, rel=REL)


class TestSendingFlow:
    # v=30, n_c=0.5, jam=2.0
    ARGS = dict(free_flow_speed_mps=30.0, crit_density=0.5, jam_density=2.0)

    def test_free_branch(self):
        assert sending_flow(0.2, **self.ARGS) == pytest.approx(6.0, rel=REL)

    def test_continuity_at_critical(self):
        assert sending_flow(0.5, **self.ARGS) == pytest.approx(15.0, rel=REL)

    def test_congested_branch(self):
        # 15 * (2 - 1.25) / (2 - 0.5)
        assert sending_flow(1.25, **self.ARGS) == pytest.approx(7.5, rel=REL)

    def test_zero_at_jam(self):
        assert sending_flow(2.0, **self.ARGS) == pytest.approx(0.0, abs=1e-12)

    def test_two_sided_continuity(self):
        eps = 1e-12 * 0.5
        lo = sending_flow(0.5 - eps, **self.ARGS)
        hi = sending_flow(0.5 + eps, **self.ARGS)
        assert abs(lo - hi) <= REL * max(abs(lo), abs(hi))


def test_congestion_state_boundary_is_free():
    assert congestion_state(0.0, 0.5) == 0
    assert congestion_state(0.5, 0.5) == 0
    assert congestion_state(1.25, 0.5) == 1


class TestLinkLatency:
    ARGS = dict(length_m=1000.0, free_flow_speed_mps=30.0, crit_density=0.5, jam_density=2.0)

    def test_free_flow(self):
        assert link_latency(6.0, 0, **self.ARGS) == pytest.approx(1000.0 / 30.0, rel=REL)

    def test_congested_at_capacity_matches_free(self):
        assert link_latency(15.0, 1, **self.ARGS) == pytest.approx(1000.0 / 30.0, rel=REL)

    def test_congested_half_capacity(self):
        # 1000 * (2/7.5 - 1.5/15)
        assert link_latency(7.5, 1, **self.ARGS) == pytest.approx(500.0 / 3.0, rel=REL)

    def test_zero_flow_hits_cap(self):
        assert link_latency(0.0, 1, **self.ARGS) == LATENCY_CAP_S


def test_path_latency_sums():
    lat = np.array([8000.0, 8000.0, 0.0, 8000.0, 2000.0])
    assert path_latency((), lat) == 0.0
    assert path_latency((0, 1), lat) == pytest.approx(16000.0, rel=REL)
    assert path_latency((0, 4, 3), lat) == pytest.approx(18000.0, rel=REL)


# ----------------------------------------------------------------------
# randomized properties

def _random_diagram(rng):
    lanes = rng.integers(1, 9)
    beta_h = rng.uniform(1.0, 10.0)
    beta_a = rng.uniform(1.0, 10.0)
    alpha = rng.uniform(0.0, 1.0)
    v = rng.uniform(5.0, 40.0)
    d = rng.uniform(500.0, 300_000.0)
    n_c = critical_density(lanes, alpha, beta_a, beta_h)
    jam = lanes / 0.5
    return lanes, v, d, n_c, jam


def test_flow_continuity_randomized():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        _, v, d, n_c, jam = _random_diagram(rng)
        eps = 1e-12 * n_c
        lo = sending_flow(n_c - eps, v, n_c, jam)
        hi = sending_flow(n_c + eps, v, n_c, jam)
        assert abs(lo - hi) <= 1e-9 * max(abs(lo), abs(hi))


def test_latency_continuity_at_capacity_randomized():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        _, v, d, n_c, jam = _random_diagram(rng)
        at_capacity = link_latency(v * n_c, 1, d, v, n_c, jam)
        assert abs(at_capacity - d / v) <= 1e-9 * (d / v)


def test_critical_density_monotone_in_beta_a():
    rng = np.random.default_rng(9)
    for _ in range(200):
        lanes = rng.integers(1, 9)
        alpha = rng.uniform(0.01, 1.0)
        beta_h = rng.uniform(1.0, 10.0)
        betas = np.sort(rng.uniform(1.0, 10.0, size=5))
        nc = critical_density(lanes, alpha, betas, beta_h)
        assert np.all(np.diff(nc) < 0.0)


def test_congested_flow_monotone_in_density():
    rng = np.random.default_rng(10)
    for _ in range(200):
        _, v, d, n_c, jam = _random_diagram(rng)
        rhos = np.sort(rng.uniform(n_c, jam, size=6))
        flows = sending_flow(rhos, v, n_c, jam)
        assert np.all(np.diff(flows) <= 0.0)


@given(
    lanes=st.integers(1, 8),
    alpha=st.floats(0.0, 1.0),
    beta_a=st.floats(1.0, 10.0),
    beta_h=st.floats(1.0, 10.0),
)
def test_critical_density_interpolates_between_extremes(lanes, alpha, beta_a, beta_h):
    nc = critical_density(lanes, alpha, beta_a, beta_h)
    lo = lanes / max(beta_a, beta_h)
    hi = lanes / min(beta_a, beta_h)
    assert lo - 1e-12 <= nc <= hi + 1e-12


@given(
    ratio=st.floats(0.0, 1.0),
    congested=st.booleans(),
)
@settings(max_examples=200, derandomize=True)
def test_latency_never_below_free_flow(ratio, congested):
    v, d, n_c, jam = 30.0, 240_000.0, 2.0 / 3.0, 8.0
    rho = ratio * jam
    flow = sending_flow(rho, v, n_c, jam)
    s = congestion_state(rho, n_c)
    lat = link_latency(flow, s, d, v, n_c, jam)
    assert lat >= d / v - 1e-9 * (d / v)


# The general formulas, as the functions computed them before the free-flow
# early returns; the engine's reference loop calls the functions themselves,
# so only a comparison with these can catch a wrong early return.
def general_sending_flow(rho, v, n_c, n_jam):
    free = v * rho
    congested = v * n_c * (n_jam - rho) / (n_jam - n_c)
    flow = np.where(rho <= n_c, free, np.maximum(congested, 0.0))
    return np.where(rho > n_jam, 0.0, flow)


def general_link_latency(flow, congested, d, v, n_c, n_jam):
    congested = congested > 0
    jam_over_flow = np.divide(n_jam, flow, out=np.full_like(flow, np.inf, dtype=float),
                              where=congested & (flow > 0.0))
    jammed = d * (jam_over_flow + (n_c - n_jam) / (v * n_c))
    return np.where(congested, np.minimum(jammed, LATENCY_CAP_S), d / v)


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(data=st.data(), scalar=st.booleans(), free_flow=st.booleans())
def test_early_returns_match_the_general_formulas(data, scalar, free_flow):
    """``sending_flow`` and ``link_latency`` equal the general formulas bit for
    bit, for 1-8 links and for Python floats. With every link at free flow
    they take their early returns (v * rho and d / v), densities of exactly 0
    and n_c included; otherwise some links may sit anywhere up to past jam."""
    n = 1 if scalar else data.draw(st.integers(1, 8), "links")

    def column(lo, hi):
        return data.draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n))

    v, d = column(1.0, 40.0), column(100.0, 300_000.0)
    n_c = [critical_density(lanes, alpha, beta_a, beta_h) for lanes, alpha, beta_a, beta_h in zip(
        data.draw(st.lists(st.integers(1, 8), min_size=n, max_size=n)),
        column(0.0, 1.0), column(1.0, 10.0), column(1.0, 10.0))]
    jam_ratio = column(1.5, 20.0)
    n_jam = [r * c for r, c in zip(jam_ratio, n_c)]

    def fill(r):  # rho = fill * n_c: a fill of 1.0 gives rho == n_c exactly
        fills = [st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)]
        if not free_flow:  # up to past jam, at jam exactly too
            fills += [st.sampled_from([r, 1.2 * r]), st.floats(1.0, 1.2 * r)]
        return data.draw(st.one_of(fills), "fill")

    rho = [fill(r) * c for r, c in zip(jam_ratio, n_c)]
    if scalar:
        v, d, n_c, n_jam, rho = (x[0] for x in (v, d, n_c, n_jam, rho))
    else:
        v, d, n_c, n_jam, rho = map(np.array, (v, d, n_c, n_jam, rho))
    congested = congestion_state(rho, n_c)
    assert not (free_flow and np.any(congested))  # free flow takes both early returns

    flow = sending_flow(rho, v, n_c, n_jam)
    assert same_bits(flow, general_sending_flow(rho, v, n_c, n_jam))
    latency = link_latency(flow, congested, d, v, n_c, n_jam)
    assert same_bits(latency, general_link_latency(flow, congested, d, v, n_c, n_jam))
