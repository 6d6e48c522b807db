"""Route-choice dynamics: exponential reweighting on the path simplex."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headwayctl.fundamental import LATENCY_CAP_S
from headwayctl.routing import AUTO, HUMAN, logit_update, step_shares


def test_uniform_weights_preserve_distribution():
    out = logit_update(np.array([0.5, 0.5]), np.array([7.0, 7.0]), mu=0.3)
    assert out == pytest.approx([0.5, 0.5], rel=1e-12)


def test_mu_zero_is_identity():
    shares = np.array([0.2, 0.3, 0.5])
    out = logit_update(shares, np.array([1.0, 100.0, 3.0]), mu=0.0)
    assert out == pytest.approx(shares, rel=1e-12)


def test_hand_computed_two_path_update():
    out = logit_update(np.array([0.5, 0.5]), np.array([10.0, 20.0]), mu=0.1)
    expect0 = 1.0 / (1.0 + math.exp(-1.0))
    assert out[0] == pytest.approx(expect0, rel=1e-9)
    assert out[1] == pytest.approx(1.0 - expect0, rel=1e-9)


def test_zero_share_stays_zero():
    out = logit_update(np.array([0.0, 1.0]), np.array([1.0, 50.0]), mu=1.0)
    assert out[0] == 0.0
    assert out[1] == 1.0


def test_all_zero_shares_rejected():
    with pytest.raises(ValueError):
        logit_update(np.array([0.0, 0.0]), np.array([1.0, 2.0]), mu=0.1)


def test_huge_latency_gap_does_not_underflow_normalizer():
    # One path at the big latency sentinel: the survivor must take all mass.
    out = logit_update(np.array([0.5, 0.5]), np.array([10.0, 1e6]), mu=1.0)
    assert out[0] == pytest.approx(1.0, abs=1e-12)
    assert np.isfinite(out).all()


def test_shift_invariance_is_exact():
    # Integer-valued latencies add exactly in binary64, so the min-shifted
    # exponent is bit-identical and the update must match exactly.
    rng = np.random.default_rng(4)
    for _ in range(100):
        shares = rng.dirichlet(np.ones(4))
        lat = rng.integers(0, 100_000, size=4).astype(float)
        base = logit_update(shares, lat, mu=0.07)
        shifted = logit_update(shares, lat + 12345.0, mu=0.07)
        assert np.array_equal(base, shifted)


def test_order_preservation_toward_lower_latency():
    rng = np.random.default_rng(5)
    for _ in range(200):
        shares = rng.dirichlet(np.ones(3))
        lat = rng.uniform(0.0, 100.0, size=3)
        out = logit_update(shares, lat, mu=0.2)
        growth = out / shares
        for p in range(3):
            for q in range(3):
                if lat[p] < lat[q]:
                    assert growth[p] > growth[q]


def test_larger_mu_concentrates_on_argmin():
    shares = np.array([0.25, 0.25, 0.5])
    lat = np.array([5.0, 9.0, 7.0])
    mass = [logit_update(shares, lat, mu)[0] for mu in (0.0, 0.1, 0.5, 2.0, 10.0)]
    assert all(b >= a for a, b in zip(mass, mass[1:]))


@given(
    n=st.integers(2, 6),
    mu=st.floats(0.0, 5.0),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=300, derandomize=True)
def test_simplex_preserved(n, mu, seed):
    rng = np.random.default_rng(seed)
    shares = rng.dirichlet(np.ones(n))
    lat = rng.uniform(0.0, 1e5, size=n)
    out = logit_update(shares, lat, mu)
    assert np.all(out >= 0.0)
    assert abs(out.sum() - 1.0) <= 1e-12


def uniform_shares(n_paths):
    return np.full((2, n_paths), 1.0 / n_paths)


class TestStepShares:
    def test_equal_mu_keeps_classes_identical(self):
        out = step_shares(uniform_shares(3), np.array([3.0, 1.0, 2.0]), mu_h=0.2, mu_a=0.2)
        assert np.array_equal(out[HUMAN], out[AUTO])

    def test_more_rational_class_shifts_harder(self):
        out = step_shares(uniform_shares(2), np.array([10.0, 20.0]), mu_h=0.05, mu_a=0.5)
        assert out[AUTO][0] >= out[HUMAN][0]

    def test_single_path_stays_one(self):
        out = step_shares(uniform_shares(1), np.array([123.0]), mu_h=0.1, mu_a=0.1)
        assert out[HUMAN] == pytest.approx([1.0], rel=1e-12)
        assert out[AUTO] == pytest.approx([1.0], rel=1e-12)


def masked_logit_update(shares, latencies, mu):
    """The update in its general masked form: only paths with mass take part."""
    alive = shares > 0.0
    shift = latencies[alive].min()
    weights = np.zeros_like(shares)
    weights[alive] = shares[alive] * np.exp(-mu * (latencies[alive] - shift))
    return weights / weights.sum()


def test_all_alive_update_matches_masked_form_exactly():
    rng = np.random.default_rng(11)
    for k in range(400):
        n = 1 + k % 6
        shares = rng.dirichlet(np.ones(n))
        lat = rng.uniform(0.0, 3_000.0, size=n)
        if k % 4 == 1:
            lat[rng.integers(n)] = LATENCY_CAP_S
        mu = rng.uniform(0.0, 2.0) if k % 2 else rng.uniform(0.0, 100.0)
        assert np.array_equal(logit_update(shares, lat, mu), masked_logit_update(shares, lat, mu))


def test_dead_paths_match_masked_form_exactly():
    rng = np.random.default_rng(12)
    for k in range(400):
        n = 2 + k % 5
        shares = rng.dirichlet(np.ones(n))
        dead = rng.choice(n, size=1 + k % (n - 1), replace=False)  # one path stays alive
        shares[dead] = 0.0
        shares /= shares.sum()
        lat = rng.uniform(0.0, 3_000.0, size=n)
        # A dead path is often the fastest: its latency must not set the shift.
        if k % 2:
            lat[dead[0]] = 0.0
        if k % 3 == 0:
            lat[rng.integers(n)] = LATENCY_CAP_S
        mu = rng.uniform(0.0, 2.0) if k % 4 < 2 else rng.uniform(0.0, 100.0)
        out = logit_update(shares, lat, mu)
        assert np.array_equal(out, masked_logit_update(shares, lat, mu))
        assert np.all(out[dead] == 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_latency_rejected_with_all_paths_alive(bad):
    with pytest.raises(ValueError, match="finite"):
        logit_update(np.array([0.5, 0.5]), np.array([1.0, bad]), mu=0.1)


def test_negative_share_rejected():
    # A negative mu is refused by SimConfig (test_harness's
    # TestFailFastScenario::test_negative_rationality).
    with pytest.raises(ValueError, match="non-negative"):
        logit_update(np.array([1.5, -0.5]), np.array([1.0, 2.0]), mu=0.1)
