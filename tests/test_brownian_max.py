import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate
from scipy.special import log_ndtr, ndtr

from qmcpricer import brownian_max as bm


def _Phi(z):
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def test_prob_max_at_zero_barrier():
    for nu in (-1.0, 0.0, 0.7):
        assert bm.prob_max_exceeds(0.0, nu, 1.0) == 1.0
    assert bm.prob_max_exceeds(-0.5, 0.3, 2.0) == 1.0


def test_prob_max_driftless():
    # reflection principle: P(M_1 >= 1) = 2 Phi(-1)
    p = bm.prob_max_exceeds(1.0, 0.0, 1.0)
    assert abs(p - 2.0 * _Phi(-1.0)) < 1e-12
    assert abs(p - 0.317311) < 5e-7


def test_prob_max_with_drift():
    assert abs(bm.prob_max_exceeds(1.0, 0.1, 1.0) - 0.349763) < 5e-7


def test_prob_max_no_overflow():
    # e^{2 u nu} alone overflows a double here; the hitting probability is ~1e-83
    p = bm.prob_max_exceeds(69.3, 50.0, 1.0)
    assert math.isfinite(p)
    assert 0.0 <= p <= 1.0
    assert math.isfinite(bm.indicator_moment(69.3, 50.0, 1.0, 1.0, "identity"))


def test_prob_max_invalid_time():
    with pytest.raises(ValueError):
        bm.prob_max_exceeds(1.0, 0.0, 0.0)


def test_prob_max_monotone_grid():
    us = np.linspace(0.0, 3.0, 50)
    ts = np.linspace(0.05, 4.0, 50)
    for nu in (-0.3, 0.0, 0.4):
        for t in ts[::7]:
            vals = [bm.prob_max_exceeds(u, nu, t) for u in us]
            assert all(a >= b - 1e-14 for a, b in zip(vals, vals[1:]))
        for u in us[::7]:
            vals = [bm.prob_max_exceeds(u, nu, t) for t in ts]
            assert all(a <= b + 1e-14 for a, b in zip(vals, vals[1:]))


def test_prob_max_dominates_endpoint():
    for u in np.linspace(0.0, 2.5, 12):
        for nu in (-0.5, 0.0, 0.5):
            for t in (0.25, 1.0, 3.0):
                lower = _Phi((nu * t - u) / math.sqrt(t))
                assert bm.prob_max_exceeds(u, nu, t) >= lower - 1e-14


def test_indicator_moment_reduces_to_hitting_probability():
    # f = 1 and t = T collapses to the hitting probability
    for u, nu, T in [(1.0, 0.0, 1.0), (0.5, 0.2, 2.0), (1.5, -0.3, 0.5)]:
        got = bm.indicator_moment(u, nu, T, T, "one")
        assert abs(got - bm.prob_max_exceeds(u, nu, T)) < 1e-12


def test_indicator_moment_zero_barrier():
    assert abs(bm.indicator_moment(0.0, 0.3, 0.5, 1.0, "one") - 1.0) < 1e-12
    assert abs(bm.indicator_moment(0.0, 0.3, 0.5, 1.0, "identity") - 0.15) < 1e-12


def test_indicator_moment_identity_endpoint():
    # E(1_{M >= 1} B_1) for driftless motion: phi(1) + 2 Phi(-1) - phi(1)
    got = bm.indicator_moment(1.0, 0.0, 1.0, 1.0, "identity")
    assert abs(got - 0.317310) < 1e-6


def test_indicator_moment_interior_time_consistency():
    # f = 1 at an interior time is still the horizon hitting probability
    for u, nu, t, T in [(1.0, 0.0, 0.5, 1.0), (0.8, 0.25, 0.3, 1.2), (1.2, -0.2, 0.9, 1.8)]:
        got = bm.indicator_moment(u, nu, t, T, "one")
        want = bm.prob_max_exceeds(u, nu, T)
        assert abs(got - want) < 1e-7, (u, nu, t, T)


def test_indicator_moment_one_in_unit_interval():
    for u in (0.2, 0.7, 1.6):
        for nu in (-0.4, 0.0, 0.4):
            for t in (0.25, 0.75):
                v = bm.indicator_moment(u, nu, t, 1.0, "one")
                assert -1e-10 <= v <= 1.0 + 1e-10


def test_indicator_moment_validation():
    with pytest.raises(ValueError):
        bm.indicator_moment(1.0, 0.0, 0.0, 1.0, "one")
    with pytest.raises(ValueError):
        bm.indicator_moment(1.0, 0.0, 2.0, 1.0, "one")
    with pytest.raises(ValueError):
        bm.indicator_moment(1.0, 0.0, 0.5, 1.0, "square")


def test_beta_continuous_in_barrier():
    for u in np.linspace(0.2, 2.0, 10):
        a = bm.indicator_moment(u, 0.1, 0.5, 1.0, "identity")
        b = bm.indicator_moment(u + 1e-6, 0.1, 0.5, 1.0, "identity")
        assert abs(a - b) <= 1e-4


def test_weighted_max_expectation_zero_h():
    assert bm.weighted_max_expectation(lambda u: 0.0, 0.0, 1.0, 1.0, "one") == 0.0


def test_weighted_max_expectation_first_moment():
    # M_1 has the half-normal law: E(M_1) = sqrt(2/pi)
    got = bm.weighted_max_expectation(lambda u: 1.0, 0.0, 1.0, 1.0, "one")
    assert abs(got - 0.797885) < 1e-5


def test_weighted_max_expectation_second_moment():
    got = bm.weighted_max_expectation(lambda u: 2.0 * u, 0.0, 1.0, 1.0, "one")
    assert abs(got - 1.000) < 1e-3


def _quad_weighted(h_prime, nu, t, T, f_tag):
    # QUADPACK over u of h'(u) E(1_{M_T >= u} f(B_t)), on the half-line
    def f(u):
        return h_prime(u) * bm.indicator_moment(u, nu, t, T, f_tag)

    return integrate.quad(f, 0.0, math.inf, epsabs=1e-14, epsrel=1e-13)[0]


def test_weighted_max_expectation_matches_quad_identity_interior():
    # E(M_1 B_0.5) with drift: the integrand is the interior-time quadrature
    got = bm.weighted_max_expectation(lambda u: 1.0, 0.3, 0.5, 1.0, "identity")
    assert abs(got - _quad_weighted(lambda u: 1.0, 0.3, 0.5, 1.0, "identity")) <= 1e-10


def test_weighted_max_expectation_matches_quad_one_with_drift():
    # E(M_T^2) for negative drift and T != 1
    got = bm.weighted_max_expectation(lambda u: 2.0 * u, -0.25, 1.5, 1.5, "one")
    assert abs(got - _quad_weighted(lambda u: 2.0 * u, -0.25, 1.5, 1.5, "one")) <= 1e-10


def test_barrier_coefficients_below_spot():
    bc = bm.barrier_coefficients(100.0, 0.04, 0.2, 1.0, 8, 95.0)
    np.testing.assert_array_equal(bc.a, np.zeros(8))
    assert bc.gamma == 1.0


def test_barrier_coefficients_zero_drift():
    # r = sigma^2/2 kills the drift: a_i = (beta_i - beta_{i-1}) / sqrt(T/n)
    sigma = 0.2
    bc = bm.barrier_coefficients(100.0, 0.5 * sigma**2, sigma, 1.0, 4, 110.0)
    assert bc.nu == 0.0
    dt = 0.25
    diffs = np.diff(np.concatenate([[0.0], bc.beta])) / math.sqrt(dt)
    np.testing.assert_allclose(bc.a, diffs, atol=1e-12)


def test_barrier_coefficients_beta_matches_indicator_moment():
    bc = bm.barrier_coefficients(100.0, 0.04, 0.2, 1.0, 4, 110.0)
    nu = (0.04 - 0.02) / 0.2
    u = math.log(1.1) / 0.2
    for i in range(4):
        want = bm.indicator_moment(u, nu, (i + 1) * 0.25, 1.0, "identity")
        assert abs(bc.beta[i] - want) < 1e-12
    assert abs(bc.gamma - bm.prob_max_exceeds(u, nu, 1.0)) < 1e-12
    assert 0.0 <= bc.gamma <= 1.0
    assert np.all(np.isfinite(bc.a))


@pytest.mark.parametrize("n", [1, 2, 119, 120, 2000])
def test_quadrature_blocks_bit_identical_for_any_block_size(n, monkeypatch):
    # at 2^15 nodes a block holds 118 of the 276-node time steps, so n = 119
    # and 120 sit on the first block edge (one full block, then one more of
    # a single time), 2000 has several blocks, 1 and 2 none or a single
    # one, and at 2^30 nodes every case is one block
    want = bm.barrier_coefficients(100.0, 0.04, 0.2, 1.0, n, 110.0)
    for nodes in (2**12, 2**15, 2**16, 2**30):
        monkeypatch.setattr(bm, "_CHUNK_NODES", nodes)
        got = bm.barrier_coefficients(100.0, 0.04, 0.2, 1.0, n, 110.0)
        assert np.array_equal(got.a, want.a), (n, nodes)
        assert np.array_equal(got.beta, want.beta), (n, nodes)
        assert got.gamma == want.gamma, (n, nodes)


def test_quadrature_memory_bounded_by_its_blocks():
    # at n = 2000 the quadrature's blocks of time steps keep its traced peak
    # near 2 MiB; as one block it peaked at 18.5 MiB
    args = (100.0, 0.04, 0.2, 1.0, 2000, 110.0)
    bm.barrier_coefficients(*args)  # scipy.special imported outside the measurement
    tracemalloc.start()
    try:
        bm.barrier_coefficients(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


def test_barrier_coefficients_validation():
    with pytest.raises(ValueError):
        bm.barrier_coefficients(100.0, 0.04, 0.0, 1.0, 4, 110.0)
    with pytest.raises(ValueError):
        bm.barrier_coefficients(100.0, 0.04, 0.2, 1.0, 4, -1.0)


def _quad_identity_moment(u, nu, t, T):
    """E(1_{M_T >= u} B_t) from the three-integral reflection decomposition.

    E(B g(B)) + E(1_{B >= u} B (1 - g(B))) + e^{2 u nu} E(1_{B <= -u} (2u + B)(1 - g(2u + B)))
    with g the hitting probability over T - t, each term by QUADPACK over the
    N(nu t, t) density truncated at mean +- 8 sd, with a break point at the
    kink x = u where it lies inside the range; closed-form at t = T.
    """
    st, mu = math.sqrt(t), nu * t

    def phi(z):
        return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

    def dens(x):
        return phi((x - mu) / st) / st

    if t == T:
        zu, zl = (mu - u) / st, (-u - mu) / st
        first = mu * _Phi(zu) + st * phi(zu)
        second = (2.0 * u + mu) * _Phi(zl) - st * phi(zl)
        return first + math.exp(2.0 * u * nu) * second

    tau = T - t

    def g(x):
        v = u - x
        if v < 0.0:
            return 1.0
        s = math.sqrt(tau)
        return _Phi((nu * tau - v) / s) + math.exp(2.0 * v * nu) * _Phi((-v - nu * tau) / s)

    def quad(f, a, b):
        points = [u] if a < u < b else None
        return integrate.quad(f, a, b, points=points, epsabs=1e-14, epsrel=1e-13)[0]

    lo, hi = mu - 8.0 * st, mu + 8.0 * st
    total = quad(lambda x: x * g(x) * dens(x), lo, hi)
    if hi > u:
        total += quad(lambda x: x * (1.0 - g(x)) * dens(x), max(u, lo), hi)
    if -u > lo:
        total += math.exp(2.0 * u * nu) * quad(
            lambda x: (2.0 * u + x) * (1.0 - g(2.0 * u + x)) * dens(x), lo, min(-u, hi)
        )
    return total


def test_barrier_coefficients_match_tight_simpson_full_scale():
    # digital up-and-in market data at n = 2000: the smallest times, where
    # the density is narrowest, the middle, the step before T, and T itself
    S0, r, sigma, T, n, barrier = 100.0, 0.04, 0.2, 1.0, 2000, 110.0
    bc = bm.barrier_coefficients(S0, r, sigma, T, n, barrier)
    for i in (1, 2, n // 2, n - 1, n):
        want = _quad_identity_moment(bc.u_tilde, bc.nu, i * T / n, T)
        assert abs(bc.beta[i - 1] - want) <= 1e-9, (i, bc.beta[i - 1], want)
    # a kink well inside the density, where adaptive Simpson read 0.228661
    want = _quad_identity_moment(0.3, 0.0, 0.9, 1.0)
    assert abs(bm.indicator_moment(0.3, 0.0, 0.9, 1.0, "identity") - want) <= 1e-9


def _tight_interior_moments(u, nu, t, T):
    """E(1_{M_T >= u} B_t) for 0 < t < T by a tight rule: 80 uniform panels
    over the density's c +- 10 sqrt(t), breakpoints sqrt(T - t) 2^k for
    k in [-14, 8], and 60 Gauss-Legendre nodes a panel, with the hitting
    probability's reflected term in log space."""
    t = np.asarray(t, dtype=float)[:, None]
    st, tau = np.sqrt(t), T - t
    c = u - nu * t
    lo = np.maximum(c - 10.0 * st, 0.0)
    hi = np.maximum(c + 10.0 * st, lo)
    breaks = np.clip(np.sqrt(tau) * 2.0 ** np.arange(-14, 9), lo, hi)
    edges = np.sort(np.concatenate([lo + (hi - lo) * np.linspace(0.0, 1.0, 81), breaks], 1), 1)
    x, w = np.polynomial.legendre.leggauss(60)
    mid, half = 0.5 * (edges[:, 1:] + edges[:, :-1]), 0.5 * np.diff(edges, axis=1)
    y = (mid[:, :, None] + half[:, :, None] * x).reshape(len(t), -1)
    wy = (half[:, :, None] * w).reshape(y.shape)
    sa = np.sqrt(tau)
    g = ndtr((nu * tau - y) / sa) + np.exp(2.0 * y * nu + log_ndtr((-y - nu * tau) / sa))
    refl = np.exp(-2.0 * u * y / t)
    dens = np.exp(-0.5 * ((y - c) / st) ** 2) / (st * math.sqrt(2.0 * math.pi))
    mu, z = nu * t[:, 0], (u - nu * t[:, 0]) / st[:, 0]
    tail = mu * ndtr(-z) + st[:, 0] * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    return tail + ((u - y) * dens * (refl + g * (1.0 - refl)) * wy).sum(1)


def test_interior_moments_match_tight_rule():
    # the documented 3e-13 of the 12-node rule, over barriers, drifts of
    # each sign and horizons; u = 69.3 with nu ~ 50 is --barrier 200
    # --sigma 0.01 --rate 0.5, where e^{2 u nu} alone overflows
    frac = np.array([1e-5, 1e-3, 0.05, 0.3, 0.5, 0.8, 0.99, 1.0 - 1e-5])
    cases = [
        (u, nu, T)
        for u in (0.01, 0.48, 3.0, 8.0)
        for nu in (-10.0, -1.0, 0.0, 0.1, 5.0, 20.0)
        for T in (0.01, 1.0, 10.0)
    ]
    cases += [(math.log(2.0) / 0.01, (0.5 - 0.5 * 0.01**2) / 0.01, T) for T in (0.01, 1.0, 10.0)]
    for u, nu, T in cases:
        got = bm._interior_moments(u, nu, frac * T, T)
        want = _tight_interior_moments(u, nu, frac * T, T)
        assert np.all(np.isfinite(got)), (u, nu, T)
        assert np.max(np.abs(got - want)) <= 3e-13, (u, nu, T, np.abs(got - want).max())
