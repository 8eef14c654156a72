import math

import numpy as np
import pytest

from qmcpricer import payoffs as po
from qmcpricer import regression as reg
from qmcpricer import rng
from qmcpricer.transforms import (
    BasketCovSpec,
    ForwardConstruction,
    KroneckerConstruction,
    cholesky_psd,
)

DISC = math.exp(-0.04)
S0 = np.array([100.0])


def _one_asset(n=4, sigma=0.2):
    return BasketCovSpec(m=1, n=n, T=1.0, vols=np.array([sigma]), corr=np.ones((1, 1)))


def _gbm(X, n=4, sigma=0.2):
    """(..., 1, n) one-asset prices from S0 = 100, r = 0.04, T = 1 and normals X."""
    cov = _one_asset(n, sigma)
    forward = KroneckerConstruction(cholesky_psd(cov.R()), ForwardConstruction(n, 1.0))
    return po.basket_paths(np.array([100.0]), po.log_drift(cov, 0.04), forward.apply(X))


def _log_prices(X, n=4, sigma=0.2):
    """(..., 1, n) log-prices log(S / S0) of the paths ``_gbm`` prices."""
    cov = _one_asset(n, sigma)
    forward = KroneckerConstruction(cholesky_psd(cov.R()), ForwardConstruction(n, 1.0))
    return po.log_paths(po.log_drift(cov, 0.04), forward.apply(X))


def test_gbm_path_zero_brownian():
    S = po.basket_paths(np.array([100.0]), po.log_drift(_one_asset(), 0.04), np.zeros(4))
    k = np.arange(1, 5)
    np.testing.assert_allclose(S[0], 100.0 * np.exp((0.04 - 0.02) * 0.25 * k), atol=1e-12)


def test_gbm_path_zero_sigma_deterministic():
    S1 = _gbm(np.zeros(4), sigma=0.0)
    S2 = _gbm(np.full(4, 3.0), sigma=0.0)
    np.testing.assert_array_equal(S1, S2)
    np.testing.assert_allclose(S1[0], 100.0 * np.exp(0.04 * 0.25 * np.arange(1, 5)), atol=1e-12)


def test_gbm_path_leaves_input_unchanged():
    # the path stage's input is the normals block; the construction hands
    # basket_paths a new array, so X itself is never overwritten
    X = np.random.default_rng(29).standard_normal((3, 4))
    before = X.copy()
    S = _gbm(X)
    np.testing.assert_array_equal(X, before)
    B = ForwardConstruction(4, 1.0).apply(before)
    drift = (0.04 - 0.5 * 0.2**2) * 0.25 * np.arange(1, 5)
    np.testing.assert_array_equal(S[:, 0, :], 100.0 * np.exp(0.2 * B + drift))


def test_gbm_path_length_check():
    with pytest.raises(ValueError, match="reshape"):
        po.basket_paths(np.array([100.0]), po.log_drift(_one_asset(), 0.04), np.zeros(3))


def test_log_drift_overflow_raises():
    # raised, not warned: the CLI maps it to exit 4 with nothing printed before
    with pytest.raises(FloatingPointError, match="overflow"):
        po.log_drift(_one_asset(sigma=1e155), 0.04)


def test_terminal_price_martingale():
    # discounted terminal price is a martingale: E(e^{-rT} S_n) = S0
    shift = rng.shift_vector(21, 0, 8)
    X = rng.shifted_normals(rng.sobol_block(2**16, 8), shift)
    disc = DISC * _gbm(X, n=8)[:, 0, -1]
    se = disc.std(ddof=1) / 2**8
    assert abs(disc.mean() - 100.0) <= 3.0 * se


def test_asian_call_zero_strike():
    S = _gbm(np.zeros(4))
    got = po.payoff(po.average_call, DISC, S, S0, 0.0, None)
    assert abs(got - DISC * S.mean()) < 1e-12


def test_asian_call_oracle_on_batch():
    S = _gbm(np.random.default_rng(22).standard_normal((50, 6)), n=6)
    got = po.payoff(po.average_call, DISC, S, S0, 100.0, None)
    want = DISC * np.maximum(S[:, 0].mean(axis=1) - 100.0, 0.0)
    np.testing.assert_allclose(got, want, atol=1e-14)


def _certain_barrier():
    # low enough that the first step clears it numerically always
    return 100.0 * math.exp((0.04 - 0.5 * 0.2**2) * 0.25 - 6.0 * 0.2 * 0.5)


def test_digital_barrier_below_spot_certain():
    L = _log_prices(np.random.default_rng(23).standard_normal((1000, 4)))
    got = po.payoff(po.barrier_hit, DISC, L, S0, 100.0, _certain_barrier())
    np.testing.assert_allclose(got, DISC, atol=1e-14)


def test_digital_barrier_values_binary():
    L = _log_prices(np.random.default_rng(24).standard_normal((200, 4)))
    got = po.payoff(po.barrier_hit, DISC, L, S0, 100.0, 110.0)
    assert set(np.unique(got)) <= {0.0, DISC}


def test_digital_barrier_monotone_in_barrier():
    L = _log_prices(np.random.default_rng(25).standard_normal((500, 4)))
    lo = po.payoff(po.barrier_hit, DISC, L, S0, 100.0, 105.0)
    hi = po.payoff(po.barrier_hit, DISC, L, S0, 100.0, 115.0)
    assert np.all(lo >= hi)


def test_barrier_hit_at_exact_log_level():
    # a log-price equal to log(B / S0) reaches the barrier; one ulp below does not
    level = math.log(110.0 / 100.0)
    L = np.array([[[0.0, level, 0.01]], [[0.0, np.nextafter(level, 0.0), 0.01]]])
    np.testing.assert_array_equal(po.barrier_hit(L, S0, 100.0, 110.0), [1.0, 0.0])


def test_barrier_hit_below_spot():
    # B < S0: the level log(B / S0) is negative, and a path that stays
    # under it misses
    L = np.array([[[-0.3, -0.2, -0.05]], [[-0.3, -0.2, -0.11]], [[0.0, 0.0, 0.0]]])
    np.testing.assert_array_equal(po.barrier_hit(L, S0, 100.0, 90.0), [1.0, 0.0, 1.0])


def test_barrier_on_two_assets_with_their_own_spots():
    # each asset is compared with its own level log(B / S0_i): asset 1's
    # 0.5 is above asset 0's level log(1.1) but below its own log(2.2),
    # and the answers agree with the test on prices
    spots = np.array([100.0, 50.0])
    L = np.array([
        [[0.0, 0.05], [0.2, 0.5]],  # no hit
        [[0.0, 0.1], [0.2, 0.5]],  # asset 0 reaches 110
        [[0.0, 0.05], [0.8, 0.5]],  # asset 1 reaches 110
    ])
    S = spots[:, None] * np.exp(L)
    want = (S.max(axis=(-2, -1)) >= 110.0).astype(np.float64)
    np.testing.assert_array_equal(want, [0.0, 1.0, 1.0])
    np.testing.assert_array_equal(po.barrier_hit(L, spots, 100.0, 110.0), want)
    got = po.barrier_average_call(L.copy(), spots, 80.0, 110.0)
    np.testing.assert_array_equal(got, want * np.maximum(S.mean(axis=(-2, -1)) - 80.0, 0.0))


def test_asian_up_in_dominated_by_asian_call():
    X = np.random.default_rng(26).standard_normal((500, 4))
    barrier = po.payoff(po.barrier_average_call, DISC, _log_prices(X), S0, 100.0, 110.0)
    plain = po.payoff(po.average_call, DISC, _gbm(X), S0, 100.0, 110.0)
    assert np.all(barrier <= plain + 1e-15)


def test_asian_up_in_low_barrier_equals_asian():
    X = np.random.default_rng(27).standard_normal((500, 4))
    np.testing.assert_array_equal(
        po.payoff(po.barrier_average_call, DISC, _log_prices(X), S0, 100.0, _certain_barrier()),
        po.payoff(po.average_call, DISC, _gbm(X), S0, 100.0, None),
    )


def _basket(m=2, n=3, rho=0.05):
    vols = np.linspace(0.1, 0.3, m)
    corr = np.full((m, m), rho)
    np.fill_diagonal(corr, 1.0)
    return BasketCovSpec(m=m, n=n, T=1.0, vols=vols, corr=corr)


def test_basket_s0_shape_check():
    with pytest.raises(ValueError, match="one entry per asset"):
        reg.basket_spec(_basket(), np.ones(3), 0.04)


def test_basket_paths_zero_brownian():
    cov = _basket()
    S = po.basket_paths(np.full(2, 100.0), po.log_drift(cov, 0.04), np.zeros(6))
    k = np.arange(1, 4)
    for i in range(2):
        drift = (0.04 - 0.5 * cov.vols[i] ** 2) * (1.0 / 3.0) * k
        np.testing.assert_allclose(S[i], 100.0 * np.exp(drift), atol=1e-12)


def test_basket_paths_leave_input_unchanged():
    # as for one asset: the normals block X survives the construction and
    # basket_paths, which overwrites only the construction's new array
    cov = _basket()
    S0 = np.array([100.0, 90.0])
    construction = KroneckerConstruction(cholesky_psd(cov.R()), ForwardConstruction(3, 1.0))
    X = np.random.default_rng(31).standard_normal((3, 6))
    before = X.copy()
    S = po.basket_paths(S0, po.log_drift(cov, 0.04), construction.apply(X))
    np.testing.assert_array_equal(X, before)
    assert not np.shares_memory(S, X)
    drift = (0.04 - 0.5 * cov.vols[:, None] ** 2) * (1.0 / 3.0) * np.arange(1, 4)
    Y = construction.apply(before).reshape(3, 2, 3)
    np.testing.assert_array_equal(S, S0[:, None] * np.exp(Y + drift))


def test_basket_paths_write_prices_in_place():
    # the constructions hand basket_paths a new array, which it overwrites
    cov = _basket()
    S0 = np.array([100.0, 90.0])
    Y = np.random.default_rng(30).standard_normal((3, 6))
    before = Y.copy()
    S = po.basket_paths(S0, po.log_drift(cov, 0.04), Y)
    assert S.shape == (3, 2, 3) and np.shares_memory(S, Y)
    drift = (0.04 - 0.5 * cov.vols[:, None] ** 2) * (1.0 / 3.0) * np.arange(1, 4)
    want = S0[:, None] * np.exp(drift + before.reshape(3, 2, 3))
    np.testing.assert_array_equal(S, want)
    np.testing.assert_array_equal(Y, want.reshape(3, 6))


def test_basket_single_asset_matches_gbm():
    # the one-asset basket is the GBM path S0 exp((r - sigma^2/2) k dt + sigma B_k)
    X = np.random.default_rng(28).standard_normal((20, 5))
    B = ForwardConstruction(5, 1.0).apply(X)
    drift = (0.04 - 0.5 * 0.2**2) * (1.0 / 5.0) * np.arange(1, 6)
    np.testing.assert_array_equal(_gbm(X, n=5)[:, 0, :], 100.0 * np.exp(0.2 * B + drift))


def test_basket_payoff_grand_average():
    cov = _basket()
    S = po.basket_paths(np.full(2, 100.0), po.log_drift(cov, 0.04), np.zeros(6))
    got = po.payoff(po.average_call, DISC, S, np.full(2, 100.0), 90.0, None)
    want = DISC * max(S.mean() - 90.0, 0.0)
    assert abs(got - want) < 1e-12
