import math

import numpy as np
import pytest

from qmcpricer import payoffs as po
from qmcpricer import rng
from qmcpricer.transforms import (
    BasketCovSpec,
    ForwardConstruction,
    KroneckerConstruction,
    cholesky_psd,
)


def _params(**kw):
    base = dict(S0=100.0, r=0.04, sigma=0.2, T=1.0, n=4)
    base.update(kw)
    return po.GbmParams(**base)


def test_gbm_params_validation():
    with pytest.raises(ValueError):
        _params(S0=-1.0)
    with pytest.raises(ValueError):
        _params(T=0.0)
    with pytest.raises(ValueError):
        _params(sigma=-0.1)
    with pytest.raises(ValueError):
        _params(n=0)


def test_gbm_path_zero_brownian():
    p = _params()
    S = po.gbm_path(p, np.zeros(4))
    k = np.arange(1, 5)
    np.testing.assert_allclose(S, 100.0 * np.exp((0.04 - 0.02) * 0.25 * k), atol=1e-12)


def test_gbm_path_zero_sigma_deterministic():
    p = _params(sigma=0.0)
    S1 = po.gbm_path(p, np.zeros(4))
    S2 = po.gbm_path(p, np.full(4, 3.0))
    np.testing.assert_array_equal(S1, S2)
    np.testing.assert_allclose(S1, 100.0 * np.exp(0.04 * 0.25 * np.arange(1, 5)), atol=1e-12)


def test_gbm_path_length_check():
    with pytest.raises(ValueError, match="length"):
        po.gbm_path(_params(), np.zeros(3))


def test_terminal_price_martingale():
    # discounted terminal price is a martingale: E(e^{-rT} S_n) = S0
    p = _params(n=8)
    shift = rng.shift_vector(21, 0, 8)
    X = rng.normal_block(2**16, shift)
    S = po.gbm_path(p, ForwardConstruction(8, 1.0).apply(X))
    disc = math.exp(-p.r * p.T) * S[:, -1]
    se = disc.std(ddof=1) / 2**8
    assert abs(disc.mean() - p.S0) <= 3.0 * se


def test_asian_call_zero_strike():
    p = _params()
    S = po.gbm_path(p, np.zeros(4))
    got = po.payoff(po.AsianCall(K=0.0), p, S)
    assert abs(got - math.exp(-0.04) * S.mean()) < 1e-12


def test_asian_call_oracle_on_batch():
    p = _params(n=6)
    gen = np.random.default_rng(22)
    S = po.gbm_path(p, ForwardConstruction(6, 1.0).apply(gen.standard_normal((50, 6))))
    got = po.payoff(po.AsianCall(K=100.0), p, S)
    want = math.exp(-0.04) * np.maximum(S.mean(axis=1) - 100.0, 0.0)
    np.testing.assert_allclose(got, want, atol=1e-14)


def test_digital_barrier_below_spot_certain():
    # barrier low enough that the first step clears it numerically always
    p = _params(n=4)
    u = p.S0 * math.exp((p.r - 0.5 * p.sigma**2) * 0.25 - 6.0 * p.sigma * 0.5)
    gen = np.random.default_rng(23)
    S = po.gbm_path(p, ForwardConstruction(4, 1.0).apply(gen.standard_normal((1000, 4))))
    got = po.payoff(po.DigitalUpIn(barrier=u), p, S)
    np.testing.assert_allclose(got, math.exp(-0.04), atol=1e-14)


def test_digital_barrier_values_binary():
    p = _params()
    gen = np.random.default_rng(24)
    S = po.gbm_path(p, ForwardConstruction(4, 1.0).apply(gen.standard_normal((200, 4))))
    got = po.payoff(po.DigitalUpIn(barrier=110.0), p, S)
    assert set(np.unique(got)) <= {0.0, math.exp(-0.04)}


def test_digital_barrier_monotone_in_barrier():
    p = _params()
    gen = np.random.default_rng(25)
    S = po.gbm_path(p, ForwardConstruction(4, 1.0).apply(gen.standard_normal((500, 4))))
    lo = po.payoff(po.DigitalUpIn(barrier=105.0), p, S)
    hi = po.payoff(po.DigitalUpIn(barrier=115.0), p, S)
    assert np.all(lo >= hi)


def test_asian_up_in_dominated_by_asian_call():
    p = _params()
    gen = np.random.default_rng(26)
    S = po.gbm_path(p, ForwardConstruction(4, 1.0).apply(gen.standard_normal((500, 4))))
    barrier = po.payoff(po.AsianUpIn(barrier=110.0, K=100.0), p, S)
    plain = po.payoff(po.AsianCall(K=100.0), p, S)
    assert np.all(barrier <= plain + 1e-15)


def test_asian_up_in_low_barrier_equals_asian():
    p = _params()
    u = p.S0 * math.exp((p.r - 0.5 * p.sigma**2) * 0.25 - 6.0 * p.sigma * 0.5)
    gen = np.random.default_rng(27)
    S = po.gbm_path(p, ForwardConstruction(4, 1.0).apply(gen.standard_normal((500, 4))))
    np.testing.assert_array_equal(
        po.payoff(po.AsianUpIn(barrier=u, K=100.0), p, S),
        po.payoff(po.AsianCall(K=100.0), p, S),
    )


def _basket(m=2, n=3, rho=0.05):
    vols = np.linspace(0.1, 0.3, m)
    corr = np.full((m, m), rho)
    np.fill_diagonal(corr, 1.0)
    return BasketCovSpec(m=m, n=n, T=1.0, vols=vols, corr=corr)


def test_basket_s0_shape_check():
    with pytest.raises(ValueError, match="one entry per asset"):
        po.BasketAsianCall(K=100.0, cov=_basket(), S0=np.ones(3))


def test_basket_paths_zero_brownian():
    cov = _basket()
    spec = po.BasketAsianCall(K=100.0, cov=cov, S0=np.full(2, 100.0))
    S = po.basket_paths(spec, 0.04, np.zeros(6))
    k = np.arange(1, 4)
    for i in range(2):
        drift = (0.04 - 0.5 * cov.vols[i] ** 2) * (1.0 / 3.0) * k
        np.testing.assert_allclose(S[i], 100.0 * np.exp(drift), atol=1e-12)


def test_basket_single_asset_matches_gbm():
    cov = BasketCovSpec(m=1, n=5, T=1.0, vols=np.array([0.2]), corr=np.eye(1))
    spec = po.BasketAsianCall(K=100.0, cov=cov, S0=np.array([100.0]))
    gen = np.random.default_rng(28)
    X = gen.standard_normal((20, 5))
    basket_forward = KroneckerConstruction(cholesky_psd(cov.R()), ForwardConstruction(5, 1.0))
    S_basket = po.basket_paths(spec, 0.04, basket_forward.apply(X))
    p = _params(n=5)
    S_single = po.gbm_path(p, ForwardConstruction(5, 1.0).apply(X))
    np.testing.assert_allclose(S_basket[:, 0, :], S_single, atol=1e-10)


def test_basket_payoff_grand_average():
    cov = _basket()
    spec = po.BasketAsianCall(K=90.0, cov=cov, S0=np.full(2, 100.0))
    p = _params(n=3)
    S = po.basket_paths(spec, 0.04, np.zeros(6))
    got = po.payoff(spec, p, S)
    want = math.exp(-0.04) * max(S.mean() - 90.0, 0.0)
    assert abs(got - want) < 1e-12


def test_unknown_spec_rejected():
    with pytest.raises(ValueError, match="unknown payoff"):
        po.payoff(object(), _params(), np.ones(4))
