import math
import tracemalloc

import numpy as np
import pytest

from qmcpricer import harness, lt
from qmcpricer import regression as reg
from qmcpricer.brownian_max import barrier_coefficients
from qmcpricer import transforms as tr


def test_asian_coefficients_n1():
    rv = reg.logexp_coefficients(reg.asian_spec(1.0, 0.04, 0.2, 1.0, 1))
    np.testing.assert_allclose(rv.a, [0.2 * math.exp(0.04)], atol=5e-7)
    assert abs(rv.a[0] - 0.208162) < 5e-7


def test_asian_coefficients_n2():
    rv = reg.logexp_coefficients(reg.asian_spec(1.0, 0.0, 0.2, 1.0, 2))
    np.testing.assert_allclose(rv.a, [0.141421, 0.070711], atol=5e-7)


def test_asian_coefficients_zero_sigma():
    rv = reg.logexp_coefficients(reg.asian_spec(100.0, 0.04, 0.0, 1.0, 8))
    np.testing.assert_array_equal(rv.a, np.zeros(8))
    assert rv.norm == 0.0


def _basket3x8_spec():
    corr = np.full((3, 3), 0.1)
    np.fill_diagonal(corr, 1.0)
    cov = tr.BasketCovSpec(m=3, n=8, T=1.0, vols=np.array([0.1, 0.2, 0.3]), corr=corr)
    return reg.basket_spec(cov, np.array([90.0, 100.0, 110.0]), 0.04)


def _random_spec(seed):
    gen = np.random.default_rng(seed)
    m, n = int(gen.integers(1, 5)), int(gen.integers(1, 9))
    return reg.LogExpPayoffSpec(
        w=gen.uniform(0.1, 2.0, (m, n)),
        d=0.2 * gen.standard_normal((m, n)),
        L=0.5 * gen.standard_normal((m, m)),
        dt=float(gen.uniform(0.05, 1.0)),
    )


_STRUCTURED_SPECS = {
    **{f"asian-{n}": reg.asian_spec(100.0, 0.04, 0.2, 1.0, n) for n in (1, 2, 9, 250)},
    **{f"asian-{n}-zero-sigma": reg.asian_spec(100.0, 0.04, 0.0, 1.0, n) for n in (1, 9)},
    "asian-9-T2": reg.asian_spec(75.0, 0.1, 0.35, 2.0, 9),
    "basket-3x8": _basket3x8_spec(),
    **{f"random-{seed}": _random_spec(seed) for seed in range(6)},
}


def _assert_rel_close(got, want, rtol=1e-12):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


@pytest.mark.parametrize("spec", _STRUCTURED_SPECS.values(), ids=_STRUCTURED_SPECS.keys())
def test_structured_closed_forms_match_dense_reference(spec):
    # the dense forms over c = L (x) sqrt(dt) tril(1), built here and nowhere else
    m, n = spec.w.shape
    c = np.kron(spec.L, math.sqrt(spec.dt) * np.tril(np.ones((n, n))))
    w, d = spec.w.ravel(), spec.d.ravel()
    w_bar = w * np.exp(np.sum(0.5 * c**2, axis=1) + d)
    a = c.T @ w_bar
    _assert_rel_close(spec.w_bar().ravel(), w_bar)
    if not np.any(spec.L):
        assert not np.any(reg.logexp_coefficients(spec).a)
        assert not np.any(lt.payoff_gradient_at_zero(spec))
    else:
        _assert_rel_close(reg.logexp_coefficients(spec).a, a)
        _assert_rel_close(lt.payoff_gradient_at_zero(spec), c.T @ (w * np.exp(d)))
    rep = reg.variance_report(spec)
    _assert_rel_close([rep.captured, rep.total], [a @ a, w_bar @ np.expm1(c @ c.T) @ w_bar])
    X = np.random.default_rng(m * 100 + n).standard_normal((5, m * n))
    _assert_rel_close(spec.evaluate(X), np.exp(X @ c.T + d) @ w)
    _assert_rel_close(spec.evaluate(X[0]), np.exp(c @ X[0] + d) @ w)


def test_spec_requires_matching_shapes():
    with pytest.raises(ValueError):
        reg.LogExpPayoffSpec(w=np.ones((2, 3)), d=np.zeros((2, 4)), L=np.eye(2), dt=0.25)
    with pytest.raises(ValueError):
        reg.LogExpPayoffSpec(w=np.ones((2, 3)), d=np.zeros((2, 3)), L=np.eye(3), dt=0.25)


def test_basket_closed_forms_allocate_no_dense_matrix():
    # basket 10 x 250 has dimension 2500: a dense c alone would take 50 MB
    cfg = harness.ExperimentConfig(
        payoff="basket", methods=["regression"], n=250, paths=[2], assets=10
    )
    tracemalloc.start()
    try:
        harness._average_a(cfg)
        reg.variance_report(harness._average_spec(cfg))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, peak / 2**20


def test_variance_report_table_entries():
    lo = reg.variance_report(reg.asian_spec(1.0, 0.1, 0.1, 1.0, 2**12))
    assert abs(lo.residual_fraction - 0.0025) < 2e-4
    hi = reg.variance_report(reg.asian_spec(1.0, 0.3, 0.2, 1.0, 2**12))
    assert abs(hi.residual_fraction - 0.0104) < 2e-4


def test_variance_report_zero_sigma():
    rep = reg.variance_report(reg.asian_spec(1.0, 0.1, 0.0, 1.0, 4))
    assert rep.captured == 0.0 and rep.total == 0.0
    assert rep.residual_fraction == 0.0


def test_continuum_values():
    rep = reg.variance_report_continuum(0.1, 0.1, 1.0)
    assert abs(rep.residual_fraction - 0.0025) < 1e-4
    rep = reg.variance_report_continuum(0.2, math.sqrt(0.02), 1.0)
    assert abs(rep.residual_fraction - 0.0051) < 2e-4


def test_continuum_matches_discrete_limit():
    for r in (0.1, 0.2, 0.3):
        for s2 in (0.01, 0.02, 0.03, 0.04):
            cont = reg.variance_report_continuum(r, math.sqrt(s2), 1.0)
            disc = reg.variance_report(reg.asian_spec(1.0, r, math.sqrt(s2), 1.0, 2**14))
            assert abs(cont.residual_fraction - disc.residual_fraction) < 1e-4


def test_continuum_rejects_zero_rate():
    with pytest.raises(ValueError, match="use discrete form"):
        reg.variance_report_continuum(0.0, 0.2, 1.0)


def test_captured_never_exceeds_total():
    gen = np.random.default_rng(10)
    for _ in range(1000):
        m = int(gen.integers(1, 4))
        n = int(gen.integers(1, 5))
        spec = reg.LogExpPayoffSpec(
            w=gen.uniform(0.1, 2.0, (m, n)),
            d=0.2 * gen.standard_normal((m, n)),
            L=0.5 * gen.standard_normal((m, m)),
            dt=float(gen.uniform(0.1, 1.0)),
        )
        rep = reg.variance_report(spec)
        assert rep.captured <= rep.total * (1.0 + 1e-12)
        assert 0.0 <= rep.residual_fraction <= 1.0


def test_regression_transform_zero_vector():
    chain = reg.regression_transform(reg.RegressionVector.from_coefficients(np.zeros(4)))
    assert len(chain) == 0
    x = np.arange(4.0)
    np.testing.assert_array_equal(chain.apply(x), x)


def test_regression_transform_maps_e1():
    rv = reg.logexp_coefficients(reg.asian_spec(100.0, 0.04, 0.2, 1.0, 250))
    chain = reg.regression_transform(rv)
    e1 = np.zeros(250)
    e1[0] = 1.0
    np.testing.assert_allclose(chain.apply(e1), rv.a / rv.norm, atol=1e-12)


def test_regression_transform_direction_invariant():
    rv = reg.logexp_coefficients(reg.asian_spec(1.0, 0.04, 0.2, 1.0, 10))
    scaled = reg.RegressionVector.from_coefficients(7.0 * rv.a)
    x = np.random.default_rng(11).standard_normal(10)
    np.testing.assert_allclose(
        reg.regression_transform(rv).apply(x),
        reg.regression_transform(scaled).apply(x),
        atol=1e-12,
    )


def test_regression_transform_columns_orthogonal_to_a():
    # all columns past the first are uncorrelated directions: U^T a = |a| e1
    rv = reg.logexp_coefficients(reg.asian_spec(1.0, 0.04, 0.2, 1.0, 12))
    U = reg.regression_transform(rv).materialize(12)
    proj = U.T @ rv.a
    assert abs(proj[0] - rv.norm) < 1e-12
    np.testing.assert_allclose(proj[1:], 0.0, atol=1e-12)


def test_regression_chain_single_provider():
    rv = reg.logexp_coefficients(reg.asian_spec(1.0, 0.04, 0.2, 1.0, 6))
    chain = reg.regression_chain([rv.a], 6)
    x = np.random.default_rng(12).standard_normal(6)
    np.testing.assert_allclose(chain.apply(x), reg.regression_transform(rv).apply(x), atol=1e-14)


def test_regression_chain_two_providers():
    gen = np.random.default_rng(13)
    a1, a2 = gen.standard_normal(8), gen.standard_normal(8)
    chain = reg.regression_chain([a1, a2], 8)
    U = chain.materialize(8)
    np.testing.assert_allclose(U.T @ U, np.eye(8), atol=1e-10)
    # first column carries a1; a2 lies in the span of the first two columns
    np.testing.assert_allclose(U[:, 0], a1 / np.linalg.norm(a1), atol=1e-12)
    resid = a2 - U[:, :2] @ (U[:, :2].T @ a2)
    np.testing.assert_allclose(resid, 0.0, atol=1e-10)


def test_regression_chain_second_vector_first_entry_zero():
    # step 3 zeroes the leading entries of the transformed coefficient vector
    gen = np.random.default_rng(14)
    a1, a2 = gen.standard_normal(5), gen.standard_normal(5)
    first = tr.householder_from_target(a1 / np.linalg.norm(a1))
    tilde = first.apply(a2)  # reflections are symmetric: U1^T a2
    tilde[0] = 0.0
    chain = reg.regression_chain([a1, a2], 5)
    assert len(chain) == 2
    # the second reflection fixes coordinate 1 and maps e2 to the zeroed
    # direction, so column 2 of the product is U1 applied to it
    U = chain.materialize(5)
    np.testing.assert_allclose(U[:, 1], first.apply(tilde / np.linalg.norm(tilde)), atol=1e-10)


def test_regression_chain_skips_zero_provider():
    gen = np.random.default_rng(15)
    a2 = gen.standard_normal(4)
    chain = reg.regression_chain([np.zeros(4), a2], 4)
    # the zero vector contributes no reflection; a2 still lands in column 2
    U = chain.materialize(4)
    resid = a2 - U[:, :2] @ (U[:, :2].T @ a2)
    np.testing.assert_allclose(resid, 0.0, atol=1e-12)


def test_regression_chain_zero_leading_provider_matches_single():
    # barrier <= S0: the barrier part has a = 0, so the Asian vector takes
    # the first coordinate exactly as the single-part transform does
    bc = barrier_coefficients(100.0, 0.04, 0.2, 1.0, 8, 90.0)
    assert not np.any(bc.a)
    rv = reg.logexp_coefficients(reg.asian_spec(100.0, 0.04, 0.2, 1.0, 8))
    chain = reg.regression_chain([bc.a, rv.a], 8)
    np.testing.assert_array_equal(chain.materialize(8), reg.regression_transform(rv).materialize(8))


def test_regression_chain_leaves_provider_arrays_unchanged():
    a2 = np.random.default_rng(20).standard_normal(5)
    before = a2.copy()
    reg.regression_chain([np.zeros(5), a2], 5)
    np.testing.assert_array_equal(a2, before)


def test_exact_linear_chain_canonical():
    e3 = np.zeros(4)
    e3[2] = 1.0
    chain = reg.regression_chain([e3], 4)
    assert len(chain) == 1
    U = chain.materialize(4)
    # w^T U x depends on x_1 only
    np.testing.assert_allclose(e3 @ U, [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_exact_linear_chain_two_vectors():
    gen = np.random.default_rng(16)
    ws = [gen.standard_normal(8), gen.standard_normal(8)]
    chain = reg.regression_chain(ws, 8)
    U = chain.materialize(8)
    for w in ws:
        np.testing.assert_allclose((w @ U)[2:], 0.0, atol=1e-12)


def test_exact_linear_chain_dependent_vectors():
    gen = np.random.default_rng(17)
    w = gen.standard_normal(6)
    chain = reg.regression_chain([w, 2.0 * w, np.zeros(6)], 6)
    assert len(chain) == 1
    U = chain.materialize(6)
    np.testing.assert_allclose((w @ U)[1:], 0.0, atol=1e-12)


def test_exact_linear_chain_all_zero():
    chain = reg.regression_chain([np.zeros(3), np.zeros(3)], 3)
    assert len(chain) == 0


def test_pipeline_associativity():
    # reflecting then building the forward path equals the chain construction
    rv = reg.logexp_coefficients(reg.asian_spec(100.0, 0.04, 0.2, 1.0, 16))
    chain = reg.regression_transform(rv)
    construction = tr.ChainConstruction(chain, tr.ForwardConstruction(16, 1.0))
    x = np.random.default_rng(18).standard_normal(16)
    fwd = tr.ForwardConstruction(16, 1.0)
    np.testing.assert_allclose(construction.apply(x), fwd.apply(chain.apply(x)), atol=1e-12)


def test_uncorrelatedness_monte_carlo():
    # cov(|a| X_1, h(UX) - |a| X_1) vanishes for the log-normal average
    S0, r, sigma, T, n = 1.0, 0.04, 0.2, 1.0, 16
    spec = reg.asian_spec(S0, r, sigma, T, n)
    rv = reg.logexp_coefficients(spec)
    U = reg.regression_transform(rv).materialize(n)
    N = 2**16
    X = np.random.default_rng(19).standard_normal((N, n))
    G = spec.evaluate(X @ U.T)
    Y = rv.norm * X[:, 0]
    Z = G - Y
    corr = np.corrcoef(Y, Z)[0, 1]
    assert abs(corr) <= 6.0 / math.sqrt(N)
