import math

import numpy as np
import pytest

from qmcpricer import lt
from qmcpricer import regression as reg
from qmcpricer import transforms as tr


def test_zero_columns_is_identity():
    spec = reg.asian_spec(100.0, 0.04, 0.2, 1.0, 8)
    res = lt.lt_transform(spec, 0)
    assert len(res.chain) == 0
    assert res.columns.shape == (8, 0)


def test_column_count_validation():
    spec = reg.asian_spec(100.0, 0.04, 0.2, 1.0, 4)
    with pytest.raises(ValueError):
        lt.lt_transform(spec, 5)


def test_gradient_at_zero_asian():
    # d/dX_i of sum_k w_k exp(c_k.X + d_k.1) at X = 0 is c^T (w * e^{dk})
    S0, r, sigma, T, n = 100.0, 0.04, 0.2, 1.0, 6
    spec = reg.asian_spec(S0, r, sigma, T, n)
    q = lt.payoff_gradient_at_zero(spec)
    dt = T / n
    k = np.arange(1, n + 1)
    wk = (S0 / n) * np.exp((r - 0.5 * sigma**2) * dt * k)
    want = sigma * math.sqrt(dt) * np.cumsum(wk[::-1])[::-1]
    np.testing.assert_allclose(q, want, rtol=1e-12)


def test_first_column_is_normalized_gradient():
    spec = reg.asian_spec(100.0, 0.04, 0.2, 1.0, 16)
    res = lt.lt_transform(spec, 1)
    q = lt.payoff_gradient_at_zero(spec)
    np.testing.assert_allclose(res.columns[:, 0], q / np.linalg.norm(q), atol=1e-12)
    e1 = np.zeros(16)
    e1[0] = 1.0
    np.testing.assert_allclose(res.chain.apply(e1), q / np.linalg.norm(q), atol=1e-12)


def test_columns_orthonormal():
    spec = reg.asian_spec(100.0, 0.04, 0.2, 1.0, 32)
    res = lt.lt_transform(spec, 8)
    G = res.columns.T @ res.columns
    np.testing.assert_allclose(G, np.eye(8), atol=1e-10)


def test_chain_orthogonal_and_matches_columns():
    spec = reg.asian_spec(100.0, 0.04, 0.2, 1.0, 24)
    res = lt.lt_transform(spec, 5)
    U = tr.construction_matrix(res.chain)
    np.testing.assert_allclose(U.T @ U, np.eye(24), atol=1e-10)
    np.testing.assert_allclose(U[:, :5], res.columns, atol=1e-10)


def test_application_cost_bounded_by_k():
    spec = reg.asian_spec(100.0, 0.04, 0.2, 1.0, 64)
    res = lt.lt_transform(spec, 4)
    assert len(res.chain) <= 4


def test_first_column_near_regression_direction():
    # both are exponentially weighted tail sums; for short maturities the
    # angle between them stays below a few degrees
    rv = reg.logexp_coefficients(reg.asian_spec(100.0, 0.04, 0.2, 1.0, 250))
    spec = reg.asian_spec(100.0, 0.04, 0.2, 1.0, 250)
    res = lt.lt_transform(spec, 1)
    cosine = float(res.columns[:, 0] @ (rv.a / rv.norm))
    assert math.degrees(math.acos(min(cosine, 1.0))) < 5.0


def test_degenerate_directions_fall_back_to_canonical():
    # rank-one exponent matrix: every gradient direction coincides, so all
    # columns past the first must come from the canonical completion
    spec = _rank_one_spec()
    res = lt.lt_transform(spec, 3)
    assert res.degenerate_columns == [2, 3]
    G = res.columns.T @ res.columns
    np.testing.assert_allclose(G, np.eye(3), atol=1e-10)
    U = tr.construction_matrix(res.chain)
    np.testing.assert_allclose(U.T @ U, np.eye(4), atol=1e-10)


def test_asian_columns_past_first_are_degenerate():
    # with a zero expansion point the gradient is one fixed vector, so every
    # later column has zero projected gradient and falls back to canonical
    spec = reg.asian_spec(100.0, 0.04, 0.2, 1.0, 16)
    res = lt.lt_transform(spec, 8)
    assert res.degenerate_columns == list(range(2, 9))


def test_default_config_caps_at_25():
    spec = reg.asian_spec(100.0, 0.04, 0.2, 1.0, 64)
    assert len(lt.lt_transform(spec).chain) == 25


def _gram_schmidt_columns(spec, k):
    """Reference LT columns: modified Gram-Schmidt on the gradient, with a
    fallback to the next canonical direction orthonormalized against the
    columns so far whenever the projected gradient vanishes."""
    n = spec.dim
    grad = lt.payoff_gradient_at_zero(spec)
    cols, degenerate, canon = [], [], 0
    for i in range(k):
        cand = grad.copy()
        for c in cols:
            cand -= (cand @ c) * c
        norm = np.linalg.norm(cand)
        if norm <= 1e-12 * max(1.0, float(np.linalg.norm(grad))):
            while True:
                cand = np.zeros(n)
                cand[canon] = 1.0
                canon += 1
                for c in cols:
                    cand -= (cand @ c) * c
                norm = np.linalg.norm(cand)
                if norm > 1e-8:
                    break
            degenerate.append(i + 1)
        cols.append(cand / norm)
    return np.column_stack(cols), degenerate


def _rank_one_spec():
    # gradient (0.3, 0.3, 0.3, 0.3): only the last step is weighted
    w = np.array([[0.0, 0.0, 0.0, 1.0]])
    return reg.LogExpPayoffSpec(w=w, d=np.zeros((1, 4)), L=np.array([[0.6]]), dt=0.25)


def _basket3_spec():
    corr = np.full((3, 3), 0.3)
    np.fill_diagonal(corr, 1.0)
    cov = tr.BasketCovSpec(m=3, n=8, T=1.0, vols=np.array([0.1, 0.2, 0.3]), corr=corr)
    return reg.basket_spec(cov, np.full(3, 100.0), 0.04)


@pytest.mark.parametrize(
    "spec, k",
    [
        (reg.asian_spec(100.0, 0.04, 0.2, 1.0, 64), 25),
        (_rank_one_spec(), 4),
        (reg.asian_spec(100.0, 0.04, 0.0, 1.0, 16), 5),
        (_basket3_spec(), 10),
    ],
    ids=["asian-64", "rank-one", "zero-gradient", "basket-3x8"],
)
def test_columns_match_gram_schmidt_reference(spec, k):
    res = lt.lt_transform(spec, k)
    want, degenerate = _gram_schmidt_columns(spec, k)
    assert res.columns.shape == want.shape
    np.testing.assert_allclose(res.columns, want, rtol=0.0, atol=1e-12)
    assert res.degenerate_columns == degenerate


def test_zero_gradient_columns_are_canonical():
    spec = reg.asian_spec(100.0, 0.04, 0.0, 1.0, 16)
    assert not np.any(lt.payoff_gradient_at_zero(spec))
    res = lt.lt_transform(spec, 5)
    assert res.degenerate_columns == [1, 2, 3, 4, 5]
    np.testing.assert_array_equal(res.columns, np.eye(16, 5))
