import itertools
import math
import warnings

import numpy as np
import pytest

from qmcpricer import transforms as tr


TIME_CONSTRUCTIONS = (tr.ForwardConstruction, tr.BrownianBridgeConstruction, tr.PcaConstruction)


def brownian_cov(n, T):
    j = np.arange(1, n + 1)
    return (T / n) * np.minimum.outer(j, j)


def test_householder_identity_target():
    # a target along e_k appends the identity: it counts in len, adds no row
    # to V and raises no RuntimeWarning
    x = np.array([0.3, -1.2, 2.0])
    for target, k in (([1.0, 0.0, 0.0], 1), ([0.0, 2.5, 0.0], 2), ([0.0, 0.0, 4.0], 3)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            refl = tr.householder_from_target(np.array(target), k=k)
        assert len(refl) == 1 and refl.V.shape == (0, 3), (target, k)
        np.testing.assert_array_equal(refl.apply(x), x)


def test_householder_maps_e1():
    refl = tr.householder_from_target(np.array([3.0, 4.0]))
    e1 = np.array([1.0, 0.0])
    np.testing.assert_allclose(refl.apply(e1), [0.6, 0.8], atol=1e-12)


def test_householder_negative_axis():
    refl = tr.householder_from_target(np.array([-1.0, 0.0, 0.0]))
    np.testing.assert_allclose(refl.apply(np.array([1.0, 0.0, 0.0])), [-1.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(refl.apply(np.array([0.0, 1.0, 0.0])), [0.0, 1.0, 0.0], atol=1e-15)


def test_householder_involution_of_example():
    refl = tr.householder_from_target(np.array([3.0, 4.0]))
    np.testing.assert_allclose(refl.apply(np.array([0.6, 0.8])), [1.0, 0.0], atol=1e-12)


def test_householder_reflects_its_normal():
    # I - 2 v v^T / v^T v maps e_2 to e_2 - 2 (v_2 / v^T v) v
    v = np.array([0.0, 1.0, -2.0, 0.5])
    refl = tr.householder_from_target(np.eye(4)[1] - 2.0 * v[1] / (v @ v) * v, k=2)
    np.testing.assert_allclose(refl.apply(v), -v, atol=1e-12)


def test_householder_fixes_orthogonal_complement():
    v = np.array([1.0, 1.0, 0.0])
    refl = tr.householder_from_target(np.eye(3)[0] - 2.0 * v[0] / (v @ v) * v)
    x = np.array([1.0, -1.0, 3.0])  # orthogonal to v
    np.testing.assert_allclose(refl.apply(x), x, atol=1e-14)


def test_householder_norm_and_involution_random():
    gen = np.random.default_rng(0)
    a = gen.standard_normal(12)
    refl = tr.householder_from_target(a)
    for _ in range(100):
        x = gen.standard_normal(12)
        y = refl.apply(x)
        assert abs(np.linalg.norm(y) - np.linalg.norm(x)) <= 1e-12 * np.linalg.norm(x)
        np.testing.assert_allclose(refl.apply(y), x, atol=1e-12)


def test_householder_offset_support():
    a = np.array([0.0, 0.0, 3.0, 4.0])
    refl = tr.householder_from_target(a, k=3)
    e3 = np.array([0.0, 0.0, 1.0, 0.0])
    np.testing.assert_allclose(refl.apply(e3), a / 5.0, atol=1e-12)
    # coordinates before the offset untouched
    x = np.array([1.0, -2.0, 0.3, 0.7])
    y = refl.apply(x)
    np.testing.assert_array_equal(y[:2], x[:2])


def test_householder_target_not_in_subspace():
    with pytest.raises(ValueError, match="target not in subspace"):
        tr.householder_from_target(np.array([0.5, 1.0, 2.0]), k=2)
    # a chain on R^3 also refuses a target of another length and an offset
    # outside 1..3, and appends nothing
    chain = tr.TransformChain(3)
    for a, k, match in (
        (np.ones(4), 1, "expected \\(3,\\)"),
        (np.ones((1, 3)), 1, "expected \\(3,\\)"),
        (np.ones(3), 0, "k out of range"),
        (np.ones(3), 4, "k out of range"),
    ):
        with pytest.raises(ValueError, match=match):
            chain.append(a, k)
    assert len(chain) == 0


def test_householder_zero_target_is_identity():
    for k in (1, 3):
        refl = tr.householder_from_target(np.zeros(4), k=k)
        assert len(refl) == 1 and refl.V.shape == (0, 4)


def test_norm_rescales_only_where_the_square_overflows():
    gen = np.random.default_rng(10)
    for x in (gen.standard_normal(7), 1e150 * gen.standard_normal(7), np.zeros(3), np.zeros(0)):
        assert tr._norm(x) == np.linalg.norm(x)
    big = np.full(4, 2.5e304)
    with np.errstate(over="ignore"):
        assert np.linalg.norm(big) == math.inf
    assert tr._norm(big) == pytest.approx(5e304, rel=1e-15)
    assert tr._norm(np.array([1.0, math.inf])) == math.inf
    assert math.isnan(tr._norm(np.array([1e300, math.nan])))


def test_apply_dimension_mismatch():
    refl = tr.householder_from_target(np.array([3.0, 4.0]))
    with pytest.raises(ValueError, match="dimension mismatch"):
        refl.apply(np.ones(3))
    # an empty chain knows its dimension too
    with pytest.raises(ValueError, match="dimension mismatch"):
        tr.TransformChain(2).apply(np.ones((4, 3)))


def test_apply_householder_batch():
    gen = np.random.default_rng(1)
    refl = tr.householder_from_target(gen.standard_normal(6))
    X = gen.standard_normal((40, 6))
    batch = refl.apply(X)
    for i in range(40):
        np.testing.assert_allclose(batch[i], refl.apply(X[i]), atol=1e-14)


def test_apply_householder_row_blocks_match_one_update_bitwise():
    # more rows than one block holds, and a last block that is not full
    gen = np.random.default_rng(4)
    for n, k in ((300, 1), (300, 7)):
        target = gen.standard_normal(n)
        target[: k - 1] = 0.0
        refl = tr.householder_from_target(target, k=k)
        rows = tr._UPDATE_BLOCK // n
        X = gen.standard_normal((2 * rows + 5, n))
        before = X.copy()
        want = X.copy()
        sub = want[:, k - 1 :]
        # the row dots are numpy's own reduction, not a BLAS gemv
        v = refl.V[0, k - 1 :]
        sub -= (2.0 * np.einsum("ij,j->i", sub, v))[:, None] * v
        np.testing.assert_array_equal(refl.apply(X), want)
        np.testing.assert_array_equal(X, before)
        # two reflections go through the chain's WY update, so against the
        # reference only to rounding
        chain = tr.householder_from_target(target, k=k)
        chain.append(target, k)
        want = _reflect_one_by_one(chain, X)
        np.testing.assert_allclose(chain.apply(X), want, rtol=0, atol=1e-12)


def _reflect_one_by_one(chain, x):
    # reference: U x with the reflections applied to x in turn, the rightmost
    # first, each as x - 2 (x . v) v over its coordinates offset..n
    X = np.array(x, dtype=np.float64).reshape(-1, np.shape(x)[-1])
    for lo, v in reversed(list(zip(chain._starts, chain.V))):
        sub = X[:, lo:]
        sub -= 2.0 * np.outer(sub @ v[lo:], v[lo:])
    return X.reshape(np.shape(x))


def _chain(n, targets):
    # the chain of reflections mapping e_k to each (target, k) in turn
    chain = tr.TransformChain(n)
    for a, k in targets:
        chain.append(a, k)
    return chain


def test_chain_apply_matches_one_by_one_reference():
    gen = np.random.default_rng(14)
    n = 300
    targets = np.triu(gen.standard_normal((25, n)))  # target k is zero before k
    identity = (np.eye(1, n, 1)[0], 2)
    cases = {
        "offsets 1..25": [(t, k) for k, t in enumerate(targets, 1)],
        "offsets 3, 5, 9": [(targets[k - 1], k) for k in (3, 5, 9)],
        "with identities": [(targets[0], 1), identity, (targets[2], 3), identity],
    }
    assert tr.householder_from_target(*identity).V.shape == (0, n)
    # more rows than one update block holds, and a last block that is not full
    X = gen.standard_normal((2 * (tr._UPDATE_BLOCK // n) + 5, n))
    before = X.copy()
    for label, reflections in cases.items():
        chain = _chain(n, reflections)
        assert len(chain) == len(reflections)
        want = _reflect_one_by_one(chain, X)
        got = chain.apply(X)
        np.testing.assert_array_equal(X, before)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), label
        np.testing.assert_allclose(chain.apply(X[7]), want[7], rtol=0, atol=1e-12)
    empty = tr.TransformChain(n)
    assert len(empty) == 0
    for x in (X[:3], X[0]):
        got = empty.apply(x)
        np.testing.assert_array_equal(got, x)
        assert got is not x


def test_identity_reflections_count_toward_the_next_offset():
    # a canonical column makes an identity reflection, which still takes
    # offset 1, so the next column's reflection has offset 2
    second = np.array([0.0, 0.6, 0.0, 0.8])
    chain = tr.complete_first_k_columns([np.eye(4)[0], second])
    assert len(chain) == 2
    assert chain._starts == [1] and chain.V.shape == (1, 4)
    U = tr.construction_matrix(chain)
    np.testing.assert_allclose(U[:, :2], np.stack([np.eye(4)[0], second], axis=1), atol=1e-15)
    x = np.random.default_rng(15).standard_normal(4)
    np.testing.assert_allclose(chain.apply(x), _reflect_one_by_one(chain, x), atol=1e-15)


def test_chain_product_order_and_orthogonality():
    gen = np.random.default_rng(2)
    a1, a2 = gen.standard_normal(5), np.concatenate([[0.0], gen.standard_normal(4)])
    r1, r2 = tr.householder_from_target(a1), tr.householder_from_target(a2, k=2)
    chain = _chain(5, [(a1, 1), (a2, 2)])
    U = tr.construction_matrix(chain)
    np.testing.assert_allclose(U.T @ U, np.eye(5), atol=1e-12)
    x = gen.standard_normal(5)
    # product U1 U2 applies the rightmost factor first
    np.testing.assert_allclose(chain.apply(x), r1.apply(r2.apply(x)), atol=1e-14)


def test_complete_canonical_columns_is_identity():
    cols = [np.eye(4)[:, j] for j in range(3)]
    chain = tr.complete_first_k_columns(cols)
    np.testing.assert_allclose(tr.construction_matrix(chain), np.eye(4), atol=1e-14)


def test_complete_single_swap_column():
    chain = tr.complete_first_k_columns([np.array([0.0, 1.0])])
    U = tr.construction_matrix(chain)
    np.testing.assert_allclose(U[:, 0], [0.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(U.T @ U, np.eye(2), atol=1e-14)


def test_complete_random_orthogonal_columns():
    gen = np.random.default_rng(3)
    Q, _ = np.linalg.qr(gen.standard_normal((4, 4)))
    chain = tr.complete_first_k_columns([Q[:, 0], Q[:, 1]])
    U = tr.construction_matrix(chain)
    np.testing.assert_allclose(U[:, :2], Q[:, :2], atol=1e-12)
    np.testing.assert_allclose(U.T @ U, np.eye(4), atol=1e-10)


def test_complete_rejects_non_orthonormal():
    with pytest.raises(ValueError, match="orthonormal"):
        tr.complete_first_k_columns([np.array([1.0, 1.0]) / math.sqrt(2.0), np.array([1.0, 0.0])])
    # without a column the chain's dimension is unknown
    with pytest.raises(ValueError, match="no columns"):
        tr.complete_first_k_columns([])


def test_complete_larger_set():
    gen = np.random.default_rng(4)
    Q, _ = np.linalg.qr(gen.standard_normal((24, 24)))
    cols = [Q[:, j] for j in range(8)]
    chain = tr.complete_first_k_columns(cols)
    U = tr.construction_matrix(chain)
    np.testing.assert_allclose(U[:, :8], Q[:, :8], atol=1e-10)
    np.testing.assert_allclose(U.T @ U, np.eye(24), atol=1e-10)


def test_construct_path_n1_any_method():
    x = np.array([0.7])
    for construction in TIME_CONSTRUCTIONS:
        c = construction(1, 4.0)
        np.testing.assert_allclose(c.apply(x), [2.0 * 0.7], atol=1e-14)


def test_forward_example():
    c = tr.ForwardConstruction(2, 1.0)
    np.testing.assert_allclose(
        c.apply(np.array([1.0, 1.0])), [1.0 / math.sqrt(2.0), 2.0 / math.sqrt(2.0)], atol=1e-14
    )


def test_pca_example_covariance():
    c = tr.PcaConstruction(2, 1.0)
    A = tr.construction_matrix(c)
    np.testing.assert_allclose(A @ A.T, [[0.5, 0.5], [0.5, 1.0]], atol=1e-12)


def test_all_constructions_match_covariance():
    for n in (2, 7, 64, 128):
        Sigma = brownian_cov(n, 1.5)
        for construction in TIME_CONSTRUCTIONS:
            A = tr.construction_matrix(construction(n, 1.5))
            assert np.abs(A @ A.T - Sigma).max() <= 1e-9, (construction.__name__, n)


def test_pca_factors_against_eigh():
    n = 16
    Sigma = brownian_cov(n, 2.0)
    lam, vecs = tr.pca_factors(n, 2.0)
    ref = np.linalg.eigvalsh(Sigma)[::-1]
    np.testing.assert_allclose(lam, ref, rtol=1e-12)
    np.testing.assert_allclose(vecs @ np.diag(lam) @ vecs.T, Sigma, atol=1e-12)
    assert np.all(np.diff(lam) < 0.0)


def test_pca_factor_table_against_direct_sine():
    # the table lookup against sin(j(2k-1) pi / (2n+1)) taken directly; the
    # direct form's large arguments carry the rounding, up to 4.2e-16 in the
    # factor at n = 2000.  The row-blocked lookup equals one lookup of the
    # whole index array bitwise, with a partial last block at n = 2000.
    for n in (1, 2, 7, 250, 2000):
        k = np.arange(1, n + 1)
        lam, vecs = tr.pca_factors(n, 1.0)
        direct = (2.0 / math.sqrt(2 * n + 1)) * np.sin(np.outer(k, 2 * k - 1) * np.pi / (2 * n + 1))
        assert np.abs((vecs - direct) * np.sqrt(lam)).max() <= 1e-15, n
        period = 2 * (2 * n + 1)
        table = (2.0 / math.sqrt(2 * n + 1)) * np.sin(np.arange(period) * np.pi / (2 * n + 1))
        assert np.array_equal(vecs, table[np.outer(k, 2 * k - 1) % period]), n
        dense = tr.PcaConstruction(n, 1.0)._A  # n = 2000 takes the FFT route
        assert dense is None if n == 2000 else np.array_equal(dense, vecs * np.sqrt(lam)), n


@pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 8, 9, 2000])
def test_pca_fft_route_matches_dense_product(monkeypatch, n):
    # 2n + 1 prime; n = 2000 (4001, 2000 = 2^4 5^3) takes the FFT route at
    # the default crossover, the small n only with the crossover lowered
    if n < tr._PCA_FFT_MIN_N:
        monkeypatch.setattr(tr, "_PCA_FFT_MIN_N", 1)
    c = tr.PcaConstruction(n, 1.7)
    assert c._A is None, n
    lam, vecs = tr.pca_factors(n, 1.7)
    A = vecs * np.sqrt(lam)
    rng = np.random.default_rng(n)
    for rows in (1, 7, 511, 512):
        X = rng.standard_normal((rows, n))
        ref = X @ A.T
        assert np.abs(c.apply(X) - ref).max() <= 1e-13 * np.abs(ref).max(), (n, rows)
    x = rng.standard_normal(n)
    y = c.apply(x)
    assert y.shape == (n,) and np.abs(y - A @ x).max() <= 1e-13 * np.abs(A @ x).max(), n


def test_pca_fft_route_covariance_at_2000():
    A = tr.construction_matrix(tr.PcaConstruction(2000, 1.0))
    assert np.abs(A @ A.T - brownian_cov(2000, 1.0)).max() <= 1e-12


def test_pca_route_follows_n():
    # the FFT route needs 2n + 1 prime, n at or above the crossover and no
    # large prime factor of n: n = 250 and 601 keep the gemm as 501 = 3 * 167
    # and 1203 = 3 * 401, n = 300 (601 prime) as it is below the crossover,
    # and n = 1013 (2027 prime) as 1013 is prime
    routes = {250: False, 601: False, 300: False, 1013: False, 600: True, 2000: True}
    for n, fft in routes.items():
        assert (tr.PcaConstruction(n, 1.0)._A is None) == fft, n


def test_bridge_terminal_uses_first_normal():
    c = tr.BrownianBridgeConstruction(8, 2.0)
    x = np.zeros(8)
    x[0] = 1.3
    path = c.apply(x)
    assert abs(path[-1] - math.sqrt(2.0) * 1.3) < 1e-14


def _bridge_by_columns(c, x):
    # reference: the path-major column loop, B[:, m] = wl B[:, l] + wr B[:, r] + sd x
    X = x.reshape(-1, c.n)
    B = np.zeros((X.shape[0], c.n + 1))
    B[:, c.n] = c._sd_final * X[:, 0]
    for j in range(c._mid.size):
        m, l, r = c._mid[j], c._left[j], c._right[j]
        B[:, m] = c._wl[j] * B[:, l] + c._wr[j] * B[:, r] + c._sd[j] * X[:, j + 1]
    return B[:, 1:].reshape(x.shape)


def test_bridge_dimension_major_matches_column_loop_bitwise():
    gen = np.random.default_rng(17)
    # (600, 2000) and (1100, 251) span 10 and 3 row blocks, the last one
    # partial; n = 2^k + 1 takes k + 1 bisection levels, so n = 1, 2, 3, 5,
    # ..., 1025 covers every level count from 0 to 11, each over three blocks
    shapes = [(37, 251), (5, 7), (3, 1), (0, 5), (600, 2000), (1100, 251)]
    for n in [1] + [2**k + 1 for k in range(11)]:
        shapes.append((2 * (tr._BRIDGE_BLOCK // (n + 1)) + 3, n))
    for N, n in shapes:
        c = tr.BrownianBridgeConstruction(n, 1.7)
        x = gen.standard_normal((N, n))
        before = x.copy()
        out = c.apply(x)
        assert out.flags.c_contiguous and out.shape == (N, n)
        np.testing.assert_array_equal(out, _bridge_by_columns(c, x))
        np.testing.assert_array_equal(x, before)
    v = gen.standard_normal(9)
    c = tr.BrownianBridgeConstruction(9, 1.0)
    np.testing.assert_array_equal(c.apply(v), _bridge_by_columns(c, v))
    # basket: K1 applied to each asset's column-loop path; 400 x 3 asset rows
    # of n = 300 span three row blocks
    spec = _basket_spec(3, 300, 0.2, [0.1, 0.2, 0.3])
    kron = _kron_bridge(spec)
    X = gen.standard_normal((400, spec.dim))
    paths = _bridge_by_columns(kron.time, X.reshape(-1, spec.n)).reshape(400, 3, spec.n)
    np.testing.assert_array_equal(kron.apply(X), np.matmul(kron.K1, paths).reshape(X.shape))


def test_forward_leaves_input_unchanged():
    x = np.random.default_rng(18).standard_normal((4, 6))
    before = x.copy()
    out = tr.ForwardConstruction(6, 2.0).apply(x)
    np.testing.assert_array_equal(x, before)
    np.testing.assert_array_equal(out, np.cumsum(before, axis=-1) * math.sqrt(2.0 / 6))


def test_bridge_handles_non_power_of_two():
    for n in (3, 5, 250):
        c = tr.BrownianBridgeConstruction(n, 1.0)
        A = tr.construction_matrix(c)
        assert np.abs(A @ A.T - brownian_cov(n, 1.0)).max() <= 1e-9


def test_chain_construction_identity_equals_forward():
    c = tr.ChainConstruction(tr.TransformChain(5), tr.ForwardConstruction(5, 1.0))
    f = tr.ForwardConstruction(5, 1.0)
    x = np.random.default_rng(5).standard_normal(5)
    np.testing.assert_array_equal(c.apply(x), f.apply(x))


def test_chain_construction_covariance_preserved():
    gen = np.random.default_rng(6)
    chain = tr.householder_from_target(gen.standard_normal(7))
    c = tr.ChainConstruction(chain, tr.ForwardConstruction(7, 1.0))
    A = tr.construction_matrix(c)
    assert np.abs(A @ A.T - brownian_cov(7, 1.0)).max() <= 1e-9


def _fused_chains_and_bases():
    """(label, chain, base) cases of the fused construction: the regression
    chains of the Asian call (one reflection), the Asian up-and-in at barrier
    110 (two) and a basket (one, over a Kronecker base), a reflection with
    offset 3, and the LT chains of the Asian call (24 reflections, offsets
    1..24), of a zero-gradient spec and of a 3-asset basket."""
    from qmcpricer.brownian_max import barrier_coefficients
    from qmcpricer.lt import lt_transform
    from qmcpricer.regression import (
        asian_spec,
        basket_spec,
        logexp_coefficients,
        regression_chain,
    )

    n = 24
    asian = logexp_coefficients(asian_spec(100.0, 0.04, 0.2, 1.0, n)).a
    barrier = barrier_coefficients(100.0, 0.04, 0.2, 1.0, n, 110.0).a
    offset_target = np.random.default_rng(11).standard_normal(n)
    offset_target[:2] = 0.0
    single = {
        "asian": regression_chain([asian], n),
        "asian-barrier": regression_chain([barrier, asian], n),
        "offset 3": tr.householder_from_target(offset_target, k=3),
        "lt asian": lt_transform(asian_spec(100.0, 0.04, 0.2, 1.0, n), n).chain,
        "lt zero gradient": lt_transform(asian_spec(100.0, 0.04, 0.0, 1.0, n), 5).chain,
    }
    assert len(single["asian-barrier"]) == 2
    assert single["offset 3"]._starts == [2]
    # LT's last reflection maps e_24 to itself: the identity, with no row in V
    assert len(single["lt asian"]) == n and single["lt asian"]._starts == list(range(n - 1))
    for label, chain in single.items():
        for cls in TIME_CONSTRUCTIONS:
            yield f"{label} / {cls.__name__}", chain, cls(n, 1.0)
    spec = _basket_spec(3, 8, 0.1, [0.1, 0.2, 0.3])
    logexp = basket_spec(spec, np.full(3, 100.0), 0.04)
    basket = {
        "basket": regression_chain([logexp_coefficients(logexp).a], spec.dim),
        "lt basket": lt_transform(logexp, 10).chain,
    }
    for label, chain in basket.items():
        for make in (_kron_forward, _kron_bridge, _kron_pca):
            yield f"{label} / {make.__name__}", chain, make(spec)


def test_fused_chain_construction_matches_sequential():
    # C U x computed as C x - (C V^T) W V x against the reference: the
    # reflections applied to x one by one, then the base
    gen = np.random.default_rng(12)
    for label, chain, base in _fused_chains_and_bases():
        X = gen.standard_normal((37, base.n))
        want = base.apply(_reflect_one_by_one(chain, X))
        got = tr.ChainConstruction(chain, base).apply(X)
        scale = np.abs(want).max()
        assert np.abs(got - want).max() <= 1e-12 * scale, label
        np.testing.assert_allclose(
            tr.ChainConstruction(chain, base).apply(X[3]), want[3], rtol=0, atol=1e-12 * scale
        )


def test_fused_chain_construction_row_blocks():
    # more rows than one update block holds: the rank-m updates of the
    # blocks join seamlessly, for one reflection (its offset dot) and for
    # LT's 25 (block gemms); at n = 2000 an update block is 131 rows
    gen = np.random.default_rng(13)
    for n, m in itertools.product((300, 2000), (1, 25)):
        base = tr.ForwardConstruction(n, 1.0)
        X = gen.standard_normal((2 * (tr._UPDATE_BLOCK // n) + 5, n))
        before = X.copy()
        targets = np.triu(gen.standard_normal((m, n)))  # target k is zero before k
        chain = _chain(n, [(t, k) for k, t in enumerate(targets, start=1)])
        assert chain.V.shape == (m, n)
        want = base.apply(_reflect_one_by_one(chain, X))
        got = tr.ChainConstruction(chain, base).apply(X)
        np.testing.assert_array_equal(X, before)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (n, m)


# --- basket -----------------------------------------------------------------


def _basket_spec(m, n, rho, vols, T=1.0):
    corr = np.full((m, m), rho)
    np.fill_diagonal(corr, 1.0)
    return tr.BasketCovSpec(m=m, n=n, T=T, vols=np.asarray(vols, dtype=float), corr=corr)


def _kron_pca(spec):
    return tr.KroneckerConstruction(tr.eigh_factor(spec.R()), tr.PcaConstruction(spec.n, spec.T))


def _kron_forward(spec):
    return tr.KroneckerConstruction(
        tr.cholesky_psd(spec.R()), tr.ForwardConstruction(spec.n, spec.T)
    )


def _kron_bridge(spec):
    return tr.KroneckerConstruction(
        tr.cholesky_psd(spec.R()), tr.BrownianBridgeConstruction(spec.n, spec.T)
    )


def test_basket_single_asset_reduces_to_pca():
    spec = _basket_spec(1, 4, 0.0, [0.3])
    x = np.random.default_rng(7).standard_normal(4)
    single = 0.3 * tr.PcaConstruction(4, 1.0).apply(x)
    np.testing.assert_allclose(_kron_pca(spec).apply(x), single, atol=1e-12)


def test_basket_zero_correlation_block_diagonal():
    spec = _basket_spec(2, 2, 0.0, [0.1, 0.3])
    C = tr.construction_matrix(_kron_pca(spec))
    cov = C @ C.T
    Sigma = brownian_cov(2, 1.0)
    np.testing.assert_allclose(cov[:2, :2], 0.01 * Sigma, atol=1e-12)
    np.testing.assert_allclose(cov[2:, 2:], 0.09 * Sigma, atol=1e-12)
    np.testing.assert_allclose(cov[:2, 2:], 0.0, atol=1e-12)


def test_basket_constructions_match_kronecker_covariance():
    spec = _basket_spec(2, 2, 0.05, [0.1, 0.3])
    target = np.kron(spec.R(), brownian_cov(2, 1.0))
    for make in (_kron_pca, _kron_forward, _kron_bridge):
        C = tr.construction_matrix(make(spec))
        assert np.abs(C @ C.T - target).max() <= 1e-10, make.__name__


def test_basket_larger_covariance():
    spec = _basket_spec(4, 8, 0.2, [0.1, 0.15, 0.2, 0.3], T=2.0)
    target = np.kron(spec.R(), brownian_cov(8, 2.0))
    for make in (_kron_pca, _kron_forward, _kron_bridge):
        C = tr.construction_matrix(make(spec))
        assert np.abs(C @ C.T - target).max() <= 1e-8, make.__name__


def test_basket_chain_construction_covariance():
    spec = _basket_spec(2, 3, 0.1, [0.2, 0.25])
    gen = np.random.default_rng(8)
    chain = tr.householder_from_target(gen.standard_normal(6))
    C = tr.construction_matrix(tr.ChainConstruction(chain, _kron_forward(spec)))
    target = np.kron(spec.R(), brownian_cov(3, 1.0))
    assert np.abs(C @ C.T - target).max() <= 1e-10


def test_basket_not_psd_rejected():
    corr = np.array([[1.0, 2.0], [2.0, 1.0]])  # not a correlation matrix
    spec = tr.BasketCovSpec(m=2, n=2, T=1.0, vols=np.array([0.1, 0.2]), corr=corr)
    for factor in (tr.eigh_factor, tr.cholesky_psd):
        with pytest.raises(ValueError, match="positive semidefinite"):
            factor(spec.R())


def test_eigh_factor_sorted_with_positive_largest_entry():
    gen = np.random.default_rng(9)
    B = gen.standard_normal((6, 6))
    M = B @ B.T
    K = tr.eigh_factor(M)
    np.testing.assert_allclose(K @ K.T, M, atol=1e-9)
    np.testing.assert_allclose(K.T @ K, np.diag(np.linalg.eigvalsh(M)[::-1]), atol=1e-9)
    assert np.all(K[np.abs(K).argmax(axis=0), np.arange(6)] > 0.0)


def test_eigh_factor_repeated_eigenvalue():
    # equal vols under a constant correlation: eigenvalue 0.04 (1 - rho) repeated m - 1 times
    spec = _basket_spec(5, 4, 0.3, [0.2] * 5)
    R = spec.R()
    K = tr.eigh_factor(R)
    np.testing.assert_allclose(K @ K.T, R, atol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(K, axis=0) ** 2, [0.04 * 2.2] + [0.04 * 0.7] * 4)
    target = np.kron(R, brownian_cov(4, 1.0))
    C = tr.construction_matrix(_kron_pca(spec))
    assert np.abs(C @ C.T - target).max() <= 1e-10


def test_basket_cov_rejects_asymmetric_corr():
    with pytest.raises(ValueError, match="symmetric"):
        tr.BasketCovSpec(m=2, n=2, T=1.0, vols=np.ones(2), corr=np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_basket_cov_rejects_negative_vols():
    with pytest.raises(ValueError, match="vols"):
        tr.BasketCovSpec(m=2, n=2, T=1.0, vols=np.array([0.2, -0.1]), corr=np.eye(2))
