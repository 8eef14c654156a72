import importlib.resources
import math

import numpy as np
import pytest
from scipy.stats import qmc

from qmcpricer import rng


def test_first_point_is_origin():
    p = rng.sobol_block(1, 4, start=0)[0]
    assert p.dtype == np.uint32
    assert np.array_equal(p, np.zeros(4))


def test_second_point_dim1():
    assert rng.sobol_block(1, 1, start=1)[0][0] * rng.CELL == 0.5


def test_first_coordinate_van_der_corput():
    pts = [rng.sobol_block(1, 1, start=i)[0][0] * rng.CELL for i in (1, 2, 3)]
    assert pts[0] == 0.5
    assert set(pts) == {0.5, 0.75, 0.25}


def test_block_matches_pointwise():
    block = rng.sobol_block(16, 6, start=5)
    for i in range(16):
        np.testing.assert_array_equal(block[i], rng.sobol_block(1, 6, start=5 + i)[0])


def test_block_matches_scipy():
    # independent implementation of the same direction numbers
    d = 12
    ours = rng.sobol_block(256, d)
    assert ours.dtype == np.uint32
    ref = qmc.Sobol(d, scramble=False).random(256)
    np.testing.assert_allclose(ours * 2.0**-32, ref, rtol=0.0, atol=0.0)


def test_block_matches_scipy_high_dimension():
    # past scipy's first table rows, and over a block that is not a power of two
    d = 300
    ours = rng.sobol_block(1000, d) * 2.0**-32
    ref = qmc.Sobol(d, scramble=False).random(1024)[:1000]
    np.testing.assert_array_equal(ours, ref)


def _reference_directions():
    # the per-dimension derivation, one dimension and one bit at a time
    ref = importlib.resources.files("qmcpricer.data").joinpath("joe-kuo-2600.txt")
    entries = []
    for line in ref.read_text().splitlines()[1:]:
        parts = line.split()
        if not parts:
            continue
        d, s, a = int(parts[0]), int(parts[1]), int(parts[2])
        entries.append((d, s, a, [int(x) for x in parts[3 : 3 + s]]))
    V = np.zeros((rng.BITS, entries[-1][0]), dtype=np.uint32)
    for j in range(rng.BITS):
        V[j, 0] = 1 << (rng.BITS - 1 - j)
    for d, s, a, m in entries:
        v = [0] * rng.BITS
        for j in range(min(s, rng.BITS)):
            v[j] = m[j] << (rng.BITS - 1 - j)
        for j in range(s, rng.BITS):
            vj = v[j - s] ^ (v[j - s] >> s)
            for i in range(1, s):
                if (a >> (s - 1 - i)) & 1:
                    vj ^= v[j - i]
            v[j] = vj
        V[:, d - 1] = v
    return V


def test_directions_match_reference_derivation():
    V = rng._load_directions()
    assert V.dtype == np.uint32 and V.shape == (rng.BITS, 2600)
    np.testing.assert_array_equal(V, _reference_directions())


def test_block_matches_scipy_every_dimension():
    d = rng.max_dimension()
    ref = qmc.Sobol(d, scramble=False).random(1024)
    np.testing.assert_array_equal(rng.sobol_block(1024, d) * 2.0**-32, ref)


def test_malformed_direction_table_is_refused():
    header = "d s a m_i\n"
    good = "2 1 0 1\n3 2 1 1 3\n4 3 1 1 3 1\n"
    s, a, m = rng._parse_table(header + good)
    np.testing.assert_array_equal(s, [1, 2, 3])
    np.testing.assert_array_equal(a, [0, 1, 1])
    np.testing.assert_array_equal(m, [[1, 1, 1], [0, 3, 3], [0, 0, 1]])
    for body, match in (
        ("2 1 0 1\n3 2 1 1 3 7\n", "d=3 does not hold 3 \\+ s tokens"),
        ("2 1 0 1\n3 2 1 1\n4 3 1 1 3 1\n", "d=3 does not hold 3 \\+ s tokens"),
        ("2 1 0 1\n3 2 1\n", "every line needs"),
        ("2 1 0 1\n4 2 1 1 3\n", "no gaps"),
        ("3 1 0 1\n4 2 1 1 3\n", "no gaps"),
        ("2 1 0 1\n3 2 1 1 x\n", "integer|read to its end"),
        ("", "every line needs"),
    ):
        with pytest.raises(ValueError, match=match):
            rng._parse_table(header + body)


def test_digital_net_stratification():
    # every dyadic interval [i/2^k, (i+1)/2^k) holds exactly one point
    for dim in (1, 2, 5, 17, 32):
        for k in range(1, 11):
            states = rng.sobol_block(2**k, dim)
            for j in range(min(dim, 3)):
                cells = (states[:, j] >> (rng.BITS - k)).astype(int)
                assert sorted(cells) == list(range(2**k))


def test_points_distinct_dim1():
    states = rng.sobol_block(2**20, 1)[:, 0]
    assert np.unique(states).size == 2**20


def test_max_dimension_without_deriving_the_table():
    rng._load_directions.cache_clear()
    top = rng.max_dimension()
    assert rng._load_directions.cache_info().currsize == 0  # nothing derived
    assert top == rng._load_directions().shape[1]


def test_unsupported_dimension():
    with pytest.raises(ValueError, match="unsupported dimension"):
        rng.sobol_block(1, rng.max_dimension() + 1, start=0)
    assert rng.max_dimension() >= 2500


def _u32(values):
    return np.array(values, dtype=np.uint32)


def test_apply_shift():
    half, quarter = 2**31, 2**30
    np.testing.assert_array_equal(
        rng.apply_shift(_u32([quarter, half]), _u32([0, 0])), _u32([quarter, half])
    )
    # 0.75 + 0.5 = 0.25 mod 1, exactly, at 32 bits
    np.testing.assert_array_equal(rng.apply_shift(_u32([3 * quarter]), _u32([half])), _u32([quarter]))
    np.testing.assert_array_equal(rng.apply_shift(_u32([2**32 - 1]), _u32([1])), _u32([0]))
    with pytest.raises(ValueError, match="dimension mismatch"):
        rng.apply_shift(_u32([1, 2]), _u32([1]))
    with pytest.raises(TypeError, match="uint32"):
        rng.apply_shift(np.array([0.25]), _u32([0]))


def test_shift_roundtrip():
    gen = np.random.default_rng(3)
    p = gen.integers(0, 2**32, size=(16, 20), dtype=np.uint32)
    s = gen.integers(0, 2**32, size=20, dtype=np.uint32)
    back = rng.apply_shift(rng.apply_shift(p, s), -s)
    assert back.dtype == np.uint32
    np.testing.assert_array_equal(back, p)


def test_shift_stays_in_unit_interval():
    p = rng.sobol_block(64, 8)
    s = rng.shift_vector(0, 0, 8)
    q = rng.apply_shift(p, s)
    assert q.dtype == np.uint32 and q.shape == p.shape
    # the shift is exactly (p + s) mod 1 on the points
    want = (p.astype(np.float64) * 2.0**-32 + s * 2.0**-32) % 1.0
    np.testing.assert_array_equal(q * 2.0**-32, want)
    u = (q + 0.5) * rng.CELL
    assert np.all(u > 0.0) and np.all(u < 1.0)


def test_shift_vector_reproducible_and_distinct():
    a = rng.shift_vector(7, 3, 10)
    b = rng.shift_vector(7, 3, 10)
    assert a.dtype == np.uint32 and a.shape == (10,)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, rng.shift_vector(7, 4, 10))
    assert not np.array_equal(a, rng.shift_vector(8, 3, 10))
    assert np.unique(a).size == a.size


def test_shift_vector_seeds_above_2_63_are_distinct():
    # every 64-bit seed is its own key: none rounds through float64
    top = [rng.shift_vector(s, 1, 8) for s in (2**64 - 1, 2**64 - 2, 2**63 + 5, 2**63 + 6)]
    assert len({t.tobytes() for t in top}) == len(top)
    for bad in (2**64, -1):
        with pytest.raises(ValueError, match="2\\^64"):
            rng.shift_vector(bad, 0, 8)


def test_shift_vector_is_truncated_philox_uniform():
    # the uint32 shift is the float shift Generator(Philox(key)).random()
    # cut to 32 bits, so shifted points move by less than 2^-32 from it
    for seed, batch, dim in ((0, 0, 5), (7, 3, 300), (2**40, 9, 17)):
        u = np.random.Generator(np.random.Philox(key=[seed, batch])).random(dim)
        s = rng.shift_vector(seed, batch, dim)
        np.testing.assert_array_equal(s, np.floor(u * 2.0**32))
        assert np.all(u - s * 2.0**-32 < 2.0**-32)


def test_midpoint_map_extremes():
    # state 0 under shift 0 and state 2^32 - 1 map to the outermost cell
    # midpoints, which pass the domain check with no clamp
    p = _u32([[0, 2**32 - 1]])
    z = rng.shifted_normals(p, _u32([0, 0]))
    want = rng.inv_normal_cdf(np.array([2.0**-33, 1.0 - 2.0**-33]))
    np.testing.assert_array_equal(z[0], want)
    assert np.all(np.isfinite(z)) and z[0, 0] == -z[0, 1]
    # wraparound: state 2^32 - 1 shifted by 1 is state 0
    np.testing.assert_array_equal(rng.shifted_normals(_u32([2**32 - 1]), _u32([1])), want[:1])


def test_shifted_normals_match_reference_formula():
    p = rng.sobol_block(128, 5, start=3)
    out = np.empty(p.shape)  # one buffer, reused for every shift
    for batch in (1, 2):
        s = rng.shift_vector(4, batch, 5)
        u = (((p.astype(np.uint64) + s) % 2**32).astype(np.float64) + 0.5) / 2**32
        np.testing.assert_array_equal(rng.shifted_normals(p, s), rng.inv_normal_cdf(u))
        assert rng.shifted_normals(p, s, out=out) is out
        np.testing.assert_array_equal(out, rng.inv_normal_cdf(u))
    # the inputs are not modified
    np.testing.assert_array_equal(p, rng.sobol_block(128, 5, start=3))


def _Phi(z):
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def test_inv_normal_cdf_against_erf_oracle():
    u = np.linspace(1e-6, 1.0 - 1e-6, 10_000)
    z = rng.inv_normal_cdf(u)
    err = np.abs(np.array([_Phi(v) for v in z]) - u)
    assert err.max() <= 1e-9


def test_inv_normal_cdf_values():
    assert rng.inv_normal_cdf(0.5) == 0.0
    assert abs(rng.inv_normal_cdf(0.975) - 1.959964) < 5e-7
    assert abs(rng.inv_normal_cdf(0.00134990) - (-3.000)) < 1e-4


def test_inv_normal_cdf_monotone():
    u = np.linspace(1e-6, 1.0 - 1e-6, 10_000)
    z = rng.inv_normal_cdf(u)
    assert np.all(np.diff(z) > 0.0)


def test_inv_normal_cdf_domain():
    for bad in (0.0, 1.0, -0.5, 2.0, math.nan):
        with pytest.raises(ValueError, match="out of domain"):
            rng.inv_normal_cdf(bad)
        with pytest.raises(ValueError, match="out of domain"):
            rng.inv_normal_cdf(np.array([0.5, bad, 0.25]))


def test_inv_normal_cdf_in_place():
    u = np.array([0.25, 0.5, 0.975])
    want = rng.inv_normal_cdf(u.copy())
    z = rng.inv_normal_cdf(u, out=u)
    assert z is u
    np.testing.assert_array_equal(u, want)


def test_normal_vector_zero_at_half():
    # a point with all coordinates 0.5 maps to the zero vector
    z = rng.inv_normal_cdf(np.full(6, 0.5))
    np.testing.assert_array_equal(z, np.zeros(6))


def test_normal_block_statistics():
    shift = rng.shift_vector(11, 0, 4)
    z = rng.shifted_normals(rng.sobol_block(2**14, 4), shift)
    x = z[:, 0]
    assert abs(x.mean()) <= 3.0 * x.std() / 2**7
    assert abs(x.var() - 1.0) < 0.1


def test_normal_vector_matches_block():
    shift = rng.shift_vector(2, 5, 3)
    block = rng.shifted_normals(rng.sobol_block(8, 3, start=4), shift)
    for i in range(8):
        point = rng.sobol_block(1, 3, start=4 + i)[0]
        np.testing.assert_array_equal(rng.shifted_normals(point, shift), block[i])
