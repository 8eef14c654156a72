"""Randomly shifted Sobol points mapped to standard-normal vectors.

The point set is a Gray-code ordered Sobol sequence built from a direction
number table vendored with the package (``data/joe-kuo-2600.txt``).  The
table has one line per dimension in the format ``d s a m_1 ... m_s`` where
``d`` is the dimension index, ``s`` the degree of the primitive polynomial,
``a`` its middle coefficients packed into an integer and ``m_i`` the initial
direction integers.  Dimension 1 is the van der Corput sequence in base 2
and carries no table entry.

Random shifts are Cranley-Patterson rotations: a uniform vector added
coordinatewise mod 1.  Shift vectors are derived from a counter-based
generator keyed by ``(seed, batch)`` so batches are reproducible and
independent of execution order.
"""

from __future__ import annotations

import functools
import importlib.resources

import numpy as np
from scipy.special import ndtri

BITS = 32
MAX_INDEX = 1 << BITS

# Uniforms are clamped to [UNIT_EPS, 1 - UNIT_EPS] before normal inversion;
# a shifted point can land exactly on 0.
UNIT_EPS = 2.0**-53


@functools.cache
def _load_directions() -> np.ndarray:
    """Parse the vendored table into a (BITS, max_dim) matrix of direction
    numbers, as 32-bit fixed point values stored in uint64."""
    ref = importlib.resources.files("qmcpricer.data").joinpath("joe-kuo-2600.txt")
    lines = ref.read_text().splitlines()
    entries = []
    for line in lines[1:]:
        parts = line.split()
        if not parts:
            continue
        d, s, a = int(parts[0]), int(parts[1]), int(parts[2])
        m = [int(x) for x in parts[3 : 3 + s]]
        entries.append((d, s, a, m))
    max_dim = entries[-1][0]
    V = np.zeros((BITS, max_dim), dtype=np.uint64)
    for j in range(BITS):
        V[j, 0] = 1 << (BITS - 1 - j)
    for d, s, a, m in entries:
        v = [0] * BITS
        for j in range(min(s, BITS)):
            v[j] = m[j] << (BITS - 1 - j)
        for j in range(s, BITS):
            vj = v[j - s] ^ (v[j - s] >> s)
            for i in range(1, s):
                if (a >> (s - 1 - i)) & 1:
                    vj ^= v[j - i]
            v[j] = vj
        V[:, d - 1] = v
    return V


def _directions(dim: int) -> np.ndarray:
    if dim < 1 or dim > max_dimension():
        raise ValueError(f"unsupported dimension {dim}; table covers 1..{max_dimension()}")
    return _load_directions()[:, :dim]


def max_dimension() -> int:
    """Largest dimension covered by the vendored direction-number table."""
    return _load_directions().shape[1]


def _state_at(index: int, V: np.ndarray) -> np.ndarray:
    """Integer state of the Gray-code generator at a given index."""
    x = np.zeros(V.shape[1], dtype=np.uint64)
    g = index ^ (index >> 1)
    for j in range(BITS):
        if (g >> j) & 1:
            x ^= V[j]
    return x


def sobol_block(count: int, dim: int, start: int = 0) -> np.ndarray:
    """Points ``start .. start+count-1`` of the Sobol sequence.

    Returns a (count, dim) array of floats in [0, 1).  Gray-code ordering:
    consecutive points differ in a single direction number, so the whole
    block is an XOR prefix scan.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if start < 0 or start + count > MAX_INDEX:
        raise ValueError("index out of range")
    V = _directions(dim)
    if count == 0:
        return np.zeros((0, dim))
    rows = np.empty((count, dim), dtype=np.uint64)
    rows[0] = _state_at(start, V)
    if count > 1:
        idx = np.arange(start, start + count - 1, dtype=np.uint64)
        lsb = ~idx & (idx + 1)  # lowest zero bit of idx, as a power of two
        c = np.log2(lsb.astype(np.float64)).astype(np.int64)
        rows[1:] = V[c]
        np.bitwise_xor.accumulate(rows, axis=0, out=rows)
    return rows.astype(np.float64) / float(MAX_INDEX)


def sobol_point(index: int, dim: int) -> np.ndarray:
    """The index-th point of the Sobol sequence in the given dimension."""
    if index < 0 or index >= MAX_INDEX:
        raise ValueError("index out of range")
    V = _directions(dim)
    return _state_at(index, V).astype(np.float64) / float(MAX_INDEX)


def apply_shift(p: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Coordinatewise (p + s) mod 1."""
    p = np.asarray(p, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    if p.shape[-1] != s.shape[-1]:
        raise ValueError(f"dimension mismatch: {p.shape[-1]} vs {s.shape[-1]}")
    return (p + s) % 1.0


def shift_vector(seed: int, batch: int, dim: int) -> np.ndarray:
    """Uniform shift vector derived deterministically from (seed, batch)."""
    if seed < 0 or batch < 0:
        raise ValueError("seed and batch must be nonnegative")
    gen = np.random.Generator(np.random.Philox(key=[seed, batch]))
    return gen.random(dim)


def inv_normal_cdf(u):
    """Standard normal quantile, |Phi(z) - u| <= 1e-9 on (0, 1)."""
    arr = np.asarray(u, dtype=np.float64)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError("out of domain: u must lie in (0, 1)")
    z = ndtri(arr)
    if np.isscalar(u) or arr.ndim == 0:
        return float(z)
    return z


def shifted_normals(points: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Standard normals Phi^-1((p + s) mod 1), the uniforms clamped away
    from 0 and 1, for one point or a block of points."""
    return inv_normal_cdf(np.clip(apply_shift(points, shift), UNIT_EPS, 1.0 - UNIT_EPS))


def normal_vector(index: int, shift: np.ndarray, dim: int) -> np.ndarray:
    """Standard-normal vector for one shifted Sobol point."""
    return shifted_normals(sobol_point(index, dim), shift)


def normal_block(count: int, shift: np.ndarray, start: int = 0) -> np.ndarray:
    """(count, dim) standard-normal matrix from consecutive shifted points."""
    shift = np.asarray(shift, dtype=np.float64)
    return shifted_normals(sobol_block(count, shift.shape[-1], start), shift)
