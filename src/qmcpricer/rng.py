"""Randomly shifted Sobol points mapped to standard-normal vectors.

The point set is a Gray-code ordered Sobol sequence built from a direction
number table vendored with the package (``data/joe-kuo-2600.txt``).  The
table has one line per dimension in the format ``d s a m_1 ... m_s`` where
``d`` is the dimension index, ``s`` the degree of the primitive polynomial,
``a`` its middle coefficients packed into an integer and ``m_i`` the initial
direction integers.  Dimension 1 is the van der Corput sequence in base 2
and carries no table entry.  The table is parsed once per process into
numpy columns, and the direction numbers of all its dimensions are derived
together by one vectorised recurrence, one bit position at a time.

Points are kept as their 32-bit generator states x; the point itself is
x 2^-32 exactly.  A block of consecutive states is built by doubling: in
Gray-code order the states of an aligned run of indices are one base
state XORed with a table that doubles with each direction number (Antonov
& Saleev 1979; Bratley & Fox 1988, Algorithm 659).  Random shifts are
Cranley-Patterson rotations done in the same integer domain: a uniform
uint32 vector added coordinatewise mod 2^32, which is the shift mod 1 at
32-bit resolution.  Shift vectors
are derived from a counter-based generator keyed by ``(seed, batch)`` so
batches are reproducible and independent of execution order.  A shifted
state x stands for the cell [x 2^-32, (x+1) 2^-32) and is mapped to the
cell's midpoint (x + 1/2) 2^-32, which lies strictly inside (0, 1), so
normal inversion needs no clamp.  The inversion is ``scipy.special.ndtri``,
which ``inv_normal_cdf`` imports on its first call.
"""

from __future__ import annotations

import functools
import importlib.resources

import numpy as np

BITS = 32
MAX_INDEX = 1 << BITS
# A state x maps to the uniform (x + 1/2) * CELL; both steps are exact.
CELL = 2.0**-BITS
# The vendored table's dimensions, known without deriving it; a test checks it.
_TABLE_DIMENSIONS = 2600


def _parse_table(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns (s, a, m) of a direction table below its header line: s and a
    as (dims,) int64 arrays, m as the (max s, dims) initial integers padded
    with zeros.  Refuses a line whose token count is not 3 + s and dimension
    numbers that are not 2, 3, ... with no gaps."""
    body = text.partition("\n")[2]
    counts = np.array([len(line.split()) for line in body.splitlines()], dtype=np.int64)
    counts = counts[counts > 0]
    # numpy's C text parser: at a token that is not an integer it raises, or
    # in older numpy it warns and stops there, which the size check refuses
    tokens = np.fromstring(body, dtype=np.int64, sep=" ")
    if tokens.size != counts.sum():
        raise ValueError("direction table: every token must be an integer")
    if counts.size == 0 or counts.min() < 4:
        raise ValueError("direction table: every line needs d, s, a and m_1 .. m_s")
    starts = np.cumsum(counts) - counts
    d, s, a = tokens[starts], tokens[starts + 1], tokens[starts + 2]
    bad = d[counts != 3 + s]
    if bad.size:
        raise ValueError(f"direction table: the line for d={bad[0]} does not hold 3 + s tokens")
    if np.any(d != np.arange(2, 2 + d.size)):
        raise ValueError("direction table: dimensions must run 2, 3, ... with no gaps")
    i = np.arange(s.max())[:, None]
    m = np.where(i < s, tokens[np.minimum(starts + 3 + i, tokens.size - 1)], 0)
    return s, a, m


@functools.cache
def _load_directions() -> np.ndarray:
    """Derive the vendored table's (BITS, max_dim) uint32 matrix of direction
    numbers, as 32-bit fixed point values.  The recurrence
    v_j = v_{j-s} ^ (v_{j-s} >> s) ^ (XOR over i < s of a_i v_{j-i})
    runs for every dimension at once, one bit position j at a time."""
    ref = importlib.resources.files("qmcpricer.data").joinpath("joe-kuo-2600.txt")
    s, a, m = _parse_table(ref.read_text())
    m = m[:BITS]
    shifts = BITS - 1 - np.arange(BITS)
    V = np.zeros((BITS, s.size + 1), dtype=np.uint32)
    V[:, 0] = 1 << shifts  # dimension 1: van der Corput
    W = V[:, 1:]
    W[: len(m)] = m << shifts[: len(m), None]
    # masks[i] is all ones in the columns whose coefficient a_i is 1, 0 < i < s
    k = np.arange(len(m))[:, None]
    a_i = ((a >> np.maximum(s - 1 - k, 0)) & 1 == 1) & (0 < k) & (k < s)
    masks = np.where(a_i, np.uint32(0xFFFFFFFF), np.uint32(0))
    cols, s32 = np.arange(s.size), s.astype(np.uint32)
    for j in range(1, BITS):
        back = W[np.maximum(j - s, 0), cols]
        v = back ^ (back >> s32)
        for i in range(1, min(j, len(m))):
            v ^= W[j - i] & masks[i]
        W[j] = np.where(j >= s, v, W[j])  # rows j < s hold the initial m_j
    return V


def _directions(dim: int) -> np.ndarray:
    if dim < 1 or dim > max_dimension():
        raise ValueError(f"unsupported dimension {dim}; table covers 1..{max_dimension()}")
    return _load_directions()[:, :dim]


def max_dimension() -> int:
    """Largest dimension covered by the vendored direction-number table."""
    return _TABLE_DIMENSIONS


def _state_at(index: int, V: np.ndarray) -> np.ndarray:
    """Integer state of the Gray-code generator at a given index."""
    x = np.zeros(V.shape[1], dtype=np.uint32)
    g = index ^ (index >> 1)
    for j in range(BITS):
        if (g >> j) & 1:
            x ^= V[j]
    return x


def sobol_block(count: int, dim: int, start: int = 0) -> np.ndarray:
    """States of points ``start .. start+count-1`` of the Sobol sequence.

    Returns a (count, dim) uint32 array; the points are ``states * CELL``.
    In Gray-code order, state(a + r) = state(a) ^ state(r) when a is a
    multiple of a power of two above r, and state(2^j + r) = state(r) ^
    V[j] ^ V[j-1] for r < 2^j.  So the range is cut into aligned runs, and
    each run is its first state, then one whole-row XOR per power of two:
    0.08 ms a 128 x 2000 block on one thread, where XORing in one direction
    number per row took 0.64 ms.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if start < 0 or start + count > MAX_INDEX:
        raise ValueError("index out of range")
    V = _directions(dim)
    rows = np.empty((count, dim), dtype=np.uint32)
    steps = V[: max(count - 1, 1).bit_length()].copy()  # steps[j] = V[j] ^ V[j-1]
    steps[1:] ^= V[: len(steps) - 1]
    lo = 0
    while lo < count:
        # start + lo is a multiple of a power of two >= size
        size = min((start + lo) & -(start + lo) or MAX_INDEX, count - lo)
        rows[lo] = _state_at(start + lo, V)
        h = 1
        while h < size:
            w = min(h, size - h)
            np.bitwise_xor(rows[lo : lo + w], steps[h.bit_length() - 1], out=rows[lo + h : lo + h + w])
            h *= 2
        lo += size
    return rows


def _states(a) -> np.ndarray:
    a = np.asarray(a)
    if a.dtype != np.uint32:
        raise TypeError(f"expected uint32 Sobol states, got {a.dtype}")
    return a


def apply_shift(p: np.ndarray, s: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Coordinatewise (p + s) mod 2^32 of uint32 states and shift.

    ``out`` may be float64, which holds every 32-bit sum exactly.
    """
    p, s = _states(p), _states(s)
    if p.shape[-1] != s.shape[-1]:
        raise ValueError(f"dimension mismatch: {p.shape[-1]} vs {s.shape[-1]}")
    return np.add(p, s, out=out, dtype=np.uint32, casting="unsafe")


def shift_vector(seed: int, batch: int, dim: int) -> np.ndarray:
    """Uniform uint32 shift vector derived deterministically from (seed, batch).

    Entry j is the top 32 bits of the j-th 64-bit Philox output, which is
    the uniform double ``Generator(Philox(key)).random(dim)[j]`` truncated
    to 32 bits, so shifted points stay within 2^-32 of that float shift.
    """
    if not (0 <= seed < 2**64 and 0 <= batch < 2**64):
        raise ValueError("seed and batch must lie in [0, 2^64)")
    # as a list, a key word above 2^63 would pass through float64 and collide
    key = np.array([seed, batch], dtype=np.uint64)
    words = np.random.Philox(key=key).random_raw(dim)
    return (words >> np.uint64(BITS)).astype(np.uint32)


def inv_normal_cdf(u, out: np.ndarray | None = None):
    """Standard normal quantile, |Phi(z) - u| <= 1e-9 on (0, 1).

    ``out`` may be ``u`` itself to invert in place.
    """
    # imported on first use: scipy.special is most of a fresh process's
    # import time, which a run that evaluates no quantile does not pay
    from scipy.special import ndtri

    arr = np.asarray(u, dtype=np.float64)
    # written so that NaN, which fails every comparison, is refused too
    if arr.size and not (arr.min() > 0.0 and arr.max() < 1.0):
        raise ValueError("out of domain: u must lie in (0, 1)")
    z = ndtri(arr, out=out)
    if np.isscalar(u) or arr.ndim == 0:
        return float(z)
    return z


def shifted_normals(points: np.ndarray, shift: np.ndarray, out: np.ndarray | None = None):
    """Standard normals Phi^-1(((p + s) mod 2^32 + 1/2) 2^-32) of uint32
    states, for one point or a block of points, in ``out`` (a float64 array
    of the points' shape) or else in one fresh buffer."""
    u = apply_shift(points, shift, out=np.empty(np.shape(points)) if out is None else out)
    u += 0.5
    u *= CELL
    return inv_normal_cdf(u, out=u)

