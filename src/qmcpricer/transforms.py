"""Householder reflections and discrete Brownian path constructions.

A Householder reflection is U = I - 2 v v^T with a unit vector v.  The
reflection appended at offset k (1-based) has v supported on coordinates
k..n, so it fixes the first k-1 coordinates and its dot product with a
vector covers only coordinates k..n.  Every product of reflections, a
single one included, is a ``TransformChain`` held in compact WY form,
whose update writes all n.

Path constructions map a standard-normal vector X to a discrete Brownian
path (B_{T/n}, ..., B_T).  Every construction realizes a matrix A with
A A^T = Sigma, Sigma_jk = (T/n) min(j, k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np


# Entries per row block of a reflection's low-rank update.  Each block's
# product goes to one 2 MiB scratch buffer, which fits a core's L2 cache,
# where a single update would write a full (N, n) temporary.
_UPDATE_BLOCK = 2**18
# Entries per row block of the Brownian bridge's transposed (n + 1, rows)
# grid: 1 MiB, so the grid, the block's normals and a level's temporaries
# stay in a core's 2 MiB L2 cache while the levels gather and scatter rows.
# On a 2-core Xeon, a digital-2000 bb operation took 0.50-0.55 s with 2^16
# to 2^19 and 0.58-0.74 s with 2^15, as the per-level calls grow with the
# block count.
_BRIDGE_BLOCK = 2**17
# Entries per row block of the PCA factor's int64 table indices (512 KiB).
_PCA_BLOCK = 2**16
# PcaConstruction's FFT route (see there): the fewest time steps it is
# taken for, the largest prime factor of n it accepts, and the complex
# entries of its scratch per block of row pairs (1 MiB).  Timed against
# the gemm on one chunk (a 2-core Xeon, one BLAS thread) for n with 2n + 1
# prime: with n's prime factors at most 23 it lost or tied below n = 300
# and won at every n from 468 on, 12.0 against 69.1 ms at n = 2000; with a
# larger one numpy's FFT slows down, and it still lost at n = 1238.
_PCA_FFT_MIN_N = 450
_PCA_FFT_MAX_FACTOR = 23
_PCA_FFT_BLOCK = 2**16
# Coordinates per gemm of a chain's row dots and of PCA's dense product
# (``_blocked_product``).  OpenBLAS splits a longer inner dimension one
# way on one thread and another way on several (past 384 with OpenBLAS
# 0.3.31's SkylakeX kernels), which changed the products' last bits with
# the thread count; block products added in order do not.  At 512 x 2500
# with 25 rows, one BLAS thread, ten blocks took 2.1 ms and one gemm
# 2.3 ms.
_DOT_BLOCK = 256


def _row_dots(X: np.ndarray, v: np.ndarray) -> np.ndarray:
    """X v for (N, n) rows, as numpy's own reduction.

    ``X @ v`` would be a BLAS gemv, which OpenBLAS runs on its own thread
    pool at a fixed cost of milliseconds per call, more than the whole dot
    product of a cache-sized block of rows.  On a 2048 x 250 block (a
    2-core Xeon), with two uncapped OpenBLAS threads, the gemv took 8.0 ms
    against 0.28 ms here; with one thread, 0.15 against 0.25 ms.  So a
    one-reflection chain keeps this dot, while two or more rows take block
    gemms (see ``TransformChain._dots``).
    """
    return np.einsum("ij,j->i", X, v)


def _blocked_product(X: np.ndarray, B: np.ndarray) -> np.ndarray:
    """X B for rows X and a (k, m) B, as one gemm per ``_DOT_BLOCK`` rows
    of B, the block products added in order, so the sum does not depend on
    how OpenBLAS splits a long inner dimension among its threads."""
    b = _DOT_BLOCK
    P = X[..., :b] @ B[:b]
    for lo in range(b, B.shape[0], b):
        P += X[..., lo : lo + b] @ B[lo : lo + b]
    return P


def _subtract_products(dst: np.ndarray, X: np.ndarray, P: np.ndarray, G: np.ndarray) -> None:
    """dst = X - P^T G for (N, n) rows X, an (m, N) P and an (m, n) G.

    ``dst`` may be X.  The product is formed in row blocks, each in one
    scratch buffer of at most ``_UPDATE_BLOCK`` entries, instead of as one
    (N, n) temporary.

    The blocks' products stay on ``einsum``.  As a gemm, LT's 25-row
    update on a 2048 x 250 chunk (one BLAS thread) took 0.9-1.2 instead of
    3.6-5.1 ms, which put LT's total in acceptance criterion 8 below PCA's
    in each of five runs (28.6-47.9 against 30.5-49.4 ms), against the
    ordering pca < lt that the criterion asserts; for a single row the
    gemm was slower, 1.2 against 0.6 ms.
    """
    N, n = X.shape
    rows = max(1, _UPDATE_BLOCK // n)
    scratch = np.empty((min(rows, N), n))
    for i in range(0, N, rows):
        block = scratch[: min(rows, N - i)]
        np.einsum("ki,kj->ij", P[:, i : i + rows], G, out=block)
        np.subtract(X[i : i + rows], block, out=dst[i : i + rows])


def _norm(x: np.ndarray) -> float:
    """Euclidean norm of a vector, finite for every finite x.

    sqrt(x . x) as ``np.linalg.norm`` takes it, except where x . x
    overflows though every entry is finite: then x is scaled by max |x_i|
    first.
    """
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore"):
        sq = x.dot(x)
    if not np.isfinite(sq) and np.all(np.isfinite(x)):
        s = np.abs(x).max()
        return float(s * math.sqrt((x / s).dot(x / s)))
    return float(np.sqrt(sq))


class TransformChain:
    """Ordered product U = U_1 U_2 ... U_m of Householder reflections on R^n.

    The product is held in compact WY form U = I - V^T W V (Schreiber & Van
    Loan 1989): row j of V is the unit vector of the j-th reflection that
    is not the identity, zero before its offset, and W is upper triangular.
    Identity reflections add no row but count in ``len``.  ``apply``
    computes U x as x - (V x)^T W^T V, with W^T V kept from the appends.
    A single reflection is the one-reflection chain.
    """

    def __init__(self, n: int):
        self.n = n
        self.V = np.zeros((0, n))
        self.W = np.zeros((0, 0))
        self._starts: list[int] = []  # 0-based offset of each row of V
        self._update = np.zeros((0, n))  # W^T V
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def append(self, a: np.ndarray, k: int) -> None:
        """Multiply the product on the right by the reflection mapping e_k to
        a/||a||, in O(m n).

        The reflection is I - 2 v v^T, its unit vector v supported on
        coordinates k..n.  Entries of ``a`` before index k must be zero.  A
        zero target, or one along e_k, appends the identity.  The first
        component of v is computed in the cancellation-free form -(sum of
        squared tail)/(1 + a_k) whenever a_k > 0, which keeps the
        construction stable while preserving the mapping e_k -> a/||a||
        exactly.
        """
        a = np.asarray(a, dtype=np.float64)
        if a.shape != (self.n,):
            raise ValueError(f"target has shape {a.shape}, expected ({self.n},)")
        if k < 1 or k > self.n:
            raise ValueError("k out of range")
        if np.any(a[: k - 1] != 0.0):
            raise ValueError("target not in subspace: entries before index k must be zero")
        self._count += 1
        sub = a[k - 1 :]
        norm = _norm(sub)
        if norm == 0.0:
            return
        v = sub / norm  # a/||a|| over k..n, until its first entry is replaced
        a_k, tail2 = v[0], float(v[1:] @ v[1:])
        v[0] = -tail2 / (1.0 + a_k) if a_k > 0.0 else a_k - 1.0
        nv = float(v @ v)
        if not nv > 0.0:  # a along e_k makes v zero
            return
        # normalized over k..n, then padded: padding first changes the rounding
        v = np.concatenate([np.zeros(k - 1), v / math.sqrt(nv)])
        m = len(self._starts)
        # (I - V^T W V)(I - 2 v v^T) = I - V'^T W' V', V' = [V; v^T] and
        # W' = [[W, -2 W V v], [0, 2]]
        W = np.zeros((m + 1, m + 1))
        W[:m, :m] = self.W
        W[:m, m] = -2.0 * (self.W @ (self.V @ v))
        W[m, m] = 2.0
        self.V, self.W = np.vstack([self.V, v]), W
        row = np.einsum("k,kj->j", W[:, m], self.V)  # not a BLAS gemv, see _row_dots
        self._update = np.vstack([self._update, row])
        self._starts.append(k - 1)

    def _dots(self, X: np.ndarray) -> np.ndarray:
        """(m, N) dots of rows X with the rows of V.

        Two or more rows take one gemm X V^T per ``_DOT_BLOCK`` coordinates,
        returned transposed: each row of V is zero before its offset, so
        this is the offset sum up to rounding.  On a 2048 x 250 chunk, one
        BLAS thread, LT's 25 dots took 0.8-1.1 ms against 4.8-5.2 ms as one
        ``einsum`` each.  A single row keeps its dot from its offset on, as
        ``_row_dots``.
        """
        if len(self._starts) == 1:
            lo = self._starts[0]
            return _row_dots(X[:, lo:], self.V[0, lo:])[None]
        return _blocked_product(X, self.V.T).T

    def apply(self, x: np.ndarray) -> np.ndarray:
        """U x for a single vector or a (N, n) batch of row vectors, in a new array."""
        x = np.asarray(x, dtype=np.float64)
        X = x.reshape(-1, x.shape[-1])
        if X.shape[1] != self.n:
            raise ValueError("dimension mismatch")
        if not self._starts:
            return x.copy()
        out = np.empty(X.shape)
        _subtract_products(out, X, self._dots(X), self._update)
        return out.reshape(x.shape)


def householder_from_target(a: np.ndarray, k: int = 1) -> TransformChain:
    """The one-reflection chain mapping e_k to a/||a||, as ``TransformChain.append``."""
    a = np.asarray(a, dtype=np.float64)
    chain = TransformChain(a.size)
    chain.append(a, k)
    return chain


def _reflections(vectors: Iterable[np.ndarray], n: int, limit: int | None = None) -> TransformChain:
    """Chain U_1 U_2 ... on R^n of at most ``limit`` reflections built from the vectors.

    Each vector w is mapped to U^T w = w - V^T W^T V w under the chain
    built so far, its leading k-1 entries are zeroed, and U_k, with k =
    reflections so far + 1, maps e_k to the remainder, so the leading
    columns of the product span the vectors seen so far: column k is the
    normalized projection of w onto the complement of the earlier columns.
    A vector whose remainder is at most 1e-12 ||w|| already lies in that
    span and adds no reflection.  The vectors are drawn lazily, not modified.
    """
    chain = TransformChain(n)
    for w in vectors:
        if len(chain) == limit:
            break
        rem = np.array(w, dtype=np.float64)
        if chain._starts:
            rem -= chain.V.T @ (chain.W.T @ chain._dots(rem[None])[:, 0])
        rem[: len(chain)] = 0.0
        if _norm(rem) <= 1e-12 * _norm(w):
            continue
        chain.append(rem, len(chain) + 1)
    return chain


def complete_first_k_columns(columns: list[np.ndarray]) -> TransformChain:
    """Chain U_1 ... U_k whose product has the given orthonormal vectors as
    its first k columns.

    By orthonormality the l-th column, expressed in the frame of the
    previous reflections, has zeros before index l up to rounding, so U_l
    has offset l.  At least one column is needed: it gives the dimension.
    """
    cols = [np.asarray(c, dtype=np.float64) for c in columns]
    if not cols:
        raise ValueError("no columns: the chain's dimension is unknown")
    # more than n columns in R^n cannot pass this check either
    G = np.array([[ci @ cj for cj in cols] for ci in cols])
    if np.abs(G - np.eye(len(cols))).max() > 1e-10:
        raise ValueError("columns not orthonormal")
    return _reflections(cols, cols[0].size)


# ---------------------------------------------------------------------------
# Path constructions


class ForwardConstruction:
    """Cumulative sums of sqrt(T/n)-scaled normals."""

    def __init__(self, n: int, T: float):
        self.n = n
        self._scale = math.sqrt(T / n)

    def apply(self, x: np.ndarray) -> np.ndarray:
        out = np.cumsum(np.asarray(x, dtype=np.float64), axis=-1)
        out *= self._scale
        return out


class BrownianBridgeConstruction:
    """Bisection bridge filling, midpoints at floor((l+r)/2).

    The first normal sets B_T; each further normal fills the midpoint of
    the widest remaining interval (breadth-first), with exact conditional
    mean and variance.  Works for any n, not just powers of two.

    The breadth-first schedule splits into about log2(n) levels, and every
    midpoint of a level depends only on grid points of earlier levels, so
    a level is filled at once: one gather of its left endpoints, one of its
    right endpoints and one scatter into its midpoints, per element
    wl B_l + wr B_r + sd x in that order.
    """

    def __init__(self, n: int, T: float):
        self.n = n
        dt = T / n
        # schedule over grid indices 0..n, value at 0 pinned to zero
        mid, left, right, bounds = [], [], [], []
        level = [(0, n)] if n >= 2 else []
        while level:
            bounds.append(len(mid))
            halves = []
            for l, r in level:
                m = (l + r) // 2
                mid.append(m)
                left.append(l)
                right.append(r)
                halves += [(l, m), (m, r)]
            level = [(l, r) for l, r in halves if r - l >= 2]
        self._mid = np.array(mid, dtype=np.intp)
        self._left = np.array(left, dtype=np.intp)
        self._right = np.array(right, dtype=np.intp)
        span = (self._right - self._left).astype(np.float64)
        off = (self._mid - self._left).astype(np.float64)
        self._wl = (span - off) / span
        self._wr = off / span
        self._sd = np.sqrt(off * (span - off) / span * dt)
        self._sd_final = math.sqrt(T)
        # per level: midpoints, endpoints, weight columns, normals' rows
        self._levels = [
            (
                self._mid[s:e],
                self._left[s:e],
                self._right[s:e],
                self._wl[s:e, None],
                self._wr[s:e, None],
                self._sd[s:e, None],
                slice(s + 1, e + 1),
            )
            for s, e in zip(bounds, bounds[1:] + [len(mid)])
        ]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Bridge paths for one vector or (N, n) rows.

        Rows are bridged in blocks of at most ``_BRIDGE_BLOCK`` grid
        entries, each held transposed, (n + 1, rows), in one scratch grid.
        """
        x = np.asarray(x, dtype=np.float64)
        X = x.reshape(-1, self.n)
        N, n = X.shape
        out = np.empty((N, n))
        rows = max(1, min(N, _BRIDGE_BLOCK // (n + 1)))
        grid = np.empty((n + 1, rows))
        grid[0] = 0.0
        for i in range(0, N, rows):
            Xt = X[i : i + rows].T
            B = grid[:, : Xt.shape[1]]
            np.multiply(Xt[0], self._sd_final, out=B[n])
            for mid, left, right, wl, wr, sd, normals in self._levels:
                t = wl * B[left]
                t += wr * B[right]
                t += sd * Xt[normals]
                B[mid] = t
            out[i : i + rows] = B[1:].T
        return out.reshape(x.shape)


def _pca_eigenvalues(n: int, T: float) -> np.ndarray:
    """lambda_k = (T/n) / (4 sin^2((2k-1) pi / (2(2n+1)))), k = 1..n, decreasing."""
    k = np.arange(1, n + 1)
    return (T / n) / (4.0 * np.sin((2 * k - 1) * np.pi / (2 * (2 * n + 1))) ** 2)


def pca_factors(n: int, T: float, map=map) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigenpairs of Sigma_jk = (T/n) min(j,k).

    lambda_k = (T/n) / (4 sin^2((2k-1) pi / (2(2n+1)))) with eigenvectors
    v_jk = (2 / sqrt(2n+1)) sin(j(2k-1) pi / (2n+1)), eigenvalues in
    decreasing order.  The sine has period 2(2n+1) in the integer j(2k-1),
    so the n^2 entries are looked up in a table of one period.  That avoids
    the large arguments whose rounding put the direct form up to 3.6e-14
    off at n = 2000; the table is within 1e-16 of the exact sines.

    The lookup runs in row blocks of at most ``_PCA_BLOCK`` entries into
    the one (n, n) result, so no n^2 index array is built.  Row lo + 1 + i
    of a block has the phases of row lo + 1 plus i(2k-1), both reduced
    mod 2(2n+1); the second is one table for every block, so a block's
    phases take an add and one conditional subtraction instead of a
    remainder.  ``map`` runs the blocks, and each writes only its own rows.
    The harness passes its chunk pool's ordered map, which runs them on
    the worker threads; the result is bit-identical to the builtin map's,
    the default.
    """
    period = 2 * (2 * n + 1)
    table = (2.0 / math.sqrt(2 * n + 1)) * np.sin(np.arange(period) * np.pi / (2 * n + 1))
    odd = np.arange(1, 2 * n, 2, dtype=np.uint64)
    rows = max(1, _PCA_BLOCK // n)
    steps = np.outer(np.arange(min(rows, n), dtype=np.uint64), odd) % period
    vecs = np.empty((n, n))

    def block(lo: int) -> None:
        phase = steps[: n - lo] + (lo + 1) * odd % period  # below 2 period
        # unsigned, t - period wraps above t unless t >= period
        np.minimum(phase, phase - period, out=phase)
        # the phases are in range; the default mode="raise" would take
        # into a scratch array and copy that to out
        np.take(table, phase.view(np.int64), out=vecs[lo : lo + rows], mode="clip")

    list(map(block, range(0, n, rows)))
    return _pca_eigenvalues(n, T), vecs


def _prime_factors(m: int) -> list[int]:
    """The distinct prime factors of m >= 1, ascending, by trial division."""
    factors, p = [], 2
    while p * p <= m:
        if m % p == 0:
            factors.append(p)
            while m % p == 0:
                m //= p
        p += 1
    return factors + [m] if m > 1 else factors


class PcaConstruction:
    """Paths A x with A = V diag(sqrt(lambda)), the closed-form eigenpairs
    of ``pca_factors``.

    One of two routes computes A x, chosen from n alone:

    * **FFT (Rader 1968).**  Taken when M = 2n + 1 is prime, n is at least
      ``_PCA_FFT_MIN_N`` and n has no prime factor above
      ``_PCA_FFT_MAX_FACTOR``.  It costs O(n log n) a row, and set-up
      builds no (n, n) array.  As 2(n + 1) = 1 mod M,
      sin(j(2k-1) pi / M) = (-1)^j sin(2 pi j r_k / M) with
      r_k = (2k-1)(n+1) mod M.  A primitive root g of M has g^n = -1 mod
      M, so j = sigma_j g^(d_j) and r_k = eps_k g^(-c_k) with signs sigma,
      eps and exponents c, d in [0, n), each a permutation.  Then
      sin(2 pi j r_k / M) = sigma_j eps_k s(d_j - c_k), with
      s(e) = sin(2 pi g^e / M) and s(e - n) = -s(e): one negacyclic
      convolution of length n.  It runs as a cyclic one of the sequences
      twisted by w^c, w = e^(i pi / n), by FFT against the precomputed
      spectrum of w^e s(e).  sqrt(lambda), 2 / sqrt(M), the input
      permutation, eps and the twist fold into one gather with a complex
      scale before the FFT; sigma, (-1)^j and the twist back into one
      complex scale and one gather after it.  The convolution is linear
      over the complex numbers and s is real, so two rows ride in one
      complex FFT as its real and imaginary parts, pairs of rows 2i and
      2i + 1 of each call, in blocks of ``_PCA_FFT_BLOCK`` complex entries
      of reused scratch.  A row's rounding depends on its partner's, and
      the harness's chunks do not depend on the thread count, so neither
      do the estimates.  It agrees with the dense product to 3.5e-15
      relative to the largest entry at n = 2000.
    * **Dense.**  Otherwise the (n, n) factor is built by ``pca_factors``,
      whose row blocks ``map`` runs, and each call is one gemm per
      ``_DOT_BLOCK`` coordinates (``_blocked_product``): one at n <= 256.
    """

    def __init__(self, n: int, T: float, map=map):
        self.n = n
        self._A = None
        if (
            n >= _PCA_FFT_MIN_N
            and _prime_factors(2 * n + 1) == [2 * n + 1]
            and max(_prime_factors(n), default=1) <= _PCA_FFT_MAX_FACTOR
        ):
            self._fft_tables(T)
        else:
            lam, self._A = pca_factors(n, T, map)
            self._A *= np.sqrt(lam)

    def _fft_tables(self, T: float) -> None:
        """The FFT route's scales, permutations, spectrum and block indices."""
        n, M = self.n, 2 * self.n + 1
        qs = _prime_factors(M - 1)
        g = next(g for g in range(2, M) if all(pow(g, (M - 1) // q, M) != 1 for q in qs))
        power = np.empty(2 * n, dtype=np.intp)  # g^e mod M
        p = 1
        for e in range(2 * n):
            power[e], p = p, p * g % M
        log = np.empty(M, dtype=np.intp)
        log[power] = np.arange(2 * n)
        k = np.arange(1, n + 1)
        e = -log[(2 * k - 1) * (n + 1) % M] % (2 * n)  # r_k = g^(-e)
        c, eps = e % n, np.where(e < n, 1.0, -1.0)
        d = log[k]
        self._dpos, sigma = d % n, np.where(d < n, 1.0, -1.0)
        twist = np.exp(1j * np.pi * np.arange(n) / n)
        self._perm = np.empty(n, dtype=np.intp)
        self._perm[c] = k - 1
        self._scale = np.empty(n, dtype=complex)
        self._scale[c] = (2.0 / math.sqrt(M)) * np.sqrt(_pca_eigenvalues(n, T)) * eps
        self._scale *= twist
        # g^e as a residue in (-M/2, M/2), so sin's argument lies in (-pi, pi)
        r = power[:n] - M * (power[:n] > n)
        # 1/n here, as the inverse FFT runs with norm="forward"
        self._spectrum = np.fft.fft(np.sin(2.0 * np.pi * r / M) * twist) / n
        self._out_scale = np.empty(n, dtype=complex)
        self._out_scale[self._dpos] = np.where(k % 2 == 0, 1.0, -1.0) * sigma
        self._out_scale /= twist
        # flat indices for a block of row pairs: from its rows into the
        # interleaved (pair, c, real/imaginary) scratch, and back
        self._pairs = max(1, _PCA_FFT_BLOCK // n)
        pair = 2 * n * np.arange(self._pairs)[:, None, None]
        self._gather = (pair + np.array([0, n])[:, None] + self._perm).transpose(0, 2, 1).ravel()
        self._scatter = (pair + np.array([0, 1])[:, None] + 2 * self._dpos).ravel()

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if self._A is not None:
            return _blocked_product(x, self._A.T)
        X = np.ascontiguousarray(x.reshape(-1, self.n))
        N, n = X.shape
        out = np.empty((N, n))
        pairs = min(self._pairs, (N + 1) // 2)
        buf = np.empty((pairs, n), dtype=complex)
        flat = buf.view(np.float64).reshape(-1)
        for i in range(0, N, 2 * pairs):
            rows = min(2 * pairs, N - i)
            full, b = rows // 2, buf[: (rows + 1) // 2]
            size = 2 * n * full
            # the indices are in range; mode="clip" takes straight into out
            src = X[i : i + 2 * full].reshape(-1)
            np.take(src, self._gather[:size], out=flat[:size], mode="clip")
            if rows % 2:  # the last row rides alone, with a zero partner
                b[-1] = X[i + rows - 1, self._perm]
            b *= self._scale
            np.fft.fft(b, axis=1, out=b)
            b *= self._spectrum
            np.fft.ifft(b, axis=1, out=b, norm="forward")
            b *= self._out_scale
            np.take(flat, self._scatter[:size], out=out[i : i + 2 * full].reshape(-1), mode="clip")
            if rows % 2:
                out[i + rows - 1] = b[-1, self._dpos].real
        return out.reshape(x.shape)


class ChainConstruction:
    """A base construction C applied to reflected normals, C U x, in one pass.

    With the chain's compact WY factors U = I - V^T W V, C U x = C x -
    (C V^T) W V x: C V^T is computed once, by the base, and each row costs
    one base application, the chain's m row dots and one rank-m update of
    the base's output, instead of m passes over the normals before the
    base runs.
    """

    def __init__(self, chain: TransformChain, base):
        self.chain = chain
        self.base = base
        self.n = base.n
        # rows of (C V^T W)^T; base.apply maps rows x^T to (C x)^T.  numpy's
        # own sum, not a gemm, whose last bits followed the BLAS thread count
        self._update = (
            np.einsum("ki,kj->ij", chain.W, base.apply(chain.V)) if chain._starts else None
        )

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        X = x.reshape(-1, self.n)
        Y = self.base.apply(X)
        if self._update is not None:
            _subtract_products(Y, Y, self.chain._dots(X), self._update)
        return Y.reshape(x.shape)


def construction_matrix(construction) -> np.ndarray:
    """Materialize the matrix A with columns A e_j, for validation."""
    return construction.apply(np.eye(construction.n)).T


# ---------------------------------------------------------------------------
# Basket (Kronecker) constructions


@dataclass
class BasketCovSpec:
    """Correlated multi-asset Brownian covariance R (x) Sigma.

    ``vols`` are the per-asset volatilities sigma_i; ``corr`` is the m x m
    correlation matrix.  R_ij = corr_ij sigma_i sigma_j carries the vol
    scaling, so the basket constructions produce the vol-scaled Brownian
    values sigma_i B^(i) directly, ordered asset-major: entry (i-1)n + k
    is asset i at time step k.
    """

    m: int
    n: int
    T: float
    vols: np.ndarray
    corr: np.ndarray

    def __post_init__(self):
        self.vols = np.asarray(self.vols, dtype=np.float64)
        self.corr = np.asarray(self.corr, dtype=np.float64)
        if self.vols.shape != (self.m,) or self.corr.shape != (self.m, self.m):
            raise ValueError("vols/corr shape mismatch")
        if np.any(self.vols < 0.0):
            raise ValueError("vols must be nonnegative")
        if np.abs(self.corr - self.corr.T).max() > 1e-12 * max(1.0, np.abs(self.corr).max()):
            raise ValueError("corr must be symmetric")

    @property
    def dim(self) -> int:
        return self.m * self.n

    def R(self) -> np.ndarray:
        return self.corr * np.outer(self.vols, self.vols)


def cholesky_psd(M: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor, tolerating tiny negative pivots from rounding."""
    m = M.shape[0]
    L = np.zeros_like(M, dtype=np.float64)
    for i in range(m):
        for j in range(i + 1):
            s = M[i, j] - L[i, :j] @ L[j, :j]
            if i == j:
                if s < -1e-12 * max(1.0, abs(M[i, i])):
                    raise ValueError("matrix not positive semidefinite")
                L[i, i] = math.sqrt(max(s, 0.0))
            else:
                L[i, j] = s / L[j, j] if L[j, j] > 0.0 else 0.0
    return L


def eigh_factor(M: np.ndarray) -> np.ndarray:
    """V D^(1/2) with V D V^T = M, columns by decreasing eigenvalue.

    Each column's largest entry is made positive: LAPACK leaves the signs
    open, and the sign decides which Sobol coordinate drives which factor.
    That fixes the factor only for distinct eigenvalues.  A repeated one
    (equal vols under a constant correlation) leaves the basis of its
    eigenspace to LAPACK, so basket PCA estimates may then differ between
    LAPACK builds; K1 K1^T = M holds either way.
    """
    vals, vecs = np.linalg.eigh(M)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    vecs = vecs * np.sign(vecs[np.abs(vecs).argmax(axis=0), np.arange(vecs.shape[1])])
    if vals[-1] < -1e-10 * max(1.0, vals[0]):
        raise ValueError("matrix not positive semidefinite")
    return vecs * np.sqrt(np.clip(vals, 0.0, None))


class KroneckerConstruction:
    """C = K1 (x) K2 applied without materializing the product.

    K1 is an m x m asset factor with K1 K1^T = R; K2 is a single-asset time
    construction (forward, bridge or PCA) applied to each asset's n normals.
    Input and output are asset-major, and ``n`` is the input dimension m n.
    A single asset (m = 1) scales the time construction's output in place:
    on a 2-core Xeon, the stacked 1 x 1 matmul took 1.1 ms on a 2048 x 250
    chunk and 2.3 ms on a 512 x 2000 one, the in-place multiply 0.2 and
    0.5 ms.
    """

    def __init__(self, K1: np.ndarray, time_construction):
        self.K1 = np.asarray(K1, dtype=np.float64)
        self.time = time_construction
        self.n = self.K1.shape[0] * time_construction.n

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        m, n = self.K1.shape[0], self.time.n
        Y = self.time.apply(x.reshape(-1, n)).reshape(x.shape[:-1] + (m, n))
        if m == 1:  # every time construction returns a new array
            Y *= self.K1[0, 0]
            return Y.reshape(x.shape)
        return np.matmul(self.K1, Y).reshape(x.shape)
