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


def _row_dots(X: np.ndarray, v: np.ndarray) -> np.ndarray:
    """X v for (N, n) rows, as numpy's own reduction.

    ``X @ v`` would be a BLAS gemv, which OpenBLAS runs on its own thread
    pool at a fixed cost of milliseconds per call, more than the whole dot
    product of a cache-sized block of rows.
    """
    return np.einsum("ij,j->i", X, v)


def _subtract_products(dst: np.ndarray, X: np.ndarray, P: np.ndarray, G: np.ndarray) -> None:
    """dst = X - P^T G for (N, n) rows X, an (m, N) P and an (m, n) G.

    ``dst`` may be X.  The product is formed in row blocks, each in one
    scratch buffer of at most ``_UPDATE_BLOCK`` entries, instead of as one
    (N, n) temporary.
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
        """(m, N) dots of rows X with the rows of V, from each one's offset on."""
        return np.array([_row_dots(X[:, lo:], v[lo:]) for lo, v in zip(self._starts, self.V)])

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


def pca_factors(n: int, T: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigenpairs of Sigma_jk = (T/n) min(j,k).

    lambda_k = (T/n) / (4 sin^2((2k-1) pi / (2(2n+1)))) with eigenvectors
    v_jk = (2 / sqrt(2n+1)) sin(j(2k-1) pi / (2n+1)), eigenvalues in
    decreasing order.  The sine has period 2(2n+1) in the integer j(2k-1),
    so the n^2 entries are looked up in a table of one period.  That avoids
    the large arguments whose rounding put the direct form up to 3.6e-14
    off at n = 2000; the table is within 1e-16 of the exact sines.  The
    lookup runs in row blocks into the one (n, n) result, so no n^2 index
    array is built.
    """
    k = np.arange(1, n + 1)
    lam = (T / n) / (4.0 * np.sin((2 * k - 1) * np.pi / (2 * (2 * n + 1))) ** 2)
    period = 2 * (2 * n + 1)
    table = (2.0 / math.sqrt(2 * n + 1)) * np.sin(np.arange(period) * np.pi / (2 * n + 1))
    vecs = np.empty((n, n))
    rows = max(1, _PCA_BLOCK // n)
    for lo in range(0, n, rows):
        phase = np.outer(k[lo : lo + rows], 2 * k - 1)
        phase %= period
        np.take(table, phase, out=vecs[lo : lo + rows])
    return lam, vecs


class PcaConstruction:
    """Dense V D product with the closed-form eigendecomposition of Sigma."""

    def __init__(self, n: int, T: float):
        self.n = n
        lam, self._A = pca_factors(n, T)
        self._A *= np.sqrt(lam)

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return x @ self._A.T


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
        # rows of (C V^T W)^T; base.apply maps rows x^T to (C x)^T
        self._update = chain.W.T @ base.apply(chain.V) if chain._starts else None

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
