"""Householder reflections and discrete Brownian path constructions.

A Householder reflection is U = I - 2 v v^T / v^T v.  Stored with an
``offset`` k (1-based), the defining vector is supported on coordinates
k..n, so the reflection fixes the first k-1 coordinates and applies in
O(n - k) operations.

Path constructions map a standard-normal vector X to a discrete Brownian
path (B_{T/n}, ..., B_T).  Every construction realizes a matrix A with
A A^T = Sigma, Sigma_jk = (T/n) min(j, k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np


class HouseholderReflection:
    """Reflection I - 2 v v^T / (v^T v) supported on coordinates offset..n.

    ``v`` holds only the supported components; ``offset`` is the 1-based
    index of the first supported coordinate.  A zero (or empty) ``v`` is
    the identity.
    """

    __slots__ = ("v", "offset")

    def __init__(self, v: np.ndarray, offset: int = 1):
        if offset < 1:
            raise ValueError("offset must be >= 1")
        v = np.asarray(v, dtype=np.float64)
        nv = float(v @ v)
        # normalize once so application needs no division
        self.v = v / math.sqrt(nv) if nv > 0.0 else np.zeros(0)
        self.offset = offset

    @property
    def is_identity(self) -> bool:
        return self.v.size == 0

    def apply(self, x: np.ndarray) -> np.ndarray:
        """U x for a single vector or a (N, n) batch of row vectors."""
        return _reflect_rows(x, [self])

    def _apply_inplace(self, X: np.ndarray) -> None:
        """Reflect the rows of a writable (N, n) float64 array in place."""
        if self.is_identity:
            return
        lo = self.offset - 1
        if X.shape[1] != lo + self.v.size:
            raise ValueError("dimension mismatch")
        sub = X[:, lo : lo + self.v.size]
        coef = sub @ self.v
        coef *= 2.0
        sub -= coef[:, None] * self.v


def _reflect_rows(x: np.ndarray, reflections) -> np.ndarray:
    """A copy of x, one vector or (N, n) rows, with the reflections applied in order."""
    out = np.asarray(x, dtype=np.float64).copy()
    X = out[None, :] if out.ndim == 1 else out
    for refl in reflections:
        refl._apply_inplace(X)
    return out


def householder_from_target(a: np.ndarray, k: int = 1) -> HouseholderReflection:
    """Reflection mapping e_k to a/||a||, supported on coordinates k..n.

    Entries of ``a`` before index k must be zero.  ``||a|| = 0`` yields the
    identity.  The first component of the defining vector is computed in
    the cancellation-free form -(sum of squared tail)/(1 + a_k) whenever
    a_k > 0, which keeps the construction stable while preserving the
    mapping e_k -> a/||a|| exactly.
    """
    a = np.asarray(a, dtype=np.float64)
    if k < 1 or k > a.size:
        raise ValueError("k out of range")
    if np.any(a[: k - 1] != 0.0):
        raise ValueError("target not in subspace: entries before index k must be zero")
    sub = a[k - 1 :]
    norm = float(np.linalg.norm(sub))
    if norm == 0.0:
        return HouseholderReflection(np.zeros(0), offset=k)
    ahat = sub / norm
    v = ahat.copy()
    tail2 = float(ahat[1:] @ ahat[1:])
    if ahat[0] > 0.0:
        v[0] = -tail2 / (1.0 + ahat[0])
    else:
        v[0] = ahat[0] - 1.0
    return HouseholderReflection(v, offset=k)


class TransformChain:
    """Ordered product U = U_1 U_2 ... U_m of Householder reflections.

    ``apply`` computes U x (rightmost factor first), ``apply_t`` computes
    U^T x.  Individual reflections are symmetric, so only the order flips.
    """

    def __init__(self, reflections: list[HouseholderReflection] | None = None):
        self.reflections = list(reflections) if reflections else []

    def __len__(self) -> int:
        return len(self.reflections)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return _reflect_rows(x, reversed(self.reflections))

    def apply_t(self, x: np.ndarray) -> np.ndarray:
        return _reflect_rows(x, self.reflections)

    def materialize(self, n: int) -> np.ndarray:
        """Dense n x n matrix of the product, for validation at small n."""
        return self.apply(np.eye(n)).T


def _reflection_sequence(vectors: Iterable[np.ndarray]) -> TransformChain:
    """Reflections U_1 ... U_k built from the given vectors in order.

    Each vector w is reflected through the reflections built so far (which
    gives U^T w for their product U), its leading k-1 entries are zeroed,
    and U_k, with k = reflections so far + 1, maps e_k to the remainder,
    so the leading columns of the product span the vectors seen so far.
    A vector whose remainder is at most 1e-12 ||w|| already lies in the
    span of the earlier columns and adds no reflection.  The inputs are
    not modified.
    """
    reflections: list[HouseholderReflection] = []
    for w in vectors:
        rem = np.array(w, dtype=np.float64)
        for refl in reflections:
            rem = refl.apply(rem)
        k = len(reflections) + 1
        rem[: k - 1] = 0.0
        if np.linalg.norm(rem) <= 1e-12 * np.linalg.norm(w):
            continue
        reflections.append(householder_from_target(rem, k=k))
    return TransformChain(reflections)


def complete_first_k_columns(columns: list[np.ndarray]) -> TransformChain:
    """Chain U_1 ... U_k whose product has the given orthonormal vectors as
    its first k columns.

    By orthonormality the l-th column, expressed in the frame of the
    previous reflections, has zeros before index l up to rounding, so U_l
    has offset l.
    """
    cols = [np.asarray(c, dtype=np.float64) for c in columns]
    if not cols:
        return TransformChain()
    # more than n columns in R^n cannot pass this check either
    G = np.array([[ci @ cj for cj in cols] for ci in cols])
    if np.abs(G - np.eye(len(cols))).max() > 1e-10:
        raise ValueError("columns not orthonormal")
    return _reflection_sequence(cols)


# ---------------------------------------------------------------------------
# Path constructions


class ForwardConstruction:
    """Cumulative sums of sqrt(T/n)-scaled normals."""

    def __init__(self, n: int, T: float):
        self.n = n
        self.T = T
        self._scale = math.sqrt(T / n)

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return np.cumsum(x, axis=-1) * self._scale


class BrownianBridgeConstruction:
    """Bisection bridge filling, midpoints at floor((l+r)/2).

    The first normal sets B_T; each further normal fills the midpoint of
    the widest remaining interval (breadth-first), with exact conditional
    mean and variance.  Works for any n, not just powers of two.
    """

    def __init__(self, n: int, T: float):
        self.n = n
        self.T = T
        dt = T / n
        # schedule over grid indices 0..n, value at 0 pinned to zero
        mid, left, right = [], [], []
        queue = [(0, n)]
        while queue:
            l, r = queue.pop(0)
            if r - l < 2:
                continue
            m = (l + r) // 2
            mid.append(m)
            left.append(l)
            right.append(r)
            queue.append((l, m))
            queue.append((m, r))
        self._mid = np.array(mid, dtype=np.intp)
        self._left = np.array(left, dtype=np.intp)
        self._right = np.array(right, dtype=np.intp)
        span = (self._right - self._left).astype(np.float64)
        off = (self._mid - self._left).astype(np.float64)
        self._wl = (span - off) / span
        self._wr = off / span
        self._sd = np.sqrt(off * (span - off) / span * dt)
        self._sd_final = math.sqrt(T)

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        X = x.reshape(-1, self.n)
        B = np.zeros((X.shape[0], self.n + 1))
        B[:, self.n] = self._sd_final * X[:, 0]
        for j in range(self._mid.size):
            m, l, r = self._mid[j], self._left[j], self._right[j]
            B[:, m] = self._wl[j] * B[:, l] + self._wr[j] * B[:, r] + self._sd[j] * X[:, j + 1]
        return B[:, 1:].reshape(x.shape)


def pca_factors(n: int, T: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigenpairs of Sigma_jk = (T/n) min(j,k).

    lambda_k = (T/n) / (4 sin^2((2k-1) pi / (2(2n+1)))) with sine-shaped
    eigenvectors, eigenvalues in decreasing order.
    """
    k = np.arange(1, n + 1)
    lam = (T / n) / (4.0 * np.sin((2 * k - 1) * np.pi / (2 * (2 * n + 1))) ** 2)
    j = np.arange(1, n + 1)
    vecs = (2.0 / math.sqrt(2 * n + 1)) * np.sin(np.outer(j, 2 * k - 1) * np.pi / (2 * n + 1))
    return lam, vecs


class PcaConstruction:
    """Dense V D product with the closed-form eigendecomposition of Sigma."""

    def __init__(self, n: int, T: float):
        self.n = n
        self.T = T
        lam, vecs = pca_factors(n, T)
        self._A = vecs * np.sqrt(lam)

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return x @ self._A.T


class ChainConstruction:
    """A base construction applied to a transformed normal vector: A U x."""

    def __init__(self, chain: TransformChain, base):
        self.chain = chain
        self.base = base
        self.n = base.n
        self.T = base.T

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.base.apply(self.chain.apply(x))


_METHODS = {
    "forward": ForwardConstruction,
    "brownian_bridge": BrownianBridgeConstruction,
    "pca": PcaConstruction,
}


def path_construction(method: str, n: int, T: float):
    """Factory for the single-asset constructions."""
    if method not in _METHODS:
        raise ValueError(f"unknown construction method {method!r}")
    return _METHODS[method](n, T)


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
    """

    def __init__(self, K1: np.ndarray, time_construction):
        self.K1 = np.asarray(K1, dtype=np.float64)
        self.time = time_construction
        self.n = self.K1.shape[0] * time_construction.n
        self.T = time_construction.T

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        m, n = self.K1.shape[0], self.time.n
        Y = self.time.apply(x.reshape(-1, n)).reshape(x.shape[:-1] + (m, n))
        return np.matmul(self.K1, Y).reshape(x.shape)


def basket_forward_matrix(spec: BasketCovSpec) -> np.ndarray:
    """Dense chol(R) (x) S matrix; rows are payoff exponents per (asset, step)."""
    S = np.tril(np.ones((spec.n, spec.n))) * math.sqrt(spec.T / spec.n)
    return np.kron(cholesky_psd(spec.R()), S)
