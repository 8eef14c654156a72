"""Regression coefficient vectors and the Householder transforms built on them.

The central object is the vector a with a_j = E(X_j h(X)) for the smooth
part h of a payoff.  A single reflection mapping e_1 to a/||a|| moves the
best linear approximation of h onto the first coordinate; ||a||^2 of the
total variance is captured there.

For payoffs of the log-exp family on m assets and n time steps

    f(X) = sum_{i,k} w_ik exp(sqrt(dt) sum_j L_ij (X_j1 + ... + X_jk) + d_ik),

with X asset-major, the exponent of term (i, k) is row (i, k) of
c = L (x) sqrt(dt) tril(1), and rows (i, k) and (j, l) have inner product
R_ij min(k, l) dt with R = L L^T.  Everything is available in closed form,
each in O(m^2 n): with w_bar_ik = w_ik exp(R_ii k dt / 2 + d_ik) and
N_jk = sum_{l>k} w_bar_jl,

    a        = c^T w_bar
    ||a||^2  = a . a
    V(f(X))  = sum_{i,j,k} expm1(R_ij k dt) (w_bar_ik w_bar_jk + 2 w_bar_ik N_jk)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .payoffs import log_drift
from .transforms import BasketCovSpec, TransformChain, _reflections, cholesky_psd


def _suffix_sums(v: np.ndarray) -> np.ndarray:
    """s_ik = sum_{l>=k} v_il along the last axis."""
    return np.cumsum(v[..., ::-1], axis=-1)[..., ::-1]


@dataclass
class LogExpPayoffSpec:
    """Weighted sum of exponentials of asset-mixed Brownian paths.

    Term (i, k) is w_ik exp(sqrt(dt) sum_j L_ij sum_{l<=k} X_jl + d_ik); the
    dense coefficient matrix c = L (x) sqrt(dt) tril(1) is never formed.
    """

    w: np.ndarray  # (m, n) weights
    d: np.ndarray  # (m, n) drifts
    L: np.ndarray  # (m, m) asset factor
    dt: float  # time step

    def __post_init__(self):
        self.w = np.atleast_2d(np.asarray(self.w, dtype=np.float64))
        self.d = np.atleast_2d(np.asarray(self.d, dtype=np.float64))
        self.L = np.atleast_2d(np.asarray(self.L, dtype=np.float64))
        if self.d.shape != self.w.shape or self.L.shape != (self.w.shape[0],) * 2:
            raise ValueError("shape mismatch between w, d, L")

    @property
    def dim(self) -> int:
        return self.w.size

    def _ct(self, v: np.ndarray) -> np.ndarray:
        """c^T v for an (m, n) array v: L^T applied to its suffix sums."""
        return math.sqrt(self.dt) * (self.L.T @ _suffix_sums(v)).ravel()

    def w_bar(self) -> np.ndarray:
        """w_ik exp(||c_ik||^2 / 2 + d_ik), with ||c_ik||^2 = R_ii k dt."""
        k = np.arange(1, self.w.shape[1] + 1)
        row_norms = np.sum(self.L**2, axis=1)[:, None] * (k * self.dt)
        return self.w * np.exp(0.5 * row_norms + self.d)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """f(x) for a vector or a batch of row vectors."""
        x = np.asarray(x, dtype=np.float64)
        paths = np.cumsum(x.reshape(x.shape[:-1] + self.w.shape), axis=-1)
        expo = math.sqrt(self.dt) * np.matmul(self.L, paths) + self.d
        return np.sum(self.w * np.exp(expo), axis=(-2, -1))


def basket_spec(cov: BasketCovSpec, S0: np.ndarray, r: float) -> LogExpPayoffSpec:
    """Basket-average spec: h(X) = (1/(nm)) sum_{i,k} S^(i)_k(X).

    The asset factor is chol(R) of the forward basket construction, which
    already carries the per-asset volatilities; the regression and LT
    transforms for the basket are computed against this baseline.
    """
    S0 = np.asarray(S0, dtype=np.float64)
    if S0.shape != (cov.m,):
        raise ValueError("S0 must have one entry per asset")
    d = log_drift(cov, r)
    w = np.repeat(S0[:, None] / (cov.n * cov.m), cov.n, axis=1)
    return LogExpPayoffSpec(w=w, d=d, L=cholesky_psd(cov.R()), dt=cov.T / cov.n)


def asian_spec(S0: float, r: float, sigma: float, T: float, n: int) -> LogExpPayoffSpec:
    """Arithmetic-average spec, the one-asset basket: h(X) = (1/n) sum_k S_k(X).

    Its regression vector is a_i = (S0/n) sigma sqrt(T/n) sum_{k>=i} e^{r k T/n}.
    """
    cov = BasketCovSpec(m=1, n=n, T=T, vols=np.array([sigma]), corr=np.ones((1, 1)))
    return basket_spec(cov, np.array([S0]), r)


@dataclass
class RegressionVector:
    """Coefficients a_j = E(X_j h(X)) and the Euclidean norm of a."""

    a: np.ndarray
    norm: float

    @classmethod
    def from_coefficients(cls, a: np.ndarray) -> "RegressionVector":
        a = np.asarray(a, dtype=np.float64)
        return cls(a=a, norm=float(np.linalg.norm(a)))


def logexp_coefficients(spec: LogExpPayoffSpec) -> RegressionVector:
    """Closed-form regression vector a = c^T w_bar."""
    return RegressionVector.from_coefficients(spec._ct(spec.w_bar()))


@dataclass
class VarianceReport:
    captured: float  # ||a||^2
    total: float  # V(f(X))

    @property
    def residual_fraction(self) -> float:
        if self.total == 0.0:
            return 0.0
        return (self.total - self.captured) / self.total


def variance_report(spec: LogExpPayoffSpec) -> VarianceReport:
    """||a||^2 and V(f(X)) from the closed forms, by suffix-sum recurrence."""
    w_bar = spec.w_bar()
    a = spec._ct(w_bar)
    later = np.zeros_like(w_bar)  # N_jk = sum_{l>k} w_bar_jl
    later[:, :-1] = _suffix_sums(w_bar)[:, 1:]
    k = np.arange(1, w_bar.shape[1] + 1)
    E = np.expm1((spec.L @ spec.L.T)[:, :, None] * (k * spec.dt))
    total = float(np.einsum("ijk,ik,jk->", E, w_bar, w_bar + 2.0 * later))
    return VarianceReport(captured=float(a @ a), total=total)


def variance_report_continuum(r: float, sigma: float, T: float) -> VarianceReport:
    """Integral-limit closed forms for the arithmetic-average spec.

    Large-n limits of the exact sums; the double sums become double
    integrals over the unit square with kernel min(x, y).
    """
    if r <= 0.0:
        raise ValueError("use discrete form: the integral limit is singular at r = 0")
    if sigma <= 0.0 or T <= 0.0:
        raise ValueError("sigma and T must be positive")
    s2 = sigma**2
    ert = math.exp(r * T)
    captured = s2 * (4.0 * ert + 2.0 * ert**2 * r * T - (3.0 * ert**2 + 1.0)) / (2.0 * r**3 * T**2)
    total = (
        2.0 * ert * (2.0 * r * s2 + s2**2)
        + 2.0 * math.exp(T * (2.0 * r + s2)) * r**2
        - (ert**2 * (2.0 * r**2 + 3.0 * r * s2 + s2**2) + r * s2 + s2**2)
    ) / (r**2 * T**2 * (r + s2) * (2.0 * r + s2))
    return VarianceReport(captured=captured, total=total)


def regression_transform(rv: RegressionVector) -> TransformChain:
    """Single reflection mapping e_1 to a/||a||; identity when ||a|| = 0."""
    return TransformChain(_reflections([rv.a]))


def regression_chain(vectors: Sequence[np.ndarray], n: int) -> TransformChain:
    """Chain U^(1) ... U^(m) for a payoff with m smooth parts.

    Each vector is the coefficient vector of one part in the original
    coordinates; the k-th is mapped through the transforms built so far
    (a^(k) under U equals U^T a^(k) under the identity), its leading
    entries are zeroed, and the next reflection sends the next unit vector
    to the normalized remainder.  After at most m reflections every
    a^(k)^T (U x) depends only on the leading coordinates.  Zero vectors,
    and vectors already spanned by earlier ones, contribute no reflection.
    """
    vectors = [np.asarray(a, dtype=np.float64) for a in vectors]
    for k, a in enumerate(vectors, start=1):
        if a.shape != (n,):
            raise ValueError(f"vector {k} has shape {a.shape}, expected ({n},)")
    return TransformChain(_reflections(vectors))
