"""Regression coefficient vectors and the Householder transforms built on them.

The central object is the vector a with a_j = E(X_j h(X)) for the smooth
part h of a payoff.  A single reflection mapping e_1 to a/||a|| moves the
best linear approximation of h onto the first coordinate; ||a||^2 of the
total variance is captured there.

For payoffs of the log-exp family

    f(X) = sum_k w_k exp(sum_j (c_kj X_j + d_kj))

everything is available in closed form: with
w_bar_k = w_k exp(sum_j (c_kj^2 / 2 + d_kj)) and
c_bar(k1,k2) = sum_i c_{k1,i} c_{k2,i},

    a_i      = sum_k c_ki w_bar_k
    ||a||^2  = sum_{k1,k2} w_bar_k1 w_bar_k2 c_bar(k1,k2)
    V(f(X))  = sum_{k1,k2} w_bar_k1 w_bar_k2 (exp(c_bar(k1,k2)) - 1)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .transforms import (
    BasketCovSpec,
    TransformChain,
    _reflections,
    basket_forward_matrix,
)


@dataclass
class LogExpPayoffSpec:
    """Weighted sum of exponentials of linear forms in the normal vector."""

    w: np.ndarray  # (m,) weights
    c: np.ndarray  # (m, n) coefficients
    d: np.ndarray  # (m, n) drifts

    def __post_init__(self):
        self.w = np.atleast_1d(np.asarray(self.w, dtype=np.float64))
        self.c = np.atleast_2d(np.asarray(self.c, dtype=np.float64))
        self.d = np.atleast_2d(np.asarray(self.d, dtype=np.float64))
        if self.c.shape != self.d.shape or self.w.shape[0] != self.c.shape[0]:
            raise ValueError("shape mismatch between w, c, d")

    @property
    def terms(self) -> int:
        return self.w.shape[0]

    @property
    def dim(self) -> int:
        return self.c.shape[1]

    def w_bar(self) -> np.ndarray:
        return self.w * np.exp(np.sum(0.5 * self.c**2 + self.d, axis=1))

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """f(x) for a vector or a batch of row vectors."""
        x = np.asarray(x, dtype=np.float64)
        expo = x @ self.c.T + np.sum(self.d, axis=1)
        return np.exp(expo) @ self.w


def asian_spec(S0: float, r: float, sigma: float, T: float, n: int) -> LogExpPayoffSpec:
    """Arithmetic-average spec: h(X) = (1/n) sum_k S_k(X)."""
    dt = T / n
    k = np.arange(1, n + 1)
    ind = (np.arange(1, n + 1)[None, :] <= k[:, None]).astype(np.float64)
    c = sigma * math.sqrt(dt) * ind
    d = (r - 0.5 * sigma**2) * dt * ind
    w = np.full(n, S0 / n)
    return LogExpPayoffSpec(w=w, c=c, d=d)


def basket_spec(cov: BasketCovSpec, S0: np.ndarray, r: float) -> LogExpPayoffSpec:
    """Basket-average spec: h(X) = (1/(nm)) sum_{i,k} S^(i)_k(X).

    Exponent rows are the rows of the forward basket matrix chol(R) (x) S,
    which already carry the per-asset volatilities; the regression and LT
    transforms for the basket are computed against this baseline.
    """
    S0 = np.asarray(S0, dtype=np.float64)
    if S0.shape != (cov.m,):
        raise ValueError("S0 must have one entry per asset")
    dt = cov.T / cov.n
    c = basket_forward_matrix(cov)
    k = np.arange(1, cov.n + 1)
    drift = (r - 0.5 * cov.vols[:, None] ** 2) * dt * k[None, :]  # (m, n)
    d = np.zeros_like(c)
    d[:, 0] = drift.reshape(-1)
    w = np.repeat(S0 / (cov.n * cov.m), cov.n)
    return LogExpPayoffSpec(w=w, c=c, d=d)


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
    a = spec.c.T @ spec.w_bar()
    return RegressionVector.from_coefficients(a)


def asian_coefficients(S0: float, r: float, sigma: float, T: float, n: int) -> RegressionVector:
    """O(n) evaluation of the arithmetic-average coefficients.

    a_i = (S0/n) sigma sqrt(T/n) sum_{k>=i} e^{r k T / n}; the suffix sums
    replace the dense c^T w_bar product.
    """
    dt = T / n
    k = np.arange(1, n + 1)
    w_bar = (S0 / n) * np.exp(r * T * k / n)
    suffix = np.cumsum(w_bar[::-1])[::-1]
    a = sigma * math.sqrt(dt) * suffix
    return RegressionVector.from_coefficients(a)


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
    """||a||^2 and V(f(X)) from the closed forms (dense m x m sums)."""
    w_bar = spec.w_bar()
    a = spec.c.T @ w_bar
    c_bar = spec.c @ spec.c.T
    total = float(w_bar @ (np.exp(c_bar) - 1.0) @ w_bar)
    return VarianceReport(captured=float(a @ a), total=total)


def asian_variance_report(r: float, sigma: float, T: float, n: int) -> VarianceReport:
    """O(n) exact sums for the arithmetic-average spec.

    Here w_bar_k = (1/n) e^{r T k/n} and c_bar(k1,k2) = sigma^2 T min(k1,k2)/n,
    so both double sums collapse to suffix-sum recurrences.  The S0 factor is
    dropped; the residual fraction is scale invariant.
    """
    k = np.arange(1, n + 1)
    w_bar = (1.0 / n) * np.exp(r * T * k / n)
    suffix = np.cumsum(w_bar[::-1])[::-1]
    a = sigma * math.sqrt(T / n) * suffix
    captured = float(a @ a)
    E = np.exp(sigma**2 * T * k / n)
    suffix_next = np.concatenate([suffix[1:], [0.0]])
    total = float(np.sum(w_bar * (E - 1.0) * (w_bar + 2.0 * suffix_next)))
    return VarianceReport(captured=captured, total=total)


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
