"""Expectations involving the running maximum of drifted Brownian motion.

Everything is built from two reflection-principle identities for
B^nu_t = B_t + nu t and M^nu_T = max_{0<=s<=T} B^nu_s:

  * the hitting probability P(M^nu_t >= u) in closed form, and
  * E(1_{M^nu_T >= u} B^nu_t) as a closed-form term plus one Gaussian
    integral over the distance below the barrier, closed-form at t = T and
    evaluated by fixed-node piecewise Gauss-Legendre quadrature, for all
    times t < T at once, otherwise.

The factor e^{2 u nu} of the reflected paths is carried in log space, so
no formula overflows however large the barrier or the drift.

These produce the regression coefficients for barrier payoffs: the
indicator of ``max_k S_k >= u`` becomes the indicator of a drifted
Brownian maximum exceeding log(u/S0)/sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtr

_SQRT2PI = math.sqrt(2.0 * math.pi)

# Panel layout of the quadrature in y = u - B^nu_t, per time step t < T:
# _DENSITY_PANELS uniform panels over c +- _SPREAD sqrt(t), where the
# N(c, t) density of y has its mass, merged with breakpoints sqrt(T - t) 2^k
# for k in [_GRADE_MIN, _GRADE_MAX], which resolve the layer of width
# sqrt(T - t) at y = 0 where the remaining hitting probability falls from
# one.  Against the same quadrature on 80 density panels, k in [-14, 8] and
# 60 nodes, the error stays below 3e-13 for u in [0.01, 8], nu in [-10, 20],
# T in [0.01, 10] and t from 1e-5 T to (1 - 1e-5) T.
_GL_NODES = 20
_DENSITY_PANELS = 12
_SPREAD = 10.0
_GRADE_MIN, _GRADE_MAX = -5, 5
# Time steps are processed in chunks of at most this many nodes, so each
# temporary array stays at 1 MiB and the kernel's peak at a few MiB.
_CHUNK_NODES = 2**17


def _hit_prob(u, nu: float, t):
    """P(M^nu_t >= u) for u >= 0, elementwise over arrays u and t.

    The reflected term e^{2 u nu} Phi(z) is exp(2 u nu + log Phi(z)).  It is
    part of a probability, so that exponent is never positive, while
    e^{2 u nu} on its own overflows once 2 u nu exceeds about 709.
    """
    st = np.sqrt(t)
    return ndtr((nu * t - u) / st) + np.exp(2.0 * u * nu + log_ndtr((-u - nu * t) / st))


def _upper_tail_mean(u: float, mu, st):
    """E(1_{B >= u} B) for B ~ N(mu, st^2), elementwise over mu and st."""
    z = (u - mu) / st
    return mu * ndtr(-z) + st * np.exp(-0.5 * z * z) / _SQRT2PI


def prob_max_exceeds(u: float, nu: float, t: float) -> float:
    """P(max_{0<=s<=t} B^nu_s >= u).

    For u > 0 this is Phi((nu t - u)/sqrt(t)) + e^{2 u nu} Phi((-u - nu t)/sqrt(t)),
    with the second product formed in log space so that it cannot overflow;
    for u <= 0 the maximum exceeds u trivially (it is at least B_0 = 0).
    """
    if t <= 0.0:
        raise ValueError("t must be positive")
    if u <= 0.0:
        return 1.0
    return float(_hit_prob(u, nu, t))


def _endpoint_moment(u: float, nu: float, t: float) -> float:
    """E(1_{M^nu_t >= u} B^nu_t) for u > 0, in closed form.

    The reflection identity gives
    E(1_{B >= u} B) + e^{2 u nu} E(1_{B <= -u} (2u + B)) with B = B^nu_t, and
    e^{2 u nu} phi((-u - nu t)/sqrt(t)) = phi((u - nu t)/sqrt(t)).
    """
    st = math.sqrt(t)
    mu = nu * t
    zu = (u - mu) / st
    reflected = (2.0 * u + mu) * math.exp(2.0 * u * nu + log_ndtr((-u - mu) / st))
    reflected -= st * math.exp(-0.5 * zu * zu) / _SQRT2PI
    return float(_upper_tail_mean(u, mu, st)) + reflected


def _interior_moments(u: float, nu: float, t: np.ndarray, T: float, map=map) -> np.ndarray:
    """E(1_{M^nu_T >= u} B^nu_t) for u > 0 and every entry 0 < t < T of t.

    With B = B^nu_t ~ N(nu t, t) and g(x) = P(M^nu_{T-t} >= u - x), the
    hitting probability over the remaining horizon,

        E(1_{M^nu_T >= u} B) = E(B g(B)) + e^{2 u nu} E(1_{B <= -u} (2u + B)(1 - g(2u + B))).

    g is one above the barrier, so the part of the first term on B >= u is
    the closed-form upper-tail mean.  On B < u, the substitution y = u - x
    turns e^{2 u nu} times the density at x - 2u into the density at x
    times e^{-2 u y / t}, so both terms join in one integral over y > 0:

        integral_0^inf (u - y) p_t(u - y) [g_y + (1 - g_y) e^{-2 u y / t}] dy

    with g_y = P(M^nu_{T-t} >= y) and p_t the N(nu t, t) density.  It is
    evaluated by Gauss-Legendre on the panels described at _GL_NODES, in
    blocks of times of at most _CHUNK_NODES nodes.  ``map`` runs the
    blocks; each writes only its own entries, so any ordered map, such as
    a thread pool's, gives the same bits as the builtin one.
    """
    x, w = np.polynomial.legendre.leggauss(_GL_NODES)
    unit = np.linspace(0.0, 1.0, _DENSITY_PANELS + 1)
    grades = 2.0 ** np.arange(_GRADE_MIN, _GRADE_MAX + 1)
    panels = unit.size + grades.size - 1
    rows = max(1, _CHUNK_NODES // (panels * _GL_NODES))
    out = np.empty(t.size)

    def block(start: int) -> None:
        tc = t[start : start + rows, None]
        st = np.sqrt(tc)
        tau = T - tc
        c = u - nu * tc  # y = u - B^nu_t is N(c, t)
        lo = np.maximum(c - _SPREAD * st, 0.0)
        hi = np.maximum(c + _SPREAD * st, lo)
        # clipped breakpoints leave zero-width panels, which add nothing
        edges = np.concatenate(
            [lo + (hi - lo) * unit, np.clip(np.sqrt(tau) * grades, lo, hi)], axis=1
        )
        edges.sort(axis=1)
        half = 0.5 * np.diff(edges, axis=1)[:, :, None]
        y = ((edges[:, :-1, None] + half) + half * x).reshape(tc.shape[0], -1)
        wy = (half * w).reshape(y.shape)
        g = _hit_prob(y, nu, tau)
        refl = np.exp(-2.0 * u * y / tc)
        z = (y - c) / st
        vals = (u - y) * np.exp(-0.5 * z * z) / (st * _SQRT2PI) * (refl + g * (1.0 - refl))
        out[start : start + rows] = _upper_tail_mean(u, nu * tc[:, 0], st[:, 0]) + np.einsum(
            "ij,ij->i", vals, wy
        )

    list(map(block, range(0, t.size, rows)))
    return out


def indicator_moment(u: float, nu: float, t: float, T: float, f_tag: str = "one") -> float:
    """E(1_{M^nu_T >= u} f(B^nu_t)) for f in {one, identity}.

    For f = one the expectation does not depend on t: it is the hitting
    probability P(M^nu_T >= u).  For f = identity it is closed-form at
    t = T, and for t < T the one-time case of the quadrature that
    ``barrier_coefficients`` runs over every time step.  For u <= 0 the
    indicator is almost surely one and the plain moment of B^nu_t is
    returned.
    """
    if T <= 0.0 or t <= 0.0 or t > T:
        raise ValueError("need 0 < t <= T")
    if f_tag not in ("one", "identity"):
        raise ValueError(f"unknown f_tag {f_tag!r}")
    if f_tag == "one":
        return prob_max_exceeds(u, nu, T)
    if u <= 0.0:
        return nu * t
    if t == T:
        return _endpoint_moment(u, nu, T)
    return float(_interior_moments(u, nu, np.array([t]), T)[0])


@dataclass
class BarrierCoefficients:
    """Regression data for a payoff driven by the discrete running maximum."""

    a: np.ndarray  # coefficient vector, one entry per time step
    beta: np.ndarray  # beta_i = E(1_{M >= u_tilde} B^nu_{i T/n})
    gamma: float  # hitting probability of the continuous maximum
    nu: float
    u_tilde: float


def barrier_coefficients(
    S0: float, r: float, sigma: float, T: float, n: int, barrier: float, map=map
) -> BarrierCoefficients:
    """Coefficients a_i = E(h(X) X_i) for h = 1_{max_k S_k >= barrier}.

    The discrete stock maximum event is max_k B^nu_{kT/n} >= u_tilde with
    nu = (r - sigma^2/2)/sigma and u_tilde = log(barrier/S0)/sigma.
    Approximating the discrete by the continuous maximum,

        a = S^{-1} beta - nu sqrt(T/n) gamma 1,

    and S^{-1} beta collapses to scaled first differences because S is the
    lower-triangular matrix of sqrt(T/n) constants:
    a_i = (beta_i - beta_{i-1}) / sqrt(T/n) - nu sqrt(T/n) gamma.

    beta_n is closed-form; beta_1 .. beta_{n-1} come from one vectorised
    Gauss-Legendre pass over all n - 1 interior times, in blocks of times
    that ``map`` runs.  The harness passes its chunk pool's ordered map,
    which runs the blocks on the worker threads under the caller's numpy
    error state; a, beta and gamma are bit-identical to the builtin map's,
    the default.  A barrier at or
    below spot (u_tilde <= 0) makes the continuous-time indicator constant:
    a = 0 and gamma = 1.
    """
    if S0 <= 0.0 or barrier <= 0.0:
        raise ValueError("S0 and barrier must be positive")
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    dt = T / n
    nu = (r - 0.5 * sigma**2) / sigma
    u_tilde = math.log(barrier / S0) / sigma
    steps = np.arange(1, n + 1)
    if u_tilde <= 0.0:
        beta = nu * steps * dt  # indicator is a.s. one: plain E(B^nu)
        return BarrierCoefficients(
            a=np.zeros(n), beta=beta, gamma=1.0, nu=nu, u_tilde=u_tilde
        )
    beta = np.empty(n)
    beta[:-1] = _interior_moments(u_tilde, nu, steps[:-1] * dt, T, map)
    beta[-1] = _endpoint_moment(u_tilde, nu, T)
    gamma = prob_max_exceeds(u_tilde, nu, T)
    a = np.diff(np.concatenate([[0.0], beta])) / math.sqrt(dt) - nu * math.sqrt(dt) * gamma
    return BarrierCoefficients(a=a, beta=beta, gamma=gamma, nu=nu, u_tilde=u_tilde)


def weighted_max_expectation(h_prime, nu: float, t: float, T: float, f_tag: str = "one") -> float:
    """E(h(M^nu_T) f(B^nu_t)) for differentiable h with h(0) = 0.

    Layer-cake form: the expectation equals
    integral_0^inf h'(u) E(1_{M^nu_T >= u} f(B^nu_t)) du, truncated at
    u_max = |nu| T + 10 sqrt(T) where the hitting probability is negligible,
    and evaluated by Gauss-Legendre with _GL_NODES nodes on each of
    _DENSITY_PANELS uniform panels of [0, u_max].
    """
    if T <= 0.0 or t <= 0.0 or t > T:
        raise ValueError("need 0 < t <= T")
    x, w = np.polynomial.legendre.leggauss(_GL_NODES)
    half = 0.5 * (abs(nu) * T + 10.0 * math.sqrt(T)) / _DENSITY_PANELS
    mids = half * (2.0 * np.arange(_DENSITY_PANELS) + 1.0)
    u = (mids[:, None] + half * x).ravel().tolist()
    vals = [h_prime(v) * indicator_moment(v, nu, t, T, f_tag) for v in u]
    return float(np.tile(half * w, _DENSITY_PANELS) @ vals)
