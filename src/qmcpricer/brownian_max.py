"""Expectations involving the running maximum of drifted Brownian motion.

Everything is built from two reflection-principle identities for
B^nu_t = B_t + nu t and M^nu_T = max_{0<=s<=T} B^nu_s:

  * the hitting probability P(M^nu_t >= u) in closed form, and
  * E(1_{M^nu_T >= u} B^nu_t) as a closed-form term plus one Gaussian
    integral over the distance below the barrier, closed-form at t = T and
    evaluated by fixed-node piecewise Gauss-Legendre quadrature, for all
    times t < T at once, otherwise.

The factor e^{2 u nu} of the reflected paths is never formed where it
could overflow: for a positive drift the reflected term is the product of
a Gaussian factor and erfcx, each at most one (``_hit_prob``), so no
formula overflows however large the barrier or the drift.

``scipy.special`` is imported by the functions that call it, on first use,
so importing this module does not import it.

These produce the regression coefficients for barrier payoffs: the
indicator of ``max_k S_k >= u`` becomes the indicator of a drifted
Brownian maximum exceeding log(u/S0)/sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)

# Panel layout of the quadrature in y = u - B^nu_t, per time step t < T:
# _DENSITY_PANELS uniform panels over c +- _SPREAD sqrt(t), where the
# N(c, t) density of y has its mass, merged with breakpoints sqrt(T - t) 2^k
# for k in [_GRADE_MIN, _GRADE_MAX], which resolve the layer of width
# sqrt(T - t) at y = 0 where the remaining hitting probability falls from
# one: 23 panels of _GL_NODES = 12 Gauss-Legendre nodes, 276 nodes a time
# step.  Against the same quadrature on 80 density panels, k in [-14, 8] and
# 60 nodes, the error stays below 3e-13 (at most 1.3e-13 measured, rounding
# at |E| ~ 80) for u in [0.01, 69.3], nu in [-10, 50], T in [0.01, 10] and
# t from 1e-5 T to (1 - 1e-5) T; 10 nodes measured 1.6e-13 and 8 nodes
# 2e-10 on the same grid.
_GL_NODES = 12
_DENSITY_PANELS = 12
_SPREAD = 10.0
_GRADE_MIN, _GRADE_MAX = -5, 5
# Time steps are processed in blocks of at most this many nodes: 118 steps,
# whose five node-wide arrays of 256 KiB sit in a core's 2 MiB L2 cache.
# The blocks bound the memory: at n = 2000 the quadrature's traced peak is
# 1.9 MiB, 3.7 MiB at 2^16 nodes and 18.5 MiB as one block.  Warm at
# n = 2000 (2-core box, medians of 9 in five processes), blocks of 2^12 /
# 2^13 / 2^14 / 2^15 / 2^16 / 2^17 nodes took 32-50 / 25-40 / 24-36 /
# 23-35 / 25-36 / 29-39 ms.
_CHUNK_NODES = 2**15


def _hit_prob(u: np.ndarray, nu: float, t) -> tuple[np.ndarray, np.ndarray]:
    """P(M^nu_t >= u) for u >= 0, and R, the part of it from reflected paths,
    elementwise over an array u and a t that broadcasts against it.

    With a1 = (nu t - u)/sqrt(t) and a2 = (-u - nu t)/sqrt(t), the
    probability is Phi(a1) + R with R = e^{2 u nu} Phi(a2).  For nu < 0 the
    factor e^{2 u nu} is at most one.  For nu >= 0 it overflows once 2 u nu
    exceeds about 709, but a1^2 - a2^2 = -4 nu u, so
    R = e^{-a1^2/2} erfcx(-a2/sqrt2)/2, a product of two factors at most one:
    erfcx's argument is never negative.
    """
    from scipy.special import erfcx, ndtr  # on first use, as in rng.inv_normal_cdf

    st = np.sqrt(t)
    a = np.multiply(u, -1.0 / st)
    a += nu * st  # a1
    if nu < 0.0:
        r = ndtr(a - 2.0 * nu * st)  # a2 = a1 - 2 nu sqrt(t)
        r *= np.exp(2.0 * nu * u)
    else:
        r = np.multiply(u, 1.0 / (_SQRT2 * st))
        r += nu * st / _SQRT2  # -a2/sqrt2
        erfcx(r, out=r)
        r *= 0.5
        e = np.square(a)
        e *= -0.5
        r *= np.exp(e, out=e)
    p = ndtr(a, out=a)
    p += r
    return p, r


def _upper_tail_mean(u: float, mu, st):
    """E(1_{B >= u} B) for B ~ N(mu, st^2), elementwise over mu and st."""
    from scipy.special import ndtr  # on first use, as in rng.inv_normal_cdf

    z = (u - mu) / st
    return mu * ndtr(-z) + st * np.exp(-0.5 * z * z) / _SQRT2PI


def prob_max_exceeds(u: float, nu: float, t: float) -> float:
    """P(max_{0<=s<=t} B^nu_s >= u).

    For u > 0 this is Phi((nu t - u)/sqrt(t)) + e^{2 u nu} Phi((-u - nu t)/sqrt(t)),
    with the second product formed so that it cannot overflow (``_hit_prob``);
    for u <= 0 the maximum exceeds u trivially (it is at least B_0 = 0).
    """
    if t <= 0.0:
        raise ValueError("t must be positive")
    if u <= 0.0:
        return 1.0
    return float(_hit_prob(np.array([u]), nu, t)[0][0])


def _endpoint_moment(u: float, nu: float, t: float) -> float:
    """E(1_{M^nu_t >= u} B^nu_t) for u > 0, in closed form.

    The reflection identity gives
    E(1_{B >= u} B) + e^{2 u nu} E(1_{B <= -u} (2u + B)) with B = B^nu_t.
    Its two Gaussian density terms cancel, because
    e^{2 u nu} phi((-u - nu t)/sqrt(t)) = phi((u - nu t)/sqrt(t)), which
    leaves nu t P(M^nu_t >= u) + 2u R, R the reflected part of ``_hit_prob``.
    """
    p, r = _hit_prob(np.array([u]), nu, t)
    return float(nu * t * p[0] + 2.0 * u * r[0])


def _interior_moments(u: float, nu: float, t: np.ndarray, T: float) -> np.ndarray:
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
    evaluated by Gauss-Legendre, 12 nodes on each of 23 panels (see
    _GL_NODES; error below 3e-13 against a 60-node rule on 103 panels), in
    blocks of times of at most _CHUNK_NODES nodes, which bound the memory.
    Each time's entry depends on that time alone, so the block size does
    not change a bit of the result.
    """
    x, w = np.polynomial.legendre.leggauss(_GL_NODES)
    unit = np.linspace(0.0, 1.0, _DENSITY_PANELS + 1)
    grades = 2.0 ** np.arange(_GRADE_MIN, _GRADE_MAX + 1)
    panels = unit.size + grades.size - 1
    rows = max(1, _CHUNK_NODES // (panels * _GL_NODES))
    out = np.empty(t.size)
    for start in range(0, t.size, rows):
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
        half = 0.5 * np.diff(edges, axis=1)
        y = half[:, :, None] * x
        y += (edges[:, :-1] + half)[:, :, None]
        y = y.reshape(tc.shape[0], -1)
        g, refl = _hit_prob(y, nu, tau)  # refl: a spare buffer from here on
        np.multiply(y, -2.0 * u / tc, out=refl)
        np.exp(refl, out=refl)
        vals = np.subtract(1.0, refl)
        vals *= g
        vals += refl  # refl + g (1 - refl)
        k = 1.0 / (_SQRT2 * st)
        np.multiply(y, k, out=g)
        g -= c * k
        np.square(g, out=g)
        np.negative(g, out=g)
        vals *= np.exp(g, out=g)  # sqrt(t) sqrt(2 pi) times the density
        vals *= np.subtract(u, y, out=g)
        panel_sums = np.einsum("ijk,k->ij", vals.reshape(half.shape + x.shape), w)
        # the density's 1/(sqrt(t) sqrt(2 pi)) rides on the panel weights
        out[start : start + rows] = _upper_tail_mean(u, nu * tc[:, 0], st[:, 0]) + np.einsum(
            "ij,ij->i", panel_sums, half / (st * _SQRT2PI)
        )
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
    S0: float, r: float, sigma: float, T: float, n: int, barrier: float
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
    (``_interior_moments``).  A barrier at or below spot (u_tilde <= 0)
    makes the continuous-time indicator constant: a = 0 and gamma = 1.
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
    beta[:-1] = _interior_moments(u_tilde, nu, steps[:-1] * dt, T)
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
