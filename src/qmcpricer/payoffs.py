"""Discrete Black-Scholes asset paths and the benchmark payoff functionals.

All payoffs return the discounted value e^{-rT} (...); barrier monitoring
is discrete, over the n path steps only, with no continuity correction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .transforms import BasketCovSpec


@dataclass
class GbmParams:
    S0: float
    r: float
    sigma: float
    T: float
    n: int

    def __post_init__(self):
        if self.S0 <= 0.0 or self.sigma < 0.0 or self.T <= 0.0 or self.n < 1:
            raise ValueError("invalid GBM parameters")


def gbm_path(params: GbmParams, brownian: np.ndarray) -> np.ndarray:
    """S_k = S0 exp((r - sigma^2/2) k T/n + sigma B_{kT/n}), k = 1..n.

    Computed in one new buffer; ``brownian`` is not modified.
    """
    brownian = np.asarray(brownian, dtype=np.float64)
    if brownian.shape[-1] != params.n:
        raise ValueError("path length mismatch")
    k = np.arange(1, params.n + 1)
    drift = (params.r - 0.5 * params.sigma**2) * (params.T / params.n) * k
    out = np.multiply(brownian, params.sigma)
    out += drift
    np.exp(out, out=out)
    out *= params.S0
    return out


@dataclass
class AsianCall:
    """Discounted arithmetic-average call max(mean(S) - K, 0)."""

    K: float


@dataclass
class DigitalUpIn:
    """Pays e^{-rT} if the discrete path maximum reaches the barrier."""

    barrier: float


@dataclass
class AsianUpIn:
    """Arithmetic-average call paid only if the barrier is reached."""

    barrier: float
    K: float


@dataclass
class BasketAsianCall:
    """Discounted call on the grand average over assets and time steps."""

    K: float
    cov: BasketCovSpec
    S0: np.ndarray

    def __post_init__(self):
        self.S0 = np.asarray(self.S0, dtype=np.float64)
        if self.S0.shape != (self.cov.m,):
            raise ValueError("S0 must have one entry per asset")


def basket_paths(spec: BasketAsianCall, r: float, scaled_brownian: np.ndarray) -> np.ndarray:
    """Asset paths from vol-scaled Brownian values sigma_i B^(i).

    ``scaled_brownian`` has shape (..., m*n), asset-major, as produced by
    the basket constructions; the volatility is already inside.  The
    (..., m, n) prices are computed in one new buffer; the input is not
    modified.
    """
    cov = spec.cov
    x = np.asarray(scaled_brownian, dtype=np.float64)
    Y = x.reshape(x.shape[:-1] + (cov.m, cov.n))
    dt = cov.T / cov.n
    k = np.arange(1, cov.n + 1)
    drift = (r - 0.5 * cov.vols[:, None] ** 2) * dt * k[None, :]
    out = np.add(Y, drift)
    np.exp(out, out=out)
    out *= spec.S0[:, None]
    return out


def payoff(spec, params: GbmParams, paths: np.ndarray) -> np.ndarray:
    """Discounted payoff per path; ``paths`` are asset prices, not Brownians.

    Single-asset specs take (..., n) price paths; the basket spec takes
    (..., m, n) per-asset prices.
    """
    disc = math.exp(-params.r * params.T)
    S = np.asarray(paths, dtype=np.float64)
    if isinstance(spec, AsianCall):
        return disc * np.maximum(S.mean(axis=-1) - spec.K, 0.0)
    if isinstance(spec, DigitalUpIn):
        return disc * (S.max(axis=-1) >= spec.barrier).astype(np.float64)
    if isinstance(spec, AsianUpIn):
        hit = (S.max(axis=-1) >= spec.barrier).astype(np.float64)
        return disc * hit * np.maximum(S.mean(axis=-1) - spec.K, 0.0)
    if isinstance(spec, BasketAsianCall):
        avg = S.mean(axis=(-2, -1))
        return disc * np.maximum(avg - spec.K, 0.0)
    raise ValueError(f"unknown payoff spec {type(spec).__name__}")
