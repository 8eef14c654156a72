"""Discrete Black-Scholes asset paths and the benchmark payoff reductions.

Every market is a basket of m assets on n time steps; a single asset is the
one-asset basket.  All payoffs return the discounted value e^{-rT} (...);
barrier monitoring is discrete, over the n path steps only, with no
continuity correction.
"""

from __future__ import annotations

import numpy as np

from .transforms import BasketCovSpec


def log_drift(cov: BasketCovSpec, r: float) -> np.ndarray:
    """(m, n) drifts (r - sigma_i^2/2) k T/n of log(S^(i)_k / S0_i).

    Raises FloatingPointError when sigma_i^2 or the product overflows.
    """
    dt = cov.T / cov.n
    k = np.arange(1, cov.n + 1)
    with np.errstate(over="raise"):
        return (r - 0.5 * cov.vols[:, None] ** 2) * dt * k


def basket_paths(S0: np.ndarray, drift: np.ndarray, scaled_brownian: np.ndarray) -> np.ndarray:
    """Asset prices S^(i)_k = S0_i exp(drift_ik + sigma_i B^(i)_k), in place.

    ``scaled_brownian`` is a float64 array of shape (..., m*n), asset-major,
    as the constructions produce it, with the volatility already inside.  It
    is overwritten with the prices, and the (..., m, n) view of it is
    returned.
    """
    Y = scaled_brownian.reshape(scaled_brownian.shape[:-1] + drift.shape)
    Y += drift
    np.exp(Y, out=Y)
    Y *= S0[:, None]
    return Y


# Undiscounted reductions of (..., m, n) prices to one value per path.  Each
# takes the strike and the barrier level and uses what it needs.
def average_call(S: np.ndarray, strike: float, barrier: float | None) -> np.ndarray:
    """max(A - K, 0), A the average over assets and time steps."""
    return np.maximum(S.mean(axis=(-2, -1)) - strike, 0.0)


def barrier_hit(S: np.ndarray, strike: float, barrier: float) -> np.ndarray:
    """1 where some price reaches the barrier at a monitoring step, else 0."""
    return (S.max(axis=(-2, -1)) >= barrier).astype(np.float64)


def barrier_average_call(S: np.ndarray, strike: float, barrier: float) -> np.ndarray:
    """The average call, paid only where the barrier is reached."""
    return barrier_hit(S, strike, barrier) * average_call(S, strike, barrier)


def payoff(reduction, disc: float, S: np.ndarray, strike: float, barrier: float | None):
    """Discounted payoff per path, disc * reduction(S, strike, barrier)."""
    return disc * reduction(S, strike, barrier)
