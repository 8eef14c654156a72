"""Discrete Black-Scholes asset paths and the benchmark payoff reductions.

Every market is a basket of m assets on n time steps; a single asset is the
one-asset basket.  A path step turns a construction's output into what a
reduction reads: ``log_paths`` adds the drift, giving the log-prices
L = log(S / S0) relative to spot, and ``basket_paths`` goes on to the
prices S0 e^L.  A barrier is reached where L >= log(B / S0), so the barrier
reductions read log-prices and a digital needs no exponential at all.  All
payoffs return the discounted value e^{-rT} (...); barrier monitoring is
discrete, over the n path steps only, with no continuity correction.
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


def log_paths(drift: np.ndarray, scaled_brownian: np.ndarray) -> np.ndarray:
    """Log-prices L_ik = log(S^(i)_k / S0_i) = drift_ik + sigma_i B^(i)_k, in place.

    ``scaled_brownian`` is a float64 array of shape (..., m*n), asset-major,
    as the constructions produce it, with the volatility already inside.  It
    is overwritten, and its (..., m, n) view is returned.
    """
    L = scaled_brownian.reshape(scaled_brownian.shape[:-1] + drift.shape)
    L += drift
    return L


def prices(S0: np.ndarray, L: np.ndarray) -> np.ndarray:
    """Prices S0_i exp(L_ik) of (..., m, n) log-prices, in place."""
    np.exp(L, out=L)
    L *= S0[:, None]
    return L


def basket_paths(S0: np.ndarray, drift: np.ndarray, scaled_brownian: np.ndarray) -> np.ndarray:
    """Asset prices S^(i)_k = S0_i exp(drift_ik + sigma_i B^(i)_k): ``log_paths``
    and then ``prices``, in place."""
    return prices(S0, log_paths(drift, scaled_brownian))


# Undiscounted reductions to one value per path.  Each reads (..., m, n)
# prices or, for the barrier payoffs, log-prices, and takes the spots, the
# strike and the barrier level and uses what it needs.
def average_call(S: np.ndarray, S0: np.ndarray, strike: float, barrier: float | None) -> np.ndarray:
    """max(A - K, 0), A the average of the prices over assets and time steps."""
    return np.maximum(S.mean(axis=(-2, -1)) - strike, 0.0)


def barrier_hit(L: np.ndarray, S0: np.ndarray, strike: float, barrier: float) -> np.ndarray:
    """1 where some asset's log-price reaches log(barrier / S0_i) at a
    monitoring step, else 0."""
    return (L.max(axis=-1) >= np.log(barrier / S0)).any(axis=-1).astype(np.float64)


def barrier_average_call(L: np.ndarray, S0: np.ndarray, strike: float, barrier: float) -> np.ndarray:
    """The average call, paid only where the barrier is reached.  The hit is
    decided on the log-prices, which then become prices in place."""
    hit = barrier_hit(L, S0, strike, barrier)
    return hit * average_call(prices(S0, L), S0, strike, barrier)


def payoff(reduction, disc: float, P: np.ndarray, S0: np.ndarray, strike: float, barrier: float | None):
    """Discounted payoff per path, disc * reduction(P, S0, strike, barrier)."""
    return disc * reduction(P, S0, strike, barrier)
