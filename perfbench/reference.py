"""Make the benchmark's reference prices: ``python3 perfbench/reference.py``.

For each workload this writes to ``reference.json``:

- ``price`` and ``stderr``: a plain Monte Carlo estimate of the option
  price from pseudo-random paths, simulated here with numpy alone, so it
  does not rest on the code under test.  The Asian and basket estimates
  use the path average, whose mean is known, as a control variate.
- ``batch_sd``: per method, the standard deviation of one qmcpricer batch
  estimate at the workload's N, over ``CALIBRATION_BATCHES`` shifts.  It
  scales the tolerance of the price check; it is not a golden value.

Run it again only when a workload changes.
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

MC_SEED = 20151001
CALIBRATION_SEED = 31337
CALIBRATION_BATCHES = 16
CHUNK = 2**13
MC_PATHS = {"asian-250": 2**21, "digital-2000": 2**19, "basket-10x250": 2**19}


def _chunk_samples(cfg: dict, gen) -> tuple[np.ndarray, np.ndarray | None, float]:
    """Discounted payoffs, control variates and the control variate's mean
    for one chunk of paths."""
    s0, K, r, T, n = cfg["s0"], cfg["strike"], cfg["rate"], cfg["maturity"], cfg["n"]
    dt = T / n
    t = dt * np.arange(1, n + 1)
    disc = math.exp(-r * T)
    if cfg["payoff"] == "basket":
        m = cfg["assets"]
        vols = np.linspace(cfg["sigma_min"], cfg["sigma_max"], m)
        corr = np.full((m, m), cfg["rho"])
        np.fill_diagonal(corr, 1.0)
        L = np.linalg.cholesky(corr)
        Z = gen.standard_normal((CHUNK, n, m)) @ L.T  # correlated across assets
        W = np.cumsum(Z, axis=1) * math.sqrt(dt)  # (paths, n, m)
        S = s0 * np.exp((r - 0.5 * vols**2) * t[:, None] + vols * W)
        avg = S.mean(axis=(1, 2))
        return disc * np.maximum(avg - K, 0.0), disc * avg, disc * s0 * np.exp(r * t).mean()
    sigma = cfg["sigma"]
    W = np.cumsum(gen.standard_normal((CHUNK, n)), axis=1) * math.sqrt(dt)
    S = s0 * np.exp((r - 0.5 * sigma**2) * t + sigma * W)
    if cfg["payoff"] == "asian":
        avg = S.mean(axis=1)
        return disc * np.maximum(avg - K, 0.0), disc * avg, disc * s0 * np.exp(r * t).mean()
    if cfg["payoff"] == "digital-barrier":
        return disc * (S.max(axis=1) >= cfg["barrier"]), None, 0.0
    raise ValueError(f"no Monte Carlo oracle for payoff {cfg['payoff']!r}")


def monte_carlo(name: str) -> tuple[float, float]:
    """Price and standard error from independent pseudo-random paths."""
    cfg = WORKLOADS[name].config
    gen = np.random.Generator(np.random.PCG64(MC_SEED))
    ys, cs = [], []
    cv_mean = 0.0
    for _ in range(MC_PATHS[name] // CHUNK):
        y, c, cv_mean = _chunk_samples(cfg, gen)
        ys.append(y)
        if c is not None:
            cs.append(c)
    y = np.concatenate(ys)
    if cs:
        c = np.concatenate(cs)
        beta = np.cov(y, c)[0, 1] / np.var(c, ddof=1)
        y = y - beta * (c - cv_mean)
    return float(y.mean()), float(y.std(ddof=1) / math.sqrt(y.size))


def batch_sd(name: str) -> dict[str, float]:
    from qmcpricer.harness import ExperimentConfig, run_experiment

    wl = WORKLOADS[name]
    out = {}
    for method in wl.methods:
        cfg = ExperimentConfig(
            methods=[method], batches=CALIBRATION_BATCHES, seed=CALIBRATION_SEED, **wl.config
        )
        _, stats = run_experiment(cfg)
        out[method] = stats[0].stddev
        print(f"  {name} {method}: mean {stats[0].mean!r} batch sd {stats[0].stddev!r}", flush=True)
    return out


def main() -> int:
    ref = {}
    for name in WORKLOADS:
        price, stderr = monte_carlo(name)
        print(f"{name}: Monte Carlo {price!r} +- {stderr!r} ({MC_PATHS[name]} paths)", flush=True)
        ref[name] = {
            "price": price,
            "stderr": stderr,
            "mc_paths": MC_PATHS[name],
            "mc_seed": MC_SEED,
            "batch_sd": batch_sd(name),
            "calibration_seed": CALIBRATION_SEED,
            "calibration_batches": CALIBRATION_BATCHES,
        }
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(ref, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
