"""Experiment runner: randomized-QMC batch statistics, CSV output, timing.

A run prices one payoff with one or more path constructions over a grid of
sample sizes N.  Every batch uses the same Sobol points under its own
random shift derived from (seed, batch), so results are reproducible and
independent of execution order; batches may run concurrently.

Estimates are deterministic for a given configuration and seed.  Wall
times in the raw rows are measurements and naturally vary from run to
run; the summary schema carries no timing column and is byte-stable.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .brownian_max import barrier_coefficients
from .lt import LtConfig, lt_transform
from .payoffs import (
    AsianCall,
    AsianUpIn,
    BasketAsianCall,
    DigitalUpIn,
    GbmParams,
    basket_paths,
    gbm_path,
    payoff,
)
from .regression import (
    RegressionVector,
    asian_coefficients,
    asian_spec,
    basket_spec,
    logexp_coefficients,
    regression_chain,
    regression_transform,
)
from .transforms import (
    BasketBridgeConstruction,
    BasketChainConstruction,
    BasketCovSpec,
    BasketForwardConstruction,
    BasketPcaConstruction,
    BrownianBridgeConstruction,
    ForwardConstruction,
    PcaConstruction,
    ChainConstruction,
)

PAYOFFS = ("asian", "basket", "digital-barrier", "asian-barrier")
METHODS = ("forward", "bb", "pca", "regression", "lt")

RAW_HEADER = "payoff,method,n,N,batch,estimate,runtime_ms"
SUMMARY_HEADER = "payoff,method,n,N,mean,stddev,batches"


class UnsupportedCombinationError(ValueError):
    """The (payoff, method) pair has no defined construction."""


@dataclass
class ExperimentConfig:
    payoff: str
    methods: list[str]
    n: int
    paths: list[int]
    batches: int = 32
    seed: int = 0
    s0: float = 100.0
    strike: float = 100.0
    rate: float = 0.04
    sigma: float = 0.2
    maturity: float = 1.0
    barrier: float | None = None
    assets: int = 10
    rho: float = 0.05
    sigma_min: float = 0.1
    sigma_max: float = 0.3
    lt_columns: int = 25
    workers: int = 1

    def __post_init__(self):
        if self.payoff not in PAYOFFS:
            raise ValueError(f"unknown payoff {self.payoff!r}")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}")
        if self.batches < 2:
            raise ValueError("need at least 2 batches")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        for N in self.paths:
            if N < 1 or N & (N - 1):
                raise ValueError("path counts must be powers of two")
        if self.payoff in ("digital-barrier", "asian-barrier") and self.barrier is None:
            raise ValueError(f"payoff {self.payoff!r} requires a barrier level")


@dataclass
class RawRow:
    payoff: str
    method: str
    n: int
    N: int
    batch: int
    estimate: float
    runtime_ms: float


@dataclass
class BatchStats:
    payoff: str
    method: str
    n: int
    N: int
    mean: float
    stddev: float
    batches: int
    wall_ms: float


@dataclass
class _Problem:
    """Everything needed to price one payoff under every method."""

    dim: int
    params: GbmParams
    spec: object
    evaluate: object  # (construction, X) -> payoff vector
    constructions: dict = field(default_factory=dict)


def _basket_cov(cfg: ExperimentConfig) -> BasketCovSpec:
    vols = np.linspace(cfg.sigma_min, cfg.sigma_max, cfg.assets)
    corr = np.full((cfg.assets, cfg.assets), cfg.rho)
    np.fill_diagonal(corr, 1.0)
    return BasketCovSpec(m=cfg.assets, n=cfg.n, T=cfg.maturity, vols=vols, corr=corr)


def regression_vector_for(cfg: ExperimentConfig) -> RegressionVector:
    """The coefficient vector a used by the regression method for a payoff."""
    if cfg.payoff == "asian":
        return asian_coefficients(cfg.s0, cfg.rate, cfg.sigma, cfg.maturity, cfg.n)
    if cfg.payoff == "basket":
        cov = _basket_cov(cfg)
        s0 = np.full(cfg.assets, cfg.s0)
        return logexp_coefficients(basket_spec(cov, s0, cfg.rate))
    if cfg.payoff == "digital-barrier":
        bc = barrier_coefficients(
            cfg.s0, cfg.rate, cfg.sigma, cfg.maturity, cfg.n, cfg.barrier
        )
        return RegressionVector.from_coefficients(bc.a)
    # asian-barrier uses a two-function chain; expose the first vector
    bc = barrier_coefficients(cfg.s0, cfg.rate, cfg.sigma, cfg.maturity, cfg.n, cfg.barrier)
    return RegressionVector.from_coefficients(bc.a)


def _regression_chain_for(cfg: ExperimentConfig):
    if cfg.payoff == "asian-barrier":
        providers = [
            lambda: barrier_coefficients(
                cfg.s0, cfg.rate, cfg.sigma, cfg.maturity, cfg.n, cfg.barrier
            ).a,
            lambda: asian_coefficients(
                cfg.s0, cfg.rate, cfg.sigma, cfg.maturity, cfg.n
            ).a,
        ]
        return regression_chain(providers, cfg.n)
    return regression_transform(regression_vector_for(cfg))


def _build_problem(cfg: ExperimentConfig) -> _Problem:
    T = cfg.maturity
    if cfg.payoff == "basket":
        cov = _basket_cov(cfg)
        s0 = np.full(cfg.assets, cfg.s0)
        spec = BasketAsianCall(K=cfg.strike, cov=cov, S0=s0)
        params = GbmParams(S0=cfg.s0, r=cfg.rate, sigma=cov.vols.mean(), T=T, n=cfg.n)

        def evaluate(construction, X):
            S = basket_paths(spec, cfg.rate, construction.apply(X))
            return payoff(spec, params, S)

        problem = _Problem(dim=cov.dim, params=params, spec=spec, evaluate=evaluate)
        for m in cfg.methods:
            if m == "forward":
                problem.constructions[m] = BasketForwardConstruction(cov)
            elif m == "bb":
                problem.constructions[m] = BasketBridgeConstruction(cov)
            elif m == "pca":
                problem.constructions[m] = BasketPcaConstruction(cov)
            elif m == "regression":
                chain = regression_transform(
                    logexp_coefficients(basket_spec(cov, s0, cfg.rate))
                )
                problem.constructions[m] = BasketChainConstruction(cov, chain)
            elif m == "lt":
                k = min(cfg.lt_columns, cov.dim)
                chain = lt_transform(basket_spec(cov, s0, cfg.rate), LtConfig(k=k)).chain
                problem.constructions[m] = BasketChainConstruction(cov, chain)
        return problem

    params = GbmParams(S0=cfg.s0, r=cfg.rate, sigma=cfg.sigma, T=T, n=cfg.n)
    if cfg.payoff == "asian":
        spec = AsianCall(K=cfg.strike)
    elif cfg.payoff == "digital-barrier":
        spec = DigitalUpIn(barrier=cfg.barrier)
    else:
        spec = AsianUpIn(barrier=cfg.barrier, K=cfg.strike)

    def evaluate(construction, X):
        return payoff(spec, params, gbm_path(params, construction.apply(X)))

    problem = _Problem(dim=cfg.n, params=params, spec=spec, evaluate=evaluate)
    for m in cfg.methods:
        if m == "forward":
            problem.constructions[m] = ForwardConstruction(cfg.n, T)
        elif m == "bb":
            problem.constructions[m] = BrownianBridgeConstruction(cfg.n, T)
        elif m == "pca":
            problem.constructions[m] = PcaConstruction(cfg.n, T)
        elif m == "regression":
            problem.constructions[m] = ChainConstruction(_regression_chain_for(cfg), cfg.n, T)
        elif m == "lt":
            if cfg.payoff != "asian":
                raise UnsupportedCombinationError(
                    f"method 'lt' unsupported for payoff {cfg.payoff!r}"
                )
            k = min(cfg.lt_columns, cfg.n)
            spec_lt = asian_spec(cfg.s0, cfg.rate, cfg.sigma, T, cfg.n)
            chain = lt_transform(spec_lt, LtConfig(k=k)).chain
            problem.constructions[m] = ChainConstruction(chain, cfg.n, T)
    return problem


def _run_batch(cfg: ExperimentConfig, problem: _Problem, points: np.ndarray, batch: int):
    """Price all methods and all prefix sizes for one random shift.

    One evaluation at the largest N serves the whole grid: the estimate at
    a smaller N is the mean over the corresponding prefix of payoffs, and
    the reported per-row runtime is the shared evaluation time.
    """
    shift = rng.shift_vector(cfg.seed, batch, problem.dim)
    u = rng.apply_shift(points, shift)
    X = rng.inv_normal_cdf(np.clip(u, rng.UNIT_EPS, 1.0 - rng.UNIT_EPS))
    out = []
    for method in cfg.methods:
        construction = problem.constructions[method]
        t0 = time.perf_counter()
        values = problem.evaluate(construction, X)
        ms = (time.perf_counter() - t0) * 1000.0
        for N in cfg.paths:
            out.append((method, N, batch, float(values[:N].mean()), ms))
    return out


def run_experiment(cfg: ExperimentConfig) -> tuple[list[RawRow], list[BatchStats]]:
    """Batched randomized-QMC estimates for every (method, N) in the config."""
    problem = _build_problem(cfg)
    max_n = max(cfg.paths)
    points = rng.sobol_block(max_n, problem.dim)
    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            chunks = list(
                pool.map(
                    lambda b: _run_batch(cfg, problem, points, b), range(cfg.batches)
                )
            )
    else:
        chunks = [_run_batch(cfg, problem, points, b) for b in range(cfg.batches)]

    raw = [
        RawRow(cfg.payoff, method, cfg.n, N, batch, est, ms)
        for chunk in chunks
        for (method, N, batch, est, ms) in chunk
    ]
    raw.sort(key=lambda r: (r.payoff, r.method, r.N, r.batch))

    stats = []
    for method in sorted(set(r.method for r in raw)):
        for N in sorted(cfg.paths):
            ests = [r.estimate for r in raw if r.method == method and r.N == N]
            ms = sum(r.runtime_ms for r in raw if r.method == method and r.N == N)
            mean = sum(ests) / len(ests)
            var = sum((e - mean) ** 2 for e in ests) / (len(ests) - 1)
            stats.append(
                BatchStats(cfg.payoff, method, cfg.n, N, mean, math.sqrt(var), len(ests), ms)
            )
    return raw, stats


def write_raw_csv(rows: list[RawRow], path: str) -> None:
    """Raw per-batch rows; sorted by (payoff, method, N, batch)."""
    rows = sorted(rows, key=lambda r: (r.payoff, r.method, r.N, r.batch))
    with open(path, "w") as fh:
        fh.write(RAW_HEADER + "\n")
        for r in rows:
            fh.write(
                f"{r.payoff},{r.method},{r.n},{r.N},{r.batch},{r.estimate!r},{r.runtime_ms:.3f}\n"
            )


def write_summary_csv(stats: list[BatchStats], path: str) -> None:
    """Per-(method, N) summary; deterministic bytes for a given seed."""
    stats = sorted(stats, key=lambda s: (s.payoff, s.method, s.N))
    with open(path, "w") as fh:
        fh.write(SUMMARY_HEADER + "\n")
        for s in stats:
            fh.write(f"{s.payoff},{s.method},{s.n},{s.N},{s.mean!r},{s.stddev!r},{s.batches}\n")


def read_raw_csv(path: str) -> list[RawRow]:
    rows = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != RAW_HEADER:
            raise ValueError("unexpected raw CSV header")
        for line in fh:
            p, m, n, N, b, est, ms = line.strip().split(",")
            rows.append(RawRow(p, m, int(n), int(N), int(b), float(est), float(ms)))
    return rows


def timing_report(
    cfg: ExperimentConfig, repeats: int = 5
) -> list[dict]:
    """Median-of-``repeats`` pricing wall time per method at a fixed N.

    The normal inputs are generated once and shared across methods, so the
    per-method time isolates transform setup plus path construction plus
    payoff evaluation.  Setup (determining the transform) is timed
    separately and included in the reported total.
    """
    N = max(cfg.paths)
    dims = cfg.assets * cfg.n if cfg.payoff == "basket" else cfg.n
    points = rng.sobol_block(N, dims)
    shift = rng.shift_vector(cfg.seed, 0, dims)
    X = rng.inv_normal_cdf(
        np.clip(rng.apply_shift(points, shift), rng.UNIT_EPS, 1.0 - rng.UNIT_EPS)
    )
    report = []
    for method in cfg.methods:
        sub = ExperimentConfig(
            payoff=cfg.payoff,
            methods=[method],
            n=cfg.n,
            paths=cfg.paths,
            batches=cfg.batches,
            seed=cfg.seed,
            s0=cfg.s0,
            strike=cfg.strike,
            rate=cfg.rate,
            sigma=cfg.sigma,
            maturity=cfg.maturity,
            barrier=cfg.barrier,
            assets=cfg.assets,
            rho=cfg.rho,
            sigma_min=cfg.sigma_min,
            sigma_max=cfg.sigma_max,
            lt_columns=cfg.lt_columns,
        )
        t0 = time.perf_counter()
        problem = _build_problem(sub)
        setup_ms = (time.perf_counter() - t0) * 1000.0
        construction = problem.constructions[method]
        times = []
        estimate = math.nan
        for _ in range(repeats):
            t0 = time.perf_counter()
            values = problem.evaluate(construction, X)
            times.append((time.perf_counter() - t0) * 1000.0)
            estimate = float(values.mean())
        run_ms = float(np.median(times))
        report.append(
            {
                "method": method,
                "setup_ms": setup_ms,
                "run_ms": run_ms,
                "total_ms": setup_ms + run_ms,
                "estimate": estimate,
            }
        )
    return report


def reflection_apply_times(
    sizes: list[int], paths: int = 256, repeats: int = 100, seed: int = 0
) -> dict[int, float]:
    """Median wall time (ms) of one Householder application per size.

    Used to check the O(n) application cost: doubling n should roughly
    double the time.
    """
    from .transforms import householder_from_target

    gen = np.random.default_rng(seed)
    out = {}
    for n in sizes:
        a = np.abs(gen.standard_normal(n)) + 0.1
        refl = householder_from_target(a, k=1)
        X = gen.standard_normal((paths, n))
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            refl.apply(X)
            times.append((time.perf_counter() - t0) * 1000.0)
        out[n] = float(np.median(times))
    return out
