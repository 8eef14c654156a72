"""Experiment runner: randomized-QMC batch statistics, CSV output, timing.

A run prices one payoff with one or more path constructions over a grid of
sample sizes N.  Every batch uses the same Sobol points under its own
random shift derived from (seed, batch), so results are reproducible.
A batch is priced in fixed row chunks (about 4 MiB of normals, at least
512 rows) on a pool of worker threads; every chunk writes its own slice
of the payoff vector, so the estimates do not depend on the thread count
or schedule, and memory does not grow with N beyond the Sobol states and
the payoffs.  While a pool of more than one thread runs, OpenBLAS is held
at one thread for the whole process, so PCA's per-chunk products do not
start BLAS threads that compete with the chunk threads.

Estimates are deterministic for a given configuration and seed.  Wall
times in the raw rows are measurements and naturally vary from run to
run; the summary schema carries no timing column and is byte-stable.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from typing import Callable

import numpy as np

from . import rng
from .brownian_max import barrier_coefficients
from .lt import lt_transform
from .payoffs import (
    average_call,
    barrier_average_call,
    barrier_hit,
    basket_paths,
    log_drift,
    payoff,
)
from .regression import (
    RegressionVector,
    basket_spec,
    logexp_coefficients,
    regression_chain,
)
from .transforms import (
    BasketCovSpec,
    BrownianBridgeConstruction,
    ChainConstruction,
    ForwardConstruction,
    KroneckerConstruction,
    PcaConstruction,
    cholesky_psd,
    eigh_factor,
    householder_from_target,
)

RAW_HEADER = "payoff,method,n,N,batch,estimate,runtime_ms"
SUMMARY_HEADER = "payoff,method,n,N,mean,stddev,batches"

# Entries of one chunk's (rows, dim) float64 normals: 4 MiB, so a chunk's
# normals, paths and prices stay within a core's share of the cache.
_CHUNK_ELEMENTS = 2**19
# Fewest rows per chunk, whatever the dimension.  It was set for PCA's dense
# (rows, n) by (n, n) gemm while each chunk's gemm started BLAS threads of
# its own.  With BLAS at one thread under the chunk pool, 256 and 512 rows
# tie on digital-2000 (n = 2000, a 2-core Xeon with OpenBLAS, medians of 18
# operations each, every estimate bit-identical): pca 1.222 against 1.227 s,
# bb 0.548 against 0.554 s.
_MIN_CHUNK_ROWS = 512


def usable_cores() -> int:
    """Cores this process may run on: the default number of worker threads."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@functools.cache
def _openblas_threads():
    """OpenBLAS's (get, set) thread-count functions as numpy links them, or
    None when numpy's BLAS is not OpenBLAS."""
    try:
        from numpy._core import _multiarray_umath

        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, OSError):
        return None
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


# OpenBLAS's thread count is one setting for the whole process, so pools
# that overlap (nested, or on several caller threads) share one cap: the
# first to enter saves the count and sets 1, the last to leave restores it.
_blas_cap_lock = threading.Lock()
_blas_cap_depth = 0
_blas_saved_threads = 0


@contextmanager
def _chunk_pool(workers: int):
    """A pool of ``workers`` chunk threads, with BLAS at one thread while it runs.

    Each chunk thread already has a core; a multithreaded gemm inside a
    chunk would only compete with the other chunks for it.
    """
    global _blas_cap_depth, _blas_saved_threads
    blas = _openblas_threads() if workers > 1 else None
    if blas is not None:
        get, set_ = blas
        with _blas_cap_lock:
            if _blas_cap_depth == 0:
                _blas_saved_threads = get()
                set_(1)
            _blas_cap_depth += 1
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            yield pool
    finally:
        if blas is not None:
            with _blas_cap_lock:
                _blas_cap_depth -= 1
                if _blas_cap_depth == 0:
                    set_(_blas_saved_threads)


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
    workers: int = field(default_factory=usable_cores)

    def __post_init__(self):
        if self.payoff not in PAYOFFS:
            raise ValueError(f"unknown payoff {self.payoff!r}")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}")
        if self.batches < 2:
            raise ValueError("need at least 2 batches")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2^64), got {self.seed}")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        for N in self.paths:
            if N < 1 or N & (N - 1):
                raise ValueError("path counts must be powers of two")
            if N > rng.MAX_INDEX:
                raise ValueError(
                    f"path counts must not exceed the Sobol index limit 2^{rng.BITS}, got {N}"
                )
        if len(set(self.paths)) < len(self.paths):
            raise ValueError(f"path counts must be distinct, got {self.paths}")
        if self.lt_columns < 0:
            raise ValueError(f"lt_columns must be nonnegative, got {self.lt_columns}")
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        positive = ()
        if self.payoff in ("digital-barrier", "asian-barrier"):
            if self.barrier is None:
                raise ValueError(f"payoff {self.payoff!r} requires a barrier level")
            positive = ("barrier", "sigma")  # the barrier moments need both
        for f in fields(self):
            v, pos = getattr(self, f.name), f.name in positive
            if (isinstance(v, float) and not math.isfinite(v)) or (pos and not v > 0.0):
                raise ValueError(f"{f.name} must be {'positive and ' * pos}finite, got {v!r}")
        for name in ("s0", "maturity"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")
        if self.payoff == "basket" and self.assets < 1:
            raise ValueError("basket needs at least 1 asset")
        dim = self.n * (self.assets if self.payoff == "basket" else 1)
        if dim > rng.max_dimension():
            raise ValueError(
                f"path dimension {dim} exceeds the Sobol table's {rng.max_dimension()} dimensions"
            )
        # the basket takes its vols from sigma_min and sigma_max, not sigma
        if self.payoff != "basket" and self.sigma < 0.0:
            raise ValueError(f"sigma must be nonnegative, got {self.sigma!r}")


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


@dataclass
class _Problem:
    """Everything needed to price one payoff under every method."""

    dim: int
    evaluate: Callable  # (construction, X) -> payoff vector
    constructions: dict = field(default_factory=dict)


def _single_cov(cfg: ExperimentConfig) -> BasketCovSpec:
    return BasketCovSpec(
        m=1, n=cfg.n, T=cfg.maturity, vols=np.array([cfg.sigma]), corr=np.ones((1, 1))
    )


def _basket_cov(cfg: ExperimentConfig) -> BasketCovSpec:
    vols = np.linspace(cfg.sigma_min, cfg.sigma_max, cfg.assets)
    corr = np.full((cfg.assets, cfg.assets), cfg.rho)
    np.fill_diagonal(corr, 1.0)
    return BasketCovSpec(m=cfg.assets, n=cfg.n, T=cfg.maturity, vols=vols, corr=corr)


# Coefficient providers and log-exp specs call the library through this
# module's namespace, where the benchmark's trace hooks find them.
def _average_spec(cfg: ExperimentConfig):
    """Log-exp spec of the average price over the payoff's assets and steps."""
    cov = _PAYOFF_TABLE[cfg.payoff].market(cfg)
    return basket_spec(cov, np.full(cov.m, cfg.s0), cfg.rate)


def _average_a(cfg: ExperimentConfig) -> np.ndarray:
    return logexp_coefficients(_average_spec(cfg)).a


def _barrier_a(cfg: ExperimentConfig) -> np.ndarray:
    return barrier_coefficients(cfg.s0, cfg.rate, cfg.sigma, cfg.maturity, cfg.n, cfg.barrier).a


@dataclass(frozen=True)
class _PayoffRow:
    market: Callable  # cfg -> BasketCovSpec; a single asset is the one-asset basket
    reduction: Callable  # (S, strike, barrier) -> undiscounted payoff of (..., m, n) prices
    providers: tuple  # cfg -> coefficient vector of each smooth part, in chain order
    lt_spec: Callable | None  # cfg -> log-exp spec for LT; None refuses the method


_PAYOFF_TABLE = {
    "asian": _PayoffRow(_single_cov, average_call, (_average_a,), _average_spec),
    "basket": _PayoffRow(_basket_cov, average_call, (_average_a,), _average_spec),
    "digital-barrier": _PayoffRow(_single_cov, barrier_hit, (_barrier_a,), None),
    "asian-barrier": _PayoffRow(
        _single_cov, barrier_average_call, (_barrier_a, _average_a), None
    ),
}


def _regression(cfg: ExperimentConfig, row: _PayoffRow, dim: int):
    return regression_chain([p(cfg) for p in row.providers], dim)


def _lt(cfg: ExperimentConfig, row: _PayoffRow, dim: int):
    if row.lt_spec is None:
        raise UnsupportedCombinationError(f"method 'lt' unsupported for payoff {cfg.payoff!r}")
    return lt_transform(row.lt_spec(cfg), min(cfg.lt_columns, dim)).chain


# method -> (time factor, asset factor K1 with K1 K1^T = R,
# builder (cfg, payoff row, dim) -> the TransformChain in front, or None).
# A chain is fused into the construction (``ChainConstruction``).
_METHOD_TABLE = {
    "forward": (ForwardConstruction, cholesky_psd, None),
    "bb": (BrownianBridgeConstruction, cholesky_psd, None),
    "pca": (PcaConstruction, eigh_factor, None),
    "regression": (ForwardConstruction, cholesky_psd, _regression),
    "lt": (ForwardConstruction, cholesky_psd, _lt),
}

PAYOFFS = tuple(_PAYOFF_TABLE)
METHODS = tuple(_METHOD_TABLE)


def supported_methods(payoff: str, methods) -> list[str]:
    """The given methods that can price the payoff (LT needs a log-exp spec)."""
    lt_ok = _PAYOFF_TABLE[payoff].lt_spec is not None
    return [m for m in methods if m != "lt" or lt_ok]


def regression_vector_for(cfg: ExperimentConfig) -> RegressionVector:
    """The coefficient vector a the regression chain first reflects onto.

    That is the first smooth part's vector that the chain does not skip
    as zero; the first part's vector if every part's is zero.
    """
    vectors = [p(cfg) for p in _PAYOFF_TABLE[cfg.payoff].providers]
    a = next((w for w in vectors if np.any(w)), vectors[0])
    return RegressionVector.from_coefficients(a)


def _build_problem(cfg: ExperimentConfig) -> _Problem:
    """Each method's construction: chain, then asset factor, then time factor.

    The drift comes first, so an overflowing volatility raises
    FloatingPointError before anything else is built from it.
    """
    row = _PAYOFF_TABLE[cfg.payoff]
    cov = row.market(cfg)
    drift = log_drift(cov, cfg.rate)
    S0 = np.full(cov.m, cfg.s0)
    disc = math.exp(-cfg.rate * cfg.maturity)

    def evaluate(construction, X):
        S = basket_paths(S0, drift, construction.apply(X))
        return payoff(row.reduction, disc, S, cfg.strike, cfg.barrier)

    problem = _Problem(cov.dim, evaluate)
    R = cov.R()
    for m in cfg.methods:
        time_factor, asset_factor, chain = _METHOD_TABLE[m]
        construction = KroneckerConstruction(asset_factor(R), time_factor(cfg.n, cfg.maturity))
        if chain is not None:
            construction = ChainConstruction(chain(cfg, row, problem.dim), construction)
        problem.constructions[m] = construction
    return problem


def _chunk_rows(dim: int) -> int:
    """Rows per chunk: the largest power of two whose (rows, dim) array holds
    at most ``_CHUNK_ELEMENTS`` entries, and at least ``_MIN_CHUNK_ROWS``."""
    return max(_MIN_CHUNK_ROWS, 1 << max(0, (_CHUNK_ELEMENTS // dim).bit_length() - 1))


def _evaluate(pool, problem: _Problem, methods, count: int, normals: Callable):
    """Payoffs of points 0..count-1 under each method, in row chunks on ``pool``.

    ``normals(lo, hi)`` gives the normals of points lo..hi-1.  Chunk bounds
    depend on the dimension alone and each chunk writes its own slice, so
    the payoffs do not depend on the threads.  Returns the (count,) payoff
    vector per method and the seconds each method spent, summed over chunks.
    """
    values = {m: np.empty(count) for m in methods}
    rows = _chunk_rows(problem.dim)

    def chunk(lo: int) -> list[float]:
        X = normals(lo, min(lo + rows, count))
        seconds = []
        for m in methods:
            t0 = time.perf_counter()
            values[m][lo : lo + len(X)] = problem.evaluate(problem.constructions[m], X)
            seconds.append(time.perf_counter() - t0)
        return seconds

    starts = range(0, count, rows)
    # a single chunk runs on the calling thread: no worker thread to start
    per_chunk = list(pool.map(chunk, starts)) if len(starts) > 1 else [chunk(0)]
    return values, {m: sum(s[i] for s in per_chunk) for i, m in enumerate(methods)}


def _run_batch(cfg: ExperimentConfig, problem: _Problem, points: np.ndarray, batch: int, pool):
    """Price all methods and all prefix sizes for one random shift.

    One evaluation at the largest N serves the whole grid: the estimate at
    a smaller N is the mean over the corresponding prefix of payoffs, and
    the reported per-row runtime is the method's evaluation time, summed
    over the batch's chunks.
    """
    shift = rng.shift_vector(cfg.seed, batch, problem.dim)

    def normals(lo: int, hi: int) -> np.ndarray:
        return rng.shifted_normals(points[lo:hi], shift)

    values, seconds = _evaluate(pool, problem, cfg.methods, len(points), normals)
    out = []
    for method in cfg.methods:
        ms = seconds[method] * 1000.0
        for N in cfg.paths:
            out.append((method, N, batch, float(values[method][:N].mean()), ms))
    return out


def _sobol_block(count: int, dim: int) -> np.ndarray:
    """``rng.sobol_block``, with a MemoryError that names the block's size."""
    try:
        return rng.sobol_block(count, dim)
    except MemoryError as exc:
        raise MemoryError(f"no room for N={count} Sobol points in dimension {dim}") from exc


def run_experiment(cfg: ExperimentConfig) -> tuple[list[RawRow], list[BatchStats]]:
    """Batched randomized-QMC estimates for every (method, N) in the config."""
    problem = _build_problem(cfg)
    max_n = max(cfg.paths)
    points = _sobol_block(max_n, problem.dim)
    with _chunk_pool(cfg.workers) as pool:
        chunks = [_run_batch(cfg, problem, points, b, pool) for b in range(cfg.batches)]

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
            mean = sum(ests) / len(ests)
            var = sum((e - mean) ** 2 for e in ests) / (len(ests) - 1)
            stats.append(
                BatchStats(cfg.payoff, method, cfg.n, N, mean, math.sqrt(var), len(ests))
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


def timing_report(
    cfg: ExperimentConfig, repeats: int = 5
) -> list[dict]:
    """Median-of-``repeats`` pricing wall time per method at a fixed N.

    The normal inputs are generated once and shared across methods, so the
    per-method time isolates transform setup plus path construction plus
    payoff evaluation, run in row chunks on ``cfg.workers`` threads as in
    ``run_experiment``.  Setup (determining the transform) is timed
    separately and included in the reported total.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
    N = max(cfg.paths)
    dim = _build_problem(replace(cfg, methods=[])).dim
    X = rng.shifted_normals(_sobol_block(N, dim), rng.shift_vector(cfg.seed, 0, dim))
    report = []
    with _chunk_pool(cfg.workers) as pool:
        for method in cfg.methods:
            t0 = time.perf_counter()
            problem = _build_problem(replace(cfg, methods=[method]))
            setup_ms = (time.perf_counter() - t0) * 1000.0
            times = []
            estimate = math.nan
            for _ in range(repeats):
                t0 = time.perf_counter()
                values, _ = _evaluate(pool, problem, [method], N, lambda lo, hi: X[lo:hi])
                times.append((time.perf_counter() - t0) * 1000.0)
                estimate = float(values[method].mean())
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
