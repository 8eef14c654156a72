"""Experiment runner: randomized-QMC batch statistics, CSV output, timing.

A run prices one payoff with one or more path constructions over a grid of
sample sizes N.  Every batch uses the same Sobol points under its own
random shift derived from (seed, batch), so results are reproducible.  The
points are priced in fixed row chunks (about 1 MiB of normals, at least
128 rows) on a pool of worker threads.  Each chunk makes its own Sobol
states once and, batch by batch, turns them into normals in one reused
buffer and prices every method on them, keeping only the payoff sums over
each prefix N.  The sums are added in chunk order, so the estimates do not
depend on the thread count or schedule, and memory does not grow with N.
One call, ``_build_and_price``, opens the pool, builds every method's
construction (``_build_problem``) and runs the chunk loop;
``run_experiment`` and ``timing_report`` each make it once, the timing
repeats being batches; with no method it returns before the pool and the
set-up.  ``ExperimentConfig`` refuses a bad request before that call: a
bad flag first (ValueError), then a method the payoff cannot price
(UnsupportedCombinationError).  It lives in ``config``, with the payoff
and method names and the payoffs' facts, and this module re-exports it;
the payoff and method tables here hold only the callables, keyed by
config's names.  While a pool of more than one thread
runs, OpenBLAS is held at one thread for the whole process, so PCA's
per-chunk products do not start BLAS threads that compete with the chunk
threads.  The first pool of a process raises glibc's malloc thresholds
(``_keep_freed_memory``), so the chunks' freed arrays are reused from the
heap instead of being page-faulted afresh.

All set-up, the barrier quadrature included, runs on the calling thread.

Estimates are deterministic for a given configuration and seed.  The
times in the raw rows and the timing report are measurements and
naturally vary from run to run; the summary schema carries no timing
column and is byte-stable.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import rng
from .brownian_max import barrier_coefficients
# the run request and its names are config's; harness re-exports them
from .config import (
    METHODS,
    PAYOFF_FACTS,
    PAYOFFS,
    ExperimentConfig,
    UnsupportedCombinationError,
    supported_methods,
    usable_cores,
)
from .lt import lt_transform
from .payoffs import (
    average_call,
    barrier_average_call,
    barrier_hit,
    basket_paths,
    log_drift,
    log_paths,
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

# Entries of one chunk's (rows, dim) float64 normals: 1 MiB.  A worker
# holds four or five arrays of that size (states, normals, construction
# output, scratch), so they stay near a core's 2 MiB L2 cache; at 2^19
# entries they took 20-35 MiB a worker.  On asian-250 (a 2-vCPU Xeon,
# medians of 4 alternating processes) the methods ran 4-13 % slower at
# 2^18, and at 2^16 pca tied while the others ran 6-24 % slower, 24-46 %
# at 2^15, as the per-chunk numpy calls grow with the chunk count.
_CHUNK_ELEMENTS = 2**17
# Fewest rows per chunk, whatever the dimension: the chunk size at n = 2000
# and for a 10 x 250 basket.  Swept over 64, 128 and 256 (same box, 11
# alternating processes on digital-2000 and 4 on the basket): 128 and 256
# won about half the pairs against each other on every method, and 256
# took 6 MiB more RSS on digital-2000 and 16-23 MiB more on the basket;
# 64 read 1-6 % slower in six of the nine medians for 3 MiB less on
# digital-2000.
_MIN_CHUNK_ROWS = 128


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


# glibc's malloc thresholds, raised once per process by the first chunk
# pool: blocks up to 32 MiB (its largest mmap threshold) come from the heap,
# whose free top is kept up to 64 MiB.  At glibc's defaults the chunks'
# MiB-sized arrays went to mmap, or were trimmed off the heap after each
# chunk, and were page-faulted afresh every time: an asian-250 process of
# 5 rounds of its 5 methods took 345-456 thousand minor faults, 19.5
# thousand at these values, which glibc's own rule also reaches once a
# 32 MiB block is freed.
_MMAP_THRESHOLD = 2**25
_TRIM_THRESHOLD = 2**26


@functools.cache
def _keep_freed_memory() -> None:
    """Raise glibc malloc's mmap and trim thresholds (a no-op without glibc)."""
    if os.name != "posix":
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.restype, mallopt.argtypes = ctypes.c_int, [ctypes.c_int, ctypes.c_int]
        mallopt(-3, _MMAP_THRESHOLD)  # M_MMAP_THRESHOLD
        mallopt(-1, _TRIM_THRESHOLD)  # M_TRIM_THRESHOLD


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
    _keep_freed_memory()
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


@dataclass
class RawRow:
    payoff: str
    method: str
    n: int
    N: int
    batch: int
    estimate: float
    # the (method, batch)'s evaluation seconds, summed over the chunk threads
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
    setup_ms: dict = field(default_factory=dict)  # method -> its construction's build time


def _single_cov(cfg: ExperimentConfig) -> BasketCovSpec:
    return BasketCovSpec(
        m=1, n=cfg.n, T=cfg.maturity, vols=np.array([cfg.sigma]), corr=np.ones((1, 1))
    )


def _basket_cov(cfg: ExperimentConfig) -> BasketCovSpec:
    vols = np.linspace(cfg.sigma_min, cfg.sigma_max, cfg.assets)
    corr = np.full((cfg.assets, cfg.assets), cfg.rho)
    np.fill_diagonal(corr, 1.0)
    return BasketCovSpec(m=cfg.assets, n=cfg.n, T=cfg.maturity, vols=vols, corr=corr)


def _market(cfg: ExperimentConfig) -> BasketCovSpec:
    """The payoff's market; a single asset is the one-asset basket."""
    return _basket_cov(cfg) if PAYOFF_FACTS[cfg.payoff].basket else _single_cov(cfg)


@dataclass(frozen=True)
class _PayoffRow:
    paths: Callable  # (S0, drift, construction output) -> the (..., m, n) paths the reduction reads
    reduction: Callable  # (paths, S0, strike, barrier) -> undiscounted payoff per path
    providers: tuple  # cfg -> coefficient vector of each smooth part, in chain order
    lt_spec: Callable | None  # cfg -> log-exp spec for LT, None where config's facts refuse LT


# Path steps, coefficient providers and log-exp specs call the library
# through this module's namespace, where the benchmark's trace hooks find
# them.
def _prices(S0: np.ndarray, drift: np.ndarray, Y: np.ndarray) -> np.ndarray:
    return basket_paths(S0, drift, Y)


def _log_prices(S0: np.ndarray, drift: np.ndarray, Y: np.ndarray) -> np.ndarray:
    return log_paths(drift, Y)  # a barrier reduction needs no exp to decide a hit


def _average_spec(cfg: ExperimentConfig):
    """Log-exp spec of the average price over the payoff's assets and steps."""
    cov = _market(cfg)
    return basket_spec(cov, np.full(cov.m, cfg.s0), cfg.rate)


def _average_a(cfg: ExperimentConfig) -> np.ndarray:
    return logexp_coefficients(_average_spec(cfg)).a


def _barrier_a(cfg: ExperimentConfig) -> np.ndarray:
    return barrier_coefficients(cfg.s0, cfg.rate, cfg.sigma, cfg.maturity, cfg.n, cfg.barrier).a


# keyed by config's payoff names, which also hold each payoff's facts
_PAYOFF_TABLE = {
    "asian": _PayoffRow(_prices, average_call, (_average_a,), _average_spec),
    "basket": _PayoffRow(_prices, average_call, (_average_a,), _average_spec),
    "digital-barrier": _PayoffRow(_log_prices, barrier_hit, (_barrier_a,), None),
    "asian-barrier": _PayoffRow(_log_prices, barrier_average_call, (_barrier_a, _average_a), None),
}


def _regression(cfg: ExperimentConfig, row: _PayoffRow, dim: int):
    return regression_chain([p(cfg) for p in row.providers], dim)


def _lt(cfg: ExperimentConfig, row: _PayoffRow, dim: int):
    return lt_transform(row.lt_spec(cfg), min(cfg.lt_columns, dim)).chain


# method -> (time factor (n, T), asset factor K1 with K1 K1^T = R,
# builder (cfg, payoff row, dim) -> the TransformChain in front, or None).
# A chain is fused into the construction (``ChainConstruction``).  Keyed
# by config's method names.
_METHOD_TABLE = {
    "forward": (ForwardConstruction, cholesky_psd, None),
    "bb": (BrownianBridgeConstruction, cholesky_psd, None),
    "pca": (PcaConstruction, eigh_factor, None),
    "regression": (ForwardConstruction, cholesky_psd, _regression),
    "lt": (ForwardConstruction, cholesky_psd, _lt),
}


def regression_vector_for(cfg: ExperimentConfig) -> RegressionVector:
    """The coefficient vector a the regression chain first reflects onto.

    That is the first smooth part's vector that the chain does not skip
    as zero; the first part's vector if every part's is zero.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # as in _build_problem
        vectors = [p(cfg) for p in _PAYOFF_TABLE[cfg.payoff].providers]
        a = next((w for w in vectors if np.any(w)), vectors[0])
        return RegressionVector.from_coefficients(a)


def _build_problem(cfg: ExperimentConfig) -> _Problem:
    """Each method's construction: chain, then asset factor, then time factor.

    Each method's build time (its factors and chain; the market, drift and
    R are shared) goes to ``setup_ms``.  scipy.special, which every caller
    needs to price, is imported before the first build is timed.  The
    drift comes first, so an overflowing volatility raises
    FloatingPointError before anything else is built from it.  Any other
    overflow gives inf or NaN silently, and the CLI refuses it (exit 4).
    """
    import scipy.special  # noqa: F401  (about 0.3 s in a fresh process)

    row = _PAYOFF_TABLE[cfg.payoff]
    cov = _market(cfg)
    drift = log_drift(cov, cfg.rate)
    S0 = np.full(cov.m, cfg.s0)
    disc = math.exp(-cfg.rate * cfg.maturity)

    def evaluate(construction, X):  # on the chunk threads: numpy's error state is per thread
        # divide: a barrier level's log(B / S0) is -inf where B / S0 underflows
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            P = row.paths(S0, drift, construction.apply(X))
            return payoff(row.reduction, disc, P, S0, cfg.strike, cfg.barrier)

    problem = _Problem(cov.dim, evaluate)
    R = cov.R()
    for m in cfg.methods:
        t0 = time.perf_counter()
        time_factor, asset_factor, chain = _METHOD_TABLE[m]
        construction = KroneckerConstruction(asset_factor(R), time_factor(cfg.n, cfg.maturity))
        if chain is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                construction = ChainConstruction(chain(cfg, row, problem.dim), construction)
        problem.constructions[m] = construction
        problem.setup_ms[m] = (time.perf_counter() - t0) * 1000.0
    return problem


def _chunk_rows(dim: int) -> int:
    """Rows per chunk: the largest power of two whose (rows, dim) array holds
    at most ``_CHUNK_ELEMENTS`` entries, and at least ``_MIN_CHUNK_ROWS``."""
    return max(_MIN_CHUNK_ROWS, 1 << max(0, (_CHUNK_ELEMENTS // dim).bit_length() - 1))


def _map_chunks(pool, workers: int, chunk: Callable, starts: Sequence):
    """``chunk(lo)`` for every lo of ``starts``, in order, on ``pool``.  At
    most two chunks per worker wait in its queue, so the queue does not grow
    with the chunk count; a single chunk runs on the calling thread, with no
    worker thread to start."""
    if len(starts) == 1:
        yield chunk(starts[0])
        return
    queued = deque()
    for lo in starts:
        queued.append(pool.submit(chunk, lo))
        if len(queued) > 2 * workers:
            yield queued.popleft().result()
    while queued:
        yield queued.popleft().result()


def _build_and_price(cfg: ExperimentConfig, paths: list[int], batches: int):
    """Open the chunk pool, build every method's construction
    (``_build_problem``) under its BLAS cap, then run the loop in row chunks,
    batch b under the shift of (cfg.seed, b).  Returns the problem, the
    (method, batch, N) payoff sums over points 0..N-1, added in chunk order,
    and each (method, batch)'s evaluation seconds, summed over the chunks.
    Chunk bounds depend on the dimension alone, so the sums do not depend on
    the threads.  With no method there is nothing to price: no problem
    (None), no pool and no normals."""
    methods, max_n = cfg.methods, max(paths)
    sums = np.zeros((len(methods), batches, len(paths)))
    seconds = np.zeros((len(methods), batches))
    if not methods:
        return None, sums, seconds
    with _chunk_pool(cfg.workers) as pool:
        problem = _build_problem(cfg)
        dim = problem.dim
        rows = _chunk_rows(dim)
        shifts = [rng.shift_vector(cfg.seed, b, dim) for b in range(batches)]

        def chunk(lo: int) -> tuple[np.ndarray, np.ndarray]:
            points = rng.sobol_block(min(rows, max_n - lo), dim, start=lo)
            X = np.empty(points.shape)  # every batch's normals, in turn
            part, part_s = np.zeros_like(sums), np.zeros_like(seconds)
            for b, shift in enumerate(shifts):
                rng.shifted_normals(points, shift, out=X)
                for i, m in enumerate(methods):
                    t0 = time.perf_counter()
                    v = problem.evaluate(problem.constructions[m], X)
                    part_s[i, b] = time.perf_counter() - t0
                    # chunk sizes and N are powers of two, so N - lo > 0 takes
                    # the whole chunk or, when N is below a chunk, a prefix
                    for j, N in enumerate(paths):
                        if lo < N:
                            part[i, b, j] = v[: N - lo].sum()
            return part, part_s

        for part, part_s in _map_chunks(pool, cfg.workers, chunk, range(0, max_n, rows)):
            sums += part
            seconds += part_s
    return problem, sums, seconds


def run_experiment(cfg: ExperimentConfig) -> tuple[list[RawRow], list[BatchStats]]:
    """Batched randomized-QMC estimates for every (method, N) in the config:
    the chunks' payoff sums over points 0..N-1, added in chunk order, over N.
    Rows come in (method, N, batch) order and stats in (method, N) order."""
    _, sums, seconds = _build_and_price(cfg, cfg.paths, cfg.batches)
    raw, stats = [], []
    for method in sorted(cfg.methods):
        i = cfg.methods.index(method)
        for N in sorted(cfg.paths):
            ests = [float(e) for e in sums[i, :, cfg.paths.index(N)] / N]
            raw += [
                RawRow(cfg.payoff, method, cfg.n, N, b, e, seconds[i, b] * 1000.0)
                for b, e in enumerate(ests)
            ]
            mean = sum(ests) / len(ests)
            var = sum((e - mean) ** 2 for e in ests) / (len(ests) - 1)
            stats.append(BatchStats(cfg.payoff, method, cfg.n, N, mean, math.sqrt(var), len(ests)))
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


def timing_report(cfg: ExperimentConfig, repeats: int = 5) -> list[dict]:
    """Set-up time and median pricing time per method at N = max(cfg.paths).

    The repeats are batches ``0 .. repeats-1`` of ``run_experiment``'s one
    build-and-price call (``_build_and_price``): each chunk turns its points
    into normals once a batch and prices every method on them, so load on
    the machine moves every method alike.  A method's run time is the
    median over the batches of its evaluation seconds (construction, paths
    and payoff), summed over the chunk threads; its estimate is batch 0's.
    Set-up (determining the transform) is the method's build time in that
    call's ``_build_problem``, and is included in the reported total.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
    N = max(cfg.paths)
    problem, sums, seconds = _build_and_price(cfg, [N], repeats)
    run_ms = np.median(seconds, axis=1) * 1000.0
    return [
        {
            "method": method,
            "setup_ms": problem.setup_ms[method],
            "run_ms": float(run_ms[i]),
            "total_ms": problem.setup_ms[method] + float(run_ms[i]),
            "estimate": float(sums[i, 0, 0] / N),
        }
        for i, method in enumerate(cfg.methods)
    ]


def reflection_apply_times(
    sizes: list[int], paths: int = 256, repeats: int = 100, seed: int = 0
) -> dict[int, float]:
    """Least wall time (ms) of one Householder application per size.

    Each size's one-reflection chain is built once, and only its ``apply``
    to ``paths`` rows is timed.  Used to check the O(n) application cost:
    doubling n should roughly double the time.  The repeats run round-robin
    over the sizes, so all sizes meet the same cache state and load (run
    size after size, a smaller block stayed cached between its repeats),
    and the minimum leaves out what load added.
    """
    gen = np.random.default_rng(seed)
    cases = {}
    for n in sizes:
        a = np.abs(gen.standard_normal(n)) + 0.1
        cases[n] = householder_from_target(a, k=1), gen.standard_normal((paths, n))
    times = {n: [] for n in cases}
    for _ in range(repeats):
        for n, (chain, X) in cases.items():
            t0 = time.perf_counter()
            chain.apply(X)
            times[n].append((time.perf_counter() - t0) * 1000.0)
    return {n: min(t) for n, t in times.items()}
