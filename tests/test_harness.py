import importlib.util
import json
import math
import os
import pathlib
import platform
import random
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace

import numpy as np
import pytest

from qmcpricer import cli, harness, rng
from qmcpricer.payoffs import basket_paths, log_drift
from qmcpricer.regression import asian_spec, logexp_coefficients
from qmcpricer.transforms import construction_matrix


def _python(*args: str) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter that imports qmcpricer from
    this checkout's ``src``; output captured as text."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )


def _cfg(**kw):
    base = dict(
        payoff="asian",
        methods=["forward"],
        n=8,
        paths=[64],
        batches=2,
        seed=0,
    )
    base.update(kw)
    return harness.ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError, match="unknown payoff"):
        _cfg(payoff="lookback")
    with pytest.raises(ValueError, match="unknown method"):
        _cfg(methods=["sobol"])
    with pytest.raises(ValueError, match="batches"):
        _cfg(batches=1)
    with pytest.raises(ValueError, match="powers of two"):
        _cfg(paths=[48])
    with pytest.raises(ValueError, match="distinct"):
        _cfg(paths=[64, 64], batches=4)
    with pytest.raises(ValueError, match="methods must be distinct"):
        _cfg(methods=["forward", "bb", "forward"])
    for method in ("forward", "lt"):
        with pytest.raises(ValueError, match="lt_columns must be nonnegative"):
            _cfg(methods=[method], lt_columns=-1)
    assert _cfg(methods=["lt"], lt_columns=0).lt_columns == 0
    with pytest.raises(ValueError, match="barrier"):
        _cfg(payoff="digital-barrier")
    for payoff in ("digital-barrier", "asian-barrier"):
        for bad in (-5.0, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="barrier must be positive and finite"):
                _cfg(payoff=payoff, barrier=bad)
    assert _cfg(payoff="digital-barrier", barrier=1e-3).barrier == 1e-3
    for name in ("s0", "strike", "rate", "sigma", "maturity", "rho", "sigma_min", "sigma_max"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                _cfg(**{name: bad})
    for payoff in ("digital-barrier", "asian-barrier"):
        for bad in (0.0, -0.2, math.nan, math.inf):
            with pytest.raises(ValueError, match="sigma must be positive and finite"):
                _cfg(payoff=payoff, barrier=110.0, sigma=bad)
    assert _cfg(payoff="basket", sigma=0.0).sigma == 0.0
    with pytest.raises(ValueError, match="workers"):
        _cfg(workers=0)
    with pytest.raises(ValueError, match="asset"):
        _cfg(payoff="basket", assets=0)
    # a basket's rho is a correlation; a single asset never reads it
    for bad in (1.0 + 2**-52, -1.5, 1e155):
        with pytest.raises(ValueError, match="rho must lie in \\[-1, 1\\]"):
            _cfg(payoff="basket", assets=2, rho=bad)
    assert _cfg(payoff="basket", assets=2, rho=-1.0).rho == -1.0
    assert _cfg(rho=2.0).rho == 2.0
    for name, bad in (("s0", 0.0), ("s0", -1.0), ("maturity", 0.0), ("maturity", -1.0)):
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            _cfg(**{name: bad})
    with pytest.raises(ValueError, match="sigma must be nonnegative"):
        _cfg(sigma=-0.1)
    with pytest.raises(ValueError, match="n must be at least 1"):
        _cfg(n=0)
    # the path dimension, n or n x assets, must fit the Sobol table
    top = rng.max_dimension()
    for kw in (dict(n=top + 1), dict(payoff="basket", assets=11, n=250)):
        with pytest.raises(ValueError, match=f"path dimension {kw['n'] * kw.get('assets', 1)}"):
            _cfg(**kw)
    assert _cfg(n=top).n == top
    assert _cfg(payoff="basket", assets=10, n=250).assets == 10
    # so must the path count, 2^32 at most
    with pytest.raises(ValueError, match="path counts must not exceed the Sobol index limit 2\\^32"):
        _cfg(paths=[2 * rng.MAX_INDEX])
    assert _cfg(paths=[rng.MAX_INDEX]).paths == [2**32]


def test_oversized_basket_refused_before_its_market_is_built():
    # a 20000-asset correlation would be 3 GB; the dimension check needs none
    rng._load_directions()  # direction table cached outside the measurement
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="path dimension 20000 exceeds"):
            _cfg(payoff="basket", n=1, assets=20000)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.01 and peak < 10 * 2**20, (elapsed, peak)


def test_zero_sigma_deterministic():
    # sigma = 0 makes the payoff constant: every batch estimate coincides
    cfg = _cfg(sigma=0.0, paths=[2], batches=2)
    raw, stats = harness.run_experiment(cfg)
    k = np.arange(1, 9)
    avg = (100.0 * np.exp(0.04 * k / 8.0)).mean()
    want = math.exp(-0.04) * max(avg - 100.0, 0.0)
    for row in raw:
        assert abs(row.estimate - want) < 1e-12
    assert stats[0].stddev == 0.0


def test_one_asset_basket_prices_as_the_single_asset():
    # a single asset is the one-asset basket: the same paths, reduction and
    # chains, so every method's estimates agree to the bit.  At this config,
    # scaling by sigma after rather than before the fused chain update moves
    # regression's and lt's last bits.
    s = 0.23
    single = _cfg(
        payoff="asian", methods=list(harness.METHODS), n=16, paths=[64, 128], batches=4,
        seed=3, sigma=s,
    )
    basket = replace(single, payoff="basket", assets=1, sigma_min=s, sigma_max=s)
    stats = [harness.run_experiment(cfg)[1] for cfg in (single, basket)]
    assert [(st.method, st.mean, st.stddev) for st in stats[0]] == [
        (st.method, st.mean, st.stddev) for st in stats[1]
    ]
    # basket_paths overwrites the construction's output, never the normals
    X = rng.shifted_normals(rng.sobol_block(128, 16), rng.shift_vector(3, 0, 16))
    before = X.copy()
    for cfg in (single, basket):
        problem = harness._build_problem(cfg)
        for construction in problem.constructions.values():
            first = problem.evaluate(construction, X)
            second = problem.evaluate(construction, X)
            np.testing.assert_array_equal(X, before)
            np.testing.assert_array_equal(first, second)


def test_unsupported_lt_barrier():
    with pytest.raises(harness.UnsupportedCombinationError, match="unsupported"):
        _cfg(payoff="digital-barrier", methods=["lt"], barrier=110.0)
    with pytest.raises(harness.UnsupportedCombinationError):
        _cfg(payoff="asian-barrier", methods=["lt"], barrier=110.0)


def test_unsupported_method_refused_before_any_set_up(monkeypatch):
    # lt listed after regression: the config refuses it when built, before
    # the pool opens and before the barrier quadrature or the normals are
    # computed
    def never(*args, **kwargs):
        raise AssertionError("set-up ran before the refusal")

    for name in ("_chunk_pool", "barrier_coefficients", "_build_problem"):
        monkeypatch.setattr(harness, name, never)
    monkeypatch.setattr(rng, "shifted_normals", never)
    message = "method 'lt' unsupported for payoff 'digital-barrier'"
    with pytest.raises(harness.UnsupportedCombinationError, match=message):
        _cfg(payoff="digital-barrier", methods=["regression", "lt"], barrier=110.0)


def test_rows_sorted():
    cfg = _cfg(methods=["regression", "forward"], paths=[32, 64], batches=3)
    raw, stats = harness.run_experiment(cfg)
    keys = [(r.payoff, r.method, r.N, r.batch) for r in raw]
    assert keys == sorted(keys)
    skeys = [(s.payoff, s.method, s.N) for s in stats]
    assert skeys == sorted(skeys)


def test_estimates_identical_across_runs():
    cfg = _cfg(methods=["forward", "pca"], paths=[32, 128], batches=4, seed=9)
    raw1, _ = harness.run_experiment(cfg)
    raw2, _ = harness.run_experiment(cfg)
    assert [r.estimate for r in raw1] == [r.estimate for r in raw2]


def test_parallel_matches_sequential():
    seq = _cfg(methods=["forward", "regression"], paths=[64], batches=6, seed=3)
    par = _cfg(methods=["forward", "regression"], paths=[64], batches=6, seed=3, workers=4)
    raw_s, stats_s = harness.run_experiment(seq)
    raw_p, stats_p = harness.run_experiment(par)
    assert [r.estimate for r in raw_s] == [r.estimate for r in raw_p]
    assert [s.mean for s in stats_s] == [s.mean for s in stats_p]
    assert [s.stddev for s in stats_s] == [s.stddev for s in stats_p]


def test_estimates_independent_of_worker_threads():
    # one and two 512-row chunks at n = 250, where pca's gemm runs with BLAS
    # capped (workers 2 and 3) and uncapped (workers 1); basket at dim 2500,
    # whose chunks are 128 rows, with LT's 25 row dots as block gemms at
    # both heights; the two-reflection asian-barrier chain; n = 601, whose
    # barrier quadrature (3 blocks) is built on the chunk pool, and where
    # asian pca's dense product spans three 256-coordinate blocks; and
    # n = 2000, where pca takes the FFT route, sixteen 128-row chunks a batch
    cases = [
        _cfg(methods=["forward", "pca", "regression", "lt"], n=250, paths=[512, 1024], batches=2),
        _cfg(methods=["pca"], n=601, paths=[1024], batches=2),
        _cfg(payoff="basket", methods=["forward", "pca", "regression", "lt"], n=250, paths=[2048], assets=10),
        _cfg(payoff="asian-barrier", methods=["bb", "regression"], n=64, paths=[2**14], barrier=110.0),
        _cfg(payoff="digital-barrier", methods=["pca", "regression"], n=601, paths=[1024], barrier=110.0),
        _cfg(payoff="digital-barrier", methods=["pca"], n=2000, paths=[2048], barrier=110.0),
    ]
    assert harness._chunk_rows(250) == 512 and harness._chunk_rows(2500) == 128
    assert harness._chunk_rows(64) == 2048 and harness._chunk_rows(2000) == 128
    for cfg in cases:
        runs = [harness.run_experiment(replace(cfg, workers=w))[0] for w in (1, 2, 3)]
        ests = [[r.estimate for r in raw] for raw in runs]
        assert ests[0] == ests[1] == ests[2], cfg.payoff


@pytest.fixture
def blas_threads():
    """OpenBLAS's thread-count getter, the count set to 2 for the test."""
    blas = harness._openblas_threads()
    if blas is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    get, set_ = blas
    before = get()
    set_(2)
    try:
        if get() != 2:
            pytest.skip("OpenBLAS will not run 2 threads here")
        yield get
    finally:
        set_(before)


def _spy_pca(monkeypatch, seen, before=lambda self: None):
    """Record the BLAS thread count at every PCA chunk, after ``before(self)``."""
    real = harness.PcaConstruction.apply
    get = harness._openblas_threads()[0]

    def apply(self, x):
        before(self)
        seen.append(get())
        return real(self, x)

    monkeypatch.setattr(harness.PcaConstruction, "apply", apply)


def test_blas_capped_in_chunk_pool_and_restored(blas_threads, monkeypatch):
    seen = []
    _spy_pca(monkeypatch, seen)
    cfg = _cfg(methods=["pca"], n=64, paths=[2**15], workers=2)  # 16 chunks a batch
    harness.run_experiment(cfg)
    assert blas_threads() == 2 and set(seen) == {1}, seen
    harness.timing_report(cfg, repeats=1)
    assert blas_threads() == 2 and set(seen) == {1}, seen
    seen.clear()
    harness.run_experiment(replace(cfg, workers=1))  # no pool threads: no cap
    assert blas_threads() == 2 and set(seen) == {2}, seen


def test_blas_restored_when_a_chunk_raises(blas_threads, monkeypatch):
    def fail(self):
        raise RuntimeError("chunk failed")

    _spy_pca(monkeypatch, [], before=fail)
    with pytest.raises(RuntimeError, match="chunk failed"):
        harness.run_experiment(_cfg(methods=["pca"], n=64, paths=[2**15], workers=2))
    assert blas_threads() == 2


def test_blas_restored_after_concurrent_runs(blas_threads, monkeypatch):
    # run A (n = 64) opens its pool first; run B (n = 65) opens its own
    # while A's is open and keeps pricing after A has returned, so the cap
    # must outlast A and be lifted only when B leaves
    a_in, b_in, a_done, seen = threading.Event(), threading.Event(), threading.Event(), []

    def order(self):
        if self.n == 64:
            a_in.set()
            assert b_in.wait(60)
        else:
            b_in.set()
            assert a_done.wait(60)

    _spy_pca(monkeypatch, seen, before=order)
    cfgs = [_cfg(methods=["pca"], n=n, paths=[2**15], workers=2) for n in (64, 65)]
    with ThreadPoolExecutor(max_workers=2) as callers:
        a = callers.submit(harness.run_experiment, cfgs[0])
        assert a_in.wait(60)
        b = callers.submit(harness.run_experiment, cfgs[1])
        a_raw = a.result()[0]
        a_done.set()
        b.result()
    assert blas_threads() == 2 and set(seen) == {1}, seen
    alone = harness.run_experiment(replace(cfgs[0], workers=1))[0]
    assert [r.estimate for r in a_raw] == [r.estimate for r in alone]


def test_blas_cap_count_under_many_overlapping_runs(blas_threads):
    # more caller threads than cores, each opening its own pool, with a
    # short switch interval: a lost update of the shared depth count would
    # leave BLAS capped or restore it while a pool still runs
    cfg = _cfg(n=1024, paths=[1024], workers=3)  # eight 128-row chunks a batch
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as callers:
            for run in [callers.submit(harness.run_experiment, cfg) for _ in range(12)]:
                run.result(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert blas_threads() == 2 and harness._blas_cap_depth == 0


def test_chain_construction_setup_independent_of_blas_threads(blas_threads):
    # W^T (C V^T) once per set-up: as a gemm, 22 of basket lt's 62,500
    # entries changed in their last bit between one and two OpenBLAS threads
    _, set_ = harness._openblas_threads()
    cfg = _cfg(payoff="basket", methods=["lt", "regression"], n=250, assets=10)
    updates = {}
    for threads in (1, 2):
        set_(threads)
        problem = harness._build_problem(cfg)
        updates[threads] = {m: c._update for m, c in problem.constructions.items()}
    for m in cfg.methods:
        assert updates[1][m].shape == (25 if m == "lt" else 1, 2500)
        assert np.array_equal(updates[1][m], updates[2][m]), m


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc")
def test_chunk_pool_keeps_freed_memory_in_the_heap():
    # in a fresh process, after one run, a freed 16 MiB array is taken again
    # from the heap without page faults; at glibc's default thresholds it
    # went to mmap, and the next one was page-faulted afresh (449 minor
    # faults each time on a 2-core Linux box, 0 with the raised thresholds)
    code = """
import resource, numpy as np
from qmcpricer import harness
cfg = harness.ExperimentConfig(payoff="asian", methods=["forward"], n=4, paths=[64], batches=2)
harness.run_experiment(cfg)
def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt
np.ones(2**21)
before = faults()
np.ones(2**21)
print(faults() - before)
"""
    run = _python("-c", code)
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) < 64, run.stdout


def test_cli_extreme_barrier_regression_same_for_one_and_two_workers():
    # the hit is so rare (gamma ~ 1e-83) that the quadrature's terms under-
    # and overflow; with warnings as errors, one worker and two (8 chunks on
    # the pool) must print the same lines and exit alike
    argv = [
        "-W", "error::RuntimeWarning", "-m", "qmcpricer", "price",
        "--payoff", "digital-barrier", "--barrier", "200", "--sigma", "0.01", "--rate", "0.5",
        "--method", "regression", "--n", "600", "--paths", "1024", "--batches", "2",
    ]
    runs = [_python(*argv, "--workers", str(workers)) for workers in (1, 2)]
    one, two = [(p.returncode, p.stdout, p.stderr) for p in runs]
    assert one == two, (one, two)
    assert one[2].count("\n") <= 1 and "Warning" not in one[2], one


def test_one_block_setup_starts_no_thread(monkeypatch):
    # criterion 8's asian n = 250 methods: at N = 1 there is one chunk, and
    # every set-up runs on the caller's thread, the barrier quadrature's
    # blocks of time steps included
    cfg = _cfg(methods=["forward", "regression", "pca", "lt"], n=250, paths=[1], workers=2)
    started = []
    real = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self) or real(self))
    harness.run_experiment(cfg)
    harness.timing_report(cfg, repeats=1)
    assert started == []
    harness.run_experiment(
        replace(cfg, payoff="digital-barrier", methods=["regression", "pca"], n=601, barrier=110.0)
    )
    assert started == []  # six quadrature blocks, on the calling thread


def test_pca_factor_starts_no_thread(monkeypatch):
    # n = 601 is not on the FFT route: its dense factor, six blocks of
    # rows, is built on the calling thread, and N = 1 is one chunk
    cfg = _cfg(methods=["pca"], n=601, paths=[1], workers=2)
    assert harness.PcaConstruction(601, 1.0)._A is not None
    started = []
    real = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self) or real(self))
    harness.run_experiment(cfg)
    assert started == []


def test_peak_memory_flat_in_paths():
    # Under tracemalloc, going from N = 2^12 to 2^14 (8 to 32 chunks) adds at
    # most 1 MiB: no Sobol states, normals or payoffs are kept for all N.
    def peak(N):
        cfg = _cfg(methods=["regression"], n=250, paths=[N], workers=1)
        tracemalloc.start()
        try:
            harness.run_experiment(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2**12)  # direction table and coefficients cached outside the measurement
    grown = peak(2**14) - peak(2**12)
    assert grown <= 2**20, grown


def test_peak_memory_of_a_digital_2000_run():
    # the benchmark's digital-barrier n = 2000 operation, its four methods in
    # one run on two workers: 128-row chunks keep each worker's normals,
    # paths and scratch near 1 MiB apiece.  With 512-row chunks of 2^19
    # entries it peaked at 46 MiB under tracemalloc, and at 17 MiB with
    # 128-row ones.
    cfg = _cfg(
        payoff="digital-barrier", methods=["forward", "bb", "pca", "regression"],
        n=2000, paths=[2**12], barrier=110.0, workers=2,
    )
    rng._load_directions()  # direction table cached outside the measurement
    tracemalloc.start()
    try:
        harness.run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20, peak


def _batch_major(cfg):
    """Estimates by (method, N, batch), each the mean over a prefix of one
    payoff vector priced from the whole (N, dim) block of normals."""
    problem = harness._build_problem(cfg)
    points = rng.sobol_block(max(cfg.paths), problem.dim)
    out = {}
    for b in range(cfg.batches):
        X = rng.shifted_normals(points, rng.shift_vector(cfg.seed, b, problem.dim))
        for m in cfg.methods:
            v = problem.evaluate(problem.constructions[m], X)
            out.update({(m, N, b): float(v[:N].mean()) for N in cfg.paths})
    return out


def _every_method(payoff, n, paths):
    return _cfg(
        payoff=payoff, methods=harness.supported_methods(payoff, harness.METHODS),
        n=n // 4 if payoff == "basket" else n, assets=4, paths=paths, barrier=110.0, seed=7,
    )


@pytest.mark.parametrize("payoff", harness.PAYOFFS)
def test_chunk_major_estimates_match_batch_major_reference(payoff):
    # dimension 128: 1024-row chunks, so N = 256 is part of one chunk,
    # 1024 one whole chunk and 4096 the sum of four chunk sums
    cfg = _every_method(payoff, 128, [256, 1024, 4096])
    assert harness._chunk_rows(128) == 1024
    ref = _batch_major(cfg)
    raw, _ = harness.run_experiment(cfg)
    assert len(raw) == len(ref)
    for r in raw:
        want = ref[r.method, r.N, r.batch]
        assert abs(r.estimate - want) <= 1e-15 * abs(want), (r, want)


@pytest.mark.parametrize("payoff", harness.PAYOFFS)
def test_grid_within_one_chunk_is_bit_identical_to_batch_major(payoff):
    cfg = _every_method(payoff, 64, [16, 128, 1024])  # 2048-row chunks
    ref = _batch_major(cfg)
    raw, _ = harness.run_experiment(cfg)
    assert {(r.method, r.N, r.batch): r.estimate for r in raw} == ref


def _price_space_problem(build):
    """``build`` with the barrier payoffs priced as before they read
    log-prices: paths through ``basket_paths``, the hit decided on prices."""

    def problem_for(cfg):
        problem = build(cfg)
        S0 = np.array([cfg.s0])
        drift = log_drift(harness._market(cfg), cfg.rate)
        disc = math.exp(-cfg.rate * cfg.maturity)

        def evaluate(construction, X):
            with np.errstate(over="ignore", invalid="ignore"):
                S = basket_paths(S0, drift, construction.apply(X))
                v = (S.max(axis=(-2, -1)) >= cfg.barrier).astype(np.float64)
                if cfg.payoff == "asian-barrier":
                    v = v * np.maximum(S.mean(axis=(-2, -1)) - cfg.strike, 0.0)
                return disc * v

        problem.evaluate = evaluate
        return problem

    return problem_for


@pytest.mark.parametrize("seed", [1, 2101])
@pytest.mark.parametrize("payoff", ["digital-barrier", "asian-barrier"])
def test_barrier_on_log_prices_matches_price_space_reference(payoff, seed, monkeypatch):
    # the hit decided on L >= log(B / S0) gives every estimate of the test
    # on prices S >= B, bit for bit
    cfg = _cfg(
        payoff=payoff, methods=["forward", "bb", "pca", "regression"], n=250,
        paths=[2**10, 2**12], batches=4, barrier=110.0, seed=seed,
    )
    raw, stats = harness.run_experiment(cfg)
    monkeypatch.setattr(harness, "_build_problem", _price_space_problem(harness._build_problem))
    ref_raw, ref_stats = harness.run_experiment(cfg)
    got = {(r.method, r.N, r.batch): r.estimate.hex() for r in raw}
    assert got == {(r.method, r.N, r.batch): r.estimate.hex() for r in ref_raw}
    assert len(set(got.values())) > 1
    assert [(s.mean, s.stddev) for s in stats] == [(s.mean, s.stddev) for s in ref_stats]


def test_barrier_level_that_underflows_prices_without_warnings():
    # B / S0 = 1e-330 underflows to 0, so the log level is -inf: every
    # path reaches it, and numpy's divide warning stays quiet
    cfg = _cfg(payoff="digital-barrier", s0=1e300, barrier=1e-30, methods=["forward", "bb"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        raw, _ = harness.run_experiment(cfg)
    disc = math.exp(-cfg.rate * cfg.maturity)
    assert all(abs(r.estimate - disc) <= 1e-15 for r in raw)


def test_grid_prefix_consistency():
    # the N = 64 estimates are the same whether or not a larger N runs too
    small = _cfg(paths=[64], batches=3, seed=5)
    grid = _cfg(paths=[64, 256], batches=3, seed=5)
    raw_small, _ = harness.run_experiment(small)
    raw_grid, _ = harness.run_experiment(grid)
    small_by_batch = {r.batch: r.estimate for r in raw_small}
    grid_by_batch = {r.batch: r.estimate for r in raw_grid if r.N == 64}
    assert small_by_batch == grid_by_batch


def test_stats_aggregation():
    cfg = _cfg(batches=5, paths=[32])
    raw, stats = harness.run_experiment(cfg)
    ests = [r.estimate for r in raw]
    s = stats[0]
    assert s.batches == 5
    assert abs(s.mean - np.mean(ests)) < 1e-15
    assert abs(s.stddev - np.std(ests, ddof=1)) < 1e-15


def test_write_raw_csv_roundtrip(tmp_path):
    cfg = _cfg(methods=["forward", "bb"], paths=[32], batches=2)
    raw, _ = harness.run_experiment(cfg)
    path = tmp_path / "raw.csv"
    harness.write_raw_csv(raw, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "payoff,method,n,N,batch,estimate,runtime_ms"
    back = [line.split(",") for line in lines[1:]]
    assert [(p, m, int(n), int(N), int(b), float(est)) for p, m, n, N, b, est, _ in back] == [
        (r.payoff, r.method, r.n, r.N, r.batch, r.estimate) for r in raw
    ]


def test_write_raw_csv_empty(tmp_path):
    path = tmp_path / "empty.csv"
    harness.write_raw_csv([], str(path))
    assert path.read_text() == "payoff,method,n,N,batch,estimate,runtime_ms\n"


def test_write_raw_csv_single_row(tmp_path):
    path = tmp_path / "one.csv"
    harness.write_raw_csv([harness.RawRow("asian", "forward", 8, 64, 0, 1.25, 3.5)], str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1] == "asian,forward,8,64,0,1.25,3.500"


def test_summary_csv_deterministic_bytes(tmp_path):
    cfg = _cfg(methods=["forward", "regression"], paths=[32, 64], batches=3, seed=11)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    _, stats1 = harness.run_experiment(cfg)
    harness.write_summary_csv(stats1, str(p1))
    _, stats2 = harness.run_experiment(cfg)
    harness.write_summary_csv(stats2, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().splitlines()[0] == "payoff,method,n,N,mean,stddev,batches"


def test_timing_report_rejects_zero_repeats():
    with pytest.raises(ValueError, match="repeats"):
        harness.timing_report(_cfg(), repeats=0)


def test_timing_report_shape():
    # four chunks at n = 64; the estimate is run_experiment's batch 0, bit for bit
    methods = ["forward", "regression", "pca", "lt"]
    cfg = _cfg(methods=methods, n=64, paths=[2**13], seed=5, workers=2)
    rows = harness.timing_report(cfg, repeats=2)
    assert [r["method"] for r in rows] == methods
    raw, _ = harness.run_experiment(replace(cfg, paths=[2**10, 2**13]))
    batch0 = {r.method: r.estimate for r in raw if r.batch == 0 and r.N == 2**13}
    for r in rows:
        assert r["total_ms"] >= r["run_ms"] >= 0.0
        assert math.isfinite(r["estimate"])
        assert r["estimate"] == batch0[r["method"]], (r, batch0)
    assert harness.timing_report(replace(cfg, methods=[]), repeats=1) == []


def test_timing_report_builds_through_build_problem_once(monkeypatch):
    # set-up is run_experiment's own: one build of every method, and each
    # row's setup_ms is that build's time for the method
    cfg = _cfg(methods=["forward", "bb", "pca", "regression", "lt"], n=64, paths=[256])
    real, built = harness._build_problem, []

    def build_problem(*args):
        built.append(real(*args))
        return built[-1]

    monkeypatch.setattr(harness, "_build_problem", build_problem)
    rows = harness.timing_report(cfg, repeats=1)
    assert len(built) == 1 and list(built[0].setup_ms) == cfg.methods
    assert all(r["setup_ms"] == built[0].setup_ms[r["method"]] > 0.0 for r in rows), rows


def test_timing_report_runs_in_chunks(monkeypatch):
    # no whole (N, dim) block: every Sobol block and every set of normals
    # holds one chunk's rows at most
    cfg = _cfg(methods=["forward", "pca"], n=250, paths=[2**12], workers=2)
    rows = harness._chunk_rows(250)
    assert rows < 2**12
    counts = []
    real_block, real_normals = rng.sobol_block, rng.shifted_normals

    def sobol_block(count, dim, start=0):
        counts.append(count)
        return real_block(count, dim, start)

    def shifted_normals(points, shift, out=None):
        counts.append(len(points))
        return real_normals(points, shift, out=out)

    monkeypatch.setattr(rng, "sobol_block", sobol_block)
    monkeypatch.setattr(rng, "shifted_normals", shifted_normals)
    harness.timing_report(cfg, repeats=2)
    assert counts and max(counts) <= rows, (max(counts), rows)


def test_reflection_apply_times_keys():
    out = harness.reflection_apply_times([64, 128], paths=8, repeats=3)
    assert sorted(out) == [64, 128]
    assert all(v >= 0.0 for v in out.values())


# --- CLI --------------------------------------------------------------------


def test_cli_price_writes_csv(tmp_path, capsys):
    out = tmp_path / "run.csv"
    rc = cli.main(
        [
            "price", "--payoff", "asian", "--method", "regression",
            "--n", "8", "--paths", "64", "--batches", "2", "--out", str(out),
        ]
    )
    assert rc == 0
    assert out.read_text().splitlines()[0] == "payoff,method,n,N,batch,estimate,runtime_ms"
    assert "asian regression" in capsys.readouterr().out


def test_cli_convergence_writes_summary(tmp_path):
    out = tmp_path / "conv.csv"
    rc = cli.main(
        [
            "convergence", "--payoff", "asian", "--n", "8", "--batches", "2",
            "--log2-min", "4", "--log2-max", "6", "--out", str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "payoff,method,n,N,mean,stddev,batches"
    assert len(lines) == 1 + 2 * 3  # two default methods, three N values


def test_cli_unsupported_combination_exit_code():
    rc = cli.main(
        [
            "price", "--payoff", "digital-barrier", "--method", "lt",
            "--n", "8", "--paths", "64", "--batches", "2", "--barrier", "110",
        ]
    )
    assert rc == 3


def test_cli_bad_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["price", "--payoff", "rainbow"])
    assert exc.value.code == 2


def test_cli_missing_barrier_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["price", "--payoff", "digital-barrier", "--n", "8", "--paths", "64"])
    assert exc.value.code == 2


def test_cli_bad_barrier_exits_2_for_forward():
    for bad in ("-5", "0", "nan"):
        with pytest.raises(SystemExit) as exc:
            cli.main(
                [
                    "price", "--payoff", "digital-barrier", "--barrier", bad,
                    "--method", "forward", "--n", "8", "--paths", "64", "--batches", "2",
                ]
            )
        assert exc.value.code == 2, bad


def test_cli_coeffs_nan_sigma_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["coeffs", "--payoff", "digital-barrier", "--barrier", "110", "--sigma", "nan", "--n", "4"])
    assert exc.value.code == 2


def test_cli_nonfinite_price_inputs_exit_2():
    for flag, bad in (
        ("--s0", "inf"), ("--strike", "nan"), ("--rate", "nan"), ("--maturity", "inf"),
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(["price", flag, bad, "--n", "8", "--paths", "64", "--batches", "2"])
        assert exc.value.code == 2, flag


def test_cli_barrier_zero_sigma_exits_2_for_every_method():
    for method in ("forward", "regression"):
        with pytest.raises(SystemExit) as exc:
            cli.main(
                [
                    "price", "--payoff", "digital-barrier", "--barrier", "110", "--sigma", "0",
                    "--method", method, "--n", "8", "--paths", "64", "--batches", "2",
                ]
            )
        assert exc.value.code == 2, method


def test_cli_table1_rejects_n_below_1(capsys):
    for n in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["table1", "--n", n])
        assert exc.value.code == 2, n
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--n must be at least 1" in captured.err


def test_cli_timing_default_skips_methods_the_payoff_refuses(capsys):
    argv = ["timing", "--payoff", "digital-barrier", "--barrier", "110", "--n", "8",
            "--paths", "64", "--repeats", "1"]
    assert cli.main(argv) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split()[0] for row in rows] == ["forward", "regression", "pca"]
    assert cli.main(argv + ["--method", "lt"]) == 3


def test_cli_timing_zero_repeats_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["timing", "--n", "8", "--paths", "64", "--repeats", "0"])
    assert exc.value.code == 2


def test_cli_negative_lt_columns_exits_2_for_every_method(capsys):
    for method in ("forward", "lt"):
        with pytest.raises(SystemExit) as exc:
            cli.main(
                ["price", "--lt-columns", "-1", "--method", method,
                 "--n", "8", "--paths", "64", "--batches", "2"]
            )
        assert exc.value.code == 2, method
        assert "lt_columns must be nonnegative" in capsys.readouterr().err


def test_cli_repeated_method_exits_2(capsys):
    # a repeated method would be priced twice and pooled into one summary
    for command in (["price", "--batches", "4"], ["timing", "--repeats", "1"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(command + ["--n", "8", "--paths", "64", "--method", "forward", "--method", "forward"])
        assert exc.value.code == 2, command
        assert "methods must be distinct" in capsys.readouterr().err


def test_cli_timing_nonfinite_estimate_exits_4_like_price(capsys):
    # at rate 1e300 the discount factor underflows and the payoff overflows
    flags = ["--payoff", "asian-barrier", "--barrier", "110", "--rate", "1e300", "--n", "8",
             "--paths", "64"]
    for argv in (["timing", "--repeats", "1"], ["price", "--batches", "2"]):
        assert cli.main(argv + flags) == 4, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numerical failure: non-finite estimate\n"


def test_cli_zero_workers_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["price", "--n", "8", "--paths", "64", "--batches", "2", "--workers", "0"])
    assert exc.value.code == 2


def test_cli_seed_outside_64_bits_exits_2():
    # the shift generator is keyed by (seed, batch) words of 64 bits
    for seed in ("18446744073709551616", "-1"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["price", "--n", "4", "--paths", "4", "--batches", "2", "--seed", seed])
        assert exc.value.code == 2, seed
    assert cli.main(["price", "--n", "4", "--paths", "4", "--batches", "2", "--seed", str(2**64 - 1)]) == 0


def test_basket_pca_equal_vols_agrees_with_forward():
    # a repeated eigenvalue of R leaves eigh_factor's basis open; the price must not care
    cfg = harness.ExperimentConfig(
        payoff="basket", methods=["forward", "pca"], n=16, paths=[2**12], batches=8,
        assets=5, sigma_min=0.2, sigma_max=0.2, rho=0.3,
    )
    _, (fwd, pca) = harness.run_experiment(cfg)
    se = math.hypot(fwd.stddev, pca.stddev) / math.sqrt(fwd.batches)
    assert abs(fwd.mean - pca.mean) <= 3.0 * se


def test_cli_bad_basket_inputs_exit_2():
    for argv in (
        ["price", "--payoff", "basket", "--assets", "0", "--method", "regression",
         "--n", "8", "--paths", "64", "--batches", "2"],
        ["coeffs", "--payoff", "basket", "--assets", "0"],
        ["price", "--payoff", "basket", "--assets", "2", "--sigma-min", "-0.1",
         "--n", "8", "--paths", "64", "--batches", "2"],
        # before rho was refused, cholesky_psd's overflow warnings came first
        ["price", "--payoff", "basket", "--rho", "1e155", "--assets", "2", "--n", "4",
         "--paths", "16", "--batches", "2", "--method", "forward"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv


def test_cli_coeffs_refuses_what_price_refuses():
    # coeffs prices no path, so the config itself must refuse these
    for argv in (
        ["--n", "0"],
        ["--payoff", "digital-barrier", "--barrier", "110", "--n", "4", "--maturity", "0"],
        ["--n", "4", "--maturity", "0"],
        ["--n", "4", "--s0", "-100"],
        ["--n", "4", "--sigma", "-0.2"],
        ["--payoff", "basket", "--assets", "11", "--n", "250"],
    ):
        for command in (["coeffs"], ["price", "--paths", "64", "--batches", "2"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(command + argv)
            assert exc.value.code == 2, command + argv


def test_python_m_qmcpricer_runs_from_a_checkout():
    proc = _python("-m", "qmcpricer", "price", "--n", "4", "--paths", "64", "--batches", "2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("asian forward n=4 N=64 ")


def test_python_m_qmcpricer_overflow_stderr_is_the_message_alone():
    # the prices overflow at rate 800; numpy's error state is per thread, so
    # the last case, eight 128-row chunks, checks the chunk threads too
    price = ["-m", "qmcpricer", "price", "--rate", "800"]
    digital = ["--payoff", "digital-barrier", "--barrier", "110"]
    refused = "numerical failure: non-finite estimate\n"
    cases = [
        (["--n", "4", "--paths", "64", "--batches", "2"], 4, refused),
        (digital, 0, ""),
        (digital + ["--n", "1024", "--paths", "1024", "--batches", "2", "--workers", "2"], 0, ""),
    ]
    for flags, code, err in cases:
        proc = _python(*price, *flags)
        assert (proc.returncode, proc.stderr) == (code, err), flags


def test_cli_calls_that_evaluate_no_normal_import_no_scipy_special():
    # scipy.special is imported where ndtri, ndtr and erfcx are called, and
    # numpy once a command's request is built; a fresh process runs each
    # call in turn and reports its exit code and whether numpy and
    # scipy.special have been imported so far.  table1 must import numpy
    # and the priced call, last, scipy.special, so the check cannot pass
    # vacuously.
    code = """
import contextlib, io, json, sys
from qmcpricer import cli
digital = ["--payoff", "digital-barrier", "--barrier", "110", "--n", "2000"]
cases = [
    ["price", "--method", "lt"] + digital,
    ["price", "--method", "regression", "--method", "lt"] + digital,
    ["price", "--n", "0"],
    ["--help"],
    ["table1", "--n", "64"],
    ["coeffs", "--n", "8"],
    ["coeffs", "--payoff", "basket", "--assets", "3", "--n", "8"],
    ["price", "--n", "4", "--paths", "64", "--batches", "2"],
]
seen = []
for argv in cases:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    seen.append([rc, "numpy" in sys.modules, "scipy.special" in sys.modules])
print(json.dumps(seen))
"""
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    seen = [tuple(case) for case in json.loads(proc.stdout)]
    assert seen == [(3, False, False), (3, False, False), (2, False, False), (0, False, False),
                    (0, True, False), (0, True, False), (0, True, False), (0, True, True)]


def test_setup_ms_excludes_the_scipy_special_import():
    # a fresh process's first timing_report: scipy.special is imported
    # before the first method's set-up clock starts, so that method's
    # setup_ms does not carry the import (about 0.3 s)
    code = """
import sys, time, types
from qmcpricer import harness
cfg = harness.ExperimentConfig(
    payoff="digital-barrier", methods=["regression", "forward"], n=64, paths=[64], batches=2,
    barrier=110.0,
)
seen = []
def perf_counter():
    seen.append("scipy.special" in sys.modules)
    return time.perf_counter()
before = "scipy.special" in sys.modules
harness.time = types.SimpleNamespace(perf_counter=perf_counter)
harness.timing_report(cfg, repeats=1)
print(before, seen[0])
"""
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


def test_cli_first_special_function_calls_on_the_pool_threads(capsys):
    # 4 chunks run on two pool threads, so a fresh process first calls
    # ndtri off the main thread, after set-up imported scipy.special and
    # ran the quadrature's ndtr and erfcx on it
    argv = [
        "price", "--payoff", "digital-barrier", "--barrier", "110", "--n", "2000",
        "--paths", "512", "--batches", "2", "--workers", "2", "--method", "regression",
    ]
    proc = _python("-m", "qmcpricer", *argv)
    assert proc.returncode == 0, proc.stderr
    assert cli.main(argv) == 0
    assert proc.stdout == capsys.readouterr().out


def test_cli_coeffs_extreme_barrier_is_finite(capsys):
    # e^{2 u nu} with u = log(2)/0.01 and nu ~ 50 overflows a double
    rc = cli.main(
        [
            "coeffs", "--payoff", "digital-barrier", "--barrier", "200",
            "--sigma", "0.01", "--rate", "0.5",
        ]
    )
    assert rc == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 64
    assert all(math.isfinite(float(row.split()[1])) for row in rows)


def test_cli_coeffs_nonfinite_exits_4_like_price(capsys):
    # exp overflows in w_bar at rate 800: price refuses the estimate, so
    # coeffs refuses the coefficients, and prints none of them; the one-line
    # message is all that reaches stderr
    rc = cli.main(["coeffs", "--n", "4", "--rate", "800"])
    assert rc == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numerical failure: non-finite coefficients\n"
    price = ["price", "--n", "4", "--paths", "64", "--batches", "2", "--rate", "800"]
    assert cli.main(price + ["--method", "regression"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numerical failure: non-finite estimate\n"


def test_finite_coefficients_whose_norm_overflows_are_reflected(capsys):
    # at rate 700 every coefficient is finite, 2.54e304, but a . a overflows:
    # coeffs prints them with their finite norm, and the regression chain
    # reflects onto them instead of skipping them as a zero vector
    assert cli.main(["coeffs", "--n", "4", "--rate", "700"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    out = captured.out.splitlines()
    a = np.array([float(row.split()[1]) for row in out[1:]])
    assert len(a) == 4 and np.all(a > 1e304) and np.all(np.isfinite(a))
    scale = a.max()
    norm = float(out[0].rsplit("norm=", 1)[1])
    assert norm == pytest.approx(scale * np.linalg.norm(a / scale), rel=1e-15)
    cfg = _cfg(methods=["regression"], n=4, paths=[64], batches=2, rate=700.0)
    chain = harness._build_problem(cfg).constructions["regression"].chain
    assert len(chain) == 1 and chain.V.shape == (1, 4)
    np.testing.assert_allclose(construction_matrix(chain)[:, 0], a / norm, atol=1e-14)


def test_cli_coeffs_output(capsys):
    rc = cli.main(["coeffs", "--payoff", "asian", "--n", "4"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 5
    assert out[1].startswith("1 ")


def test_cli_coeffs_asian_barrier_prints_the_reflected_vector(capsys):
    # at barrier 90 every path starting at 100 is in, so the barrier vector
    # is zero, the chain skips it and reflects onto the Asian vector
    rc = cli.main(["coeffs", "--payoff", "asian-barrier", "--barrier", "90", "--n", "4"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    a = logexp_coefficients(asian_spec(100.0, 0.04, 0.2, 1.0, 4)).a
    assert out[0].endswith(f"norm={float(np.linalg.norm(a))!r}")
    assert [float(row.split()[1]) for row in out[1:]] == [float(v) for v in a]
    cfg = harness.ExperimentConfig(
        payoff="asian-barrier", methods=["regression"], n=4, paths=[2], barrier=90.0
    )
    chain = harness._build_problem(cfg).constructions["regression"].chain
    first_column = construction_matrix(chain)[:, 0]
    np.testing.assert_allclose(first_column, a / np.linalg.norm(a), atol=1e-14)


# --- benchmark trace hooks --------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        # the drift's sigma**2 for one asset and for a basket, with nothing
        # printed before the message, barrier_coefficients' sigma**2, and
        # the batch variance's (e - mean)**2 on estimates near 1e200
        ["price", "--n", "4", "--paths", "4", "--batches", "2", "--sigma", "1e155"],
        ["coeffs", "--payoff", "digital-barrier", "--barrier", "110", "--n", "4", "--sigma", "1e155"],
        ["price", "--n", "4", "--paths", "4", "--batches", "2", "--s0", "1e200", "--strike", "0"],
        ["price", "--payoff", "basket", "--assets", "2", "--n", "4", "--paths", "64",
         "--batches", "2", "--sigma-max", "1e155"],
    ],
)
def test_cli_float_overflow_exits_4(argv, capsys):
    assert cli.main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: overflow")


def test_cli_sobol_block_out_of_memory_exits_2(monkeypatch, capsys):
    # every chunk of a 2^32-point run makes its own Sobol states on a chunk
    # thread; the stand-in refuses them there, and the MemoryError reaches
    # the CLI as one line.  Of the 131072 chunks, only those queued before the
    # first result was read (two per worker, and one more) ever start.
    on_main = []

    def refuse(count, dim, start=0):
        on_main.append(threading.current_thread() is threading.main_thread())
        raise MemoryError

    monkeypatch.setattr(rng, "sobol_block", refuse)
    argv = ["convergence", "--n", "4", "--log2-min", "32", "--log2-max", "32", "--batches", "2"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert not any(on_main) and 0 < len(on_main) <= 2 * harness.usable_cores() + 1, on_main
    lines = [line for line in capsys.readouterr().err.splitlines() if "out of memory" in line]
    assert lines == ["qmcpricer: error: out of memory"], lines


def test_empty_path_list_refused_before_any_set_up(monkeypatch):
    # an empty grid has no N to price: the config refuses it when built,
    # before every construction (the barrier quadrature included) is made
    def never(*args, **kwargs):
        raise AssertionError("set-up ran before the refusal")

    monkeypatch.setattr(harness, "_build_problem", never)
    for payoff, barrier in (("asian", None), ("digital-barrier", 110.0)):
        with pytest.raises(ValueError, match="at least one path count"):
            harness.run_experiment(_cfg(payoff=payoff, barrier=barrier, paths=[]))


def test_empty_method_list_builds_nothing_and_draws_no_normals(monkeypatch):
    # no method, nothing to price: neither call builds a construction or
    # turns a point into a normal; one method does both, so the counts are live
    calls = []

    def counted(owner, name):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, **kw: calls.append(name) or real(*a, **kw))

    counted(harness, "_build_problem")
    counted(rng, "shifted_normals")
    cfg = _cfg(payoff="digital-barrier", methods=[], barrier=110.0, paths=[256])
    assert harness.run_experiment(cfg) == ([], [])
    assert harness.timing_report(cfg, repeats=2) == []
    assert calls == []
    harness.run_experiment(replace(cfg, methods=["forward"]))
    assert set(calls) == {"_build_problem", "shifted_normals"}, calls


# qmcpricer's public names when its package imported every module eagerly
_PUBLIC_NAMES = [
    "BarrierCoefficients", "BasketCovSpec", "BatchStats", "BrownianBridgeConstruction",
    "ChainConstruction", "ExperimentConfig", "ForwardConstruction", "KroneckerConstruction",
    "LogExpPayoffSpec", "LtResult", "PcaConstruction", "RawRow", "RegressionVector",
    "TransformChain", "UnsupportedCombinationError", "VarianceReport", "apply_shift",
    "asian_spec", "average_call", "barrier_average_call", "barrier_coefficients", "barrier_hit",
    "basket_paths", "basket_spec", "cholesky_psd", "complete_first_k_columns",
    "construction_matrix", "eigh_factor", "householder_from_target", "indicator_moment",
    "inv_normal_cdf", "log_drift", "log_paths", "logexp_coefficients", "lt_transform",
    "max_dimension", "payoff", "payoff_gradient_at_zero", "pca_factors", "prices",
    "prob_max_exceeds", "regression_chain", "regression_transform", "run_experiment",
    "shift_vector", "shifted_normals", "sobol_block", "timing_report", "variance_report",
    "variance_report_continuum", "weighted_max_expectation", "write_raw_csv",
    "write_summary_csv",
]


def test_each_payoff_fact_defined_once():
    # config holds every payoff and method name and the payoffs' facts;
    # harness holds only the callables, keyed by those names
    from qmcpricer import config

    assert tuple(harness._PAYOFF_TABLE) == config.PAYOFFS == tuple(config.PAYOFF_FACTS)
    assert tuple(harness._METHOD_TABLE) == config.METHODS
    for payoff, row in harness._PAYOFF_TABLE.items():
        assert (row.lt_spec is not None) == config.PAYOFF_FACTS[payoff].lt, payoff
        cfg = _cfg(payoff=payoff, barrier=110.0, assets=3)
        assert harness._market(cfg).dim == config.PAYOFF_FACTS[payoff].dim(cfg), payoff
    for name in ("ExperimentConfig", "UnsupportedCombinationError", "PAYOFFS", "METHODS",
                 "supported_methods", "usable_cores"):
        assert getattr(harness, name) is getattr(config, name), name
    assert (rng.BITS, rng.MAX_INDEX) == (config.BITS, config.MAX_INDEX)
    assert rng.max_dimension() == config.SOBOL_DIMENSIONS
    # the package resolves its public names on first use, so importing it
    # imports no numpy, and every name it had still resolves
    code = """
import json, sys
import qmcpricer
before = "numpy" in sys.modules
missing = [name for name in json.loads(sys.argv[1]) if not hasattr(qmcpricer, name)]
print(json.dumps([before, missing, qmcpricer.__all__]))
"""
    proc = _python("-c", code, json.dumps(_PUBLIC_NAMES))
    assert proc.returncode == 0, proc.stderr
    before, missing, public = json.loads(proc.stdout)
    assert (before, missing, sorted(public)) == (False, [], sorted(_PUBLIC_NAMES))
    import qmcpricer
    from qmcpricer import regression, transforms

    assert qmcpricer.ExperimentConfig is config.ExperimentConfig
    assert qmcpricer.run_experiment is harness.run_experiment
    assert qmcpricer.sobol_block is rng.sobol_block
    assert qmcpricer.regression_chain is regression.regression_chain
    assert qmcpricer.TransformChain is transforms.TransformChain
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        qmcpricer.nothing


def test_every_entry_point_refuses_and_helps_without_numpy():
    # python -m qmcpricer, the console script (pyproject's entry point,
    # called as the generated script calls it) and python -m qmcpricer.cli:
    # the benchmark's refused digital-2000 call exits 3 with its one stderr
    # line, every --help prints the same text from each, and none imports
    # numpy
    text = (pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    module, func = re.search(r'^qmcpricer = "([\w.]+):(\w+)"$', text, re.M).groups()
    script = f"import sys; from {module} import {func}; sys.exit({func}())"
    entries = (["-m", "qmcpricer"], ["-c", script], ["-m", "qmcpricer.cli"])
    refused = ["price", "--method", "lt", "--batches", "2", "--seed", "1", "--payoff",
               "digital-barrier", "--n", "2000", "--paths", "4096", "--barrier", "110.0"]
    helps = [[], ["price"], ["convergence"], ["table1"], ["timing"], ["coeffs"]]
    helped = {}
    for entry in entries:
        for argv, code in [(refused, 3)] + [(sub + ["--help"], 0) for sub in helps]:
            proc = _python("-X", "importtime", *entry, *argv)
            lines = proc.stderr.splitlines()
            imported = {line.rsplit("|", 1)[-1].strip() for line in lines
                        if line.startswith("import time:")}
            err = [line for line in lines if not line.startswith("import time:")]
            assert "qmcpricer.config" in imported and "numpy" not in imported, (entry, argv)
            assert proc.returncode == code, (entry, argv, proc.stderr)
            if code == 3:
                assert err == ["error: method 'lt' unsupported for payoff 'digital-barrier'"]
                assert proc.stdout == ""
            else:
                assert err == [] and proc.stdout.startswith("usage: qmcpricer"), (entry, argv)
                assert helped.setdefault(tuple(argv), proc.stdout) == proc.stdout, (entry, argv)
    assert len(helped) == len(helps)


def test_cli_convergence_keeps_its_own_empty_grid_message(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["convergence", "--n", "4", "--log2-min", "6", "--log2-max", "5"])
    assert exc.value.code == 2
    assert "--log2-min must not exceed --log2-max" in capsys.readouterr().err


def test_cli_bad_flag_refused_before_unsupported_method(capsys):
    # lt on a barrier payoff exits 3, but a bad flag in the same call exits 2
    for argv, message in (
        (["price", "--payoff", "digital-barrier"], "requires a barrier level"),
        (["timing", "--payoff", "asian-barrier", "--barrier", "110", "--repeats", "0"],
         "repeats must be at least 1"),
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--method", "lt", "--n", "4", "--paths", "16"])
        assert exc.value.code == 2, argv
        assert message in capsys.readouterr().err, argv


def test_cli_market_flags_carry_the_config_defaults():
    # the flags are made from ExperimentConfig's fields, so a command given
    # no flags carries every field's default, of the same type
    names = [f.name for f in fields(harness.ExperimentConfig)]
    later = fields(harness.ExperimentConfig)[names.index("paths") + 1 :]
    for sub in ("price", "convergence", "timing", "coeffs"):
        args = cli.build_parser().parse_args([sub])
        for f in later:
            want = harness.usable_cores() if f.name == "workers" else f.default
            got = getattr(args, f.name)
            assert got == want and type(got) is type(want), (sub, f.name, got, want)


# Flag values for the seeded CLI sweep: edge values and a few ordinary ones.
_SWEEP_FLOATS = ("0", "-0.0", "1e-300", "-1", "1e300", "1e155", "700", "nan", "inf",
                 "0.04", "0.2", "1", "90", "110")
_SWEEP_FLAGS = {
    **{flag: _SWEEP_FLOATS for flag in ("--s0", "--strike", "--rate", "--sigma", "--maturity",
                                        "--barrier", "--rho", "--sigma-min", "--sigma-max")},
    "--batches": ("-1", "0", "1", "2", "3", "nan"),
    "--seed": ("-1", "0", "7", str(2**64), "1e300"),
    "--assets": ("-1", "0", "1", "2", "3"),
    "--lt-columns": ("-1", "0", "1", "25", "700"),
}


def _sweep_argv(gen: random.Random) -> list[str]:
    """One seeded CLI call: a subcommand, payoff, n and workers, up to two
    methods and its own size flags, then up to three market flags."""
    command = gen.choice(("price", "coeffs", "timing", "convergence"))
    payoff = gen.choice(harness.PAYOFFS)
    argv = [command, "--payoff", payoff, "--n", str(gen.randint(0, 17)),
            "--workers", gen.choice(("1", "2"))]
    if "barrier" in payoff and gen.random() < 0.9:
        argv += ["--barrier", "110"]
    if command != "coeffs":
        argv += [a for m in gen.sample(harness.METHODS, gen.randint(0, 2)) for a in ("--method", m)]
    if command in ("price", "timing"):
        argv += ["--paths", gen.choice(("0", "1", "16", "32", "64"))]
    if command == "timing":
        argv += ["--repeats", gen.choice(("0", "1", "2", "3"))]
    if command == "convergence":
        lo = gen.randint(0, 6)  # sometimes above --log2-max
        argv += ["--log2-min", str(lo), "--log2-max", str(gen.randint(max(lo - 1, 0), 6))]
    for flag in gen.sample(sorted(_SWEEP_FLAGS), gen.randint(0, 3)):
        value = gen.choice(_SWEEP_FLAGS[flag])
        argv += [f"{flag}={value}"] if value.startswith("-") else [flag, value]
    return argv


def test_cli_seeded_sweep_prices_or_refuses_with_one_line(capsys):
    # every accepted call prices with finite numbers (exit 0) or is refused
    # (exit 2, 3 or 4) with one stderr line besides argparse's usage, and
    # prints no warning: warnings are errors here
    gen, codes = random.Random(7), []
    for _ in range(400):
        argv = _sweep_argv(gen)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        out, err = capsys.readouterr()
        codes.append(code)
        if code == 0:
            assert err == "" and "nan" not in out and "inf" not in out, (argv, out, err)
        else:
            assert code in (2, 3, 4), (argv, code, err)
            lines = [line for line in err.splitlines() if not line.startswith(("usage:", " "))]
            assert len(lines) == 1 and out == "", (argv, code, out, err)
    assert set(codes) == {0, 2, 3, 4}, codes


def test_benchmark_trace_hooks_resolve():
    # The pricing benchmark wraps library entry points at the names the
    # harness looks them up by; a name that disappears, or a coefficient
    # function no longer called through the harness namespace, silently
    # drops a per-layer metric.  Five hooks name deleted code: the per-batch
    # pass (each chunk prices every batch), the one-asset path and
    # coefficients (a single asset is the one-asset basket, priced by
    # basket_paths and logexp_coefficients), the one-vector reflection
    # (every regression chain goes through regression_chain) and the
    # adaptive Simpson rule, which pricing never called.
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    tracer.install(harness)
    try:
        assert tracer.missing == [
            "qmcpricer.harness._run_batch",
            "qmcpricer.harness.gbm_path",
            "qmcpricer.harness.asian_coefficients",
            "qmcpricer.harness.regression_transform",
            "qmcpricer.brownian_max.adaptive_simpson",
        ]
        harness.run_experiment(_cfg(methods=["regression"]))
        assert tracer.returns["coefficients"] is not None
        names = {span[0] for span in tracer.spans}
        assert {"payoffs.paths_s", "payoffs.reduce_s"} <= names
        harness.run_experiment(_cfg(payoff="digital-barrier", barrier=110.0, methods=["regression"]))
        assert tracer.counts["brownian_max.simpson_calls"] == 0
    finally:
        tracer.uninstall()


def test_benchmark_lt_trace_counts():
    # lt.degenerate_columns is an exact benchmark metric read from the
    # LtResult that harness.lt_transform returns: at n = 8 the chain has
    # 8 columns, the first from the gradient and 7 degenerate.  LT's chain
    # is fused into its construction, so no TransformChain.apply runs.
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    tracer.install(harness)
    try:
        harness.run_experiment(_cfg(methods=["lt"]))
        assert tracer.counts["lt.degenerate_columns"] == 7
        assert tracer.counts["transforms.reflections"] == 0
    finally:
        tracer.uninstall()
