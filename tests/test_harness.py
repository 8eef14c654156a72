import importlib.util
import json
import math
import os
import pathlib
import platform
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from qmcpricer import brownian_max as bm
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
    cfg = _cfg(payoff="digital-barrier", methods=["lt"], barrier=110.0)
    with pytest.raises(harness.UnsupportedCombinationError, match="unsupported"):
        harness.run_experiment(cfg)
    cfg = _cfg(payoff="asian-barrier", methods=["lt"], barrier=110.0)
    with pytest.raises(harness.UnsupportedCombinationError):
        harness.run_experiment(cfg)


def test_unsupported_method_refused_before_any_set_up(monkeypatch):
    # lt listed after regression: the refusal comes before the pool opens
    # and before the barrier quadrature or the normals are computed
    def never(*args, **kwargs):
        raise AssertionError("set-up ran before the refusal")

    for name in ("_chunk_pool", "barrier_coefficients", "_build_problem"):
        monkeypatch.setattr(harness, name, never)
    monkeypatch.setattr(rng, "shifted_normals", never)
    cfg = _cfg(payoff="digital-barrier", methods=["regression", "lt"], barrier=110.0)
    message = "method 'lt' unsupported for payoff 'digital-barrier'"
    with pytest.raises(harness.UnsupportedCombinationError, match=message):
        harness.run_experiment(cfg)
    with pytest.raises(harness.UnsupportedCombinationError, match=message):
        harness.timing_report(cfg, repeats=1)


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


# --- set-up blocks on the chunk pool ---------------------------------------


@pytest.mark.parametrize("n", [1, 2, 238, 239, 2000])
def test_setup_blocks_bit_identical_on_the_chunk_pool(n):
    # 237 quadrature times make one block, so n = 238 and 239 sit on the
    # first block edge (one full block, then one more of a single time),
    # 2000 has several blocks, and 1 and 2 have none or a single one; one
    # worker runs several blocks in order on its one pool thread
    serial = bm.barrier_coefficients(100.0, 0.04, 0.2, 1.0, n, 110.0)
    for workers in (1, 2, 3):
        with harness._chunk_pool(workers) as pool:
            pool_map = harness._pool_map(pool, workers)
            pooled = bm.barrier_coefficients(100.0, 0.04, 0.2, 1.0, n, 110.0, pool_map)
        assert np.array_equal(pooled.a, serial.a), (n, workers)
        assert np.array_equal(pooled.beta, serial.beta), (n, workers)
        assert pooled.gamma == serial.gamma, (n, workers)


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


def test_setup_blocks_run_under_the_callers_error_state():
    # numpy's error state is per thread: a block on a pool thread must see
    # the caller's, not numpy's defaults
    with harness._chunk_pool(2) as pool:
        with np.errstate(over="ignore", invalid="raise", divide="raise"):
            want = np.geterr()
            seen = list(
                harness._pool_map(pool, 2)(
                    lambda _: (np.geterr(), threading.current_thread()), range(8)
                )
            )
    assert all(err == want for err, _ in seen), seen
    assert any(thread is not threading.main_thread() for _, thread in seen)


def test_cli_extreme_barrier_regression_same_for_one_and_two_workers():
    # the hit is so rare (gamma ~ 1e-83) that the quadrature's terms under-
    # and overflow; with warnings as errors, one worker and two (3 quadrature
    # blocks on the pool) must print the same lines and exit alike
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
    # every set-up is one block or none, so all of it runs on the caller's
    # thread and its times stay as they were
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
    assert started  # three quadrature blocks go to the pool


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


@pytest.mark.parametrize(
    "error, code",
    [(harness.UnsupportedCombinationError, 3), (FloatingPointError, 4)],
)
@pytest.mark.parametrize("method, owner, attr", [("regression", bm, "_hit_prob")])
def test_setup_block_errors_reach_the_cli_with_their_type(
    blas_threads, monkeypatch, capsys, error, code, method, owner, attr
):
    # a block raising on a pool thread: the quadrature's hitting probability
    real, raised_on = getattr(owner, attr), []

    def fail_off_main(*args, **kwargs):
        if threading.current_thread() is threading.main_thread():
            return real(*args, **kwargs)
        raised_on.append(threading.current_thread())
        raise error("set-up block failed")

    monkeypatch.setattr(owner, attr, fail_off_main)
    argv = [
        "price", "--payoff", "digital-barrier", "--barrier", "110", "--n", "601",
        "--paths", "64", "--batches", "2", "--workers", "2", "--method", method,
    ]
    assert cli.main(argv) == code
    assert raised_on
    assert "set-up block failed" in capsys.readouterr().err
    assert blas_threads() == 2


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

    def problem_for(cfg, map=map):
        problem = build(cfg, map)
        S0 = np.array([cfg.s0])
        drift = log_drift(harness._PAYOFF_TABLE[cfg.payoff].market(cfg), cfg.rate)
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
    # scipy.special is imported where ndtri, ndtr and erfcx are called; a
    # fresh process runs each call in turn and reports its exit code and
    # whether scipy.special has been imported so far.  The priced call comes
    # last and must import it, so the check cannot pass vacuously.
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
    seen.append([rc, "scipy.special" in sys.modules])
print(json.dumps(seen))
"""
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    seen = [tuple(case) for case in json.loads(proc.stdout)]
    assert seen == [(3, False), (3, False), (2, False), (0, False), (0, False), (0, False),
                    (0, False), (0, True)]


def test_cli_first_special_function_calls_on_the_pool_threads(capsys):
    # 4 chunks and the quadrature's 9 blocks run on two pool threads, so a
    # fresh process first imports scipy.special for ndtr and erfcx (the
    # quadrature) and ndtri (the chunks) off the main thread
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
