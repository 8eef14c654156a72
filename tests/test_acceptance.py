"""Acceptance gate: one test per release criterion.

Each test prints a single summary line; run with ``pytest -v`` to get the
pass/fail verdict per criterion.  The Monte Carlo oracles use their own
fixed seeds and are independent of the library's Sobol machinery except
where the criterion is about that machinery.
"""

import math
import time

import numpy as np
import pytest

from qmcpricer import brownian_max as bm
from qmcpricer import cli, harness
from qmcpricer import regression as reg
from qmcpricer import rng
from qmcpricer import transforms as tr
from qmcpricer.payoffs import basket_paths, log_drift
from qmcpricer.transforms import ForwardConstruction

TABLE1 = {
    (0.1, 0.01): 0.0025, (0.1, 0.02): 0.0051, (0.1, 0.03): 0.0076, (0.1, 0.04): 0.0101,
    (0.2, 0.01): 0.0026, (0.2, 0.02): 0.0051, (0.2, 0.03): 0.0077, (0.2, 0.04): 0.0103,
    (0.3, 0.01): 0.0026, (0.3, 0.02): 0.0052, (0.3, 0.03): 0.0078, (0.3, 0.04): 0.0104,
}


def test_criterion_1_table1_reproduction(capsys):
    t0 = time.perf_counter()
    rc = cli.main(["table1"])
    assert rc == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    assert len(lines) == 12
    worst = 0.0
    for line in lines:
        r_s, s2_s, disc_s, cont_s = line.split()
        want = TABLE1[(float(r_s), float(s2_s))]
        for got in (float(disc_s), float(cont_s)):
            worst = max(worst, abs(got - want))
            assert abs(got - want) <= 2e-4, (r_s, s2_s, got, want)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"criterion 1: 12/12 table values within 2e-4 (worst {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_linear_algebra_suite():
    t0 = time.perf_counter()
    gen = np.random.default_rng(42)
    # reflections: orthogonality and involution at 1e-12
    for n in (2, 5, 16, 64):
        refl = tr.householder_from_target(gen.standard_normal(n))
        U = tr.TransformChain([refl]).materialize(n)
        assert np.abs(U.T @ U - np.eye(n)).max() <= 1e-12
        for _ in range(100):
            x = gen.standard_normal(n)
            assert np.abs(refl.apply(refl.apply(x)) - x).max() <= 1e-12
    # constructions: A A^T recovers the Brownian covariance at 1e-9
    for n in (2, 7, 64, 128):
        j = np.arange(1, n + 1)
        Sigma = (1.0 / n) * np.minimum.outer(j, j)
        for construction in (tr.ForwardConstruction, tr.BrownianBridgeConstruction, tr.PcaConstruction):
            A = tr.construction_matrix(construction(n, 1.0))
            assert np.abs(A @ A.T - Sigma).max() <= 1e-9, (construction.__name__, n)
    # completion reproduces its inputs at 1e-10
    for n, k in ((4, 2), (16, 5), (64, 12)):
        Q, _ = np.linalg.qr(gen.standard_normal((n, n)))
        chain = tr.complete_first_k_columns([Q[:, j] for j in range(k)])
        U = chain.materialize(n)
        assert np.abs(U[:, :k] - Q[:, :k]).max() <= 1e-10
        assert np.abs(U.T @ U - np.eye(n)).max() <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"criterion 2: reflections, constructions, completion all pass ({elapsed:.1f}s)")


# 12-point (u, nu, t, T) grid in standardized coordinates (u', nu', t'),
# mapped to original coordinates by u = u' sqrt(T), nu = nu'/sqrt(T), t = t' T.
_C3_GRID = [
    (1.0, 0.0, 1.0, 1.0, "one"),
    (1.0, 0.0, 0.5, 1.0, "identity"),
    (0.5, 0.2, 1.0, 1.0, "one"),
    (0.5, 0.2, 0.5, 1.0, "identity"),
    (1.5, 0.2, 0.25, 1.0, "identity"),
    (1.0, -0.35, 1.0, 1.0, "identity"),
    (0.5, -0.35, 0.25, 1.0, "one"),
    (1.5, 0.0, 0.5, 1.0, "one"),
    (1.0, 0.2, 0.5, 0.25, "one"),
    (0.5, -0.35, 1.0, 0.25, "identity"),
    (1.5, -0.35, 0.5, 0.25, "one"),
    (1.0, 0.2, 0.25, 0.25, "identity"),
]

_C3_BUCKETS = (0.0, 0.2, -0.35)


def _simulate_standardized_max(n_pairs, n_grid, seed):
    """Per-path summaries of drifted Brownian motion on [0, 1].

    Simulates ``2 * n_pairs`` paths as antithetic pairs (path i + n_pairs
    is the negation of path i), so statistics must be formed over pair
    means; see ``_pair_stats``.  Returns (M, B) with M[nu'] the running
    maximum per path and B the driftless endpoint values at t' in
    {0.25, 0.5, 1}.  The driftless maximum is sampled exactly (interval
    maxima drawn from the Brownian bridge law, which given the endpoints
    depends on the increments only through their squares, so one draw
    serves both paths of a pair).  The drifted maxima are plain maxima
    over the n_grid endpoints; their discretization bias is what the
    acceptance slack absorbs.
    """
    dt = 1.0 / n_grid
    t_cols = {0.25: n_grid // 4 - 1, 0.5: n_grid // 2 - 1, 1.0: n_grid - 1}
    gen = np.random.default_rng(np.random.SFC64(seed))
    n_paths = 2 * n_pairs
    M = {nu: np.empty(n_paths, dtype=np.float32) for nu in _C3_BUCKETS}
    B = {tp: np.empty(n_paths, dtype=np.float32) for tp in t_cols}
    tgrid = (dt * np.arange(1, n_grid + 1)).astype(np.float32)
    chunk = 2000
    Zb = np.empty((chunk, n_grid), dtype=np.float32)
    Wb = np.empty((chunk, n_grid), dtype=np.float32)
    Qb = np.empty((chunk, n_grid), dtype=np.float32)
    Ub = np.empty((chunk, n_grid), dtype=np.float32)
    Tb = np.empty((chunk, n_grid), dtype=np.float32)
    for lo in range(0, n_pairs, chunk):
        hi = min(lo + chunk, n_pairs)
        c = hi - lo
        Z, W, Q, U, T = Zb[:c], Wb[:c], Qb[:c], Ub[:c], Tb[:c]
        gen.standard_normal(out=Z, dtype=np.float32)
        Z *= np.float32(math.sqrt(dt))
        np.cumsum(Z, axis=1, out=W)
        for tp, col in t_cols.items():
            B[tp][lo:hi] = W[:, col]
            B[tp][n_pairs + lo : n_pairs + hi] = -W[:, col]
        # drifted maxima over the grid endpoints, for +W and -W
        for nu in _C3_BUCKETS:
            if nu == 0.0:
                continue
            row = np.float32(nu) * tgrid
            np.add(W, row, out=T)
            M[nu][lo:hi] = T.max(axis=1)
            np.subtract(row, W, out=T)
            M[nu][n_pairs + lo : n_pairs + hi] = T.max(axis=1)
        # driftless maxima, exact: interval max = midpoint
        # + sqrt(increment^2 + 2 dt Exp(1)) / 2 with Exp(1) = -log(1 - U)
        gen.random(out=U, dtype=np.float32)
        np.subtract(np.float32(1.0), U, out=U)
        np.log(U, out=U)
        U *= np.float32(-0.5 * dt)
        np.multiply(Z, Z, out=Q)
        Q *= np.float32(0.25)
        Q += U
        np.sqrt(Q, out=Q)
        W -= 0.5 * Z
        np.add(W, Q, out=T)
        M[0.0][lo:hi] = T.max(axis=1)
        np.subtract(Q, W, out=T)
        M[0.0][n_pairs + lo : n_pairs + hi] = T.max(axis=1)
    return M, B


def _pair_stats(sample):
    """Mean and standard error for an antithetic-pair sample vector."""
    half = sample.size // 2
    means = 0.5 * (sample[:half] + sample[half:])
    return means.mean(), means.std() / math.sqrt(half)


def test_criterion_3_appendix_formula_oracles():
    t0 = time.perf_counter()
    M, B = _simulate_standardized_max(500_000, 2**12, seed=101)
    worst_sigma = 0.0
    for u_p, nu_p, t_p, T, tag in _C3_GRID:
        u, nu, t = u_p * math.sqrt(T), nu_p / math.sqrt(T), t_p * T
        got = bm.indicator_moment(u, nu, t, T, tag)
        ind = (M[nu_p] >= np.float32(u_p)).astype(np.float64)
        if tag == "one":
            sample = ind
            scale = 1.0
        else:
            sample = ind * (B[t_p].astype(np.float64) + nu_p * t_p)
            scale = math.sqrt(T)
        mean, se = _pair_stats(sample)
        oracle, se = scale * mean, scale * se
        tol = 3.0 * se + 0.01
        assert abs(got - oracle) <= tol, (u_p, nu_p, t_p, T, tag, got, oracle, tol)
        worst_sigma = max(worst_sigma, abs(got - oracle) / max(se, 1e-300))
    # prob_max_exceeds against hitting frequencies
    for u_p, nu_p in ((1.0, 0.0), (0.5, 0.2), (1.5, -0.35), (0.75, 0.2)):
        got = bm.prob_max_exceeds(u_p, nu_p, 1.0)
        mean, se = _pair_stats((M[nu_p] >= np.float32(u_p)).astype(np.float64))
        assert abs(got - mean) <= 3.0 * se + 0.01
    # weighted_max_expectation: first and second moment of the maximum
    m0 = M[0.0].astype(np.float64)
    for h_prime, moment in ((lambda v: 1.0, m0), (lambda v: 2.0 * v, m0 * m0)):
        got = bm.weighted_max_expectation(h_prime, 0.0, 1.0, 1.0, "one")
        mean, se = _pair_stats(moment)
        assert abs(got - mean) <= 3.0 * se + 0.01
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(
        f"criterion 3: 12 grid points + 4 hitting probs + 2 moments within "
        f"3 SE + 0.01 (worst {worst_sigma:.1f} sigma-equivalents incl. slack, {elapsed:.0f}s)"
    )


def test_criterion_4_barrier_coefficients_oracle():
    t0 = time.perf_counter()
    S0, r, sigma, T, n, barrier = 100.0, 0.04, 0.2, 1.0, 16, 110.0
    got = bm.barrier_coefficients(S0, r, sigma, T, n, barrier).a
    n_paths = 10**6
    gen = np.random.default_rng(303)
    Z = gen.standard_normal((n_paths, n))
    cov = tr.BasketCovSpec(m=1, n=n, T=T, vols=np.array([sigma]), corr=np.ones((1, 1)))
    one_asset = tr.KroneckerConstruction(tr.cholesky_psd(cov.R()), ForwardConstruction(n, T))
    S = basket_paths(np.array([S0]), log_drift(cov, r), one_asset.apply(Z))
    h = (S.max(axis=(1, 2)) >= barrier).astype(np.float64)
    prod = h[:, None] * Z
    oracle = prod.mean(axis=0)
    se = prod.std(axis=0) / math.sqrt(n_paths)
    slack = 0.35 / math.sqrt(n)
    diffs = np.abs(got - oracle)
    assert np.all(diffs <= 3.0 * se + slack), diffs
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(
        f"criterion 4: all 16 coefficients within 3 SE + {slack:.4f} "
        f"(max diff {diffs.max():.4f}, {elapsed:.0f}s)"
    )


def _stddev_by_method(cfg):
    _, stats = harness.run_experiment(cfg)
    return {s.method: s.stddev for s in stats}


def test_criterion_5_variance_reduction_ordering():
    t0 = time.perf_counter()
    asian = harness.ExperimentConfig(
        payoff="asian",
        methods=["forward", "pca", "regression"],
        n=64,
        paths=[2**12],
        batches=8,
        seed=5,
    )
    sd = _stddev_by_method(asian)
    assert sd["regression"] <= 0.5 * sd["forward"], sd
    assert sd["pca"] <= 0.5 * sd["forward"], sd
    asian_reg_ratio = sd["regression"] / sd["forward"]
    asian_pca_ratio = sd["pca"] / sd["forward"]
    digital = harness.ExperimentConfig(
        payoff="digital-barrier",
        methods=["forward", "regression"],
        n=64,
        paths=[2**12],
        batches=8,
        seed=5,
        barrier=110.0,
    )
    sd = _stddev_by_method(digital)
    assert sd["regression"] <= sd["forward"], sd
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"criterion 5: asian stddev ratios reg {asian_reg_ratio:.2f}, pca "
        f"{asian_pca_ratio:.2f} (need <= 0.5); digital reg/fwd "
        f"{sd['regression'] / sd['forward']:.2f} (need <= 1) ({elapsed:.0f}s)"
    )


def test_criterion_6_cross_method_consistency():
    t0 = time.perf_counter()
    cases = [
        ("asian", ["forward", "bb", "pca", "regression", "lt"], dict(n=64)),
        ("digital-barrier", ["forward", "bb", "pca", "regression"], dict(n=64, barrier=110.0)),
        ("asian-barrier", ["forward", "bb", "pca", "regression"], dict(n=64, barrier=110.0)),
        ("basket", ["forward", "bb", "pca", "regression", "lt"], dict(n=32, assets=10)),
    ]
    for payoff, methods, extra in cases:
        cfg = harness.ExperimentConfig(
            payoff=payoff, methods=methods, paths=[2**14], batches=8, seed=1, **extra
        )
        _, stats = harness.run_experiment(cfg)
        for i, a in enumerate(stats):
            for b in stats[i + 1 :]:
                se = math.hypot(a.stddev, b.stddev) / math.sqrt(a.batches)
                assert abs(a.mean - b.mean) <= 3.0 * se, (payoff, a.method, b.method)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"criterion 6: all method pairs agree within 3 pooled SE on 4 payoffs ({elapsed:.0f}s)")


def test_criterion_7_covariance_statistics():
    t0 = time.perf_counter()
    n, N = 64, 2**16
    spec = reg.asian_spec(100.0, 0.04, 0.2, 1.0, n)
    rv = reg.logexp_coefficients(spec)
    U = reg.regression_transform(rv).materialize(n)
    X = np.random.default_rng(707).standard_normal((N, n))
    G = spec.evaluate(X @ U.T)
    Y = rv.norm * X[:, 0]
    corr = np.corrcoef(Y, G - Y)[0, 1]
    assert abs(corr) <= 6.0 / math.sqrt(N), corr
    # conditional-mean fit on one half, residual covariance on the other
    # (in-sample bin means make the covariance vanish identically)
    Y_fit, G_fit = Y[0::2], G[0::2]
    Y_ev, G_ev = Y[1::2], G[1::2]
    edges = np.quantile(Y_fit, np.linspace(0.0, 1.0, 65)[1:-1])
    which = np.digitize(Y_fit, edges)
    means = np.array([G_fit[which == b].mean() for b in range(64)])
    cond = means[np.digitize(Y_ev, edges)]
    resid = G_ev - cond
    prod = (cond - cond.mean()) * (resid - resid.mean())
    cov = prod.mean()
    se = prod.std() / math.sqrt(prod.size)
    assert abs(cov) <= 4.0 * se, (cov, se)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(
        f"criterion 7: |corr| {abs(corr):.2e} <= {6.0 / math.sqrt(N):.2e}; "
        f"binned covariance {cov:.2e} within 4 SE ({elapsed:.0f}s)"
    )


def test_criterion_8_timing_ordering():
    cfg = harness.ExperimentConfig(
        payoff="asian",
        methods=["forward", "regression", "pca", "lt"],
        n=250,
        paths=[2**14],
        batches=2,
        seed=0,
        lt_columns=25,
    )
    harness.timing_report(cfg, repeats=1)  # warm-up pass
    rows = {r["method"]: r["total_ms"] for r in harness.timing_report(cfg, repeats=5)}
    assert rows["forward"] < rows["regression"] < rows["pca"] < rows["lt"], rows
    times = harness.reflection_apply_times([2**12, 2**13], paths=1024, repeats=100, seed=1)
    ratio = times[2**13] / times[2**12]
    assert 1.5 <= ratio <= 2.8, times
    print(
        "criterion 8: total ms forward {forward:.1f} < regression "
        "{regression:.1f} < pca {pca:.1f} < lt {lt:.1f}; ".format(**rows)
        + f"apply doubling ratio {ratio:.2f}"
    )


def test_criterion_9_determinism(tmp_path):
    cfg = dict(
        payoff="asian",
        methods=["forward", "regression"],
        n=32,
        paths=[2**6, 2**8],
        batches=4,
        seed=13,
    )
    raw1, stats1 = harness.run_experiment(harness.ExperimentConfig(**cfg))
    raw2, stats2 = harness.run_experiment(harness.ExperimentConfig(**cfg))
    assert [r.estimate for r in raw1] == [r.estimate for r in raw2]
    raw3, stats3 = harness.run_experiment(harness.ExperimentConfig(**cfg, workers=4))
    assert [r.estimate for r in raw1] == [r.estimate for r in raw3]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    harness.write_summary_csv(stats1, str(p1))
    harness.write_summary_csv(stats3, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    print("criterion 9: byte-identical CSV and estimates across runs and schedules")
