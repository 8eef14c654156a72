"""Pricing benchmark for qmcpricer.

    python3 perfbench/run.py --workload asian-250 --seed 1 --seconds 58 --trace 0

Runs one workload (see ``workloads.py``) in this process, a closed loop of
one caller: each operation starts when the previous one has returned.
One operation is one ``harness.run_experiment`` call with one method, the
work behind ``qmcpricer price --method M``; its wall time includes set-up,
Sobol generation and every batch.  Every operation's price is checked.

``--trace 0`` reports the end-to-end metrics, timed from here:

- ``price_s.<method>``: median wall seconds of one operation.  A method
  the library refuses for the payoff (lt on a barrier payoff) is timed as
  the refused CLI call a user would make, which exits 3.
- ``setup_s``: median over fresh processes (``setup_probe.py``) of the
  qmcpricer import, the direction-table parse and building every
  method's construction.
- ``peak_rss_mb``: peak resident memory of this process, which runs only
  this workload.
- ``pass_rate``: operations that passed their check / operations attempted.

``--trace 1`` wraps the layer entry points (``spans.py``), runs each method
once untraced and once traced per round, and reports per-layer metrics
per round, a round being one operation of each priced method.  Before the
rounds it prices forward and regression once each at QUALITY_BATCHES
batches, untraced, for ``regression.stddev_ratio``.

The last line of standard output is one JSON object; the lines above it
give each metric with its unit and sample count and the environment.  A
record of the run, spans included when traced, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import env
from workloads import ALL_METHODS, BATCHES, WORKLOADS

OUT = os.path.join(env.HERE, "out")

# An operation fails when its batch mean lies further than this many
# standard deviations from the reference price.  The deviation combines the
# reference's standard error and the method's batch spread over BATCHES.
TOL_SIGMAS = 6.0

# Rounds always run at least this many times, whatever --seconds says, so
# each price_s is a median of two or more operations.
MIN_ROUNDS = 2
# Set-up probes run in fresh processes.  A probe's set-up time swings by up
# to 2x with the load on the machine, so a run plans as many probes as fit
# in this share of --seconds, within the limits below, and spreads them
# between the rounds so they sample the whole run.
SETUP_SHARE = 0.2
MIN_SETUP_PROBES = 2
MAX_SETUP_PROBES = 15
# A refused CLI call is short and its start-up time varies by +-15 %, so
# each round times several.
REFUSALS_PER_ROUND = 3
SUBPROCESS_TIMEOUT_S = 60
# The CLI's exit code when the payoff refuses the method.
REFUSED_EXIT = 3
# regression.stddev_ratio compares batch standard deviations over this many
# batches, so each has 15 degrees of freedom.
QUALITY_BATCHES = 16

END_TO_END = {
    **{f"price_s.{m}": "s" for m in ALL_METHODS},
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "pass_rate": "ratio",
}

PER_LAYER = {
    "rng.sobol_s": "s",
    "rng.shift_s": "s",
    "rng.normal_s": "s",
    "rng.normals": "count",
    **{f"transforms.apply_s.{m}": "s" for m in ALL_METHODS},
    "transforms.reflect_s": "s",
    "transforms.reflections": "count",
    "payoffs.paths_s": "s",
    "payoffs.reduce_s": "s",
    "regression.coeffs_s": "s",
    "regression.chain_s": "s",
    "regression.captured_fraction": "ratio",
    "regression.stddev_ratio": "ratio",
    "brownian_max.coeffs_s": "s",
    "brownian_max.indicator_calls": "count",
    "brownian_max.simpson_calls": "count",
    "brownian_max.hitprob_calls": "count",
    "lt.transform_s": "s",
    "lt.degenerate_columns": "count",
    "harness.self_s": "s",
    "harness.batches": "count",
    "trace_overhead_s": "s",
}

# Per-layer values that must repeat exactly between traced runs of one seed.
EXACT = (
    "rng.normals",
    "transforms.reflections",
    "regression.captured_fraction",
    "regression.stddev_ratio",
    "brownian_max.indicator_calls",
    "brownian_max.simpson_calls",
    "brownian_max.hitprob_calls",
    "lt.degenerate_columns",
    "harness.batches",
)


class Bench:
    def __init__(self, harness, name: str, seed: int):
        self.harness = harness
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        with open(os.path.join(env.HERE, "reference.json")) as fh:
            self.ref = json.load(fh)[name]
        self.attempted = 0
        self.failures: list[str] = []
        self.first_bits: dict[str, tuple] = {}
        self.stats: dict[str, object] = {}

    def fail(self, what: str) -> None:
        self.failures.append(what)
        print(f"FAIL {self.name} {what}", file=sys.stderr)

    def config(self, method: str, batches: int):
        return self.harness.ExperimentConfig(
            methods=[method], batches=batches, seed=self.seed, **self.wl.config
        )

    def price(self, method: str, batches: int = BATCHES) -> float | None:
        """Seconds of one checked operation, or None if it failed."""
        cfg = self.config(method, batches)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            raw, stats = self.harness.run_experiment(cfg)
        except Exception as exc:  # any exception is a failed operation; keep measuring
            self.fail(f"{method}: raised {exc!r}")
            return None
        elapsed = time.perf_counter() - t0
        return elapsed if self.check(method, batches, raw, stats) else None

    def check(self, method: str, batches: int, raw, stats) -> bool:
        bits = tuple(float(r.estimate).hex() for r in raw)
        if not all(math.isfinite(r.estimate) for r in raw):
            self.fail(f"{method}: non-finite estimate {bits}")
            return False
        mean = stats[0].mean
        sd = math.hypot(self.ref["stderr"], self.ref["batch_sd"][method] / math.sqrt(batches))
        if abs(mean - self.ref["price"]) > TOL_SIGMAS * sd:
            self.fail(f"{method}: {mean!r} is {abs(mean - self.ref['price']) / sd:.1f} sd from {self.ref['price']!r}")
            return False
        first = self.first_bits.setdefault((method, batches), bits)
        if bits != first:
            self.fail(f"{method}: estimates {bits} differ from the first run's {first}")
            return False
        self.stats[(method, batches)] = stats[0]
        return True

    def _subprocess(self, cmd: list[str]) -> tuple[float, subprocess.CompletedProcess | None]:
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd,
                env=env.child_env(),
                cwd=env.ROOT,
                capture_output=True,
                text=True,
                timeout=SUBPROCESS_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return time.perf_counter() - t0, None
        return time.perf_counter() - t0, proc

    def refuse(self, method: str) -> float | None:
        """Wall seconds of the CLI call for a method the payoff refuses."""
        cmd = [sys.executable, "-m", "qmcpricer.cli", "price", "--method", method]
        cmd += ["--batches", str(BATCHES), "--seed", str(self.seed)]
        for key, value in self.wl.config.items():
            cmd += [f"--{key.replace('_', '-')}", str(value[0] if key == "paths" else value)]
        self.attempted += 1
        elapsed, proc = self._subprocess(cmd)
        if proc is None or proc.returncode != REFUSED_EXIT:
            self.fail(f"{method}: CLI call ended with {proc and proc.returncode}: {proc and proc.stderr}")
            return None
        return elapsed

    def setup_probe(self) -> float | None:
        cmd = [sys.executable, os.path.join(env.HERE, "setup_probe.py")]
        cmd += ["--workload", self.name, "--seed", str(self.seed)]
        self.attempted += 1
        _, proc = self._subprocess(cmd)
        try:
            out = json.loads(proc.stdout.strip().splitlines()[-1])
        except (AttributeError, IndexError, ValueError):
            self.fail(f"setup probe: {proc and proc.stderr}")
            return None
        if proc.returncode != 0 or not out["finite"]:
            self.fail(f"setup probe: exit {proc.returncode}, finite {out['finite']}")
            return None
        return out["setup_s"]

    def warm_up(self) -> None:
        """Parse the direction table and fault in the allocator's pages."""
        self.price(self.wl.methods[0])


def measure(bench: Bench, seconds: float) -> tuple[dict, dict, dict]:
    """End-to-end metrics, their sample counts and the samples.

    One set-up probe runs first, so its cost is known and the number of
    probes can be planned.  Rounds of one operation per method run until
    the next round would leave too little time for the probes still
    planned, with a probe after any round that leaves the probes behind
    the share of the run they are due.  A partial round follows, then the
    remaining probes, and then probes fill what time is left.
    """
    wl = bench.wl
    start = time.perf_counter()
    deadline = start + seconds
    samples = {f"price_s.{m}": [] for m in wl.methods + wl.refused}
    setup = samples["setup_s"] = [bench.setup_probe()]
    probe_s = time.perf_counter() - start
    planned = int(SETUP_SHARE * seconds / probe_s)
    planned = min(MAX_SETUP_PROBES, max(MIN_SETUP_PROBES, planned))
    bench.warm_up()
    rounds = 0
    while True:
        round_start = time.perf_counter()
        for m in wl.methods:
            samples[f"price_s.{m}"].append(bench.price(m))
        for m in wl.refused:
            samples[f"price_s.{m}"] += [bench.refuse(m) for _ in range(REFUSALS_PER_ROUND)]
        rounds += 1
        round_s = time.perf_counter() - round_start
        due = min(planned, planned * (time.perf_counter() - start) / seconds)
        while len(setup) < due:
            setup.append(bench.setup_probe())
        reserved = max(0, planned - len(setup)) * probe_s
        if rounds >= MIN_ROUNDS and time.perf_counter() + round_s + reserved > deadline:
            break
    for m in wl.methods:  # a partial round, each operation only if it still fits
        last = samples[f"price_s.{m}"][-1]
        reserved = max(0, planned - len(setup)) * probe_s
        if last is not None and time.perf_counter() + last + reserved <= deadline:
            samples[f"price_s.{m}"].append(bench.price(m))
    while len(setup) < planned or (
        len(setup) < MAX_SETUP_PROBES and time.perf_counter() + probe_s <= deadline
    ):
        setup.append(bench.setup_probe())
    values, counts = {}, {}
    for key, xs in samples.items():
        xs = [x for x in xs if x is not None]
        values[key] = statistics.median(xs) if xs else None
        counts[key] = len(xs)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    counts["peak_rss_mb"] = 1
    values["pass_rate"] = 1.0 - len(bench.failures) / bench.attempted
    counts["pass_rate"] = bench.attempted
    return values, counts, {"samples": samples}


def _captured_fraction(bench: Bench, returns: dict) -> float | None:
    """||a||^2 / V for the regression vector the traced run built."""
    from qmcpricer import regression

    coeffs = returns.get("coefficients")
    if coeffs is None:
        return None
    a = coeffs.a
    cfg = bench.wl.config
    if hasattr(coeffs, "gamma"):  # indicator payoff: V = gamma (1 - gamma)
        total = coeffs.gamma * (1.0 - coeffs.gamma)
    elif cfg["payoff"] == "basket":
        total = regression.variance_report(returns["basket_spec"]).total
    else:
        spec = regression.asian_spec(cfg["s0"], cfg["rate"], cfg["sigma"], cfg["maturity"], cfg["n"])
        total = regression.variance_report(spec).total
    return float(a @ a) / total


def measure_traced(bench: Bench, seconds: float) -> tuple[dict, dict, dict]:
    """Per-layer metrics per round, their sample counts, and the spans."""
    from spans import CONSTRUCTION_SPAN, Tracer

    wl = bench.wl
    deadline = time.perf_counter() + seconds
    tracer = Tracer()
    bench.warm_up()
    quality = {m: bench.price(m, QUALITY_BATCHES) for m in ("forward", "regression")}
    ops = []  # (round, method, untraced s, traced s)
    rounds = 0
    while True:
        start = time.perf_counter()
        for m in wl.methods:
            plain = bench.price(m)
            tracer.op = len(ops)
            tracer.install(bench.harness)
            try:
                traced = bench.price(m)
            finally:
                tracer.uninstall()
            ops.append((rounds, m, plain, traced))
        rounds += 1
        if time.perf_counter() + (time.perf_counter() - start) > deadline:
            break

    per_round = [dict.fromkeys(PER_LAYER, 0.0) for _ in range(rounds)]
    for name, self_s, op in tracer.self_times():
        r, m = ops[op][0], ops[op][1]
        key = f"{CONSTRUCTION_SPAN}.{m}" if name == CONSTRUCTION_SPAN else name
        per_round[r][key] += self_s
    for r, m, plain, traced in ops:
        if plain is not None and traced is not None:
            per_round[r]["trace_overhead_s"] += traced - plain
    values = {k: statistics.median(pr[k] for pr in per_round) for k in PER_LAYER}
    for key, unit in PER_LAYER.items():
        if unit == "count":
            per = tracer.counts[key] / rounds
            values[key] = int(per) if per == int(per) else per
    values["regression.captured_fraction"] = _captured_fraction(bench, tracer.returns)
    fwd, reg = (bench.stats.get((m, QUALITY_BATCHES)) for m in ("forward", "regression"))
    values["regression.stddev_ratio"] = reg.stddev / fwd.stddev if fwd and reg and fwd.stddev else None
    counts = {k: rounds for k in PER_LAYER}
    counts["regression.stddev_ratio"] = QUALITY_BATCHES
    detail = {"ops": ops, "quality_ops_s": quality, "missing_entry_points": tracer.missing}
    return values, counts, {**detail, "spans": tracer.spans}


def _report(bench: Bench, args, env_record: dict, units: dict, values: dict, counts: dict) -> dict:
    wl = bench.wl
    print(f"# workload {bench.name} seed {args.seed} trace {args.trace}: {wl.why}")
    print(f"# env {json.dumps(env_record)}")
    print(f"# normal_matrix_bytes (computed, one batch) {wl.normal_matrix_bytes}")
    metrics = {}
    for key, unit in units.items():
        value = values.get(key)
        if value is None:
            print(f"{key} = absent")
            continue
        note = ""
        if key == "brownian_max.coeffs_s" and value > 0:
            note = "  (inflated by the brownian_max call counters)"
        if key.removeprefix("price_s.") in wl.refused:
            note = "  (refused by the library: CLI call exiting 3)"
        print(f"{key} = {value!r} {unit} (n={counts.get(key, 0)}){note}")
        metrics[key] = {"value": value, "unit": unit}
    if bench.failures:
        print(f"# failures: {len(bench.failures)} of {bench.attempted}")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True, help="ExperimentConfig.seed (>= 0)")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    env.pin_blas_threads()
    harness = env.import_harness()
    env_record = env.environment()
    bench = Bench(harness, args.workload, args.seed)

    if args.trace:
        values, counts, detail = measure_traced(bench, args.seconds)
        units = PER_LAYER
    else:
        values, counts, detail = measure(bench, args.seconds)
        units = END_TO_END
    metrics = _report(bench, args, env_record, units, values, counts)

    os.makedirs(OUT, exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": env_record,
        "normal_matrix_bytes_computed": bench.wl.normal_matrix_bytes,
        "metrics": metrics,
        "sample_counts": counts,
        "failures": bench.failures,
        **detail,
    }
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh)

    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
