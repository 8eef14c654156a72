"""Self-test of the benchmark.

    python3 perfbench/selfcheck.py [--workload W ...] [--seed S] [--seconds T]

Checks, for each workload named (all by default):

1. ``BENCHMARK.json`` lists exactly the metrics ``run.py`` reports, with
   the same units.
2. An untraced run passes every price check: ``failed`` is 0.
3. Two traced runs of one seed both report every metric in ``run.EXACT``
   (call counts, normals, reflections, quality ratios), with identical
   values.
4. In a directory holding only ``BENCHMARK.json`` and ``perfbench/``, the
   benchmark exits non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

import env
import run
from workloads import WORKLOADS


def bench(workload: str, seed: int, seconds: float, trace: int, cwd: str = env.ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc, json.loads(lines[-1]) if proc.returncode == 0 and lines else None


def check_manifest() -> list[str]:
    with open(os.path.join(env.ROOT, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    errors = []
    for section, expected in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in manifest[section]}
        if listed != expected:
            errors.append(f"BENCHMARK.json {section} {listed} != run.py {expected}")
    if not {w["name"] for w in manifest["workloads"]} <= set(WORKLOADS):
        errors.append("BENCHMARK.json names a workload workloads.py lacks")
    return errors


def check_bare() -> list[str]:
    """The benchmark must fail cleanly where the program is absent."""
    bare = os.path.join(run.OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(
            env.HERE,
            os.path.join(bare, "perfbench"),
            ignore=shutil.ignore_patterns("out", "__pycache__"),
        )
        shutil.copy(os.path.join(env.ROOT, "BENCHMARK.json"), bare)
        proc, result = bench("asian-250", 1, 1, 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or result is not None or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--seconds", type=float, default=5)
    args = ap.parse_args()
    errors = check_manifest() + check_bare()
    for workload in args.workload or list(WORKLOADS):
        proc, result = bench(workload, args.seed, args.seconds, 0)
        if result is None or result["failed"] or not result["correct"]:
            errors.append(f"{workload} untraced: {result} {proc.stderr[-2000:]}")
        traced = [bench(workload, args.seed, args.seconds, 1)[1] for _ in range(2)]
        if None in traced:
            errors.append(f"{workload} traced run produced no result")
            continue
        for key in run.EXACT:
            a, b = (t["metrics"].get(key, {}).get("value") for t in traced)
            if a is None or b is None:
                errors.append(f"{workload} {key}: absent from a traced run ({a!r}, {b!r})")
            elif a != b:
                errors.append(f"{workload} {key}: {a!r} != {b!r} between traced runs")
        print(f"{workload}: checked", flush=True)
    for e in errors:
        print(f"selfcheck: {e}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
