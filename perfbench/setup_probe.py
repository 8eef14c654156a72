"""Time qmcpricer's set-up in a fresh process.

Run by the benchmark as ``python3 perfbench/setup_probe.py --workload W
--seed S``.  Set-up is everything paid before the first path is priced:
importing qmcpricer, the Sobol direction-table parse, paid once per
process, plus building every method's construction.  One operation per
method at N=1 with the minimum batch count pays exactly that, plus a
negligible amount of sampling.  Because the process is new, no in-process
cache can hide any of it, and work moved to import time still counts.
numpy and scipy are imported before the clock starts: they are the
program's dependencies, not its set-up.  Prints one JSON line.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import sys
import time

import env
from workloads import BATCHES, WORKLOADS

DEPENDENCIES = ("numpy", "scipy.special")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    env.pin_blas_threads()
    for name in DEPENDENCIES:
        importlib.import_module(name)
    wl = WORKLOADS[args.workload]
    t0 = time.perf_counter()
    harness = env.import_harness()
    cfgs = [
        harness.ExperimentConfig(
            methods=[m], batches=BATCHES, seed=args.seed, **{**wl.config, "paths": [1]}
        )
        for m in wl.methods
    ]
    finite = True
    for cfg in cfgs:
        _, stats = harness.run_experiment(cfg)
        finite = finite and all(math.isfinite(s.mean) for s in stats)
    elapsed = time.perf_counter() - t0
    print(json.dumps({"setup_s": elapsed, "finite": finite}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
