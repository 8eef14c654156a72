"""Command-line entry points.

Subcommands:
  price        one run at a fixed N, raw per-batch CSV
  convergence  N-grid run, summary CSV
  table1       residual-fraction grid for the Asian payoff
  timing       per-method set-up and evaluation times
  coeffs       dump the regression coefficient vector

Exit codes: 0 success, 2 bad flags (a basket's rho outside [-1, 1]
included), a Sobol block too large for memory or a worker thread that
cannot start, 3 unsupported (payoff, method) combination, 4 numerical
failure (a non-finite estimate from price, convergence or timing, a
non-finite regression coefficient, or a float overflow).

The market flags and their defaults come from ExperimentConfig's fields,
which also refuse a bad request (exit 2, then 3) before any set-up.  This
module imports only ``config``, which needs no numpy; a command imports
``harness`` or ``regression`` once its request is built.  So a call
refused for its flags or its method (exit 2 or 3) and --help never import
numpy.  scipy.special is imported on first use, by the calls that
evaluate a normal quantile or a barrier probability: a run that prices,
and coeffs of a barrier payoff; table1 and Asian or basket coeffs import
numpy but not scipy.special.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import MISSING, fields

from .config import (
    METHODS,
    PAYOFFS,
    ExperimentConfig,
    UnsupportedCombinationError,
    supported_methods,
)

# full-scale path dimensions per payoff, behind --full-scale
FULL_SCALE_N = {
    "asian": 250,
    "basket": 250,
    "digital-barrier": 2000,
    "asian-barrier": 1000,
}


def _add_market_flags(p: argparse.ArgumentParser, method: bool = True) -> None:
    p.add_argument("--payoff", choices=PAYOFFS, default="asian")
    if method:  # coeffs prints regression's vector alone and takes no --method
        p.add_argument(
            "--method",
            choices=METHODS,
            action="append",
            help="repeatable; default depends on the subcommand",
        )
    p.add_argument("--n", type=int, default=64, help="time steps per asset")
    # one flag per remaining config field, in field order, with its default
    for f in fields(ExperimentConfig):
        if f.name not in ("payoff", "methods", "n", "paths"):
            default = f.default_factory() if f.default is MISSING else f.default
            kind = float if default is None else type(default)
            flag = "--" + f.name.replace("_", "-")
            p.add_argument(flag, type=kind, default=default, help=f.metadata.get("help"))
    p.add_argument("--full-scale", action="store_true", help="use the full per-payoff n")


def _config(args, paths: list[int], methods: list[str]) -> ExperimentConfig:
    """Config from the parsed flags; every flag named like a config field sets it."""
    names = [f.name for f in fields(ExperimentConfig)]
    flags = {name: getattr(args, name) for name in names if hasattr(args, name)}
    n = FULL_SCALE_N[args.payoff] if args.full_scale else args.n
    return ExperimentConfig(**{**flags, "methods": methods, "n": n, "paths": paths})


def _nonfinite(estimates) -> bool:
    """True, with the refusal printed, when any estimate is inf or NaN (exit 4)."""
    if all(math.isfinite(e) for e in estimates):
        return False
    print("numerical failure: non-finite estimate", file=sys.stderr)
    return True


def _run(args, paths: list[int], methods: list[str], write) -> int:
    """Run, refuse a non-finite estimate (exit 4), write CSV with
    ``write(harness, raw, stats)``, print the summary."""
    cfg = _config(args, paths, methods)
    from . import harness

    raw, stats = harness.run_experiment(cfg)
    if _nonfinite(s.mean for s in stats):
        return 4
    if args.out:
        write(harness, raw, stats)
    for s in stats:
        print(
            f"{s.payoff} {s.method} n={s.n} N={s.N} "
            f"mean={s.mean:.6f} stddev={s.stddev:.6e} batches={s.batches}"
        )
    return 0


def _cmd_price(args) -> int:
    methods = args.method or ["forward"]
    return _run(args, [args.paths], methods, lambda h, raw, _: h.write_raw_csv(raw, args.out))


def _cmd_convergence(args) -> int:
    if args.log2_min > args.log2_max:
        raise ValueError("--log2-min must not exceed --log2-max")
    methods = args.method or ["forward", "regression"]
    paths = [2**k for k in range(args.log2_min, args.log2_max + 1)]
    return _run(args, paths, methods, lambda h, _, stats: h.write_summary_csv(stats, args.out))


def _cmd_table1(args) -> int:
    n = args.n
    if n < 1:
        raise ValueError(f"--n must be at least 1, got {n}")
    from .regression import asian_spec, variance_report, variance_report_continuum

    print("# residual variance fraction (V - |a|^2) / V for the Asian payoff, T=1")
    print(f"# r sigma2 discrete_n{n} continuum")
    for r in (0.1, 0.2, 0.3):
        for s2 in (0.01, 0.02, 0.03, 0.04):
            sigma = math.sqrt(s2)
            disc = variance_report(asian_spec(1.0, r, sigma, 1.0, n)).residual_fraction
            cont = variance_report_continuum(r, sigma, 1.0).residual_fraction
            print(f"{r} {s2} {disc:.6f} {cont:.6f}")
    return 0


def _cmd_timing(args) -> int:
    if args.repeats < 1:  # a bad flag (exit 2) before a refused method (exit 3)
        raise ValueError(f"repeats must be at least 1, got {args.repeats}")
    methods = args.method or supported_methods(args.payoff, ["forward", "regression", "pca", "lt"])
    cfg = _config(args, [args.paths], methods)
    from .harness import timing_report

    report = timing_report(cfg, repeats=args.repeats)
    if _nonfinite(row["estimate"] for row in report):
        return 4
    print("method setup_ms run_ms total_ms estimate")
    for row in report:
        print(
            f"{row['method']} {row['setup_ms']:.3f} {row['run_ms']:.3f} "
            f"{row['total_ms']:.3f} {row['estimate']:.6f}"
        )
    return 0


def _cmd_coeffs(args) -> int:
    cfg = _config(args, [2], ["regression"])
    from .harness import regression_vector_for

    rv = regression_vector_for(cfg)
    if not math.isfinite(rv.norm):  # an inf or NaN coefficient makes the norm one
        print("numerical failure: non-finite coefficients", file=sys.stderr)
        return 4
    print(f"# regression coefficients, payoff={cfg.payoff} n={cfg.n} norm={float(rv.norm)!r}")
    for i, v in enumerate(rv.a, start=1):
        print(f"{i} {float(v)!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qmcpricer")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("price", help="single-N run, raw CSV")
    _add_market_flags(p)
    p.add_argument("--paths", type=int, default=2**12, help="sample paths N")
    p.add_argument("--out", default=None, help="raw CSV path")
    p.set_defaults(func=_cmd_price)

    p = sub.add_parser("convergence", help="N-grid run, summary CSV")
    _add_market_flags(p)
    p.add_argument("--log2-min", type=int, default=5)
    p.add_argument("--log2-max", type=int, default=12)
    p.add_argument("--out", default=None, help="summary CSV path")
    p.set_defaults(func=_cmd_convergence)

    p = sub.add_parser("table1", help="residual-fraction grid")
    p.add_argument("--n", type=int, default=2**12, help="time steps for the exact sums")
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("timing", help="per-method set-up and evaluation times")
    _add_market_flags(p)
    p.add_argument("--paths", type=int, default=2**14)
    p.add_argument("--repeats", type=int, default=5)
    p.set_defaults(func=_cmd_timing)

    p = sub.add_parser("coeffs", help="dump the regression vector")
    _add_market_flags(p, method=False)
    p.set_defaults(func=_cmd_coeffs)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnsupportedCombinationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OverflowError, FloatingPointError) as exc:
        print(f"numerical failure: overflow {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        parser.error(str(exc))  # exits 2
    except MemoryError as exc:
        parser.error(f"out of memory: {exc}" if str(exc) else "out of memory")  # exits 2


if __name__ == "__main__":
    sys.exit(main())
