"""Span recorder for the benchmark's traced run.

The tracer wraps qmcpricer entry points from outside, at the name each
one is looked up by at call time:

- names the harness imported into its own namespace (``harness.gbm_path``
  and so on; wrapping ``payoffs.gbm_path`` would record nothing),
- ``rng`` functions, which the harness calls through the module,
- ``apply`` of every construction class the harness names, and
  ``TransformChain.apply``,
- the scalar ``brownian_max`` helpers, counted only: there are millions
  of calls, each too short to time.

Each span holds name, start, end, parent span and operation id.  Spans
stay in memory; ``self_times`` derives each span's self time, its
duration minus the time its child spans cover.  An entry point that does
not exist is listed in ``missing`` and skipped.
"""

from __future__ import annotations

import time
from collections import Counter


CONSTRUCTION_SPAN = "transforms.apply_s"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: Counter = Counter()
        self.returns: dict = {}  # last result of entry points whose value is needed
        self.missing: list[str] = []
        self.op = None  # id of the operation in progress
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, on_return):
        spans, stack = self.spans, self._stack

        def wrapped(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(self, args, out)
            return out

        return wrapped

    def _counter(self, name, fn):
        counts = self.counts

        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    def _patch(self, owner, attr, make):
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(label)
            return
        own = attr in vars(owner)
        self._patches.append((owner, attr, own, vars(owner).get(attr)))
        setattr(owner, attr, make(original))

    def span(self, owner, attr, name, on_return=None):
        self._patch(owner, attr, lambda fn: self._span(name, fn, on_return))

    def count(self, owner, attr, name):
        self._patch(owner, attr, lambda fn: self._counter(name, fn))

    def install(self, harness) -> None:
        """Wrap the layer entry points reachable from ``harness``."""
        from qmcpricer import brownian_max, rng, transforms

        self.missing.clear()
        self.span(harness, "run_experiment", "harness.self_s")
        self.count(harness, "_run_batch", "harness.batches")
        self.span(rng, "sobol_block", "rng.sobol_s")
        self.span(rng, "apply_shift", "rng.shift_s")
        self.span(rng, "inv_normal_cdf", "rng.normal_s", _count_normals)
        for name in sorted(vars(harness)):
            obj = getattr(harness, name)
            if isinstance(obj, type) and name.endswith("Construction"):
                self.span(obj, "apply", CONSTRUCTION_SPAN)
        self.span(transforms.TransformChain, "apply", "transforms.reflect_s", _count_reflections)
        self.span(harness, "gbm_path", "payoffs.paths_s")
        self.span(harness, "basket_paths", "payoffs.paths_s")
        self.span(harness, "payoff", "payoffs.reduce_s")
        self.span(harness, "asian_coefficients", "regression.coeffs_s", _keep("coefficients"))
        self.span(harness, "logexp_coefficients", "regression.coeffs_s", _keep("coefficients"))
        self.span(harness, "basket_spec", "regression.coeffs_s", _keep("basket_spec"))
        self.span(harness, "regression_transform", "regression.chain_s")
        self.span(harness, "regression_chain", "regression.chain_s")
        self.span(harness, "barrier_coefficients", "brownian_max.coeffs_s", _keep("coefficients"))
        self.count(brownian_max, "indicator_moment", "brownian_max.indicator_calls")
        self.count(brownian_max, "adaptive_simpson", "brownian_max.simpson_calls")
        self.count(brownian_max, "prob_max_exceeds", "brownian_max.hitprob_calls")
        self.span(harness, "lt_transform", "lt.transform_s", _count_degenerate)

    def uninstall(self) -> None:
        """Put every wrapped entry point back; recorded data stays."""
        for owner, attr, own, original in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # -- derived -----------------------------------------------------------

    def self_times(self) -> list[tuple[str, float, object]]:
        """(name, self seconds, op id) for every span."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [
            (name, end - start - child[i], op)
            for i, (name, start, end, parent, op) in enumerate(self.spans)
        ]


def _keep(key):
    def hook(tracer, args, out):
        tracer.returns[key] = out

    return hook


def _count_normals(tracer, args, out):
    tracer.counts["rng.normals"] += getattr(out, "size", 1)


def _count_reflections(tracer, args, out):
    tracer.counts["transforms.reflections"] += len(args[0])


def _count_degenerate(tracer, args, out):
    tracer.counts["lt.degenerate_columns"] += len(out.degenerate_columns)
