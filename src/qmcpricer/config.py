"""Run requests: ``ExperimentConfig`` and the facts it checks them against.

A run request names a payoff, its methods, the path dimension n, the
path counts and the market.  ``ExperimentConfig`` is its one definition:
the CLI makes its market flags from the fields, and building one refuses
a bad request, a bad flag first (ValueError, the CLI's exit 2), then a
method the payoff cannot price (UnsupportedCombinationError, exit 3).

This module imports no numpy, so a refused call, a bad flag and --help
pay for the interpreter and a few pure-Python modules.  It holds every
payoff and method name, what each payoff needs and allows (a barrier, a
basket market, the LT method, its path dimension), and the Sobol request
limits.  ``harness`` keys its tables of callables by these names, and
``rng`` takes its limits from here.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields

# Sobol states are 32-bit, so a run takes at most 2^32 points.
BITS = 32
MAX_INDEX = 1 << BITS
# The vendored direction table's dimensions, known without deriving it; a
# test checks it.
SOBOL_DIMENSIONS = 2600


class PayoffFacts:
    """What a payoff needs and allows.  A plain class: as a frozen
    dataclass it added about 1 ms to every process's start-up."""

    def __init__(self, *, barrier: bool = False, basket: bool = False, lt: bool = True):
        self.barrier = barrier  # needs a positive barrier level and sigma
        self.basket = basket  # assets with vols sigma_min..sigma_max; else one asset of vol sigma
        self.lt = lt  # has the smooth log-exp form the LT method needs

    def dim(self, cfg: ExperimentConfig) -> int:
        """The market's path dimension m n, without building it."""
        return cfg.assets * cfg.n if self.basket else cfg.n


PAYOFF_FACTS = {
    "asian": PayoffFacts(),
    "basket": PayoffFacts(basket=True),
    "digital-barrier": PayoffFacts(barrier=True, lt=False),
    "asian-barrier": PayoffFacts(barrier=True, lt=False),
}

PAYOFFS = tuple(PAYOFF_FACTS)
METHODS = ("forward", "bb", "pca", "regression", "lt")


def usable_cores() -> int:
    """Cores this process may run on: the default number of worker threads."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def supported_methods(payoff: str, methods) -> list[str]:
    """The given methods that can price the payoff (LT needs a log-exp spec)."""
    lt_ok = PAYOFF_FACTS[payoff].lt
    return [m for m in methods if m != "lt" or lt_ok]


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
    workers: int = field(
        default_factory=usable_cores,
        metadata={"help": "threads over each batch's row chunks; estimates do not depend on it"},
    )

    def __post_init__(self):
        """Refuse bad flags (ValueError), then a method the payoff cannot
        price (UnsupportedCombinationError), before any set-up is paid for."""
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
        if not self.paths:
            raise ValueError("need at least one path count")
        for N in self.paths:
            if N < 1 or N & (N - 1):
                raise ValueError("path counts must be powers of two")
            if N > MAX_INDEX:
                raise ValueError(
                    f"path counts must not exceed the Sobol index limit 2^{BITS}, got {N}"
                )
        if len(set(self.paths)) < len(self.paths):
            raise ValueError(f"path counts must be distinct, got {self.paths}")
        if len(set(self.methods)) < len(self.methods):
            raise ValueError(f"methods must be distinct, got {self.methods}")
        if self.lt_columns < 0:
            raise ValueError(f"lt_columns must be nonnegative, got {self.lt_columns}")
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        facts = PAYOFF_FACTS[self.payoff]
        positive = ()
        if facts.barrier:
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
        if facts.basket and self.assets < 1:
            raise ValueError("basket needs at least 1 asset")
        if facts.basket and not -1.0 <= self.rho <= 1.0:  # a correlation
            raise ValueError(f"rho must lie in [-1, 1], got {self.rho!r}")
        # the basket takes its vols from sigma_min and sigma_max, not sigma
        if not facts.basket and self.sigma < 0.0:
            raise ValueError(f"sigma must be nonnegative, got {self.sigma!r}")
        dim = facts.dim(self)  # a market's correlation is O(assets^2)
        if dim > SOBOL_DIMENSIONS:
            raise ValueError(
                f"path dimension {dim} exceeds the Sobol table's {SOBOL_DIMENSIONS} dimensions"
            )
        for m in self.methods:
            if not supported_methods(self.payoff, [m]):
                msg = f"method {m!r} unsupported for payoff {self.payoff!r}"
                raise UnsupportedCombinationError(msg)
