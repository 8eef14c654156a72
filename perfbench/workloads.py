"""Workloads of the pricing benchmark.

Each workload is one pricing problem at a reference size.  One operation
is one ``run_experiment`` call with a single method, the unit of work a
``qmcpricer price`` user waits for.  Market data is the CLI default.
"""

from __future__ import annotations

from dataclasses import dataclass

# Batches per operation: the smallest count the harness accepts, so a
# run of fixed length holds as many operations as possible.
BATCHES = 2

MARKET = dict(s0=100.0, strike=100.0, rate=0.04, sigma=0.2, maturity=1.0)
BASKET = dict(assets=10, rho=0.05, sigma_min=0.1, sigma_max=0.3)

ALL_METHODS = ("forward", "bb", "pca", "regression", "lt")


@dataclass(frozen=True)
class Workload:
    config: dict  # ExperimentConfig fields other than methods, batches and seed
    methods: tuple  # methods priced in-process
    refused: tuple  # methods the library refuses for this payoff (CLI exit 3)
    why: str

    @property
    def normal_matrix_bytes(self) -> int:
        """Computed size of one batch's float64 normal matrix."""
        dim = self.config["n"] * (self.config["assets"] if self.config["payoff"] == "basket" else 1)
        return self.config["paths"][0] * dim * 8


WORKLOADS = {
    "asian-250": Workload(
        config=dict(payoff="asian", n=250, paths=[2**14], **MARKET),
        methods=ALL_METHODS,
        refused=(),
        why="Asian call, n=250, N=2^14: the sampling pipeline "
        "(Sobol, shift, ndtri, construction, exp) with near-zero set-up",
    ),
    "digital-2000": Workload(
        config=dict(payoff="digital-barrier", n=2000, paths=[2**12], barrier=110.0, **MARKET),
        methods=("forward", "bb", "pca", "regression"),
        refused=("lt",),
        why="digital up-and-in, n=2000, N=2^12: barrier quadrature dominates "
        "regression set-up; 8x the dimension and 1/4 the paths of asian-250",
    ),
    # Runnable by hand, but not in BENCHMARK.json: its 80 MB batches make its
    # times swing by up to 25 % over minutes on a shared last-level cache.
    "basket-10x250": Workload(
        config=dict(payoff="basket", n=250, paths=[2**12], **MARKET, **BASKET),
        methods=ALL_METHODS,
        refused=(),
        why="basket Asian call, 10 assets x 250 steps (dim 2500), N=2^12: "
        "largest working set, Kronecker constructions, 25-column LT",
    ),
}
