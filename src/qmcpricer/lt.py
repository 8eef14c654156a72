"""Baseline LT transform: column-by-column linearized-derivative maximization.

Each column of the orthogonal transform maximizes the squared derivative of
the linearized payoff with respect to one input coordinate, subject to unit
norm and orthogonality to the previous columns.  We expand at the zero
point and differentiate the smooth pre-max part of the payoff, so the
gradient is the same for every column: the first column is the normalized
gradient and every later maximization degenerates.  Degenerate columns
fall back to the next canonical direction orthonormalized against the
columns found so far, and are flagged in the result.

The columns are the first k reflections of the regression chain's
sequencer over (gradient, e_1, e_2, ...), applied in O(n k).  A path
takes the k row dots V x as one gemm per 256 coordinates
(``transforms.TransformChain._dots``), not k passes over its normals, and
one rank-k update; ``LtResult.columns`` and the sequencer's remainders go
through the same dots.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .regression import LogExpPayoffSpec
from .transforms import TransformChain, _norm, _reflections


@dataclass
class LtResult:
    chain: TransformChain
    degenerate_columns: list[int]  # 1-based indices

    @property
    def columns(self) -> np.ndarray:
        """(n, k) optimized columns, the first k columns of the chain's product."""
        return self.chain.apply(np.eye(len(self.chain), self.chain.n)).T


def payoff_gradient_at_zero(spec: LogExpPayoffSpec) -> np.ndarray:
    """Gradient of the smooth part at X = 0: c^T (w e^d)."""
    return spec._ct(spec.w * np.exp(spec.d))


def lt_transform(spec: LogExpPayoffSpec, k: int = 25) -> LtResult:
    """Optimized-column transform for a log-exp payoff, with k columns.

    Column i is the unit-norm maximizer of the squared linearized
    derivative, i.e. the normalized projection of the payoff gradient onto
    the orthogonal complement of columns 1..i-1.  At the zero expansion
    point the gradient never changes, so columns after the first project
    to zero and are replaced by canonical directions (flagged); a zero
    gradient leaves every column canonical.
    """
    n = spec.dim
    if k < 0 or k > n:
        raise ValueError("k out of range")
    grad = payoff_gradient_at_zero(spec)
    vectors = itertools.chain([grad], (np.eye(1, n, j)[0] for j in range(n)))
    chain = _reflections(vectors, n, k)
    g = _norm(grad)
    first = 1 if g <= 1e-12 * g else 2  # the sequencer skips a zero gradient
    return LtResult(chain, list(range(first, k + 1)))
