"""Sufficient-statistics algebra and the retained-statistics ledger.

The ridge head on features F and labels Y depends on the data only through
the Gram matrix S = FᵀF and the moment G = FᵀY.  Both are additive over
disjoint sample sets, so adds and deletes reduce to entrywise sums and
differences of fixed-size matrices; the ledger accumulates them round by
round and the head is recovered by one SPD solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .kernels import (
    DimensionMismatch,
    as_matrix,
    cholesky_spd,
    solve_spd,
)

PRECISION_DTYPES = {"f32": np.float32, "f64": np.float64}


class NegativeCount(Exception):
    """A subtraction would drive the retained sample count negative."""


def dtype_of(precision: str) -> np.dtype:
    try:
        return np.dtype(PRECISION_DTYPES[precision])
    except KeyError:
        raise ValueError(f"unknown precision {precision!r}, expected 'f32' or 'f64'") from None


@dataclass(frozen=True)
class SufficientStats:
    """The pair (S, G) plus the number of samples that produced it."""

    S: np.ndarray
    G: np.ndarray
    n: int

    @property
    def d(self) -> int:
        return self.S.shape[0]

    @property
    def c(self) -> int:
        return self.G.shape[1]

    @staticmethod
    def zero(d: int, c: int, dtype=np.float64) -> "SufficientStats":
        return SufficientStats(np.zeros((d, d), dtype=dtype), np.zeros((d, c), dtype=dtype), 0)


@dataclass(frozen=True)
class Ledger:
    """Global retained statistics, the round counter and the ridge setting.

    A ledger is immutable, so the Cholesky factor of S + gamma*I and the
    head solved through it are computed at most once per ledger, however
    many callers (the served head, the posterior) ask for them.
    """

    stats: SufficientStats
    t: int
    gamma: float
    precision: str

    @property
    def dtype(self) -> np.dtype:
        return dtype_of(self.precision)

    @cached_property
    def factor(self) -> np.ndarray:
        """Lower Cholesky factor of S + gamma*I.

        NotSPD here means the ledger is corrupted: with gamma > 0 and S PSD
        the system is always SPD.
        """
        return cholesky_spd(regularized_gram(self))

    @cached_property
    def head(self) -> np.ndarray:
        """Ridge head W solving (S + gamma*I) W = G through `factor`.

        Read-only, because every caller receives this same array.
        """
        w = solve_spd(self.factor, self.stats.G)
        w.flags.writeable = False
        return w


def check_gamma(gamma: float, precision: str) -> None:
    """Refuse a gamma that is not positive and finite once cast to `precision`.

    A gamma that rounds to 0 or overflows there would make S + gamma*I
    singular or non-finite at the first factorization.
    """
    try:
        with np.errstate(over="ignore"):  # an overflow to inf is the refusal, not a warning
            cast = dtype_of(precision).type(gamma)
    except OverflowError:  # an int beyond every float
        cast = math.inf
    if not 0 < cast < math.inf:
        raise ValueError(f"gamma must be positive and finite in {precision}, got {gamma!r}")


def ledger_init(d: int, c: int, gamma: float = 1.0, precision: str = "f64") -> Ledger:
    check_gamma(gamma, precision)
    return Ledger(SufficientStats.zero(d, c, dtype_of(precision)), 0, float(gamma), precision)


def batch_arrays(f, y, dtype=np.float64) -> tuple[np.ndarray, np.ndarray]:
    """Validate one batch (2-D, finite, matching rows) and cast it to `dtype`."""
    f = as_matrix(f, "F")
    y = as_matrix(y, "Y")
    if f.shape[0] != y.shape[0]:
        raise DimensionMismatch(f"F has {f.shape[0]} rows but Y has {y.shape[0]}")
    return f.astype(dtype, copy=False), y.astype(dtype, copy=False)


def stats_from_batch(f, y, dtype=np.float64) -> SufficientStats:
    """Form (FᵀF, FᵀY, n) for one batch, accumulating in `dtype`."""
    f, y = batch_arrays(f, y, dtype)
    return SufficientStats(f.T @ f, f.T @ y, f.shape[0])


def _check_compatible(a: SufficientStats, b: SufficientStats) -> None:
    if a.S.shape != b.S.shape or a.G.shape != b.G.shape:
        raise DimensionMismatch(
            f"stats shapes differ: {a.S.shape}/{a.G.shape} vs {b.S.shape}/{b.G.shape}"
        )


def stats_add(a: SufficientStats, b: SufficientStats) -> SufficientStats:
    _check_compatible(a, b)
    return SufficientStats(a.S + b.S, a.G + b.G, a.n + b.n)


def stats_sub(a: SufficientStats, b: SufficientStats) -> SufficientStats:
    _check_compatible(a, b)
    if b.n > a.n:
        raise NegativeCount(f"cannot remove {b.n} samples from {a.n}")
    return SufficientStats(a.S - b.S, a.G - b.G, a.n - b.n)


def ledger_apply(ledger: Ledger, round_add: SufficientStats, round_del: SufficientStats) -> Ledger:
    """Advance the ledger one round: stats + adds - deletes, t + 1.

    Sums and differences of symmetric Grams stay bitwise symmetric.
    """
    merged = stats_sub(stats_add(ledger.stats, round_add), round_del)
    return replace(ledger, stats=merged, t=ledger.t + 1)


def regularized_gram(ledger: Ledger) -> np.ndarray:
    """S + gamma*I in the ledger's precision."""
    s = ledger.stats.S
    return s + float(ledger.gamma) * np.eye(s.shape[0], dtype=s.dtype)
