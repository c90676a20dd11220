"""Sufficient-statistics algebra and the retained-statistics ledger.

The ridge head on features F and labels Y depends on the data only through
the Gram matrix S = FᵀF and the moment G = FᵀY.  Both are additive over
disjoint sample sets, so adds and deletes reduce to entrywise sums and
differences of fixed-size matrices; the ledger accumulates them round by
round and the head is recovered by one SPD solve.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .kernels import (
    DimensionMismatch,
    add_to_diagonal,
    as_matrix,
    cholesky_spd,
    read_only_zeros,
    solve_spd,
)

PRECISION_DTYPES = {"f32": np.float32, "f64": np.float64}


class NegativeCount(Exception):
    """A subtraction would drive the retained sample count negative."""


def is_int_type(kind: type) -> bool:
    """A Python or numpy integer type; bool is not one."""
    return issubclass(kind, numbers.Integral) and not issubclass(kind, bool)


def is_int(value) -> bool:
    """A Python or numpy integer; a bool is not one."""
    return is_int_type(type(value))


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
        """The statistics of no samples: shared read-only zeros (`read_only_zeros`), which allocate no d x d S or d x c G."""
        return SufficientStats(read_only_zeros((d, d), dtype), read_only_zeros((d, c), dtype), 0)


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

    @property
    def dtype(self) -> np.dtype:
        """The dtype its statistics hold, so a ledger cannot name a precision its arrays do not."""
        return self.stats.S.dtype

    @cached_property
    def factor(self) -> np.ndarray:
        """Lower Cholesky factor of S + gamma*I, read-only as `head` is.

        NotSPD here means the ledger is corrupted: with gamma > 0 and S PSD
        the system is always SPD.
        """
        p = cholesky_spd(regularized_gram(self))
        p.flags.writeable = False
        return p

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
    return Ledger(SufficientStats.zero(d, c, dtype_of(precision)), 0, float(gamma))


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


def ledger_apply(ledger: Ledger, round_add: SufficientStats, round_del: SufficientStats) -> Ledger:
    """Advance the ledger one round: (S + S₊) − S₋ and likewise for G and n, t + 1.

    Both sides are shape-checked, empty ones included, and a delete of more
    samples than the ledger and the adds hold raises NegativeCount.  A side
    of no samples is skipped.  The first side that has samples makes the new
    S and G and the second is applied to them in place, so a round allocates
    at most one S and one G, and a round of no samples shares the old
    arrays, which is safe because ledgers are immutable.  Sums and
    differences of symmetric Grams stay bitwise symmetric.
    """
    old = ledger.stats
    for side in (round_add, round_del):
        if side.S.shape != old.S.shape or side.G.shape != old.G.shape:
            raise DimensionMismatch(
                f"stats shapes differ: {old.S.shape}/{old.G.shape} vs {side.S.shape}/{side.G.shape}"
            )
    if round_del.n > old.n + round_add.n:
        raise NegativeCount(f"cannot remove {round_del.n} samples from {old.n + round_add.n}")
    s, g = old.S, old.G
    for side, op in ((round_add, np.add), (round_del, np.subtract)):
        if side.n:
            s = op(s, side.S, out=None if s is old.S else s)
            g = op(g, side.G, out=None if g is old.G else g)
    merged = SufficientStats(s, g, old.n + round_add.n - round_del.n)
    return Ledger(merged, ledger.t + 1, ledger.gamma)


def regularized_gram(ledger: Ledger) -> np.ndarray:
    """S + gamma*I in the ledger's precision: a copy of S with gamma added on its diagonal."""
    return add_to_diagonal(ledger.stats.S.copy(), float(ledger.gamma))
