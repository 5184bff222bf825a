"""Interval exchange transformation on the dyadic grid, exact to the bit.

For level n the right half [1/2, 1) splits into 2**n equal subintervals
I_1..I_{2^n} with endpoints a_k = 1/2 + k/2**(n+1).  The map T fixes
[0, 1/2), sends I_1 to the last interval I_{2^n} by translation, and shifts
every other I_k down to I_{k-1}.  All intervals are taken right-open, so on
numerators everything is plain integer arithmetic and T**(2**n) is the
identity bit for bit.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .dyadic import SCALE_BITS, DyadicFraction, beta_for_level
from .errors import DomainError

_HALF_NUM = 1 << (SCALE_BITS - 1)


@dataclass(frozen=True)
class IetSpec:
    """Level-n exchange data: threshold beta, endpoints, translation step."""

    level: int

    def __post_init__(self):
        if not 1 <= self.level <= 62:
            raise DomainError(f"level {self.level} outside [1, 62]")

    @property
    def beta(self) -> DyadicFraction:
        return beta_for_level(self.level)

    @property
    def intervals(self) -> int:
        return 1 << self.level

    @property
    def step_numerator(self) -> int:
        # step = 2**-(n+1)
        return 1 << (SCALE_BITS - 1 - self.level)

    @property
    def step(self) -> DyadicFraction:
        return DyadicFraction(self.step_numerator)

    def endpoint(self, k: int) -> DyadicFraction:
        """a_k = 1/2 + k/2**(n+1) for k = 0..2**n."""
        if not 0 <= k <= self.intervals:
            raise DomainError(f"endpoint index {k} outside [0, {self.intervals}]")
        return DyadicFraction(_HALF_NUM + k * self.step_numerator)


def interval_index(spec: IetSpec, x: DyadicFraction) -> int:
    """0 for the fixed region x < 1/2, else k with x in [a_{k-1}, a_k)."""
    if x.numerator < _HALF_NUM:
        return 0
    return (x.numerator - _HALF_NUM) // spec.step_numerator + 1


def apply_T(spec: IetSpec, x: DyadicFraction) -> DyadicFraction:
    """One application of the exchange map."""
    k = interval_index(spec, x)
    if k == 0:
        return x
    if k == 1:
        return DyadicFraction(
            x.numerator + (spec.intervals - 1) * spec.step_numerator)
    return DyadicFraction(x.numerator - spec.step_numerator)


def apply_T_power(spec: IetSpec, x: DyadicFraction, k: int) -> DyadicFraction:
    """k-fold composition, via closed-form rotation of the interval index."""
    if k < 0:
        raise DomainError("power must be non-negative")
    if x.numerator < _HALF_NUM:
        return x
    step = spec.step_numerator
    j = (x.numerator - _HALF_NUM) // step  # 0-based interval index
    offset = x.numerator - (_HALF_NUM + j * step)
    j_new = (j - k) % spec.intervals
    return DyadicFraction(_HALF_NUM + j_new * step + offset)


def apply_T_power_numerators(spec: IetSpec, nums: np.ndarray,
                             k) -> np.ndarray:
    """Vectorized apply_T_power on an array of uint64 numerators.

    ``k`` is a non-negative integer or an integer array that broadcasts
    against ``nums``: a (g, 1) column of powers maps a row of numerators
    to a (g, len(nums)) array, row i being T**k[i] of every numerator.  A
    negative power raises ``DomainError``.

    On [1/2, 1), x - 1/2 = j * step + offset with j < 2**n and
    2**n * step = 2**63, so rotating the interval index j by -k modulo 2**n
    is subtracting k * step modulo 2**63; the offset bits never move.  Bit
    63 of x (``upper``) is 1 exactly on [1/2, 1): the shift is taken
    ``upper`` times, the low 63 bits of the difference kept, and bit 63 put
    back, so [0, 1/2) is left as it is, without a select.
    """
    if np.ndim(k) == 0:
        k = operator.index(k)
        if k < 0:
            raise DomainError("power must be non-negative")
        shift = np.uint64((k % spec.intervals) * spec.step_numerator)
    else:
        k = np.asarray(k)
        if not np.issubdtype(k.dtype, np.integer):
            raise DomainError(f"powers of dtype {k.dtype} are not integers")
        if (k < 0).any():
            raise DomainError("power must be non-negative")
        shift = k.astype(np.uint64) % np.uint64(spec.intervals)
        shift *= np.uint64(spec.step_numerator)
    nums = np.asarray(nums, dtype=np.uint64)
    upper = nums >> np.uint64(SCALE_BITS - 1)
    out = np.asarray(upper * shift)  # a 0-d array for one numerator
    np.subtract(nums, out, out=out)  # in place: a new array costs more
    out &= np.uint64(_HALF_NUM - 1)
    out |= upper << np.uint64(SCALE_BITS - 1)
    return out
