"""Eventually periodic two-sided sequences and their tail rates.

Everything the classifier decides reduces to the asymptotics of products
``v_k * v_{k+1} * ...`` over long windows of a positive two-sided sequence
that is exactly periodic far enough to the left and right of a finite core
table.  Those limits are the geometric means of the two periodic tails.
This module holds that presentation, the two tail means and their
trichotomy against 1.

Values are kept as exact fractions with a sequence-level real exponent, so
the comparisons that decide a classification (tail geometric mean against 1)
can be made exactly for rational input and with an explicit tolerance
otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, cycle, islice
from typing import Iterator, Sequence, Union

ScalarLike = Union[int, float, str, Fraction]

# Resolution of rate-vs-1 decisions when any input value was a float.
REL_LOG_TOL = 1e-9


class SequenceError(ValueError):
    """A sequence presentation violates its constraints."""


def _coerce(value: ScalarLike) -> tuple[Fraction, bool]:
    # bool is an int subclass; reject it before the int branch.
    if isinstance(value, bool):
        raise SequenceError("sequence values must be numbers, not bool")
    if isinstance(value, Fraction):
        frac, exact = value, True
    elif isinstance(value, int):
        frac, exact = Fraction(value), True
    elif isinstance(value, str):
        try:
            frac = Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as err:
            raise SequenceError(f"cannot parse sequence value {value!r}") from err
        exact = True
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise SequenceError(f"sequence values must be finite, got {value!r}")
        frac, exact = Fraction(value), False
    else:
        raise SequenceError(f"unsupported sequence value type {type(value).__name__}")
    if frac <= 0:
        raise SequenceError(f"sequence values must be positive, got {value!r}")
    return frac, exact


def _coerce_all(values: Sequence[ScalarLike]) -> tuple[tuple[Fraction, ...], bool]:
    """The values as fractions, and whether every one was given in exact form."""
    pairs = [_coerce(value) for value in values]
    return tuple(frac for frac, _ in pairs), all(exact for _, exact in pairs)


def _log_fraction(frac: Fraction) -> float:
    # Safe for fractions whose numerator or denominator exceeds float range.
    return math.log(frac.numerator) - math.log(frac.denominator)


@dataclass(frozen=True)
class EventuallyPeriodicSequence:
    """Two-sided positive sequence, periodic outside a finite core.

    The core table covers indices ``core_lo .. core_lo + len(core) - 1``.
    To the right the values repeat ``pos_period`` forever; to the left they
    repeat ``neg_period``, read right to left, so ``neg_period[-1]`` is the
    value immediately before the core, ``neg_period[-2]`` the one before
    that, and so on wrapping around.

    The value at index k is ``base_at(k) ** exp``.  ``exact`` records
    whether every base was given in exact form; it controls how tail
    geometric means are compared against 1.
    """

    core_lo: int
    core: tuple[Fraction, ...]
    neg_period: tuple[Fraction, ...]
    pos_period: tuple[Fraction, ...]
    exp: float = 1.0
    exact: bool = True

    def __post_init__(self) -> None:
        if not self.core:
            raise SequenceError("core table must be nonempty")
        if not self.neg_period or not self.pos_period:
            raise SequenceError("both periodic tails must be nonempty")
        for part in (self.core, self.neg_period, self.pos_period):
            for frac in part:
                if not isinstance(frac, Fraction) or frac <= 0:
                    raise SequenceError("sequence bases must be positive fractions")
        if not math.isfinite(self.exp):
            raise SequenceError("sequence exponent must be finite")
        object.__setattr__(self, "_core_logs", tuple(_log_fraction(f) for f in self.core))
        object.__setattr__(self, "_neg_logs", tuple(_log_fraction(f) for f in self.neg_period))
        object.__setattr__(self, "_pos_logs", tuple(_log_fraction(f) for f in self.pos_period))
        # (neg, core, pos) tables of exp * raw log: the floats log_at returns.
        # A plain attribute, because a cached_property read costs about as
        # much as the rest of log_at.
        object.__setattr__(self, "_scaled_logs", tuple(
            tuple(self.exp * raw for raw in logs)
            for logs in (self._neg_logs, self._core_logs, self._pos_logs)
        ))
        # The last core index, set once for the hot paths that read it, and the
        # memo of tail_sign_vs_one by side; not fields, so ==, hash and repr ignore them.
        object.__setattr__(self, "core_hi", self.core_lo + len(self.core) - 1)
        object.__setattr__(self, "_tail_signs", {})

    @classmethod
    def from_values(
        cls,
        core_lo: int,
        core: Sequence[ScalarLike],
        neg_period: Sequence[ScalarLike],
        pos_period: Sequence[ScalarLike],
    ) -> "EventuallyPeriodicSequence":
        (core, core_exact), (neg, neg_exact), (pos, pos_exact) = (
            _coerce_all(raw) for raw in (core, neg_period, pos_period)
        )
        return cls(core_lo, core, neg, pos, 1.0, core_exact and neg_exact and pos_exact)

    @classmethod
    def constant(cls, value: ScalarLike) -> "EventuallyPeriodicSequence":
        return cls.from_values(0, [value], [value], [value])

    def base_at(self, k: int) -> Fraction:
        if k < self.core_lo:
            return self.neg_period[self._tail_index(k)]
        if k > self.core_hi:
            return self.pos_period[self._tail_index(k)]
        return self.core[k - self.core_lo]

    def log_at(self, k: int) -> float:
        neg, core, pos = self._scaled_logs
        if k < self.core_lo:
            return neg[self._tail_index(k)]
        if k > self.core_hi:
            return pos[self._tail_index(k)]
        return core[k - self.core_lo]

    def logs_from(self, k: int, step: int) -> Iterator[float]:
        """log_at(k), log_at(k + step), log_at(k + 2 step), ... for step +1 or -1.

        One endless iterator built from the tables: a finite run through
        the tail that holds k (if k lies outside the core), the rest of the
        core in the direction of travel, then the far tail cycled forever.
        Each value is the float log_at returns for its index.
        """
        neg, core, pos = self._scaled_logs
        lo, hi = self.core_lo, self.core_hi
        if step > 0:
            near, far = neg, pos
            near_count = lo - k
            core_part = core[max(k - lo, 0):]
            far_start = max(k, hi + 1)
        else:
            near, far = pos, neg
            near_count = k - hi
            core_part = core[min(k, hi) - lo::-1] if k >= lo else ()
            far_start = min(k, lo - 1)
        near_run = (islice(cycle(_rotated(near, self._tail_index(k), step)), near_count)
                    if near_count > 0 else ())
        return chain(near_run, core_part, cycle(_rotated(far, self._tail_index(far_start), step)))

    def _tail_index(self, k: int) -> int:
        # Position of index k (outside the core) in its tail's table.
        if k < self.core_lo:
            return len(self.neg_period) - 1 - (self.core_lo - 1 - k) % len(self.neg_period)
        return (k - self.core_hi - 1) % len(self.pos_period)

    def elementwise_pow(self, power: float) -> "EventuallyPeriodicSequence":
        if power == 0 or not math.isfinite(power):
            raise SequenceError("power must be finite and nonzero")
        return EventuallyPeriodicSequence(
            self.core_lo, self.core, self.neg_period, self.pos_period,
            self.exp * power, self.exact,
        )

    def shifted(self, offset: int) -> "EventuallyPeriodicSequence":
        """Sequence u with u_k = v_{k - offset}."""
        return EventuallyPeriodicSequence(
            self.core_lo + offset, self.core, self.neg_period, self.pos_period,
            self.exp, self.exact,
        )

    def sup_value(self) -> float:
        return math.exp(max(self.exp * raw for raw in
                            self._core_logs + self._neg_logs + self._pos_logs))


def _rotated(table: tuple[float, ...], start: int, step: int) -> tuple[float, ...]:
    """One period of table read from entry start on, forward (step +1) or backward."""
    if step > 0:
        return table[start:] + table[:start]
    return table[start::-1] + table[:start:-1]


@dataclass(frozen=True)
class SideRate:
    """Geometric means of the two periodic tails."""

    gm_neg: float
    gm_pos: float


def _tail_log_mean(seq: EventuallyPeriodicSequence, logs: tuple[float, ...]) -> float:
    return seq.exp * sum(logs) / len(logs)


def side_geometric_means(seq: EventuallyPeriodicSequence) -> SideRate:
    return SideRate(
        gm_neg=math.exp(_tail_log_mean(seq, seq._neg_logs)),
        gm_pos=math.exp(_tail_log_mean(seq, seq._pos_logs)),
    )


def tail_sign_vs_one(seq: EventuallyPeriodicSequence, side: str) -> int:
    """Trichotomy of a tail geometric mean against 1: -1, 0 or +1.

    Exact presentations compare the rational period product against 1
    exactly; float-tainted presentations fall back to a log tolerance of
    REL_LOG_TOL per period entry.  The result is computed once per
    sequence and side, then read from the sequence's memo.
    """
    sign = seq._tail_signs.get(side)
    if sign is None:
        sign = _tail_sign(seq, side)
        seq._tail_signs[side] = sign
    return sign


def _tail_sign(seq: EventuallyPeriodicSequence, side: str) -> int:
    if side == "neg":
        period = seq.neg_period
    elif side == "pos":
        period = seq.pos_period
    else:
        raise SequenceError(f"side must be 'neg' or 'pos', got {side!r}")
    if seq.exact:
        product = Fraction(1)
        for frac in period:
            product *= frac
        if product == 1:
            return 0
        raw_sign = 1 if product > 1 else -1
    else:
        log_sum = sum(_log_fraction(f) for f in period)
        if abs(log_sum) <= len(period) * REL_LOG_TOL:
            return 0
        raw_sign = 1 if log_sum > 0 else -1
    if seq.exp == 0:
        return 0
    return raw_sign if seq.exp > 0 else -raw_sign

