"""Sequence evaluation, tail means and tail signs against oracles."""

import math
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

from shiftlab import seqcore
from shiftlab.seqcore import (
    REL_LOG_TOL,
    EventuallyPeriodicSequence,
    SequenceError,
    side_geometric_means,
    tail_sign_vs_one,
)
from shiftlab.systems import weight_line

from _oracles import Direction, Quantifier, eval_periodic, window_rate

EPS = EventuallyPeriodicSequence


def seq(core_lo, core, neg, pos):
    return EPS.from_values(core_lo, core, neg, pos)


# A valley-shaped ratio: contracting left tail, expanding right tail.
VALLEY = seq(0, ["2"], ["1/2"], ["2"])


# -- evaluation --------------------------------------------------------------

def test_eval_core_and_tails_frozen():
    s = seq(0, [3], [2, 4], [5])
    assert s.base_at(0) == 3
    # negative period reads right to left from the core edge
    assert s.base_at(-1) == 4
    assert s.base_at(-2) == 2
    assert s.base_at(-3) == 4
    assert s.base_at(-4) == 2
    assert s.base_at(1) == 5
    assert s.base_at(7) == 5


@given(
    core_lo=st.integers(-3, 3),
    core=st.lists(st.integers(1, 9), min_size=1, max_size=3),
    neg=st.lists(st.integers(1, 9), min_size=1, max_size=4),
    pos=st.lists(st.integers(1, 9), min_size=1, max_size=4),
    k=st.integers(-40, 40),
)
def test_eval_matches_materialized_oracle(core_lo, core, neg, pos, k):
    s = seq(core_lo, core, neg, pos)
    assert s.base_at(k) == eval_periodic(core_lo, core, neg, pos, k)


@given(k=st.integers(-60, -10), j=st.integers(1, 5))
def test_tail_periodicity(k, j):
    s = seq(0, [3], [2, 4], [5])
    assert s.base_at(k) == s.base_at(k - 2 * j)


def test_constant_sequence():
    s = EPS.constant(2)
    assert s.base_at(-17) == s.base_at(0) == s.base_at(23) == 2
    assert s.sup_value() == pytest.approx(2.0)


def test_shifted_reindexes():
    s = seq(0, [3], [2], [5])
    moved = s.shifted(4)
    for k in range(-8, 9):
        assert moved.base_at(k) == s.base_at(k - 4)


# Tails of periods 1-4 around a core of 3 entries at -1..1; every entry differs.
STREAM_TAILS = [
    (["3/2", "5/9", "7/4", "2/11"][:period], ["4/3", "9/5", "1/6", "13/7"][:period])
    for period in range(1, 5)
]


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("neg, pos", STREAM_TAILS)
def test_logs_from_is_log_at_index_by_index(neg, pos, p):
    line = weight_line(seq(-1, ["2", "1/3", "5/2"], neg, pos), p)
    assert line.exp != 1.0
    # Starts left of the core, on both core edges, inside it, and right of it.
    for start in (-9, -3, line.core_lo - 1, line.core_lo, line.core_lo + 1,
                  line.core_hi, line.core_hi + 1, 4, 11):
        for step in (1, -1):
            streamed = list(islice(line.logs_from(start, step), 60))
            assert streamed == [line.log_at(start + step * i) for i in range(60)], (start, step)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("j", range(4))
def test_logs_from_starts_past_sys_maxsize(sign, j):
    # The run through the near tail is longer than islice's largest stop.
    line = seq(0, ["2"], ["3/2", "5/9", "7/4"], ["4/3", "9/5"])
    start = sign * (2**63 + j)
    for step in (1, -1):
        streamed = list(islice(line.logs_from(start, step), 12))
        assert streamed == [line.log_at(start + step * i) for i in range(12)], step


# -- tail means and the trichotomy -------------------------------------------

def test_side_geometric_means_frozen():
    s = seq(0, [1], [1, 4], [2, 8])
    rates = side_geometric_means(s)
    assert rates.gm_neg == pytest.approx(2.0, rel=1e-12)
    assert rates.gm_pos == pytest.approx(4.0, rel=1e-12)


def test_tail_sign_exact_boundary():
    # product exactly 1: must be reported as the boundary, not a side
    s = seq(0, [1], [2, "1/2"], ["1/4", 4])
    assert tail_sign_vs_one(s, "neg") == 0
    assert tail_sign_vs_one(s, "pos") == 0


def test_tail_sign_strict_sides():
    s = seq(0, [1], ["1/3"], [5, "1/2"])
    assert tail_sign_vs_one(s, "neg") == -1
    assert tail_sign_vs_one(s, "pos") == 1


def test_tail_sign_float_tolerance():
    near_one = seq(0, [1], [2.0, 0.5], [1.0])
    assert not near_one.exact
    assert tail_sign_vs_one(near_one, "neg") == 0
    off = seq(0, [1], [2.0, 0.501], [1.0])
    assert tail_sign_vs_one(off, "neg") == 1


def test_tail_sign_flips_under_negative_power():
    s = seq(0, [1], [3], ["1/5"])
    inverted = s.elementwise_pow(-1.0)
    assert tail_sign_vs_one(s, "neg") == -tail_sign_vs_one(inverted, "neg")
    assert tail_sign_vs_one(s, "pos") == -tail_sign_vs_one(inverted, "pos")


def tail_sign_uncached(s, side):
    """The tail trichotomy recomputed from the period, with no memo."""
    period = s.neg_period if side == "neg" else s.pos_period
    if s.exact:
        product = math.prod(period, start=Fraction(1))
        raw = (product > 1) - (product < 1)
    else:
        log_sum = sum(math.log(f.numerator) - math.log(f.denominator) for f in period)
        raw = 0 if abs(log_sum) <= len(period) * REL_LOG_TOL else (1 if log_sum > 0 else -1)
    return raw if s.exp > 0 else -raw


@given(
    neg=st.lists(st.sampled_from([1, 2, 3, "1/2", "1/3", 0.5, 2.0, 0.501]), min_size=1, max_size=4),
    pos=st.lists(st.sampled_from([1, 2, 3, "1/2", "1/3", 0.5, 2.0, 0.501]), min_size=1, max_size=4),
    power=st.sampled_from([1.0, -1.0, 0.5, -2.0]),
    sides=st.lists(st.sampled_from(["neg", "pos"]), min_size=1, max_size=6),
)
def test_tail_sign_memo_matches_fresh_computation(neg, pos, power, sides):
    s = seq(0, [1], neg, pos).elementwise_pow(power)
    for side in sides:
        assert tail_sign_vs_one(s, side) == tail_sign_uncached(s, side)


def test_filled_tail_sign_memo_leaves_eq_hash_and_repr_alone():
    used, twin = seq(0, [1], ["1/3"], [5, "1/2"]), seq(0, [1], ["1/3"], [5, "1/2"])
    before = (repr(used), hash(used))
    tail_sign_vs_one(used, "neg")
    tail_sign_vs_one(used, "pos")
    assert (repr(used), hash(used)) == before
    assert used == twin and hash(used) == hash(twin) and repr(used) == repr(twin)
    # core_hi is set once, beside the memo, and is no field either.
    wide = seq(-3, [1, 2, 3, 4], ["1/3"], [5])
    assert wide.core_hi == 0 and used.core_hi == 0
    assert "core_hi" not in repr(wide)
    assert "core_hi" not in wide._fields


DERIVED_VALUES = st.sampled_from([1, 2, 3, "1/2", "1/3", "7/5", 0.5, 2.0, 0.501, 1.0000000001])
# Steps of a derivation: an offset for shifted, a power for elementwise_pow,
# "w" for weight_line at p = 3.  1e-200 twice underflows the exponent to 0.
DERIVE_STEPS = st.one_of(st.integers(-5, 5), st.sampled_from([1.0, -1.0, 0.5, -2.0, -1 / 3, 3.0,
                                                               1e-200, "w"]))


def fresh(s):
    return EPS(s.core_lo, s.core, s.neg_period, s.pos_period, s.exp, s.exact)


def log_tables(s):
    return [[log.hex() for log in part] for part in
            (s._neg_logs, s._core_logs, s._pos_logs, *s._scaled_logs)]


@given(core_lo=st.integers(-3, 3),
       core=st.lists(DERIVED_VALUES, min_size=1, max_size=3),
       neg=st.lists(DERIVED_VALUES, min_size=1, max_size=3),
       pos=st.lists(DERIVED_VALUES, min_size=1, max_size=3),
       steps=st.lists(DERIVE_STEPS, min_size=1, max_size=4),
       memo=st.lists(st.sampled_from(["neg", "pos"]), max_size=2))
def test_derived_records_equal_fresh_ones(core_lo, core, neg, pos, steps, memo):
    """shifted, elementwise_pow and weight_line give the records construction gives.

    Field for field, with the same core_hi, the same raw and scaled logs
    to the bit, and the same tail signs, whether or not the parent's memo
    was filled first.
    """
    s = seq(core_lo, core, neg, pos)
    for step in steps:
        for side in memo:
            tail_sign_vs_one(s, side)
        if step == "w":
            s = weight_line(s, 3.0)
        elif isinstance(step, int):
            s = s.shifted(step)
        else:
            s = s.elementwise_pow(step)
        expected = fresh(s)
        assert s == expected and repr(s) == repr(expected)
        assert (s.exp.hex(), s.exact, s.core_hi) == (expected.exp.hex(), expected.exact,
                                                      expected.core_hi)
        assert log_tables(s) == log_tables(expected)
        inherited = dict(s._tail_signs)
        for side in ("neg", "pos"):
            assert tail_sign_vs_one(s, side) == seqcore._tail_sign(expected, side)
            assert inherited.get(side, tail_sign_vs_one(s, side)) == tail_sign_vs_one(s, side)


def test_derived_records_check_their_exponent():
    big = seq(0, [2], [3], ["1/2"]).elementwise_pow(1e200)
    with pytest.raises(SequenceError, match="exponent must be finite"):
        big.elementwise_pow(1e200)
    with pytest.raises(SequenceError, match="power must be finite and nonzero"):
        big.elementwise_pow(math.nan)


def test_tail_sign_rejects_unknown_side():
    with pytest.raises(SequenceError):
        tail_sign_vs_one(VALLEY, "up")


# -- window-product rates ----------------------------------------------------

def window_rate_limit(s, quantifier, direction):
    """Where the quantified window rate must go, read off the tail means.

    Matched one-sided pairs see a single tail; every other combination
    sweeps windows into both tails and takes the larger or smaller mean.
    """
    rates = side_geometric_means(s)
    if quantifier is Quantifier.SUP_NEG and direction is Direction.BACKWARD:
        return rates.gm_neg
    if quantifier is Quantifier.INF_NAT and direction is Direction.FORWARD:
        return rates.gm_pos
    pick = max if quantifier in (Quantifier.SUP_ALL, Quantifier.SUP_NEG) else min
    return pick(rates.gm_neg, rates.gm_pos)


SAMPLE_SEQUENCES = [
    VALLEY,
    seq(0, ["1/2"], ["2"], ["1/2"]),
    seq(-2, [3, "1/4", 2], [1, 4], [2, "1/8", 3]),
    seq(1, ["7/6"], ["6/7", "7/6", "6/7"], ["3/2", "2/3", "3/2", "2/3"]),
    EPS.constant("5/4"),
]


@pytest.mark.parametrize("s", SAMPLE_SEQUENCES)
@pytest.mark.parametrize("quantifier", list(Quantifier))
@pytest.mark.parametrize("direction", list(Direction))
def test_horizon_approaches_exact(s, quantifier, direction):
    """Long-window products of the sequence grow at the tail geometric means."""
    exact = window_rate_limit(s, quantifier, direction)
    estimate = window_rate(s.log_at, quantifier, direction, 200, 500)
    assert abs(estimate - exact) <= 0.05
    # and the envelope tightens as the horizon grows
    coarse = abs(window_rate(s.log_at, quantifier, direction, 48, 500) - exact)
    fine = abs(window_rate(s.log_at, quantifier, direction, 480, 1000) - exact)
    assert fine <= coarse + 1e-12


# -- construction errors ------------------------------------------------------

@pytest.mark.parametrize("bad", [True, 0, -2, "0/3", "abc", float("inf")])
def test_rejects_bad_values(bad):
    with pytest.raises(SequenceError):
        EPS.from_values(0, [bad], [1], [1])


def test_rejects_empty_parts():
    with pytest.raises(SequenceError):
        EPS.from_values(0, [], [1], [1])
    with pytest.raises(SequenceError):
        EPS.from_values(0, [1], [], [1])
    with pytest.raises(SequenceError):
        EPS.from_values(0, [1], [1], [])


def test_rejects_zero_power():
    with pytest.raises(SequenceError):
        VALLEY.elementwise_pow(0.0)


def test_exactness_tracking():
    assert seq(0, ["1/3"], [2], [Fraction(5, 7)]).exact
    assert not seq(0, [0.5], [2], [1]).exact


def test_log_at_consistent_with_base():
    s = seq(-1, [3, "1/2"], [2], [5])
    for k in range(-6, 7):
        assert s.log_at(k) == pytest.approx(math.log(float(s.base_at(k))), rel=1e-12)


def _fold(values):
    """A float sum taken left to right in an explicit loop."""
    total = 0.0
    for value in values:
        total += value
    return total


def test_tail_log_sums_are_left_to_right_folds(monkeypatch):
    # Logs where a compensated sum (math.fsum, or sum() from Python 3.12 on)
    # reads 6e-9 but the left-to-right fold reads 0: 1e8 absorbs each 3e-9.
    logs = (1e8, 3e-9, 3e-9, -1e8)
    assert _fold(logs) == 0.0 and math.fsum(logs) > len(logs) * REL_LOG_TOL
    line = seq(0, [1.5], [1.5], [2.5, 3.5, 4.5, 5.5])
    assert not line.exact
    assert seqcore._tail_log_mean(line, logs) == line.exp * _fold(logs) / len(logs)
    by_entry = dict(zip(line.pos_period, logs))
    monkeypatch.setattr(seqcore, "_log_fraction", by_entry.__getitem__)
    # The fold reads a period product of exactly 1; a compensated sum would read > 1.
    assert seqcore._tail_sign(line, "pos") == 0
