"""The package's records keep the semantics of the frozen dataclasses they replaced.

Each repr and ``as_dict`` below was recorded from the dataclass versions
(``repr`` and ``dataclasses.asdict``): equality and hashing by field
tuple, ``Name(field=value, ...)`` reprs, no assignment, and recursive dicts.
"""

from fractions import Fraction as F

import pytest

from shiftlab.classify import Status, Verdict, classify_shift
from shiftlab.cli import ParsedConfig
from shiftlab.seqcore import EventuallyPeriodicSequence
from shiftlab.simulate import BoundCertificate, SampleOutcome
from shiftlab.systems import CellStructure, DissipativeSystem, MeasureSequence, WeightSequence


def ratio():
    return EventuallyPeriodicSequence.from_values(0, ["1/2"], ["1/2"], [2])


RATIO_REPR = ("EventuallyPeriodicSequence(core_lo=0, core=(Fraction(1, 2),), "
              "neg_period=(Fraction(1, 2),), pos_period=(Fraction(2, 1),), exp=1.0, exact=True)")
RATIO_DICT = {"core_lo": 0, "core": (F(1, 2),), "neg_period": (F(1, 2),),
              "pos_period": (F(2, 1),), "exp": 1.0, "exact": True}

# module -> (a fresh record, its repr, its as_dict)
RECORDS = {
    "seqcore": (
        lambda: EventuallyPeriodicSequence.from_values(-1, [1, "1/2"], ["1/3"], [2, 0.5]),
        "EventuallyPeriodicSequence(core_lo=-1, core=(Fraction(1, 1), Fraction(1, 2)), "
        "neg_period=(Fraction(1, 3),), pos_period=(Fraction(2, 1), Fraction(1, 2)), "
        "exp=1.0, exact=False)",
        {"core_lo": -1, "core": (F(1), F(1, 2)), "neg_period": (F(1, 3),),
         "pos_period": (F(2), F(1, 2)), "exp": 1.0, "exact": False},
    ),
    "systems": (
        lambda: DissipativeSystem(2.0, MeasureSequence(F(3), ratio()),
                                  CellStructure((F(1), F(2)), 0, ((F(3, 2), F(3, 4)),))),
        f"DissipativeSystem(p=2.0, measures=MeasureSequence(mu0=Fraction(3, 1), "
        f"ratio={RATIO_REPR}, exact=True), cells=CellStructure(beta=(Fraction(1, 1), "
        f"Fraction(2, 1)), wobble_lo=0, wobble=((Fraction(3, 2), Fraction(3, 4)),), "
        f"exact=True), distortion_constant=1.5)",
        {"p": 2.0, "measures": {"mu0": F(3), "ratio": RATIO_DICT, "exact": True},
         "cells": {"beta": (F(1), F(2)), "wobble_lo": 0, "wobble": ((F(3, 2), F(3, 4)),),
                   "exact": True},
         "distortion_constant": 1.5},
    ),
    "classify": (
        lambda: Verdict(Status.HOLDS, "ED1", "exact", 0.5),
        "Verdict(status=<Status.HOLDS: 'Holds'>, citation='ED1', method='exact', "
        "margin=0.5, witness=None)",
        {"status": Status.HOLDS, "citation": "ED1", "method": "exact", "margin": 0.5,
         "witness": None},
    ),
    "simulate": (
        lambda: SampleOutcome("e[0]", "basis", None, BoundCertificate("periodic", 2, 1.5), 3),
        "SampleOutcome(label='e[0]', kind='basis', crossed_at=None, "
        "certificate=BoundCertificate(kind='periodic', period=2, sup_norm=1.5), "
        "backward_crossed_at=3, backward_certificate=None)",
        {"label": "e[0]", "kind": "basis", "crossed_at": None,
         "certificate": {"kind": "periodic", "period": 2, "sup_norm": 1.5},
         "backward_crossed_at": 3, "backward_certificate": None},
    ),
    "cli": (
        lambda: ParsedConfig("shift", WeightSequence(ratio()), "w", None),
        f"ParsedConfig(kind='shift', system=WeightSequence(values={RATIO_REPR}), "
        f"label='w', p=None)",
        {"kind": "shift", "system": {"values": RATIO_DICT}, "label": "w", "p": None},
    ),
}


@pytest.mark.parametrize("module", sorted(RECORDS))
def test_records_keep_their_dataclass_semantics(module):
    make, text, plain = RECORDS[module]
    record, twin = make(), make()
    assert record is not twin and record == twin and not record != twin
    assert record != tuple(getattr(record, name) for name in record._fields)
    assert hash(record) == hash(twin) == hash(tuple(getattr(record, n) for n in record._fields))
    assert repr(record) == text
    name = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert record == twin and repr(record) == text
    assert record.as_dict() == plain


def test_report_repr_leaves_out_the_system_and_the_cached_fingerprint():
    report, twin = (classify_shift(WeightSequence(ratio()), label="w") for _ in range(2))
    assert len(report.fingerprint) == 64
    assert report == twin and report.system == twin.system
    assert repr(report) == repr(twin) == (
        "ClassificationReport(kind='shift', label='w', p=None, g_minus=0.5, g_plus=2.0, "
        "method='exact', horizon=200, verdicts={'strong_structural_stability': "
        "Verdict(status=<Status.HOLDS: 'Holds'>, citation='B-c', method='exact', margin=0.5, "
        "witness={'g_minus': 0.5, 'g_plus': 2.0}), 'shadowing': Verdict(status=<Status.HOLDS: "
        "'Holds'>, citation='B', method='exact', margin=0.5, witness={'g_minus': 0.5, "
        "'g_plus': 2.0, 'condition': 'B-c'}), 'hyperbolic': Verdict(status=<Status.FAILS: "
        "'Fails'>, citation='B', method='exact', margin=0.5, witness={'g_minus': 0.5, "
        "'g_plus': 2.0})}, violations=())"
    )
