"""The package's records keep the semantics of the frozen dataclasses they replaced.

Each repr and ``as_dict`` below was recorded from the dataclass versions
(``repr`` and ``dataclasses.asdict``): equality and hashing by field
tuple, ``Name(field=value, ...)`` reprs, no assignment, and recursive dicts.
"""

import re
from fractions import Fraction as F

import pytest

from shiftlab import classify, cli, seqcore, simulate, systems
from shiftlab.classify import ClassificationReport, Status, Verdict, _RateView, classify_shift
from shiftlab.cli import ParsedConfig
from shiftlab.seqcore import EventuallyPeriodicSequence, Record, SideRate
from shiftlab.simulate import (
    BoundCertificate,
    BruteForceReport,
    BruteMode,
    DirectionalWalk,
    Pseudotrajectory,
    SampleOutcome,
    ShadowResult,
    Splitting,
)
from shiftlab.systems import (
    AtomicSystem,
    CellStructure,
    Cycle,
    DissipativeSystem,
    DistortionCertificate,
    MeasureSequence,
    StarCertificate,
    WeightSequence,
)


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


# -- the generated __init__ ------------------------------------------------------

CELLS = ((F(1), F(2)), 0, ((F(3, 2), F(3, 4)),))
SPLIT = ((0,), 1, 0.5, 0.5, (0.5,), (0.5,))

# record -> (a value for each field, in order; the defaults its trailing fields declare).
# Every value differs from its field's default, so an ignored argument shows.
BUILDS = {
    Verdict: ((Status.FAILS, "ED2", "brute-force", 0.5, {"n": 3}),
              {"method": "exact", "margin": None, "witness": None}),
    _RateView: ((0.5, 2.0, -1, 1, "exact"), {}),
    ClassificationReport: (("shift", "w", None, WeightSequence(ratio()), 0.5, 2.0, "exact",
                            200, {}, ("HC",)), {"violations": ()}),
    ParsedConfig: (("shift", WeightSequence(ratio()), "w", None), {}),
    EventuallyPeriodicSequence: ((0, (F(1, 2),), (F(1, 2),), (F(2),), 2.0, False),
                                 {"exp": 1.0, "exact": True}),
    SideRate: ((0.5, 2.0), {}),
    MeasureSequence: ((F(3), ratio(), False), {"exact": True}),
    CellStructure: (CELLS + (False,), {"exact": True}),
    DissipativeSystem: ((2.0, MeasureSequence(F(3), ratio()), CellStructure(*CELLS), 2.0),
                        {"cells": None, "distortion_constant": None}),
    Cycle: (((F(1, 2), F(3)), False), {"exact": True}),
    AtomicSystem: ((2.0, (Cycle((F(1),)),)), {}),
    WeightSequence: ((ratio(),), {}),
    StarCertificate: ((2.0, 2 ** 0.5, 2.0, 2 ** 0.5, F(2)), {"c_fraction": None}),
    DistortionCertificate: ((True, 1.5, 2.0, (0, 1), F(3, 2)), {"k_min_fraction": None}),
    BoundCertificate: (("periodic", 2, 1.5), {}),
    DirectionalWalk: ((3, None, (0.1, 0.2)), {}),
    SampleOutcome: (("e[0]", "basis", None, BoundCertificate("decaying", 1, 1.0), 3,
                     BoundCertificate("periodic", 2, 1.5)),
                    {"backward_crossed_at": None, "backward_certificate": None}),
    BruteForceReport: ((Verdict(Status.HOLDS, "ED1"), BruteMode.TWOSIDED, 40, 1, (),
                        Verdict(Status.FAILS, "ED1")), {"positive_verdict": None}),
    Pseudotrajectory: ((0, ({}, {0: 1e-3}), 1e-3), {}),
    Splitting: (SPLIT, {}),
    ShadowResult: ((-1, ({0: 1.0},), ({0: 1e-3},), 0.0, 0.0, 1e-3, 0.0, Splitting(*SPLIT)),
                   {}),
}
RECORD_CLASSES = sorted(BUILDS, key=lambda cls: cls.__qualname__)


def test_every_record_of_the_package_is_covered():
    found = {value for module in (seqcore, systems, classify, simulate, cli)
             for value in vars(module).values()
             if isinstance(value, type) and issubclass(value, Record) and value is not Record}
    assert found == set(BUILDS) and len(found) == 21


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda cls: cls.__qualname__)
def test_generated_init_reads_position_keyword_and_defaults(cls):
    values, defaults = BUILDS[cls]
    assert cls._defaults == defaults
    by_position = cls(*values)
    assert [getattr(by_position, name) for name in cls._fields] == list(values)
    assert by_position == cls(**dict(zip(cls._fields, values)))
    required = values[:len(values) - len(defaults)]
    omitted = cls(*required)
    assert omitted == cls(*required, *defaults.values())
    # Only an undeclared K is filled in, from the distortion certificate.
    filled = {"distortion_constant": 1.0} if cls is DissipativeSystem else {}
    assert {name: getattr(omitted, name) for name in defaults} == {**defaults, **filled}


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda cls: cls.__qualname__)
def test_generated_init_refuses_bad_arguments_by_name(cls):
    values, defaults = BUILDS[cls]
    required = values[:len(values) - len(defaults)]
    name = re.escape(f"{cls.__qualname__}.__init__()")
    last = cls._fields[len(required) - 1]
    refusals = [
        (required[:-1], {}, f"missing 1 required positional argument: '{last}'"),
        (values, {"bogus": 1}, "got an unexpected keyword argument 'bogus'"),
        (values + (None,), {}, f"takes .* positional arguments but {len(values) + 2} were given"),
    ]
    for args, kwargs, message in refusals:
        with pytest.raises(TypeError, match=f"^{name} {message}$"):
            cls(*args, **kwargs)
    record = cls(*values)
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def test_records_declare_fields_not_an_init():
    with pytest.raises(TypeError, match="must not write __init__"):
        class Written(Record):
            __slots__ = _fields = ("a",)

            def __init__(self, a):
                pass
    with pytest.raises(TypeError, match="trailing fields"):
        class Leading(Record):
            __slots__ = _fields = ("a", "b")
            _defaults = {"a": 0}
