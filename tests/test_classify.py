"""Rule-table verdicts, their citations, and the implication audit.

The six named measure families cover every region of the rate plane the
rule tables distinguish, so their verdict matrix is frozen here entry by
entry.  The remaining tests push on boundaries, the horizon estimator,
and the consistency cross-checks.
"""

import hashlib
import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

import shiftlab.classify
import shiftlab.systems
from shiftlab.canon import canonical_json
from shiftlab.classify import (
    ClassificationReport,
    ExpansivityMode,
    REPORT_PROPERTIES,
    Status,
    Verdict,
    classify_atomic_expansive,
    classify_atomic_uniform,
    classify_report,
    classify_shift,
    implication_audit,
)
from shiftlab.presets import (
    CANONICAL,
    decay,
    doubling_weights,
    flat,
    growth,
    half_flat,
    peak,
    split_weights,
    valley,
)
from shiftlab.seqcore import EventuallyPeriodicSequence
from shiftlab.systems import (
    AtomicSystem,
    CellStructure,
    Cycle,
    DissipativeSystem,
    InvalidSystem,
    MeasureSequence,
    WeightSequence,
    induced_weights,
)

F = Fraction


def ratio(core_lo, core, neg, pos):
    return EventuallyPeriodicSequence.from_values(core_lo, core, neg, pos)


def line_system(neg, pos, p=2.0):
    return DissipativeSystem(
        p=p, measures=MeasureSequence(F(1), ratio(0, [pos[0]], neg, pos))
    )


# (status, citation) per property, per canonical family.
EXPECTED_MATRIX = {
    "decay": {
        "positively_expansive": ("Holds", "ED1"),
        "expansive": ("Holds", "ED2"),
        "uniformly_positively_expansive": ("Holds", "ED3"),
        "uniformly_expansive": ("Holds", "UE2"),
        "shadowing": ("Holds", "SC2"),
        "hyperbolic": ("Holds", "HD"),
        "generalized_hyperbolic": ("Holds", "HD"),
        "strong_structural_stability": ("Holds", "SC1"),
        "structurally_stable": ("Holds", "SC1"),
        "not_structurally_stable": ("Fails", "P41"),
    },
    "growth": {
        "positively_expansive": ("Fails", "ED1"),
        "expansive": ("Holds", "ED2"),
        "uniformly_positively_expansive": ("Fails", "ED3"),
        "uniformly_expansive": ("Holds", "UE1"),
        "shadowing": ("Holds", "SC2"),
        "hyperbolic": ("Holds", "HC"),
        "generalized_hyperbolic": ("Holds", "HC"),
        "strong_structural_stability": ("Holds", "SC1"),
        "structurally_stable": ("Holds", "SC1"),
        "not_structurally_stable": ("Fails", "P41"),
    },
    "peak": {
        "positively_expansive": ("Fails", "ED1"),
        "expansive": ("Fails", "ED2"),
        "uniformly_positively_expansive": ("Fails", "ED3"),
        "uniformly_expansive": ("Fails", "ED4"),
        "shadowing": ("Holds", "SC2"),
        "hyperbolic": ("Fails", "SC1"),
        "generalized_hyperbolic": ("Holds", "GH"),
        "strong_structural_stability": ("Holds", "SC1"),
        "structurally_stable": ("Holds", "SC1"),
        "not_structurally_stable": ("Fails", "P41"),
    },
    "valley": {
        "positively_expansive": ("Holds", "ED1"),
        "expansive": ("Holds", "ED2"),
        "uniformly_positively_expansive": ("Holds", "ED3"),
        "uniformly_expansive": ("Holds", "UE3"),
        "shadowing": ("Fails", "SC2"),
        "hyperbolic": ("Fails", "SC1"),
        "generalized_hyperbolic": ("Fails", "SC2"),
        "strong_structural_stability": ("Fails", "C"),
        "structurally_stable": ("Fails", "P41"),
        "not_structurally_stable": ("Holds", "P41"),
    },
    "flat": {
        "positively_expansive": ("Fails", "ED1"),
        "expansive": ("Fails", "ED2"),
        "uniformly_positively_expansive": ("Fails", "ED3"),
        "uniformly_expansive": ("Fails", "ED4"),
        "shadowing": ("Fails", "SC2"),
        "hyperbolic": ("Fails", "SC1"),
        "generalized_hyperbolic": ("Fails", "SC2"),
        "strong_structural_stability": ("Undecided", "OpenProblem"),
        "structurally_stable": ("Undecided", "OpenProblem"),
        "not_structurally_stable": ("Fails", "P41"),
    },
    "half_flat": {
        "positively_expansive": ("Fails", "ED1"),
        "expansive": ("Fails", "ED2"),
        "uniformly_positively_expansive": ("Fails", "ED3"),
        "uniformly_expansive": ("Fails", "ED4"),
        "shadowing": ("Fails", "SC2"),
        "hyperbolic": ("Fails", "SC1"),
        "generalized_hyperbolic": ("Fails", "SC2"),
        "strong_structural_stability": ("Undecided", "OpenProblem"),
        "structurally_stable": ("Undecided", "OpenProblem"),
        "not_structurally_stable": ("Fails", "P41"),
    },
}


@pytest.mark.parametrize("name", sorted(CANONICAL))
def test_canonical_matrix(name):
    report = classify_report(CANONICAL[name](2.0), label=name)
    got = {prop: (v.status.value, v.citation) for prop, v in report.verdicts.items()}
    assert got == EXPECTED_MATRIX[name]
    assert report.violations == ()


def test_report_covers_every_property():
    report = classify_report(decay())
    assert set(report.verdicts) == set(REPORT_PROPERTIES)
    assert isinstance(report, ClassificationReport)
    assert report.p == 2.0 and report.kind == "dissipative"
    assert len(report.fingerprint) == 64


def test_fingerprint_is_computed_only_when_read(monkeypatch):
    calls: list[dict] = []
    fingerprint = shiftlab.classify.fingerprint

    def counted(config):
        calls.append(config)
        return fingerprint(config)

    monkeypatch.setattr(shiftlab.classify, "fingerprint", counted)
    for system, classify in ((peak(2.0), classify_report), (doubling_weights(), classify_shift)):
        calls.clear()
        report = classify(system)
        assert report.verdicts and report.violations == ()
        assert calls == []
        assert report.fingerprint == fingerprint(system.to_config())
        assert report.to_dict()["fingerprint"] == report.fingerprint
        assert calls == [system.to_config()]


def test_decay_backward_blowup_witness():
    verdict = classify_report(decay()).verdicts["positively_expansive"]
    # measures double per backward step; 2^20 is the first past 1e6
    assert verdict.witness["n"] == 20
    assert verdict.witness["measure_ratio"] == pytest.approx(2.0 ** 20, rel=1e-9)


def test_expansive_side_witnesses():
    for factory, side in ((decay, "backward"), (growth, "forward")):
        assert classify_report(factory()).verdicts["expansive"].witness["side"] == side


def test_margins_reflect_rate_distance():
    verdict = classify_report(decay()).verdicts["positively_expansive"]
    assert verdict.margin == pytest.approx(0.5)
    assert classify_report(flat()).verdicts["strong_structural_stability"].margin is None


# sha256 of canonical_json over REPORT_PIN_SYSTEMS' reports, recorded before the
# classifier read its verdicts from the sign-pattern table.  It pins every
# byte of the reports: rates, margins, witnesses and citations.
REPORT_PIN_DIGEST = "ae47b4d8c1439e5d7d3f5cabfa286e461c4c6239e560db54bbc55c19bbb76f0e"


def pinned_reports():
    from shiftlab.cli import random_dissipative

    rng = random.Random(7)
    systems = [(name, CANONICAL[name](2.0)) for name in sorted(CANONICAL)]
    systems += [(f"rand-{i}", random_dissipative(rng)) for i in range(20)]
    methods = ("exact", "horizon")
    reports = [
        classify_report(system, label=label, method=method).to_dict()
        for label, system in systems
        for method in methods
    ]
    reports += [
        classify_shift(factory(), label=factory.__name__, method=method).to_dict()
        for factory in (doubling_weights, split_weights)
        for method in methods
    ]
    return reports


def test_report_bytes_are_pinned():
    text = canonical_json(pinned_reports())
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == REPORT_PIN_DIGEST


def test_rate_view_is_built_once_per_report(monkeypatch):
    calls = {"distortion": 0, "tail": 0}

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        shiftlab.systems, "check_bounded_distortion",
        counted("distortion", shiftlab.systems.check_bounded_distortion),
    )
    monkeypatch.setattr(
        shiftlab.classify, "_aligned_tail_estimate",
        counted("tail", shiftlab.classify._aligned_tail_estimate),
    )
    for name in sorted(CANONICAL):
        calls.update(distortion=0, tail=0)
        system = CANONICAL[name](2.0)
        assert calls == {"distortion": 1, "tail": 0}, name
        for method, tails in (("exact", 0), ("horizon", 2)):
            calls.update(distortion=0, tail=0)
            classify_report(system, method=method)
            assert calls == {"distortion": 0, "tail": tails}, (name, method)


# -- boundary honesty ------------------------------------------------------------


def test_boundary_rate_never_satisfies_strict_rule():
    # neg tail products 1/4 * 4 = 1: exactly on the boundary
    system = line_system(neg=["1/4", 4], pos=["1/2"])
    verdict = classify_report(system).verdicts["uniformly_positively_expansive"]
    assert verdict.fails
    assert verdict.margin == pytest.approx(0.0)


def test_boundary_goes_undecided_where_open():
    system = line_system(neg=["1/4", 4], pos=["1/2"])
    sss = classify_report(system).verdicts["strong_structural_stability"]
    assert sss.status is Status.UNDECIDED
    assert sss.citation == "OpenProblem"


def test_float_boundary_uses_tolerance():
    system = line_system(neg=[2.0, 0.5], pos=[0.5])
    assert classify_report(system).verdicts["positively_expansive"].fails


# -- estimator agreement ----------------------------------------------------------


@pytest.mark.parametrize("name", sorted(CANONICAL))
def test_horizon_method_agrees_on_wide_margins(name):
    system = CANONICAL[name](2.0)
    exact = classify_report(system, method="exact")
    estimated = classify_report(system, method="horizon")
    assert estimated.method == "horizon"
    for prop in REPORT_PROPERTIES:
        ve, vh = exact.verdicts[prop], estimated.verdicts[prop]
        if ve.margin is not None and ve.margin > 0.05:
            assert ve.status is vh.status, prop


def test_horizon_rates_close_to_exact():
    report = classify_report(valley(), method="horizon")
    assert report.g_minus == pytest.approx(0.5, abs=1e-9)
    assert report.g_plus == pytest.approx(2.0, abs=1e-9)


def test_horizon_signs_are_zero_only_within_1e_12_of_one():
    # The horizon estimate reads sign 0 only within 1e-12 of 1.
    for tail, signs in (("100000001/100000000", (1, 1)), ("10000000000001/10000000000000", (0, 0))):
        view = shiftlab.classify._view(ratio(0, [1], [tail], [tail]), method="horizon")
        assert (view.sign_minus, view.sign_plus) == signs, tail


def stream_ratio(period, tainted):
    """Tails of the given period around a core at -1..1; tainted puts floats in all three."""
    neg = ["3/2", "5/9", "7/4", "2/11"][:period]
    core = ["2", "1/3", "5/2"]
    pos = ["4/3", "9/5", "1/6", "13/7"][:period]
    if tainted:
        neg[-1], core[1], pos[0] = 0.45, 0.3, 1.35
    seq = ratio(-1, core, neg, pos)
    assert seq.exact is not tainted
    return seq


def aligned_tail_estimate_by_index(seq, side, n):
    """The per-index loop the streamed estimate replaced, summed left to right."""
    period = len(seq.neg_period) if side == "neg" else len(seq.pos_period)
    length = max(period, (max(n, 1) // period) * period)
    if side == "neg":
        hi = seq.core_lo - 9
        indices = range(hi - length + 1, hi + 1)
    else:
        lo = seq.core_hi + 9
        indices = range(lo, lo + length)
    total = 0.0
    for k in indices:
        total += seq.log_at(k)
    return math.exp(total / length)


def blowup_by_index(system, backward):
    """The per-index scan the streamed witness search replaced."""
    ratio_seq = system.measures.ratio
    total = 0.0
    for n in range(1, shiftlab.classify._WITNESS_CAP + 1):
        total += -ratio_seq.log_at(-n) if backward else ratio_seq.log_at(n - 1)
        if total > shiftlab.classify._BLOWUP_LOG:
            return {"n": n, "measure_ratio": math.exp(total)}
    return None


@pytest.mark.parametrize("tainted", [False, True])
@pytest.mark.parametrize("period", [1, 2, 3, 4])
def test_aligned_tail_estimate_is_the_per_index_fold(period, tainted):
    base = stream_ratio(period, tainted)
    for power in (1.0, 0.4, 3.0):
        seq = base.elementwise_pow(power)
        for side in ("neg", "pos"):
            for n in (1, 7, 200):
                expected = aligned_tail_estimate_by_index(seq, side, n)
                assert shiftlab.classify._aligned_tail_estimate(seq, side, n) == expected


@pytest.mark.parametrize("tainted", [False, True])
@pytest.mark.parametrize("period", [1, 2, 3, 4])
def test_blowup_is_the_per_index_scan(monkeypatch, period, tainted):
    system = DissipativeSystem(1.0, MeasureSequence(F(1), stream_ratio(period, tainted)))
    for cap in (1, 7, 200, shiftlab.classify._WITNESS_CAP):
        monkeypatch.setattr(shiftlab.classify, "_WITNESS_CAP", cap)
        for backward in (False, True):
            assert shiftlab.classify._blowup(system, backward) == blowup_by_index(system, backward)


# -- the audit -------------------------------------------------------------------


def test_audit_accepts_all_canonical_tables():
    for factory in CANONICAL.values():
        report = classify_report(factory(2.0))
        assert implication_audit(report.verdicts) == ()


def test_audit_flags_splitting_without_shadowing():
    report = classify_report(peak())
    bad = dict(report.verdicts)
    bad["shadowing"] = Verdict(Status.FAILS, "SC2")
    lines = implication_audit(bad)
    assert len(lines) >= 1
    assert any("generalized_hyperbolic" in line and "shadowing" in line for line in lines)


def test_audit_flags_stability_contradiction():
    report = classify_report(valley())
    bad = dict(report.verdicts)
    bad["structurally_stable"] = Verdict(Status.HOLDS, "SC1")
    lines = implication_audit(bad)
    assert any("not_structurally_stable" in line for line in lines)


def test_audit_skips_undecided_entries():
    report = classify_report(flat())
    table = dict(report.verdicts)
    table["shadowing"] = Verdict(Status.FAILS, "SC2")
    assert implication_audit(table) == ()


# sha256 of the concatenated reprs of implication_audit over every canonical
# table (in CANONICAL's order) with every pair of its entries set to every
# pair of statuses: it pins each rule's lines, their wording and their order.
AUDIT_TABLES_DIGEST = "5b0a9d8df4f950268d6ce36ccb8ff73c656d8704d97df5b3029e695a76e971a5"


def test_implication_audit_lines_are_pinned():
    outputs = []
    for factory in CANONICAL.values():
        base = classify_report(factory(2.0)).verdicts
        for a, b in combinations(REPORT_PROPERTIES, 2):
            for status_a, status_b in product(Status, repeat=2):
                table = dict(base, **{a: Verdict(status_a, "X"), b: Verdict(status_b, "X")})
                outputs.append(implication_audit(table))
    assert len(outputs) == 2430 and sum(map(len, outputs)) == 1256
    assert sum(any(line.startswith("under ") for line in lines) for lines in outputs) == 98
    text = "".join(map(repr, outputs))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == AUDIT_TABLES_DIGEST


@pytest.mark.parametrize("statuses, expected", [
    ({"positively_expansive": "Holds", "strong_structural_stability": "Holds",
      "shadowing": "Fails"},
     "under positively_expansive=Holds, strong_structural_stability=Holds disagrees with "
     "shadowing=Fails"),
    ({"positively_expansive": "Holds", "strong_structural_stability": "Fails",
      "shadowing": "Holds"},
     "under positively_expansive=Holds, strong_structural_stability=Fails disagrees with "
     "shadowing=Holds"),
    ({"not_structurally_stable": "Holds", "structurally_stable": "Holds"},
     "not_structurally_stable=Holds but structurally_stable=Holds"),
    ({"positively_expansive": "Holds", "hyperbolic": "Fails", "structurally_stable": "Holds"},
     "positively_expansive=Holds and hyperbolic=Fails but structurally_stable=Holds"),
], ids=["sss-without-shadowing", "shadowing-without-sss", "nss-and-stable", "pe-not-hyperbolic"])
def test_audit_rules_beside_the_implications(statuses, expected):
    table = {name: Verdict(Status(status), "X") for name, status in statuses.items()}
    assert implication_audit(table) == (expected,)


def test_sweep_of_random_systems_is_coherent():
    """Seeded mini-sweep: every report must carry a clean audit."""
    from shiftlab.cli import random_dissipative

    rng = random.Random(5)
    for _ in range(60):
        system = random_dissipative(rng)
        report = classify_report(system)
        assert report.violations == ()
        pe = report.verdicts["positively_expansive"]
        sss = report.verdicts["strong_structural_stability"]
        if pe.holds:
            assert sss.status is not Status.UNDECIDED
            assert sss.holds == report.verdicts["shadowing"].holds


# -- distortion gate --------------------------------------------------------------


def test_undersized_distortion_constant_blocks_classification():
    cells = CellStructure(
        beta=(F(1, 3), F(2, 3)), wobble_lo=0, wobble=((F(2), F(1, 2)),)
    )
    with pytest.raises(InvalidSystem, match="declared distortion constant 1.5 is below the "
                                            "minimal value 2.0"):
        DissipativeSystem(
            p=1.0,
            measures=MeasureSequence(F(1), ratio(0, ["1/2"], ["1/2"], ["1/2"])),
            cells=cells,
            distortion_constant=1.5,
        )


# -- weighted shifts --------------------------------------------------------------


def test_shift_doubling_is_expansion_branch():
    report = classify_shift(doubling_weights(), label="doubling")
    assert report.p is None and report.kind == "shift"
    v = report.verdicts
    assert (v["strong_structural_stability"].status.value,
            v["strong_structural_stability"].citation) == ("Holds", "B-b")
    assert v["hyperbolic"].holds and v["hyperbolic"].citation == "B-b"
    assert v["shadowing"].holds and v["shadowing"].citation == "B"
    assert report.violations == ()


def test_shift_contraction_branch():
    weights = WeightSequence(ratio(0, ["1/2"], ["1/2"], ["1/2"]))
    v = classify_shift(weights).verdicts
    assert v["strong_structural_stability"].citation == "B-a"
    assert v["hyperbolic"].holds


def test_shift_split_branch():
    v = classify_shift(split_weights()).verdicts
    assert v["strong_structural_stability"].citation == "B-c"
    assert v["shadowing"].holds
    assert v["hyperbolic"].fails


# The weighted-shift column the sign table used to hold, kept here as the
# reference for the branch classify_shift now reads at mirrored signs.
OLD_SHIFT_COLUMN = {(1, 1): "B-b", (-1, -1): "B-a", (-1, 1): "B-c", (1, -1): None}


@pytest.mark.parametrize("sign_minus", [-1, 0, 1])
@pytest.mark.parametrize("sign_plus", [-1, 0, 1])
def test_shift_branch_is_the_old_table_column(sign_minus, sign_plus):
    tail = {-1: "1/2", 0: "1", 1: "2"}
    weights = WeightSequence(ratio(0, ["3"], [tail[sign_minus]], [tail[sign_plus]]))
    report = classify_shift(weights)
    assert (report.g_minus > 1) - (report.g_minus < 1) == sign_minus
    assert (report.g_plus > 1) - (report.g_plus < 1) == sign_plus
    branch = OLD_SHIFT_COLUMN.get((sign_minus, sign_plus))
    v = report.verdicts
    assert v["strong_structural_stability"].holds == (branch is not None)
    assert v["strong_structural_stability"].citation == (branch or "B")
    assert v["shadowing"].witness.get("condition") == branch
    hyperbolic = branch if branch in ("B-a", "B-b") else None
    assert v["hyperbolic"].holds == (hyperbolic is not None)
    assert v["hyperbolic"].citation == (hyperbolic or "B")


def test_shift_outside_the_table():
    ones = WeightSequence(ratio(0, [1], [1], [1]))
    v = classify_shift(ones).verdicts
    assert v["strong_structural_stability"].fails
    assert v["shadowing"].fails
    assert v["hyperbolic"].fails
    # reversed split (expanding left, contracting right) is also outside
    reversed_split = WeightSequence(ratio(0, [2], [2], ["1/2"]))
    assert classify_shift(reversed_split).verdicts["shadowing"].fails


def drawn_weight_line(rng, tainted):
    """A seeded weight line, entries in [1/7, 7]; floats when ``tainted``."""
    def entry():
        value = F(rng.randint(1, 7), rng.randint(1, 7))
        return float(value) if tainted else value

    core, neg, pos = ([entry() for _ in range(rng.randint(1, n))] for n in (3, 4, 4))
    return WeightSequence(ratio(rng.randint(-2, 0), core, neg, pos))


def test_shift_stability_and_shadowing_share_one_status():
    """Both read the one branch, so the shift report's audit stays clean."""
    rng = random.Random(3)
    lines = [doubling_weights(), split_weights()]
    lines += [drawn_weight_line(rng, tainted=i % 2 == 1) for i in range(200)]
    seen = set()
    for weights in lines:
        report = classify_shift(weights)
        status = report.verdicts["shadowing"].status
        assert report.verdicts["strong_structural_stability"].status is status
        assert report.violations == ()
        seen.add((status, weights.values.exact))
    assert seen == {(status, exact) for status in (Status.HOLDS, Status.FAILS)
                    for exact in (True, False)}


def test_audit_flags_a_hyperbolic_shift_without_stability():
    table = dict(classify_shift(doubling_weights()).verdicts)
    table["strong_structural_stability"] = Verdict(Status.FAILS, "B")
    assert implication_audit(table) == ("hyperbolic=Holds but strong_structural_stability=Fails",)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("name", sorted(CANONICAL))
def test_weight_reduction_preserves_the_splitting_trio(name, p):
    """Composition verdicts and induced-shift verdicts must agree for every p."""
    system = CANONICAL[name](p)
    dis = classify_report(system).verdicts
    shift = classify_shift(induced_weights(system)).verdicts
    for prop in ("shadowing", "hyperbolic"):
        assert dis[prop].status is shift[prop].status, (name, p, prop)
    if dis["strong_structural_stability"].status is not Status.UNDECIDED:
        assert dis["strong_structural_stability"].holds == shift[
            "strong_structural_stability"
        ].holds


# -- atomic systems ---------------------------------------------------------------


def atoms(*components):
    return AtomicSystem(p=1.0, components=tuple(components))


def decay_line():
    return MeasureSequence(F(1), ratio(0, ["1/2"], ["1/2"], ["1/2"]))


def test_cycle_blocks_expansivity():
    system = atoms(Cycle.from_values([1, 2, 3]))
    verdict = classify_atomic_expansive(system, ExpansivityMode.POSITIVE)
    assert verdict.fails and verdict.citation == "E1"
    assert verdict.witness["orbit_measure_sup"] == pytest.approx(3.0)
    assert classify_atomic_expansive(system, ExpansivityMode.TWOSIDED).citation == "E2"


def test_escaping_line_is_expansive():
    system = atoms(decay_line())
    assert classify_atomic_expansive(system, ExpansivityMode.POSITIVE).holds
    assert classify_atomic_expansive(system, ExpansivityMode.TWOSIDED).holds


def test_flat_line_fails_positive_mode():
    line = MeasureSequence(F(1), ratio(0, [1], [1], [1]))
    verdict = classify_atomic_expansive(atoms(line), ExpansivityMode.POSITIVE)
    assert verdict.fails
    assert verdict.witness["kind"] == "line"


def test_mixed_union_fails_on_its_cycle():
    system = atoms(decay_line(), Cycle.from_values([5]))
    verdict = classify_atomic_expansive(system, ExpansivityMode.POSITIVE)
    assert verdict.fails and verdict.witness["component"] == 1


def test_uniform_atomic_verdicts():
    good = atoms(decay_line())
    verdict = classify_atomic_uniform(good, ExpansivityMode.POSITIVE)
    assert verdict.holds and verdict.citation == "E3"
    assert "sampler" not in (verdict.witness or {})

    blocked = atoms(Cycle.from_values([1, 2]))
    verdict = classify_atomic_uniform(blocked, ExpansivityMode.TWOSIDED)
    assert verdict.fails and verdict.citation == "E4"


def test_uniform_sampler_is_deterministic():
    system = atoms(decay_line(), decay_line())
    a = classify_atomic_uniform(system, ExpansivityMode.POSITIVE)
    b = classify_atomic_uniform(system, ExpansivityMode.POSITIVE)
    assert a == b


def atomic_verdicts(system):
    return {
        "positively_expansive": classify_atomic_expansive(system, ExpansivityMode.POSITIVE),
        "expansive": classify_atomic_expansive(system, ExpansivityMode.TWOSIDED),
        "uniformly_positively_expansive": classify_atomic_uniform(
            system, ExpansivityMode.POSITIVE
        ),
        "uniformly_expansive": classify_atomic_uniform(system, ExpansivityMode.TWOSIDED),
    }


def test_weak_backward_tail_leaves_the_sampler_undecided():
    # 200 backward steps at ratio 999/1000 grow a set's measure by e^0.2 < 2
    line = MeasureSequence(F(1), ratio(0, [1], ["999/1000"], [2]))
    v = atomic_verdicts(atoms(line))
    assert v["positively_expansive"].holds
    assert v["positively_expansive"].margin == pytest.approx(1e-3)
    assert v["expansive"].holds and v["expansive"].margin == 1.0
    upe = v["uniformly_positively_expansive"]
    assert upe.status is Status.UNDECIDED and upe.citation == "E3"
    assert upe.witness["sampler"] == "contradiction" and upe.witness["horizon"] == 200
    assert v["uniformly_expansive"].holds


# Ratio tails of the pinned unions: contracting, expanding, unit, within
# 1e-3 of 1 (strong enough for the rules, too weak for the sampler), floats.
ATOMIC_PIN_TAILS = ("1/2", "999/1000", 1, "1001/1000", 2, 0.5, 0.999, 1.5)

# sha256 of canonical_json over the four atomic verdicts of pinned_unions(),
# recorded before the atomic rules were read from the dissipative line rules.
ATOMIC_PIN_DIGEST = "708072515f8f2e159ae506867f3c76bae4f15adcbf57fb68fffad58b5b425b15"


def pinned_unions():
    rng = random.Random(11)
    for _ in range(240):
        components = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.2:
                measures = [rng.choice([1, "1/2", 3, 0.75]) for _ in range(rng.randint(1, 3))]
                components.append(Cycle.from_values(measures))
                continue
            seq = ratio(
                rng.randint(-2, 2),
                [rng.choice(["1/3", 1, 2, 0.8])],
                [rng.choice(ATOMIC_PIN_TAILS) for _ in range(rng.randint(1, 2))],
                [rng.choice(ATOMIC_PIN_TAILS) for _ in range(rng.randint(1, 2))],
            )
            components.append(MeasureSequence.from_values(rng.choice([1, "1/2"]), seq))
        yield AtomicSystem(p=rng.choice([1.0, 2.0]), components=tuple(components))


def test_atomic_verdict_bytes_are_pinned():
    tables = [
        {name: v.to_dict() for name, v in atomic_verdicts(system).items()}
        for system in pinned_unions()
    ]
    for prop in ("uniformly_positively_expansive", "uniformly_expansive"):
        assert {t[prop]["status"] for t in tables} == {"Holds", "Fails", "Undecided"}, prop
    text = canonical_json(tables)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == ATOMIC_PIN_DIGEST
