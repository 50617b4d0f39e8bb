"""Orbit arithmetic, brute-force expansivity, and the shadowing engine."""

import hashlib
import math
import random
from dataclasses import asdict
from fractions import Fraction
from itertools import islice

import pytest

from shiftlab.canon import canonical_json
from shiftlab.classify import Status, classify_report
from shiftlab.cli import random_dissipative
from shiftlab.presets import (
    CANONICAL,
    decay,
    doubling_weights,
    flat,
    growth,
    peak,
    split_weights,
    valley,
)
from shiftlab import simulate
from shiftlab.seqcore import EventuallyPeriodicSequence, tail_sign_vs_one
from shiftlab.simulate import (
    AtomicOperator,
    BruteMode,
    CompositionOperator,
    NoSplitting,
    Pseudotrajectory,
    ShiftOperator,
    brute_force_expansivity,
    build_splitting,
    make_pseudotrajectory,
    operator_for,
    orbit_log_norms,
    orbit_norms,
    pointwise_verdict,
    shadow,
    vec_add,
    vec_scale,
    vec_sub,
)
from shiftlab.systems import (
    AtomicSystem,
    CellStructure,
    Cycle,
    DissipativeSystem,
    MeasureSequence,
    WeightSequence,
    check_star,
)

from _oracles import norm_direct, shadow_exact_corrections

F = Fraction


def ratio(core_lo, core, neg, pos):
    return EventuallyPeriodicSequence.from_values(core_lo, core, neg, pos)


def sevens_shift(p=2.0):
    weights = WeightSequence(ratio(-1, ["7/3", "3/7"], ["5/7"], ["7/5", "7/6"]))
    return ShiftOperator(weights, p)


def cell_system(p=1.0):
    cells = CellStructure(
        beta=(F(1, 3), F(2, 3)), wobble_lo=0, wobble=((F(2), F(1, 2)),)
    )
    return DissipativeSystem(
        p=p,
        measures=MeasureSequence(F(1), ratio(0, ["1/2"], ["1/2"], ["1/2"])),
        cells=cells,
    )


def seeded_vec(op, seed, span=5):
    rng = random.Random(seed)
    vec = {}
    sites = op.basis_sites(span)
    for site in rng.sample(sites, min(4, len(sites))):
        vec[site] = rng.uniform(-2.0, 2.0)
    return vec


# -- applying operators -------------------------------------------------------


def test_composition_step_moves_one_site():
    op = CompositionOperator(decay(p=1.0))
    vec = {(0, None): 1.0}
    moved = op.apply(vec, 1)
    assert moved == {(-1, None): 1.0}
    # the measure of the preimage window is mu_{-1} = 2
    assert op.norm(moved) == pytest.approx(2.0, rel=1e-12)


def test_composition_zero_steps_is_identity():
    op = CompositionOperator(peak())
    vec = {(2, None): 0.7, (-1, None): -0.2}
    assert op.apply(vec, 0) == vec


def test_cycle_returns_after_full_period():
    system = AtomicSystem(p=1.0, components=(Cycle.from_values([1, 2, 3]),))
    op = AtomicOperator(system)
    vec = {(0, 1): 0.5, (0, 0): -1.0}
    assert op.apply(vec, 3) == vec


def test_shift_backward_step_frozen():
    op = ShiftOperator(doubling_weights(), 1.0)
    assert op.apply({0: 1.0}, -1) == {1: 0.5}


@pytest.mark.parametrize("k", [-2, 0, 5])
def test_shift_forward_steps_frozen(k):
    op = ShiftOperator(doubling_weights(), 1.0)
    moved = op.apply({k: 1.0}, 3)
    assert set(moved) == {k - 3}
    assert moved[k - 3] == pytest.approx(8.0, rel=1e-12)


FLOAT_WEIGHTS = WeightSequence(ratio(-1, [0.37, 2.6], [0.81], [1.3, 1.9]))


def direct_shift_apply(weights, vec, steps):
    w = weights.values
    current = vec
    for _ in range(abs(steps)):
        if steps > 0:
            current = {k - 1: c * math.exp(w.log_at(k)) for k, c in current.items()}
        else:
            current = {k + 1: c * math.exp(-w.log_at(k + 1)) for k, c in current.items()}
    return current


@pytest.mark.parametrize(
    "weights",
    [doubling_weights(), split_weights(), FLOAT_WEIGHTS],
    ids=["doubling", "split", "float"],
)
def test_shift_apply_memo_matches_direct_factors(weights):
    op = ShiftOperator(weights, 2.0)
    rng = random.Random(11)
    for _ in range(4):
        vec = {k: rng.uniform(-2.0, 2.0) for k in rng.sample(range(-12, 13), 8)}
        for steps in (1, 2, 3, -1, -2, -3):
            want = list(direct_shift_apply(weights, vec, steps).items())
            assert list(op.apply(vec, steps).items()) == want, steps
            assert list(op.apply(vec, steps).items()) == want, steps  # memo now warm


def test_shift_apply_memo_is_per_operator():
    vec = {k: 1.0 for k in range(-4, 5)}
    ops = [ShiftOperator(doubling_weights(), 1.0), ShiftOperator(FLOAT_WEIGHTS, 1.0)]
    for op in ops + ops:
        for steps in (1, -1):
            assert op.apply(vec, steps) == direct_shift_apply(op.weights, vec, steps)


def test_operator_for_dispatch():
    assert isinstance(operator_for(doubling_weights(), 1.0), ShiftOperator)
    assert isinstance(operator_for(decay()), CompositionOperator)
    system = AtomicSystem(p=1.0, components=(Cycle.from_values([1]),))
    assert isinstance(operator_for(system), AtomicOperator)
    with pytest.raises(TypeError):
        operator_for("weights")


# -- norms ---------------------------------------------------------------------


def test_orbit_norms_doubling_frozen():
    op = ShiftOperator(doubling_weights(), 2.0)
    norms = dict(orbit_norms(op, {0: 1.0}, 0, 3))
    assert norms == {
        0: pytest.approx(1.0),
        1: pytest.approx(2.0),
        2: pytest.approx(4.0),
        3: pytest.approx(8.0),
    }


def test_orbit_norms_unweighted_shift_is_isometric():
    ones = WeightSequence(ratio(0, [1], [1], [1]))
    op = ShiftOperator(ones, 2.0)
    for _, value in orbit_norms(op, {3: 1.0}, -5, 5):
        assert value == pytest.approx(1.0, rel=1e-12)


def test_orbit_norms_peak_frozen():
    op = CompositionOperator(peak(p=1.0))
    vec = op.normalized_basis((0, None))
    assert dict(orbit_norms(op, vec, -1, 1)) == {
        -1: pytest.approx(0.5, rel=1e-12),
        0: pytest.approx(1.0, rel=1e-12),
        1: pytest.approx(0.5, rel=1e-12),
    }


def test_valley_basis_orbits_shrink_at_their_own_depth():
    """||T^n e_n|| = 2^(-n/2) on valley(2.0), so no single n takes every unit vector to norm 2.

    The uniform definition of positive expansivity (Bernardes, Cirilo,
    Darji, Messaoudi & Pujals 2018) therefore fails on the valley; rule
    ED3 reads only g_minus < 1.
    """
    op = CompositionOperator(valley(p=2.0))
    for n in (1, 10, 200):
        ((_, norm),) = orbit_norms(op, op.normalized_basis((n, None)), n, n)
        assert norm == pytest.approx(2.0 ** (-n / 2), rel=1e-9), n


def subnormal_coefficient_operators():
    """A composition map and an atomic line with mu_k = 1e155^k at p = 1.

    The unit vector on site 2 has the coefficient 1/mu_2 = 1e-310, which
    is subnormal.
    """
    measures = MeasureSequence.from_values(1, ratio(0, [1e155], [1e155], [1e155]))
    return [
        (CompositionOperator(DissipativeSystem(p=1.0, measures=measures)), (2, None)),
        (AtomicOperator(AtomicSystem(p=1.0, components=(measures,))), (0, 2)),
    ]


@pytest.mark.parametrize("op, site", subnormal_coefficient_operators(), ids=["window", "atomic"])
def test_orbit_log_norms_read_the_operator_walk(op, site, monkeypatch):
    vec = op.normalized_basis(site)
    assert 0.0 < abs(next(iter(vec.values()))) < 2.2250738585072014e-308
    backward = list(islice(op.log_norm_walk(vec, -1), 40))
    forward = list(islice(op.log_norm_walk(vec, 1), 40))
    expected = [*zip(range(-40, 0), reversed(backward)), (0, op.log_norm(vec)),
                *zip(range(1, 41), forward)]
    # A map that only moves sites needs no applied vector for its orbit norms.
    monkeypatch.setattr(type(op), "apply", None)
    assert orbit_log_norms(op, vec, -40, 40) == expected
    assert orbit_log_norms(op, vec, 3, 7) == expected[43:48]
    assert orbit_log_norms(op, vec, -7, -3) == expected[33:38]


def test_orbit_norms_rejects_empty_range():
    with pytest.raises(ValueError):
        orbit_norms(ShiftOperator(doubling_weights()), {0: 1.0}, 2, 1)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_composition_norm_matches_direct_sum(p):
    system = cell_system(p)
    op = CompositionOperator(system)
    vec = seeded_vec(op, seed=int(p))
    expected = norm_direct(vec, p, lambda site: system.site_log_measure(*site))
    assert op.norm(vec) == pytest.approx(expected, rel=1e-12)


def test_shift_norm_matches_direct_sum():
    op = sevens_shift(3.0)
    vec = seeded_vec(op, seed=9)
    expected = norm_direct(vec, 3.0, lambda site: 0.0)
    assert op.norm(vec) == pytest.approx(expected, rel=1e-12)


def test_incremental_orbit_norms_match_recomputation():
    op = CompositionOperator(peak(p=2.0))
    vec = seeded_vec(op, seed=4)
    for n, value in orbit_norms(op, vec, -6, 6):
        assert value == pytest.approx(op.norm(op.apply(vec, n)), rel=1e-12)


# -- the contract invariants -----------------------------------------------------


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("factory", [decay, peak, valley])
def test_norm_identity_bridge(factory, p):
    """||T^n basis_k||^p must track the measure ratio mu_{k-n}/mu_k."""
    system = factory(p)
    op = CompositionOperator(system)
    for k in range(-12, 13):
        vec = op.normalized_basis((k, None))
        for n in range(-12, 13):
            lhs = p * op.log_norm(op.apply(vec, n))
            rhs = system.measures.log_mu(k - n) - system.measures.log_mu(k)
            assert lhs == pytest.approx(rhs, abs=1e-9)


@pytest.mark.parametrize(
    "op",
    [
        ShiftOperator(doubling_weights(), 1.0),
        sevens_shift(2.0),
        CompositionOperator(peak(p=2.0)),
    ],
    ids=["doubling", "sevens", "peak"],
)
def test_apply_is_linear(op):
    x = seeded_vec(op, seed=1)
    y = seeded_vec(op, seed=2)
    combo = op.apply(vec_add(vec_scale(x, 0.3), vec_scale(y, -1.7)), 2)
    parts = vec_add(vec_scale(op.apply(x, 2), 0.3), vec_scale(op.apply(y, 2), -1.7))
    scale = max(op.norm(combo), 1.0)
    assert op.norm(vec_sub(combo, parts)) <= 1e-12 * scale


@pytest.mark.parametrize("n", [1, 3, 7])
def test_apply_round_trip_is_exact_on_sites(n):
    for op in (sevens_shift(2.0), CompositionOperator(cell_system())):
        vec = seeded_vec(op, seed=n)
        back = op.apply(op.apply(vec, n), -n)
        assert set(back) == set(vec)
        for site, coeff in vec.items():
            assert back[site] == pytest.approx(coeff, rel=1e-12)


def test_apply_norm_respects_star_bound():
    for system in (peak(p=2.0), cell_system(), valley(p=3.0)):
        op = CompositionOperator(system)
        bound = check_star(system).norm_bound
        for seed in range(5):
            vec = seeded_vec(op, seed)
            assert op.norm(op.apply(vec, 1)) <= bound * op.norm(vec) * (1 + 1e-12)


def test_shift_norm_respects_weight_sup():
    op = sevens_shift(1.0)
    bound = op.norm_upper_bound()
    for seed in range(5):
        vec = seeded_vec(op, seed)
        assert op.norm(op.apply(vec, 1)) <= bound * op.norm(vec) * (1 + 1e-12)


# -- brute-force expansivity -------------------------------------------------------


def test_doubling_crosses_immediately():
    report = brute_force_expansivity(
        doubling_weights(), BruteMode.POSITIVE, horizon=10, samples=4, seed=0, p=1.0
    )
    assert report.verdict.holds
    assert report.verdict.witness["max_crossing_n"] == 1
    for outcome in report.samples:
        if outcome.kind == "basis":
            assert outcome.crossed_at == 1


def test_three_cycle_certifies_boundedness():
    system = AtomicSystem(p=1.0, components=(Cycle.from_values([1, 2, 3]),))
    report = brute_force_expansivity(system, BruteMode.TWOSIDED, horizon=30, samples=2)
    assert report.verdict.fails
    cert = report.verdict.witness["certificate"]
    assert cert["kind"] == "periodic"
    assert cert["period"] == 3
    assert cert["sup_norm"] == pytest.approx(1.5)
    assert "backward_certificate" in report.verdict.witness


def test_flat_window_never_holds():
    system = flat(p=2.0)
    for mode in BruteMode:
        report = brute_force_expansivity(system, mode, horizon=25, samples=3, seed=2)
        assert not report.verdict.holds
    report = brute_force_expansivity(system, BruteMode.POSITIVE, horizon=25, samples=0)
    cert = report.verdict.witness["certificate"]
    assert cert["sup_norm"] == pytest.approx(1.0)


def test_uniform_mode_reports_shared_crossing():
    report = brute_force_expansivity(
        doubling_weights(), BruteMode.UNIFORM_POSITIVE, horizon=10, samples=5, seed=1, p=1.0
    )
    assert report.verdict.holds
    assert report.verdict.witness["n"] == 1


def test_slow_drift_stays_undecided():
    # tail product 200/199: unbounded in the limit, invisible at this horizon
    weights = WeightSequence(ratio(0, [2], [2, "100/199"], [2, "100/199"]))
    report = brute_force_expansivity(
        weights, BruteMode.POSITIVE, horizon=50, samples=2, seed=0, p=1.0
    )
    assert report.verdict.status.value == "Undecided"
    assert "no crossing" in report.verdict.witness["reason"]


def test_random_samples_never_certify():
    for system in (flat(p=1.0), valley(p=2.0)):
        report = brute_force_expansivity(system, BruteMode.TWOSIDED, horizon=20, samples=6)
        for outcome in report.samples:
            if outcome.kind == "random":
                assert outcome.certificate is None
                assert outcome.backward_certificate is None


def test_random_sample_keeps_its_sites_in_draw_order():
    # Coefficients are dealt out in site order; a set would put these in
    # hash order (1, 2, 3, ...), and a set of (k, None) keys in an order
    # that changes between interpreter starts.
    op = ShiftOperator(doubling_weights(), 1.0)
    drawn = [7, 1, 4, 9, 2, 8, 3, 6]
    sites = iter(drawn)
    op._sample_site = lambda rng: next(sites)
    vec = simulate._random_sample(op, random.Random(0))
    assert list(vec) == drawn[: len(vec)]


def sample_stream_operators():
    line = MeasureSequence(F(2), ratio(-1, ["3", "1/2"], ["1/3"], ["2", "1/2"]))
    return [
        CompositionOperator(decay(p=2.0)),
        CompositionOperator(cell_system(p=1.0)),
        AtomicOperator(AtomicSystem(p=2.0, components=(Cycle.from_values([1, 2, 3]), line))),
    ]


@pytest.mark.parametrize("op", sample_stream_operators(), ids=["window", "celled", "atomic"])
def test_log_norm_walk_is_log_norm_of_repeated_apply(op):
    rng = random.Random(3)
    for _ in range(4):
        vec = simulate._random_sample(op, rng)
        for direction in (1, -1):
            streamed = list(islice(op.log_norm_walk(vec, direction), 60))
            expected, current = [], vec
            for _ in range(60):
                current = op.apply(current, direction)
                expected.append(op.log_norm(current))
            assert streamed == expected, direction


@pytest.mark.parametrize("horizon, samples", [(-1, 0), (-1, 2), (0, 3), (5, -1)])
def test_brute_force_rejects_bad_horizon_and_samples(horizon, samples):
    with pytest.raises(ValueError, match="horizon|samples"):
        brute_force_expansivity(
            doubling_weights(), BruteMode.POSITIVE, horizon=horizon, samples=samples, p=1.0
        )


def test_tail_walks_are_shared_and_samples_stop_at_their_crossing(monkeypatch):
    weights = doubling_weights()
    line = weights.values
    left_forward: list[int] = []
    line_walk = simulate._line_walk

    def counted_line_walk(line_, position, direction, horizon, want_curve):
        if direction > 0 and position < line_.core_lo:
            left_forward.append(position)
        return line_walk(line_, position, direction, horizon, want_curve)

    sample_crossings: list[int | None] = []
    scan = simulate._scan

    def recording_scan(log_norms, horizon, want_curve, bound=None):
        walk = scan(log_norms, horizon, want_curve, bound)
        if bound is None:
            sample_crossings.append(walk.crossed_at)
        return walk

    applied = [0]
    apply = ShiftOperator.apply

    def counted_apply(self, vec, steps=1):
        applied[0] += 1
        return apply(self, vec, steps)

    monkeypatch.setattr(simulate, "_line_walk", counted_line_walk)
    monkeypatch.setattr(simulate, "_scan", recording_scan)
    monkeypatch.setattr(ShiftOperator, "apply", counted_apply)
    horizon = 40
    report = brute_force_expansivity(
        weights, BruteMode.POSITIVE, horizon=horizon, samples=5, seed=0, p=1.0
    )
    assert report.verdict.holds
    # 40 sites lie left of the core; one walk per phase of the period serves them all.
    assert len(left_forward) <= len(line.neg_period)
    assert len(sample_crossings) == 5
    # Each sample is applied once per step, and no step after its crossing.
    assert applied[0] == sum(n if n is not None else horizon for n in sample_crossings)


def far_core(measure_ratio):
    """measure_ratio everywhere, with the one-entry core a million sites right of site 0."""
    seq = ratio(10 ** 6, [measure_ratio], [measure_ratio], [measure_ratio])
    return DissipativeSystem(p=1.0, measures=MeasureSequence.from_values(1, seq))


def test_far_core_certificates_read_at_most_the_cap(monkeypatch):
    reads: list[int] = []
    scan = simulate._scan

    def counting_scan(log_norms, horizon, want_curve, bound=None):
        read = [0]

        def counted():
            for value in log_norms:
                read[0] += 1
                yield value

        walk = scan(counted(), horizon, want_curve, bound)
        reads.append(read[0])
        return walk

    monkeypatch.setattr(simulate, "_scan", counting_scan)
    probes = {
        name: brute_force_expansivity(system, BruteMode.TWOSIDED, horizon=40, samples=3, seed=0)
        for name, system in (("decay", far_core("1/2")), ("flat", far_core(1)),
                             ("near decay", decay(1.0)))
    }
    assert reads and max(reads) <= simulate._CERT_READ_CAP
    for name in ("decay", "flat"):
        basis = [o for o in probes[name].samples if o.kind == "basis"]
        # Each backward walk would enter its tail about 10^6 steps out: past the cap.
        assert [o.backward_certificate for o in basis] == [None] * len(basis), name
    # decay's forward walks cross at once, so both readings keep the near-core Holds.
    for twosided in (False, True):
        assert pointwise_verdict(probes["decay"].samples, twosided).holds
        assert pointwise_verdict(probes["near decay"].samples, twosided).holds
    # flat's readings rest on certificates: the forward ones still certify, and the
    # two-sided reading, short of its backward certificates, turns Undecided, not wrong.
    assert pointwise_verdict(probes["flat"].samples, twosided=False).fails
    assert probes["flat"].verdict.status is Status.UNDECIDED


def test_brute_reports_are_reproducible():
    a = brute_force_expansivity(valley(p=1.0), BruteMode.POSITIVE, horizon=15, seed=8)
    b = brute_force_expansivity(valley(p=1.0), BruteMode.POSITIVE, horizon=15, seed=8)
    assert a == b


# sha256 of canonical_json over brute_pin_reports(), recorded once the random
# samples kept their sites in draw order.  It pins each report's verdict and
# every sample's crossings and certificates in all four modes, at a horizon
# shorter than some walks' entry plus one period and at one longer than all.
BRUTE_PIN_DIGEST = "f7841e13d8f0908476c42bc4220a450bea4d1638a48410f4d80ead783623b441"


def brute_pin_reports():
    line = MeasureSequence(F(2), ratio(-1, ["3", "1/2"], ["1/3"], ["2", "1/2"]))
    systems = [CANONICAL[name](p) for name in sorted(CANONICAL) for p in (1.0, 2.0)]
    systems += [cell_system(1.0), cell_system(2.0)]
    systems += [AtomicSystem(p=p, components=(Cycle.from_values([1, 2, 3]), line))
                for p in (1.0, 2.0)]
    shifts = [sevens_shift(p).weights for p in (1.0, 2.0)] + [split_weights(), doubling_weights()]
    probes = [(system, None) for system in systems] + [(w, 1.0) for w in shifts]
    reports = []
    for i, (system, p) in enumerate(probes):
        for mode in BruteMode:
            for horizon in (5, 40):
                report = brute_force_expansivity(
                    system, mode, horizon=horizon, samples=3, seed=i, p=p
                )
                reports.append({
                    "mode": mode.value,
                    "horizon": horizon,
                    "verdict": report.verdict.to_dict(),
                    "samples": [asdict(s) for s in report.samples],
                })
    return reports


def test_brute_reports_are_pinned():
    text = canonical_json(brute_pin_reports())
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == BRUTE_PIN_DIGEST


def assert_positive_reading(twosided, positive):
    assert twosided.mode is BruteMode.TWOSIDED and positive.mode is BruteMode.POSITIVE
    assert pointwise_verdict(twosided.samples, twosided=False) == positive.verdict
    assert len(twosided.samples) == len(positive.samples)
    for both, forward in zip(twosided.samples, positive.samples):
        assert (both.label, both.kind, both.crossed_at, both.certificate) == (
            forward.label, forward.kind, forward.crossed_at, forward.certificate
        )


def test_positive_reading_equals_a_positive_probe(monkeypatch):
    """The forward half of a two-sided report reads as the positive probe's report."""
    probe = brute_force_expansivity
    reports = {}

    def recorded(system, mode, **kwargs):
        report = probe(system, mode, **kwargs)
        reports[kwargs["seed"], kwargs["horizon"], mode] = report
        return report

    # Every brute_pin_reports() system, at both of its horizons.
    monkeypatch.setitem(globals(), "brute_force_expansivity", recorded)
    brute_pin_reports()
    monkeypatch.undo()
    pairs = [(reports[key[:2] + (BruteMode.TWOSIDED,)], report)
             for key, report in reports.items() if key[2] is BruteMode.POSITIVE]
    assert len(pairs) == 2 * len({key[0] for key in reports})
    for s in range(200):
        system = random_dissipative(random.Random(s))
        pairs.append(tuple(
            brute_force_expansivity(system, mode, horizon=40, samples=3, seed=s)
            for mode in (BruteMode.TWOSIDED, BruteMode.POSITIVE)
        ))
    statuses = set()
    for twosided, positive in pairs:
        assert_positive_reading(twosided, positive)
        statuses.add(positive.verdict.status)
    assert statuses == {Status.HOLDS, Status.FAILS, Status.UNDECIDED}


@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("name", sorted(CANONICAL))
def test_brute_force_never_contradicts_the_rules(name, p):
    """Definition-level outcomes must stay consistent with the rate rules."""
    system = CANONICAL[name](p)
    verdicts = classify_report(system).verdicts
    for mode, rule in (
        (BruteMode.POSITIVE, verdicts["positively_expansive"]),
        (BruteMode.TWOSIDED, verdicts["expansive"]),
    ):
        brute = brute_force_expansivity(system, mode, horizon=60, samples=4, seed=1)
        assert not (brute.verdict.holds and rule.fails), (name, p, mode)
        assert not (brute.verdict.fails and rule.holds), (name, p, mode)


# -- pseudotrajectories ------------------------------------------------------------


def test_noisy_trajectory_is_valid():
    op = CompositionOperator(peak(p=2.0))
    pt = make_pseudotrajectory(op, op.normalized_basis((0, None)), 1e-3, 41, seed=7)
    assert 0.0 < pt.max_residual(op) <= 1e-3
    assert len(pt.errors(op)) == 40


def test_trajectory_is_seed_reproducible():
    op = ShiftOperator(split_weights(), 1.0)
    a = make_pseudotrajectory(op, {0: 1.0}, 1e-3, 31, seed=12)
    b = make_pseudotrajectory(op, {0: 1.0}, 1e-3, 31, seed=12)
    assert a.points == b.points
    c = make_pseudotrajectory(op, {0: 1.0}, 1e-3, 31, seed=13)
    assert a.points != c.points


def test_single_injected_error_has_residual_delta():
    op = ShiftOperator(doubling_weights(), 1.0)
    delta = 1e-3
    pt = Pseudotrajectory(start_index=0, points=({}, {0: delta}), delta=delta)
    assert pt.max_residual(op) == pytest.approx(delta, rel=1e-14)


def test_trajectory_input_checks():
    op = ShiftOperator(doubling_weights(), 1.0)
    with pytest.raises(ValueError):
        make_pseudotrajectory(op, {0: 1.0}, 1e-3, 1, seed=0)
    with pytest.raises(ValueError):
        make_pseudotrajectory(op, {0: 1.0}, 0.0, 5, seed=0)
    with pytest.raises(ValueError):
        Pseudotrajectory(start_index=0, points=({},), delta=1e-3)


def test_start_index_centers_the_window():
    op = ShiftOperator(doubling_weights(), 1.0)
    pt = make_pseudotrajectory(op, {0: 1.0}, 1e-3, 201, seed=0)
    assert pt.start_index == -100


# -- splittings ---------------------------------------------------------------------


def test_doubling_splitting_frozen():
    sp = build_splitting(ShiftOperator(doubling_weights(), 1.0))
    assert sp.kind == "expansion"
    assert sp.window == 1
    assert sp.lam_unstable == pytest.approx(0.5)
    assert sp.a_priori_bound(1e-3) == pytest.approx(1e-3, rel=1e-12)
    assert not sp.covers_stable(0)


def test_contraction_splitting_frozen():
    # growth measures induce weights 1/2 everywhere at p = 1
    sp = build_splitting(CompositionOperator(growth(p=1.0)))
    assert sp.kind == "contraction"
    assert sp.lam_stable == pytest.approx(0.5)
    assert sp.a_priori_bound(1e-3) == pytest.approx(2e-3, rel=1e-12)
    assert sp.covers_stable(10 ** 6)


def test_split_shift_splitting_frozen():
    sp = build_splitting(ShiftOperator(split_weights(), 1.0))
    assert sp.kind == "split"
    assert sp.cut == 0
    assert sp.window == 1
    assert sp.a_priori_bound(1e-3) == pytest.approx(3e-3, rel=1e-12)
    assert sp.covers_stable(0) and not sp.covers_stable(1)


def test_peak_splitting_needs_a_wider_window():
    # the weight core crosses 1, so one-step factors cannot certify
    sp = build_splitting(CompositionOperator(peak(p=2.0)))
    assert sp.kind == "split"
    assert sp.cut == 1
    assert sp.window == 4


def test_no_splitting_cases():
    with pytest.raises(NoSplitting):
        build_splitting(CompositionOperator(flat(p=1.0)))
    with pytest.raises(NoSplitting):
        build_splitting(CompositionOperator(valley(p=1.0)))
    atomic = AtomicSystem(p=1.0, components=(Cycle.from_values([1]),))
    with pytest.raises(NoSplitting):
        build_splitting(AtomicOperator(atomic))


# -- shadowing ------------------------------------------------------------------------


def test_error_free_trajectory_shadows_itself():
    op = ShiftOperator(doubling_weights(), 1.0)
    pt = Pseudotrajectory(start_index=-10, points=({},) * 21, delta=1e-3)
    result = shadow(op, pt)
    assert result.eps_achieved == 0.0
    assert result.max_orbit_residual == 0.0
    assert all(z == {} for z in result.z_points)


def test_doubling_shadow_meets_the_closed_form_bound():
    op = ShiftOperator(doubling_weights(), 1.0)
    pt = make_pseudotrajectory(op, {0: 1.0}, 1e-3, 201, seed=0)
    result = shadow(op, pt)
    assert result.bound_a_priori == pytest.approx(1e-3, rel=1e-12)
    assert 0.0 < result.eps_achieved <= result.bound_a_priori * (1 + 1e-12)
    assert result.max_orbit_residual <= 1e-9


def test_shadow_output_is_a_true_orbit():
    op = ShiftOperator(doubling_weights(), 1.0)
    pt = make_pseudotrajectory(op, {0: 1.0}, 1e-3, 101, seed=3)
    result = shadow(op, pt)
    z = result.z_points
    for i in range(len(z) - 1):
        assert op.norm(vec_sub(op.apply(z[i], 1), z[i + 1])) <= 1e-8
    for zi, xi in zip(z, pt.points):
        assert op.norm(vec_sub(zi, xi)) <= result.eps_achieved + 1e-15


def test_split_shadow_within_the_series_bound():
    op = ShiftOperator(split_weights(), 1.0)
    pt = make_pseudotrajectory(op, {0: 1.0}, 1e-3, 201, seed=1)
    result = shadow(op, pt)
    assert result.bound_a_priori == pytest.approx(3e-3, rel=1e-12)
    assert result.eps_achieved <= result.bound_a_priori
    assert result.max_orbit_residual <= 1e-9


def test_composition_shadowing_works_through_cells():
    op = CompositionOperator(cell_system(p=1.0))
    x0 = op.normalized_basis((0, 0))
    pt = make_pseudotrajectory(op, x0, 1e-3, 81, seed=2)
    result = shadow(op, pt)
    assert result.eps_achieved <= result.bound_a_priori * (1 + 1e-12)


def test_peak_composition_shadowing():
    op = CompositionOperator(peak(p=2.0))
    pt = make_pseudotrajectory(op, op.normalized_basis((0, None)), 1e-3, 61, seed=4)
    result = shadow(op, pt)
    assert result.splitting.kind == "split"
    assert result.eps_achieved <= result.bound_a_priori * (1 + 1e-12)
    assert result.max_orbit_residual <= 1e-9


def test_shadow_reuses_a_prebuilt_splitting():
    op = ShiftOperator(doubling_weights(), 1.0)
    sp = build_splitting(op)
    pt = make_pseudotrajectory(op, {0: 1.0}, 1e-3, 51, seed=0)
    result = shadow(op, pt, sp)
    assert result.splitting is sp


def test_shadow_refuses_atomic_unions():
    system = AtomicSystem(p=1.0, components=(Cycle.from_values([1, 2]),))
    op = AtomicOperator(system)
    pt = Pseudotrajectory(start_index=0, points=({(0, 0): 1.0}, {(0, 1): 1.0}), delta=1.0)
    with pytest.raises(NoSplitting):
        shadow(op, pt)


def shadow_case(family, length, seed):
    if family == "peak":
        op = CompositionOperator(peak(p=2.0))
        x0 = op.normalized_basis((0, None))
    else:
        weights = {
            "doubling": doubling_weights(),
            "split": split_weights(),
            "half": WeightSequence(ratio(0, ["1/2"], ["1/2"], ["1/2"])),
        }[family]
        op = ShiftOperator(weights, 1.0)
        x0 = {0: 1.0}
    return op, make_pseudotrajectory(op, x0, 1e-3, length, seed)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "family, length", [("doubling", 61), ("split", 61), ("half", 61), ("peak", 41)]
)
def test_shadow_matches_the_exact_series(family, length, seed):
    op, pt = shadow_case(family, length, seed)
    result = shadow(op, pt)
    exact = shadow_exact_corrections(op, pt, result.splitting)
    exact_max = max(op.norm(d) for d in exact)
    assert exact_max <= result.eps_achieved <= exact_max + 1e-12 * pt.delta
    for z, x, d in zip(result.z_points, pt.points, exact):
        assert op.norm(vec_sub(vec_sub(z, x), d)) <= 1e-15


# Computed by the depth-truncated double series that the two recursions
# replaced; both bound the same exact corrections.
PINNED_EPS = {
    ("doubling", 0): 3.902262703244218e-04,
    ("doubling", 1): 3.7456932151797256e-04,
    ("doubling", 2): 3.4566302041830443e-04,
    ("split", 0): 1.2151693545472463e-03,
    ("split", 1): 1.5316833463416663e-03,
    ("split", 2): 1.251231825791405e-03,
}


@pytest.mark.parametrize("family, seed", sorted(PINNED_EPS))
def test_shadow_eps_is_pinned(family, seed):
    op, pt = shadow_case(family, 201, seed)
    assert shadow(op, pt).eps_achieved == pytest.approx(PINNED_EPS[family, seed], rel=1e-12)


@pytest.mark.parametrize("family, length, seed", [("split", 2001, 1), ("peak", 1001, 4)])
def test_shadow_correction_support_stays_bounded(family, length, seed):
    # Kept exactly, the corrections take in every earlier noise site: 417 and
    # 255 sites here.  Dropping entries below the floor keeps them narrow.
    op, pt = shadow_case(family, length, seed)
    result = shadow(op, pt)
    widest = max(len(vec_sub(z, x)) for z, x in zip(result.z_points, pt.points))
    assert widest <= 128


def test_shadow_survives_subnormal_errors():
    # The drop floor 1e-15 * delta underflows to 0 here, and coefficients reach 0.
    op = ShiftOperator(split_weights(), 1.0)
    pt = make_pseudotrajectory(op, {0: 1.0}, 1e-320, 201, seed=0)
    result = shadow(op, pt)
    assert result.max_orbit_residual <= 1e-9
    assert result.eps_achieved <= result.bound_a_priori


# -- the line-sum core -------------------------------------------------------------


def quarter_cells(p=1.0):
    cells = CellStructure(beta=(F(3, 4), F(1, 4)), wobble_lo=0, wobble=())
    measures = MeasureSequence(F(1), ratio(0, ["1/2"], ["1/2"], ["1/2"]))
    return DissipativeSystem(p=p, measures=measures, cells=cells)


def test_window_key_in_a_celled_vector_is_rejected():
    # Read as a site disjoint from its cells, this norm came out 1.75; it is 0.25.
    op = CompositionOperator(quarter_cells())
    with pytest.raises(ValueError):
        op.norm({(0, None): 1.0, (0, 0): -1.0})
    with pytest.raises(ValueError):
        op.log_term((0, None), 1.0)
    assert op.norm({(0, 1): 1.0}) == pytest.approx(0.25, rel=1e-15)


def test_window_basis_spreads_over_the_cells():
    system = quarter_cells(p=2.0)
    op = CompositionOperator(system)
    vec = op.normalized_basis((0, None))
    assert set(vec) == {(0, 0), (0, 1)}
    assert op.norm(vec) == pytest.approx(1.0, rel=1e-15)
    for n in (-3, 2):
        ratio_mu = system.measures.mu(-n) / system.measures.mu(0)
        assert op.norm(op.apply(vec, n)) ** 2 == pytest.approx(ratio_mu, rel=1e-12)


def test_cycle_is_a_periodic_weight_line():
    measures = [1, 2, 3]
    op = AtomicOperator(AtomicSystem(p=2.0, components=(Cycle.from_values(measures),)))
    assert op._locate((0, 1)) == (0, 1)
    line = op.lines[0]
    for k in range(-7, 8):
        expected = (measures[(k - 1) % 3] / measures[k % 3]) ** 0.5
        assert math.exp(line.log_at(k)) == pytest.approx(expected, rel=1e-15), k
    assert (tail_sign_vs_one(line, "neg"), tail_sign_vs_one(line, "pos")) == (0, 0)
    assert op.basis_sites(50) == [(0, 0), (0, 1), (0, 2)]


def test_atomic_norms_read_the_component_measures():
    system = two_split_lines(p=2.0)
    op = AtomicOperator(system)
    vec = {(0, -2): 0.5, (1, 3): -2.0}
    expected = norm_direct(vec, 2.0, lambda site: system.components[site[0]].log_mu(site[1]))
    assert op.norm(vec) == pytest.approx(expected, rel=1e-12)
    assert op.norm(op.normalized_basis((1, 4))) == pytest.approx(1.0, rel=1e-15)
    assert op.norm_upper_bound() == check_star(system).norm_bound


def two_split_lines(p=1.0):
    # measures 2^-|k| and 3 * 3^-|k|: both weight lines contract left and expand right
    return AtomicSystem(p=p, components=(
        MeasureSequence(F(1), ratio(0, ["1/2"], ["2"], ["1/2"])),
        MeasureSequence(F(3), ratio(0, ["1/3"], ["3"], ["1/3"])),
    ))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_atomic_union_shadows_like_the_exact_series(seed):
    op = AtomicOperator(two_split_lines())
    pt = make_pseudotrajectory(op, op.normalized_basis(op.origin), 1e-3, 41, seed)
    result = shadow(op, pt)
    assert result.splitting.kind == "split"
    error_sites = {site for e in pt.errors(op) for site in e}
    assert {site[0] for site in error_sites} == {0, 1}
    assert {op.site_is_stable(site, result.splitting) for site in error_sites} == {True, False}
    exact = shadow_exact_corrections(op, pt, result.splitting)
    exact_max = max(op.norm(d) for d in exact)
    assert exact_max <= result.eps_achieved <= exact_max + 1e-12 * pt.delta
    for z, x, d in zip(result.z_points, pt.points, exact):
        assert op.norm(vec_sub(vec_sub(z, x), d)) <= 1e-15


def test_atomic_unions_without_a_common_splitting():
    split = two_split_lines().components[0]
    expanding = MeasureSequence(F(1), ratio(0, ["1/2"], ["1/2"], ["1/2"]))
    for components in ((split, expanding), (split, Cycle.from_values([1, 2]))):
        op = AtomicOperator(AtomicSystem(p=1.0, components=components))
        with pytest.raises(NoSplitting):
            build_splitting(op)


def test_eps_carries_the_dropped_mass():
    # One error carried down by 1/2 per step falls below the drop floor
    # near step 51; with x_i = 0 afterwards, z_i - x_i is d_i exactly.
    op = ShiftOperator(WeightSequence(ratio(0, ["1/2"], ["1/2"], ["1/2"])), 1.0)
    pt = Pseudotrajectory(start_index=0, points=({0: 1.0},) + ({},) * 59, delta=0.5)
    result = shadow(op, pt)
    assert result.dropped > 0.0
    widest = max(op.norm(vec_sub(z, x)) for z, x in zip(result.z_points, pt.points))
    dropped_mass = result.splitting.a_priori_bound(result.dropped) + result.dropped
    assert result.eps_achieved == widest + dropped_mass
    assert result.eps_achieved > widest
