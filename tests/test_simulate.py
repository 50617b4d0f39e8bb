"""Orbit arithmetic, brute-force expansivity, and the shadowing engine."""

import functools
import hashlib
import math
import random
from fractions import Fraction
from itertools import accumulate, islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shiftlab.canon import canonical_json
from shiftlab.classify import Status, classify_report, classify_shift
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
    shadow,
    vec_add,
    vec_scale,
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

from _oracles import (
    basis_sites,
    brute_force_reference,
    line_walk_reference,
    covers_stable,
    dict_log_norm_walk,
    max_residual,
    norm_direct,
    pseudotrajectory_stepwise,
    random_sample_reference,
    shadow_exact_corrections,
    shadow_stepwise,
    site_is_stable,
    vec_sub,
)

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
    sites = basis_sites(op, span)
    for site in rng.sample(sites, min(4, len(sites))):
        vec[site] = rng.uniform(-2.0, 2.0)
    return vec


# -- sparse vectors ------------------------------------------------------------


def test_vec_helpers_drop_exact_zeros_keep_key_order_and_copy():
    a = {3: 1.0, 1: 2.0, 7: -0.0, 5: 0.25}
    b = {2: 1.0, 1: -2.0, 0: 1.5, 5: 0.5, 9: 0.0, 4: -0.0}
    a_items, b_items = list(a.items()), list(b.items())
    # 1 cancels; the new sites 9 and 4 add exact zeros; a's own -0.0 at 7 is copied as is.
    added = vec_add(a, b)
    assert list(added.items()) == [(3, 1.0), (7, -0.0), (5, 0.75), (2, 1.0), (0, 1.5)]
    subbed = vec_sub(a, {1: 2.0, 6: 0.5, 3: 0.125})
    assert list(subbed.items()) == [(3, 0.875), (7, -0.0), (5, 0.25), (6, -0.5)]
    # Sums of -0.0 are exact zeros too, and drop their site.
    assert vec_add({1: -0.0, 2: 1.0}, {1: -0.0}) == {2: 1.0}
    assert vec_sub({1: -0.0, 2: 1.0}, {1: 0.0}) == {2: 1.0}
    assert vec_add({}, {1: -0.0}) == {} and vec_sub({}, {1: 0.0}) == {}
    # Each entry is a + (-b), bit for bit.
    x, y = {0: 0.1, 1: 1e-300}, {0: 0.3, 1: -1e-300, 2: 5e-324}
    expected = [0.1 + -0.3, 1e-300 + 1e-300, -5e-324]
    assert [v.hex() for v in vec_sub(x, y).values()] == [v.hex() for v in expected]
    scaled = vec_scale(a, -2.0)
    assert list(scaled.items()) == [(3, -2.0), (1, -4.0), (7, 0.0), (5, -0.5)]
    assert vec_scale(a, 0.0) == {} and vec_scale(a, -0.0) == {}
    for result in (added, subbed, scaled):
        assert result is not a and result is not b
    assert list(a.items()) == a_items and list(b.items()) == b_items


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


def test_shift_forward_factors_fill_a_block_but_refuse_only_what_a_step_reads():
    # w_-5 lies past float range; every other weight is 2.
    weights = WeightSequence(ratio(-5, [10 ** 400], [2], [2]))
    op = ShiftOperator(weights, 1.0)
    assert op.apply({10: 1.0}, 3) == {7: 8.0}
    assert op.apply_add({-4: 1.0}, {-5: 1.0}) == {-5: 3.0}
    forward = op._factors[1]
    assert len(forward) > 4
    assert forward == {k: math.exp(weights.values.log_at(k)) for k in forward}
    with pytest.raises(OverflowError):
        op.apply({-5: 1.0}, 1)


def test_shift_backward_factors_fill_a_block_but_refuse_only_what_a_step_reads():
    # w_-5 lies below float range, so the factor 1 / w_-5 of the backward step
    # from site -6 lies past it; every other weight is 2.
    weights = WeightSequence(ratio(-5, [F(1, 10 ** 400)], [2], [2]))
    op = ShiftOperator(weights, 1.0)
    assert op.apply({-12: 1.0}, -3) == {-9: 0.125}  # each block reaches site -6
    assert op.apply({-5: 1.0}, -1) == {-4: 0.5}
    backward = op._factors[-1]
    assert len(backward) > 4
    assert backward == {k: math.exp(-weights.values.log_at(k + 1)) for k in backward}
    with pytest.raises(OverflowError):
        op.apply({-6: 1.0}, -1)


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
def test_orbit_log_norms_read_the_operator_walk(op, site):
    vec = op.normalized_basis(site)
    assert 0.0 < abs(next(iter(vec.values()))) < 2.2250738585072014e-308
    backward = list(islice(dict_log_norm_walk(op, vec, -1), 40))
    forward = list(islice(dict_log_norm_walk(op, vec, 1), 40))
    expected = [*zip(range(-40, 0), reversed(backward)), (0, op.log_norm(vec)),
                *zip(range(1, 41), forward)]
    # The walk rescales the subnormal coefficient; each norm stays the moved site's log term.
    line, position = op._locate(site)
    for n, value in expected:
        exact = op.log_term(op._key(line, position - n), vec[site]) / op.p
        assert value == pytest.approx(exact, rel=1e-14), n
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
    sample = simulate._random_sample(op, random.Random(0))
    assert [position for _, position, _ in sample] == drawn[: len(sample)]


def sample_walk_operators():
    """A shift, a window map, a celled map and an atomic union with a cycle."""
    line = MeasureSequence(F(2), ratio(-1, ["3", "1/2"], ["1/3"], ["2", "1/2"]))
    return [
        sevens_shift(2.0),
        CompositionOperator(decay(p=2.0)),
        CompositionOperator(cell_system(p=1.0)),
        AtomicOperator(AtomicSystem(p=2.0, components=(Cycle.from_values([1, 2, 3]), line))),
    ]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(op=st.sampled_from(sample_walk_operators()), seed=st.integers(0, 2 ** 32 - 1))
def test_sample_walks_are_the_sums_of_their_basis_walks(op, seed):
    """A random sample walks, through the probe's tables, as its dict walks under apply.

    ||T^n x||^p is the sum over x's sites of ||c e_site||^p times the p-th
    power of the site's basis walk, so each step of ``_sample_walk`` equals
    the log norm of the applied dict to within 1e-12: both ways, at a
    horizon below the sample reach (whose tables anchor at the reach) and
    at one beyond it.
    """
    for horizon in (5, 40):
        rng, reference_rng = random.Random(seed), random.Random(seed)
        for _ in range(3):
            sample = simulate._random_sample(op, rng)
            vec = random_sample_reference(op, reference_rng)
            assert [(line, k) for line, k, _ in sample] == list(map(op._locate, vec))
            assert len(sample) >= 2
            for direction in (1, -1):
                tables = [simulate._WalkTable(line, direction, op.basis_positions(i, horizon),
                                              horizon, False)
                          for i, line in enumerate(op.lines)]
                walked = list(simulate._sample_walk(sample, tables, op.p))
                expected = list(islice(dict_log_norm_walk(op, vec, direction), horizon))
                assert len(walked) == horizon
                gap = max(abs(a - b) for a, b in zip(walked, expected))
                assert gap <= 1e-12, (horizon, direction, gap)


def gated_and_exact_walks(op, seed, horizon):
    """(gated, exact) step lists of three seeded samples of op, each way, on shared tables."""
    rng = random.Random(seed)
    for _ in range(3):
        sample = simulate._random_sample(op, rng)
        for direction in (1, -1):
            tables = [simulate._WalkTable(line, direction, op.basis_positions(i, horizon),
                                          horizon, False)
                      for i, line in enumerate(op.lines)]
            walk = functools.partial(simulate._sample_walk, sample, tables, op.p)
            yield walk(True), walk()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(op=st.sampled_from(sample_walk_operators()), seed=st.integers(0, 2 ** 32 - 1),
       horizon=st.sampled_from([5, 40, 120]))
def test_gated_sample_steps_cross_where_the_exact_ones_do(op, seed, horizon):
    """A gated step reaches the threshold exactly where the exact log-sum-exp does.

    So _scan reads the same crossing from both walks of every sample, both ways.
    """
    threshold = simulate._THRESHOLD
    for gated, exact in gated_and_exact_walks(op, seed, horizon):
        gated, exact = list(gated), list(exact)
        assert len(gated) == len(exact) == horizon
        assert [v >= threshold for v in gated] == [v >= threshold for v in exact]
        assert (simulate._scan(iter(gated), horizon, False)
                == simulate._scan(iter(exact), horizon, False))


def test_gated_sample_steps_take_both_shortcuts_and_the_exact_sum(monkeypatch):
    """The operators' samples reach each branch of the gate: at or above the threshold
    by the largest term alone, clearly below it, and in between (an exact sum)."""
    summed, logsumexp = [0], simulate.logsumexp

    def counted_logsumexp(values):
        summed[0] += 1
        return logsumexp(values)

    monkeypatch.setattr(simulate, "logsumexp", counted_logsumexp)
    threshold, shortcuts, exact_sums = simulate._THRESHOLD, set(), 0
    for op in sample_walk_operators():
        for seed in range(10):
            for gated, exact in gated_and_exact_walks(op, seed, 40):
                exact, before = list(exact), summed[0]
                gated = list(gated)
                exact_sums += summed[0] - before
                for g, e in zip(gated, exact):
                    assert (g >= threshold) == (e >= threshold) and g <= e
                    if g != e:
                        shortcuts.add("above" if g >= threshold else "below")
    assert shortcuts == {"above", "below"} and exact_sums > 0


@pytest.mark.parametrize("term", [math.nan, math.inf, -math.inf])
def test_a_sample_with_a_non_finite_term_walks_exactly(term):
    # Samples at p = 1.7e308 draw infinite terms, and a step adding inf to
    # -inf is NaN; max() passes over a NaN after the first entry, the exact
    # sum does not.  So a sample with a non-finite term is never gated.
    op = sevens_shift(1.0)
    tables = [simulate._WalkTable(op.lines[0], 1, range(-5, 6), 5, False)]
    sample = [(0, 0, 0.0), (0, 1, term)]
    gated = list(simulate._sample_walk(sample, tables, op.p, True))
    assert [v.hex() for v in gated] == [
        v.hex() for v in simulate._sample_walk(sample, tables, op.p)]


def assert_weight_lines_walk_as_the_norm(op):
    """Each basis walk the probe sums from a weight line is the orbit log norm of its unit vector.

    For sites -20..20 of every line and n <= 30 steps each way, the running
    sums of the weight logs, read as _WalkTable reads them, equal
    orbit_log_norms of normalized_basis(site) to within 1e-12.
    """
    positions = range(-20, 21)
    for index, line in enumerate(op.lines):
        for direction in (1, -1):
            table = simulate._WalkTable(line, direction, positions, 30, True)
            for position in positions:
                start = direction * (table.anchor - position)
                sums = list(accumulate(table.read(start, start + 30)))
                vec = op.normalized_basis(op._key(index, position))
                rows = orbit_log_norms(op, vec, *sorted((direction, 30 * direction)))
                walked = [v for _, v in (rows if direction > 0 else reversed(rows))]
                gap = max(abs(a - b) for a, b in zip(sums, walked))
                assert gap <= 1e-12, (index, position, direction, gap)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
@example(seed=18)  # a wobbled cell whose positive tail has period 4
def test_dissipative_weight_lines_walk_as_the_norm(seed):
    assert_weight_lines_walk_as_the_norm(CompositionOperator(random_dissipative(random.Random(seed))))


ATOM_MEASURES = st.sampled_from(["1/3", "1/2", 1, 2, 3, 0.75])


@st.composite
def atomic_unions(draw):
    """Unions of one to three components: cycles of one to three atoms and measured lines."""
    components = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            components.append(Cycle.from_values(draw(st.lists(ATOM_MEASURES, min_size=1,
                                                              max_size=3))))
        else:
            parts = [draw(st.lists(ATOM_MEASURES, min_size=1, max_size=3)) for _ in range(3)]
            components.append(MeasureSequence.from_values(
                draw(ATOM_MEASURES), ratio(draw(st.integers(-3, 3)), *parts)))
    return AtomicSystem(p=draw(st.sampled_from([1.0, 2.0, 3.0])), components=tuple(components))


@settings(max_examples=40, deadline=None)
@given(system=atomic_unions())
def test_atomic_weight_lines_walk_as_the_norm(system):
    assert_weight_lines_walk_as_the_norm(AtomicOperator(system))


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
    table_walk = simulate._table_walk

    def counted_table_walk(table, position):
        if table.direction > 0 and position < table.line.core_lo:
            left_forward.append(position)
        return table_walk(table, position)

    sample_crossings: list[int | None] = []
    scan = simulate._scan

    def recording_scan(log_norms, horizon, want_curve):  # only random samples are scanned
        walk = scan(log_norms, horizon, want_curve)
        sample_crossings.append(walk.crossed_at)
        return walk

    summed = [0]
    logsumexp = simulate.logsumexp

    def counted_logsumexp(values):
        summed[0] += 1
        return logsumexp(values)

    monkeypatch.setattr(simulate, "_table_walk", counted_table_walk)
    monkeypatch.setattr(simulate, "_scan", recording_scan)
    monkeypatch.setattr(simulate, "logsumexp", counted_logsumexp)
    horizon = 40
    report = brute_force_expansivity(
        weights, BruteMode.POSITIVE, horizon=horizon, samples=5, seed=0, p=1.0
    )
    assert report.verdict.holds
    # 40 sites lie left of the core; one walk per phase of the period serves them all.
    assert 0 < len(left_forward) <= len(line.neg_period)
    assert len(sample_crossings) == 5
    # Basis walks sum no log-sum-exp; each sample sums one for its norm and one per
    # step of its walk, and none after its crossing.
    assert summed[0] == sum(1 + (n if n is not None else horizon) for n in sample_crossings)


def walk_bits(walk):
    """A basis walk's fields, every float as float.hex."""
    cert = walk.certificate
    return (walk.crossed_at, cert and (cert.kind, cert.period, cert.sup_norm.hex()),
            [value.hex() for value in walk.log_norms])


# Values near 1 make slow walks, whose supremum can lie past the horizon.
WALK_VALUES = st.one_of(st.sampled_from(["1/2", "2", "1", "3/4", "4/3", "101/100", "99/100"]),
                        st.floats(0.25, 4.0), st.floats(0.98, 1.02))


@settings(max_examples=40, deadline=None)
@given(core_lo=st.integers(-3000, 3000),
       core=st.lists(WALK_VALUES, min_size=1, max_size=4),
       neg=st.lists(WALK_VALUES, min_size=1, max_size=3),
       pos=st.lists(WALK_VALUES, min_size=1, max_size=3),
       exp=st.sampled_from([1.0, -0.5, 2.0, -1 / 3]),
       positions=st.lists(st.integers(-200, 200), min_size=1, max_size=6))
def test_table_walks_equal_the_chain_walks(core_lo, core, neg, pos, exp, positions):
    # Exact and float lines, cores up to 3000 sites out (so walks grow the
    # table and certificate windows reach toward the read cap), each horizon
    # and curve setting; the probe's site order and the drawn one.
    line = ratio(core_lo, core, neg, pos).elementwise_pow(exp)
    for horizon in (5, 40, 200):
        span = range(-horizon, horizon + 1)
        sites = [span[0], *(q for q in positions if q in span), span[-1]]
        for direction in (1, -1):
            for want_curve in (False, True):
                table = simulate._WalkTable(line, direction, span, horizon, want_curve)
                for q in sites:
                    expected = line_walk_reference(line, q, direction, horizon, want_curve)
                    assert walk_bits(simulate._table_walk(table, q)) == walk_bits(expected), (
                        q, direction, horizon, want_curve)


@pytest.mark.parametrize("direction", [1, -1])
def test_table_walks_certify_up_to_the_read_cap(direction):
    # Site 0's walk runs flat to a core reach - 1 steps out, then decays:
    # n_enter + period is reach, so it certifies exactly up to the cap.
    cap = simulate._CERT_READ_CAP
    for reach in (cap - 1, cap, cap + 1):
        line = (ratio(3 - reach, ["1/2"], ["1/2"], ["1"]) if direction > 0
                else ratio(reach - 2, ["2"], ["1"], ["2"]))
        table = simulate._WalkTable(line, direction, range(-40, 41), 40, False)
        walk = simulate._table_walk(table, 0)
        assert walk_bits(walk) == walk_bits(line_walk_reference(line, 0, direction, 40, False))
        assert (walk.certificate is not None) == (reach <= cap), reach
        assert walk.crossed_at is None
        # The first read took the 40 values of the horizon; the certificate read on.
        assert len(table.increments) == 40 + (reach if reach <= cap else 40), reach


def test_a_walk_a_millionth_below_norm_two_does_not_cross():
    # Odd sites walk a * a once: about 4.  Every other walk peaks at
    # a = 2 - 2e-6, whose log lies 1e-6 below log 2: inside the crossing
    # tolerance of 1e-12 it certifies, never crosses.
    a = F(2) - F(2, 10 ** 6)
    weights = WeightSequence(ratio(0, [a], [a, 1 / a], [a, 1 / a]))
    report = brute_force_expansivity(weights, BruteMode.POSITIVE, horizon=10, samples=0, p=1.0)
    assert len(report.samples) == 21 and report.verdict.fails
    crossed = [o.label for o in report.samples if o.crossed_at is not None]
    assert crossed == ["e[1]", "e[3]", "e[5]", "e[7]", "e[9]"]
    sups = {o.certificate.sup_norm for o in report.samples if o.crossed_at is None}
    assert sorted(sups) == [1.0, pytest.approx(float(a), rel=1e-12)]


def test_a_certificate_that_reads_96_values_stays_under_the_read_cap(monkeypatch):
    # Every weight is 1/2, the one-entry core 98 sites left of site 0: the
    # walk of e[-5] enters its period after 95 steps, so its certificate
    # reads 96 values.
    reads: list[int] = []  # increments read, per basis walk
    table_walk, read = simulate._table_walk, simulate._WalkTable.read

    def counted_table_walk(table, position):
        reads.append(0)
        return table_walk(table, position)

    def counted_read(self, start, stop):
        reads[-1] += stop - start
        return read(self, start, stop)

    monkeypatch.setattr(simulate, "_table_walk", counted_table_walk)
    monkeypatch.setattr(simulate._WalkTable, "read", counted_read)
    weights = WeightSequence(ratio(-98, ["1/2"], ["1/2"], ["1/2"]))
    verdict = brute_force_expansivity(weights, BruteMode.POSITIVE, horizon=5, samples=0,
                                      p=1.0).verdict
    assert verdict.fails
    assert verdict.witness == {
        "sample": "e[-5]", "certificate": {"kind": "decaying", "period": 1, "sup_norm": 1.0}}
    assert reads[0] == 96


def far_core(measure_ratio):
    """measure_ratio everywhere, with the one-entry core a million sites right of site 0."""
    seq = ratio(10 ** 6, [measure_ratio], [measure_ratio], [measure_ratio])
    return DissipativeSystem(p=1.0, measures=MeasureSequence.from_values(1, seq))


def test_far_core_certificates_read_at_most_the_cap(monkeypatch):
    reads: list[int] = []  # increments read, per basis walk
    table_walk, read = simulate._table_walk, simulate._WalkTable.read

    def counted_table_walk(table, position):
        reads.append(0)
        return table_walk(table, position)

    def counted_read(self, start, stop):
        reads[-1] += stop - start
        return read(self, start, stop)

    monkeypatch.setattr(simulate, "_table_walk", counted_table_walk)
    monkeypatch.setattr(simulate._WalkTable, "read", counted_read)
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
    for name in ("decay", "near decay"):
        assert probes[name].positive_verdict.holds and probes[name].verdict.holds
    # flat's readings rest on certificates: the forward ones still certify, and the
    # two-sided reading, short of its backward certificates, turns Undecided, not wrong.
    assert probes["flat"].positive_verdict.fails
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


def brute_pin_probes():
    """(system, p) of every brute_pin_reports() probe; probe i runs with seed i."""
    line = MeasureSequence(F(2), ratio(-1, ["3", "1/2"], ["1/3"], ["2", "1/2"]))
    systems = [CANONICAL[name](p) for name in sorted(CANONICAL) for p in (1.0, 2.0)]
    systems += [cell_system(1.0), cell_system(2.0)]
    systems += [AtomicSystem(p=p, components=(Cycle.from_values([1, 2, 3]), line))
                for p in (1.0, 2.0)]
    shifts = [sevens_shift(p).weights for p in (1.0, 2.0)] + [split_weights(), doubling_weights()]
    return [(system, None) for system in systems] + [(w, 1.0) for w in shifts]


def brute_pin_reports():
    reports = []
    for i, (system, p) in enumerate(brute_pin_probes()):
        for mode in BruteMode:
            for horizon in (5, 40):
                report = brute_force_expansivity(
                    system, mode, horizon=horizon, samples=3, seed=i, p=p
                )
                reports.append({
                    "mode": mode.value,
                    "horizon": horizon,
                    "verdict": report.verdict.to_dict(),
                    "samples": [s.as_dict() for s in report.samples],
                })
    return reports


def test_brute_reports_are_pinned():
    text = canonical_json(brute_pin_reports())
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == BRUTE_PIN_DIGEST


def assert_positive_reading(twosided, positive):
    assert twosided.mode is BruteMode.TWOSIDED and positive.mode is BruteMode.POSITIVE
    assert twosided.positive_verdict == positive.verdict and positive.positive_verdict is None
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


def assert_reports_equal_the_reference(probes):
    for system, p, seed in probes:
        for mode in BruteMode:
            for horizon in (5, 40):
                kwargs = dict(horizon=horizon, samples=3, seed=seed, p=p)
                assert (brute_force_expansivity(system, mode, **kwargs)
                        == brute_force_reference(system, mode, **kwargs)), (seed, mode, horizon)


def test_brute_pin_probes_equal_the_wholly_in_tail_reference():
    """Sharing walks by what they read changes no field of any pinned report."""
    assert_reports_equal_the_reference(
        [(system, p, i) for i, (system, p) in enumerate(brute_pin_probes())])


def test_random_probes_equal_the_wholly_in_tail_reference():
    assert_reports_equal_the_reference(
        [(random_dissipative(random.Random(s)), None, s) for s in range(200)])


def assert_settled_reports_agree(monkeypatch, probes):
    """A settled probe reads the full report's verdicts, witnesses included, and keeps no outcome.

    It walks no more than the full probe: no more forward or backward basis
    walks (counted by ``_table_walk``) and no more sample scans (``_scan``).
    Returns how many settled probes walked less, how many of those stopped
    at the end of the basis sites without a Fails (no sample scanned), and
    how many two-sided ones took every forward basis walk of the full probe
    but fewer backward ones: the backward walks that could not move a reading.
    """
    walks = {1: 0, -1: 0, "scans": 0}
    table_walk, scan = simulate._table_walk, simulate._scan

    def counted_table_walk(table, position):
        walks[table.direction] += 1
        return table_walk(table, position)

    def counted_scan(*args):  # only random samples are scanned
        walks["scans"] += 1
        return scan(*args)

    def counted_probe(system, mode, **kwargs):
        walks.update(dict.fromkeys(walks, 0))
        return brute_force_expansivity(system, mode, **kwargs), dict(walks)

    monkeypatch.setattr(simulate, "_table_walk", counted_table_walk)
    monkeypatch.setattr(simulate, "_scan", counted_scan)
    short = at_basis_end = skipped = 0
    for system, p, seed in probes:
        for mode in BruteMode:
            for horizon in (5, 40):
                kwargs = dict(horizon=horizon, samples=3, seed=seed, p=p)
                full, full_walks = counted_probe(system, mode, **kwargs)
                settled, settled_walks = counted_probe(system, mode, until_settled=True, **kwargs)
                key = (seed, mode, horizon)
                assert settled.verdict == full.verdict, key
                assert settled.positive_verdict == full.positive_verdict, key
                assert settled.samples == (), key
                assert all(settled_walks[k] <= full_walks[k] for k in walks), (
                    key, settled_walks, full_walks)
                if settled_walks != full_walks:
                    short += 1
                    at_basis_end += (settled_walks["scans"] == 0 < full_walks["scans"]
                                     and not full.verdict.fails)
                skipped += (settled_walks[1] == full_walks[1]
                            and settled_walks[-1] < full_walks[-1])
    monkeypatch.undo()
    return short, at_basis_end, skipped


def test_settled_pin_probes_read_the_full_verdicts(monkeypatch):
    counts = assert_settled_reports_agree(
        monkeypatch, [(system, p, i) for i, (system, p) in enumerate(brute_pin_probes())])
    assert all(counts), counts


def test_settled_random_probes_read_the_full_verdicts(monkeypatch):
    counts = assert_settled_reports_agree(
        monkeypatch, [(random_dissipative(random.Random(s)), None, s) for s in range(200)])
    assert all(counts), counts


def test_a_settled_probe_stops_at_its_witness(monkeypatch):
    """flat Fails two-sidedly at a basis site; slow drift is Undecided by the end of its sites.

    So the settled flat probe walks fewer basis sites, the settled slow one
    all of them, and neither walks a random sample.
    """
    walks, sampled = [0], [0]
    table_walk, scan = simulate._table_walk, simulate._scan

    def counted_table_walk(*args):
        walks[0] += 1
        return table_walk(*args)

    def counted_scan(*args):  # only random samples are scanned
        sampled[0] += 1
        return scan(*args)

    monkeypatch.setattr(simulate, "_table_walk", counted_table_walk)
    monkeypatch.setattr(simulate, "_scan", counted_scan)
    slow = WeightSequence(ratio(0, [2], [2, "100/199"], [2, "100/199"]))
    counts = {}
    for system, mode, p, status in ((flat(p=2.0), BruteMode.TWOSIDED, None, Status.FAILS),
                                    (slow, BruteMode.POSITIVE, 1.0, Status.UNDECIDED)):
        for settled in (False, True):
            walks[0] = sampled[0] = 0
            report = brute_force_expansivity(system, mode, horizon=40, samples=3, seed=0, p=p,
                                             until_settled=settled)
            assert report.verdict.status is status
            counts[status, settled] = walks[0], sampled[0]
    assert all(basis_walks > 0 for basis_walks, _ in counts.values()), counts
    assert counts[Status.FAILS, True][0] < counts[Status.FAILS, False][0], counts
    assert counts[Status.UNDECIDED, True][0] == counts[Status.UNDECIDED, False][0], counts
    assert all((sample_walks == 0) == settled
               for (_, settled), (_, sample_walks) in counts.items()), counts


def test_a_settled_probe_draws_no_sample_when_it_settles_at_the_basis_sites(monkeypatch):
    # flat Fails two-sidedly at a basis site; slow drift is Undecided both ways
    # by the end of its basis sites.  Only the full reports draw their samples.
    drawn = [0]
    random_sample = simulate._random_sample

    def counted_random_sample(op, rng):
        drawn[0] += 1
        return random_sample(op, rng)

    monkeypatch.setattr(simulate, "_random_sample", counted_random_sample)
    slow = WeightSequence(ratio(0, [2], [2, "100/199"], [2, "100/199"]))
    for system, p, status in ((flat(p=2.0), None, Status.FAILS),
                              (slow, 1.0, Status.UNDECIDED)):
        for settled, draws in ((True, 0), (False, 3)):
            drawn[0] = 0
            report = brute_force_expansivity(system, BruteMode.TWOSIDED, horizon=40, samples=3,
                                             seed=0, p=p, until_settled=settled)
            assert report.verdict.status is status
            assert report.positive_verdict.status is status
            assert drawn[0] == draws, (status, settled)


def test_walks_that_never_cross_are_not_shared_from_a_finite_room():
    # Forward walks from right of the core read 1/2 for their room, then 48.
    # The one from site 2 (room 5) peaks at 48/2^5 = 1.5 after the core; the
    # one from site 3 (room 6) at 48/2^6 < 1, so its certificate reads 1.0.
    # Both read the same first 5 increments, and neither crosses.
    weights = WeightSequence(ratio(-3, ["48"], ["1/2"], ["1/2"]))
    report = brute_force_expansivity(weights, BruteMode.POSITIVE, horizon=5, samples=0, p=1.0)
    certificates = {o.label: o.certificate for o in report.samples}
    assert certificates["e[2]"].sup_norm == pytest.approx(1.5)
    assert certificates["e[3]"].sup_norm == pytest.approx(1.0)
    assert_reports_equal_the_reference([(weights, 1.0, 0)])


def test_walks_into_the_core_are_shared_per_phase(monkeypatch):
    # Expanding positive tail of period 2 and contracting negative tail of
    # period 2: a forward walk from right of the core and a backward walk
    # from left of it both cross at their first step, inside their tail.
    weights = WeightSequence(ratio(0, ["1/3"], ["1/2", "1/3"], ["3", "2"]))
    line = weights.values
    into_core: list[tuple[int, int]] = []
    table_walk = simulate._table_walk

    def counted_table_walk(table, position):
        direction, line_ = table.direction, table.line
        if (direction > 0 and position > line_.core_hi
                or direction < 0 and position + 1 < line_.core_lo):
            into_core.append((direction, position))
        return table_walk(table, position)

    monkeypatch.setattr(simulate, "_table_walk", counted_table_walk)
    for mode in (BruteMode.POSITIVE, BruteMode.TWOSIDED):
        into_core.clear()
        brute_force_expansivity(weights, mode, horizon=40, samples=0, p=1.0)
        forward = [position for d, position in into_core if d > 0]
        backward = [position for d, position in into_core if d < 0]
        # 40 sites lie right of the core; one walk per phase of the tail serves them all.
        assert 0 < len(forward) <= len(line.pos_period), forward
        if mode.twosided:
            assert 0 < len(backward) <= len(line.neg_period), backward
        else:
            assert not backward, backward


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
    assert 0.0 < max_residual(op, pt) <= 1e-3
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
    assert max_residual(op, pt) == pytest.approx(delta, rel=1e-14)


def test_trajectory_input_checks():
    op = ShiftOperator(doubling_weights(), 1.0)
    with pytest.raises(ValueError):
        make_pseudotrajectory(op, {0: 1.0}, 1e-3, 1, seed=0)
    with pytest.raises(ValueError):
        make_pseudotrajectory(op, {0: 1.0}, 0.0, 5, seed=0)
    with pytest.raises(ValueError):
        Pseudotrajectory(start_index=0, points=({},), delta=1e-3)


def test_non_finite_pseudotrajectory_is_refused():
    # Both used to reach shadow, which returned them as verified orbits with
    # residual and eps 0.0 (the inf one with z_points[5] == {0: nan}).
    for i, value in ((5, math.inf), (0, math.nan)):
        points = [{}] * 11
        points[i] = {0: value}
        with pytest.raises(ValueError, match="finite"):
            Pseudotrajectory(start_index=-5, points=tuple(points), delta=1e-3)


def test_non_finite_pseudotrajectory_is_a_float_range_error():
    # The CLI exits 2 on an OverflowError; callers that catch ValueError still catch it.
    with pytest.raises(OverflowError, match="finite"):
        Pseudotrajectory(start_index=0, points=({0: math.inf}, {}), delta=1e-3)


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
    assert not covers_stable(sp, 0)


def test_contraction_splitting_frozen():
    # growth measures induce weights 1/2 everywhere at p = 1
    sp = build_splitting(CompositionOperator(growth(p=1.0)))
    assert sp.kind == "contraction"
    assert sp.lam_stable == pytest.approx(0.5)
    assert sp.a_priori_bound(1e-3) == pytest.approx(2e-3, rel=1e-12)
    assert covers_stable(sp, 10 ** 6)


def test_split_shift_splitting_frozen():
    sp = build_splitting(ShiftOperator(split_weights(), 1.0))
    assert sp.kind == "split"
    assert sp.cut == 0
    assert sp.window == 1
    assert sp.a_priori_bound(1e-3) == pytest.approx(3e-3, rel=1e-12)
    assert covers_stable(sp, 0) and not covers_stable(sp, 1)


def test_peak_splitting_needs_a_wider_window():
    # the weight core crosses 1, so one-step factors cannot certify
    sp = build_splitting(CompositionOperator(peak(p=2.0)))
    assert sp.kind == "split"
    assert sp.cut == 1
    assert sp.window == 4


def test_a_long_expanding_core_needs_a_window_of_128():
    # Forty steps of 2 in the core: a contracting window must outlast them at 1/2.
    weights = WeightSequence(ratio(0, [2] * 40, ["1/2"], ["1/2"]))
    sp = build_splitting(ShiftOperator(weights, 1.0))
    assert (sp.kind, sp.window) == ("contraction", 128)


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


def test_orbit_relation_gate_scales_with_errors_above_one():
    """Shadowing is linear: the residual grows with delta, and past 1 the gate grows with it.

    At delta 1e7 the residual is about 2.8e-8, which the absolute 1e-9 gate
    refused as a missing splitting, at the same residual/delta as delta 1e-3.
    """
    op = ShiftOperator(split_weights(), 1.0)
    ratios = []
    for delta in (1e-3, 1.0, 1e5, 1e7, 1e12):
        result = shadow(op, make_pseudotrajectory(op, {0: 1.0}, delta, 201, seed=1))
        ratios.append(result.max_orbit_residual / delta)
        assert result.eps_achieved <= result.bound_a_priori, delta
    assert ratios == pytest.approx([ratios[0]] * len(ratios), rel=1e-6)
    assert result.max_orbit_residual > 1e-9
    # A backward step that is not T's inverse still fails the relation at every scale.
    for delta in (1e-3, 1e7):
        op = ShiftOperator(split_weights(), 1.0)
        pt = make_pseudotrajectory(op, {0: 1.0}, delta, 201, seed=1)
        op._factors[-1].update(dict.fromkeys(range(-300, 300), 1.0))
        with pytest.raises(NoSplitting, match="orbit relation failed"):
            shadow(op, pt)


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


def shadow_grid_ops():
    """(label, op): shift families at p = 1 and 2, a peak and a celled composition
    map, and an atomic union of two split lines."""
    half = WeightSequence(ratio(0, ["1/2"], ["1/2"], ["1/2"]))
    ops = [(f"{name} p={p:g}", ShiftOperator(weights, p))
           for name, weights in (("doubling", doubling_weights()), ("split", split_weights()),
                                 ("half", half))
           for p in (1.0, 2.0)]
    return ops + [("peak p=2", CompositionOperator(peak(p=2.0))),
                  ("cells p=1", CompositionOperator(cell_system(p=1.0))),
                  ("two split lines p=1", AtomicOperator(two_split_lines()))]


def shadow_grid():
    """(label, op, pseudotrajectory, splitting) over the families the fused passes must match.

    shadow_grid_ops, each at a normal and a subnormal delta, four lengths
    and five seeds; then the error-free trajectory.
    """
    cases = []
    for name, op in shadow_grid_ops():
        splitting = build_splitting(op)
        x0 = op.normalized_basis(op.origin)
        for delta in (1e-3, 1e-320):
            for length in (2, 3, 41, 201):
                for seed in range(5):
                    pt = make_pseudotrajectory(op, x0, delta, length, seed)
                    label = f"{name} delta={delta:g} n={length} seed={seed}"
                    cases.append((label, op, pt, splitting))
    error_free = Pseudotrajectory(start_index=-10, points=({},) * 21, delta=1e-3)
    cases.append(("error-free", ShiftOperator(doubling_weights(), 1.0), error_free, None))
    return cases


def shadow_or_raise(run, op, pt, splitting):
    """A shadow result, or the (type, message) of what it raised."""
    try:
        return run(op, pt, splitting)
    except Exception as exc:  # both sides must raise alike
        return type(exc), str(exc)


@functools.cache
def shadow_grid_results():
    """(label, op, pt, splitting, fused result or what it raised) per grid case, computed once."""
    return [(label, op, pt, splitting, shadow_or_raise(shadow, op, pt, splitting))
            for label, op, pt, splitting in shadow_grid()]


def test_shadow_is_bit_identical_to_the_stepwise_recursions():
    for label, op, pt, splitting, fused in shadow_grid_results():
        stepwise = shadow_or_raise(shadow_stepwise, op, pt, splitting)
        if isinstance(stepwise, tuple) or isinstance(fused, tuple):
            assert fused == stepwise, label
            continue
        assert fused.eps_achieved == stepwise.eps_achieved, label
        assert fused.dropped == stepwise.dropped, label
        assert fused.max_orbit_residual == stepwise.max_orbit_residual, label
        assert fused.bound_a_priori == stepwise.bound_a_priori, label
        assert fused.start_index == stepwise.start_index, label
        assert len(fused.z_points) == len(stepwise.z_points), label
        for i, (z, expected) in enumerate(zip(fused.z_points, stepwise.z_points)):
            assert list(z.items()) == list(expected.items()), (label, i)


# sha256 of canonical_json over shadow_pin_records(), recorded on the
# step-by-step recursions before the fused passes replaced them: every
# float as float.hex and every site as str(site), so a last-bit change in
# eps, the drops, the residual, the bound or any z coefficient shows.
SHADOW_PIN_DIGEST = "80867d43fae611ce8d016d9dcf0dd16af07f7bc1cb0d6a8330bce0c9278c6302"


def shadow_pin_records():
    records = []
    for label, _, _, _, result in shadow_grid_results():
        if isinstance(result, tuple):
            records.append({"case": label, "raised": [result[0].__name__, result[1]]})
            continue
        records.append({
            "case": label,
            "start": result.start_index,
            "eps": result.eps_achieved.hex(),
            "dropped": result.dropped.hex(),
            "residual": result.max_orbit_residual.hex(),
            "bound": result.bound_a_priori.hex(),
            "z": [[[str(site), c.hex()] for site, c in z.items()] for z in result.z_points],
        })
    return records


def test_shadow_results_are_pinned():
    text = canonical_json(shadow_pin_records())
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == SHADOW_PIN_DIGEST


def extreme_shadow_cases():
    """(label, op, pseudotrajectory, splitting) where the bounded maxima meet their edge cases.

    Kept apart from shadow_grid, whose digest is pinned.  p = 3 shifts with
    errors near 1e300 (|c|^3 overflows), near 1e100 (the l^p sum overflows
    in fsum), about 1e-97 (the sum straddles 1e-290) and near 1e-300 (|c|^3
    underflows); then pseudotrajectories whose errors all tie in norm.
    """
    half = WeightSequence(ratio(0, ["1/2"], ["1/2"], ["1/2"]))
    cases = []
    for name, weights in (("doubling", doubling_weights()), ("split", split_weights()),
                          ("half", half)):
        op = ShiftOperator(weights, 3.0)
        splitting = build_splitting(op)
        for delta in (1e300, 1e100, 1e-3, 3e-97, 1e-97, 1e-300):
            for seed in range(3):
                pt = make_pseudotrajectory(op, {0: 1.0}, delta, 41, seed)
                cases.append((f"{name} p=3 delta={delta:g} seed={seed}", op, pt, splitting))
    for p in (1.0, 3.0):
        op = ShiftOperator(half, p)
        # T x_i - x_(i+1) = (-1)^i (0.5e-3 e_-1 + 1e-3 e_0): every error has the same norm.
        points = tuple({0: (-1.0) ** i * 1e-3} for i in range(41))
        pt = Pseudotrajectory(start_index=-20, points=points, delta=1e-2)
        cases.append((f"tied p={p:g}", op, pt, build_splitting(op)))
    return cases


def test_shadow_matches_the_stepwise_recursions_at_the_bound_edges():
    for label, op, pt, splitting in extreme_shadow_cases():
        fused = shadow_or_raise(shadow, op, pt, splitting)
        stepwise = shadow_or_raise(shadow_stepwise, op, pt, splitting)
        if isinstance(stepwise, tuple) or isinstance(fused, tuple):
            assert fused == stepwise, label
            continue
        for field in ("eps_achieved", "dropped", "max_orbit_residual", "bound_a_priori"):
            assert getattr(fused, field).hex() == getattr(stepwise, field).hex(), (label, field)
        for z, expected in zip(fused.z_points, stepwise.z_points, strict=True):
            assert [(s, c.hex()) for s, c in z.items()] == [(s, c.hex()) for s, c in expected.items()]


def test_shadow_takes_exact_log_norms_only_where_they_can_set_a_maximum(monkeypatch):
    calls = [0]
    log_norm = simulate.LineSumOperator.log_norm

    def counted(self, vec):
        calls[0] += 1
        return log_norm(self, vec)

    monkeypatch.setattr(simulate.LineSumOperator, "log_norm", counted)
    op, pt = shadow_case("split", 201, 1)
    result = shadow(op, pt, build_splitting(op))
    # Taken exactly, the largest error, ||d_i|| and residual need 200 + 201 + 200.
    assert calls[0] < len(pt.points), calls[0]
    assert result.eps_achieved == pytest.approx(PINNED_EPS["split", 1], rel=1e-12)


# Coefficients where the zero rule and float edges meet: signed zeros,
# subnormals, infinities, and ordinary and extreme finite values.
EDGE_COEFFS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, math.inf, -math.inf,
                     1.0, -1.0, 0.5, 1e300, -1e-300]),
    st.floats(allow_nan=False),
)
SHIFT_VECS = st.dictionaries(st.integers(-5, 5), EDGE_COEFFS, max_size=8)


def hex_items(vec):
    return [(site, c.hex()) for site, c in vec.items()]


@settings(max_examples=300, deadline=None)
@given(vecs=st.lists(st.one_of(st.just({}), SHIFT_VECS), max_size=6),
       start=st.one_of(st.none(), st.sampled_from([-math.inf, math.inf, math.nan, 0.0]),
                       st.floats()),
       measured=st.booleans())
def test_max_log_norm_is_max_and_reads_no_empty_vector(vecs, start, measured):
    op = CompositionOperator(decay(p=2.0)) if measured else sevens_shift(1.0)
    if measured:
        vecs = [{(k, None): c for k, c in vec.items()} for vec in vecs]
    log_norm, read = op.log_norm, []
    expected = (max(map(log_norm, vecs), default=-math.inf) if start is None
                else max([start, *map(log_norm, vecs)]))
    op.log_norm = lambda vec: read.append(vec) or log_norm(vec)
    assert simulate._max_log_norm(op, vecs, start).hex() == expected.hex()
    assert all(read), "an empty vector's log norm was taken"


@settings(max_examples=300, deadline=None)
@given(vec=SHIFT_VECS, other=SHIFT_VECS, negate=st.booleans(),
       cancel=st.lists(st.integers(-6, 4), max_size=4))
def test_shift_apply_add_is_apply_then_add_into(vec, other, negate, cancel):
    op = sevens_shift(1.0)
    # T vec by hand: site k moves to k - 1, scaled by w_k = exp(log w_k).
    moved = {k - 1: c * math.exp(op.weights.values.log_at(k)) for k, c in vec.items()}
    assert hex_items(op.apply(vec, 1)) == hex_items(moved)
    for site in cancel:  # exact cancellations of some moved entries
        if site in moved:
            other[site] = moved[site] if negate else -moved[site]
    expected = simulate._add_into(op.apply(vec, 1), other, negate)
    assert hex_items(op.apply_add(vec, other, negate)) == hex_items(expected)


@settings(max_examples=300, deadline=None)
@given(vec=SHIFT_VECS, other=SHIFT_VECS, cancel=st.lists(st.integers(-6, 6), max_size=4))
def test_shift_apply_back_sum_is_the_base_composition(vec, other, cancel):
    op = sevens_shift(1.0)
    for site in cancel:  # exact cancellations inside vec + other
        if site in vec:
            other[site] = -vec[site]
    before = (hex_items(vec), hex_items(other))
    expected = simulate.LineSumOperator.apply_back_sum(op, dict(vec), other)
    assert hex_items(op.apply_back_sum(vec, other)) == hex_items(expected)
    assert (hex_items(vec), hex_items(other)) == before  # the override adds in no input


@settings(max_examples=300, deadline=None)
@given(acc=SHIFT_VECS, vec=SHIFT_VECS, other=SHIFT_VECS,
       cancel=st.lists(st.integers(-6, 4), max_size=4),
       clear=st.lists(st.integers(-6, 4), max_size=4))
def test_shift_add_residual_is_the_base_composition(acc, vec, other, cancel, clear):
    op = sevens_shift(1.0)
    moved = op.apply(vec, 1)
    for site in cancel:  # T vec - other cancels exactly here
        if site in moved:
            other[site] = moved[site]
    residual = op.apply_add(vec, other, negate=True)
    for site in clear:  # acc + residual cancels exactly here
        if site in residual:
            acc[site] = -residual[site]
    expected = simulate.LineSumOperator.add_residual(op, dict(acc), vec, other)
    out = dict(acc)
    assert op.add_residual(out, vec, other) is out  # in place
    assert hex_items(out) == hex_items(expected)


@settings(max_examples=300, deadline=None)
@given(vec=SHIFT_VECS, site=st.integers(-6, 6), magnitude=EDGE_COEFFS, cancel=st.booleans())
def test_shift_add_basis_is_the_base_composition(vec, site, magnitude, cancel):
    op = sevens_shift(1.0)
    if cancel and site in vec:  # vec + magnitude e_site cancels exactly at site
        magnitude = -vec[site]
    before = hex_items(vec)
    expected = simulate.LineSumOperator.add_basis(op, vec, site, magnitude)
    assert hex_items(op.add_basis(vec, site, magnitude)) == hex_items(expected)
    assert hex_items(vec) == before


def test_pseudotrajectories_are_bit_identical_to_the_stepwise_draws():
    # At delta 5e-324 and ||T|| >= 1 the noise magnitude rounds to a signed
    # zero, which adds nothing; below, it is the least subnormal or zero.
    for name, op in shadow_grid_ops():
        x0 = op.normalized_basis(op.origin)
        for delta in (1e-3, 1e-320, 5e-324):
            for length in (2, 3, 41, 201):
                for seed in range(5):
                    label = f"{name} delta={delta:g} n={length} seed={seed}"
                    pt = make_pseudotrajectory(op, x0, delta, length, seed)
                    expected = pseudotrajectory_stepwise(op, x0, delta, length, seed)
                    assert (pt.start_index, pt.delta) == (expected.start_index, delta), label
                    assert [hex_items(x) for x in pt.points] == [
                        hex_items(x) for x in expected.points], label
                    if delta == 5e-324 and op.norm_upper_bound() >= 1:
                        assert pt.points[0] == x0, label


def test_z_points_are_built_on_first_read_and_kept():
    op, pt = shadow_case("split", 41, 0)
    result = shadow(op, pt, build_splitting(op))
    assert not hasattr(result, "_z_points")  # shadow itself builds no z_i
    z = result.z_points
    assert result.z_points is z
    assert result.points is pt.points and len(result.corrections) == len(pt.points)
    for zi, x, d in zip(z, pt.points, result.corrections, strict=True):
        assert hex_items(zi) == hex_items(vec_add(x, d))


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_log_norm_bound_lies_above_the_log_norm(p):
    op = ShiftOperator(split_weights(), p)
    rng = random.Random(int(p))
    vecs = []
    for _ in range(2000):
        scale = 10.0 ** rng.uniform(-320, 307)  # entries stay finite
        vecs.append({k: rng.choice([-1.0, 1.0]) * scale * rng.uniform(0.0, 2.0)
                     for k in range(rng.randint(1, 40))})
    bounds = list(op.log_norm_bounds(vecs))
    assert len(bounds) == len(vecs)
    for vec, bound in zip(vecs, bounds):
        exact = op.log_norm(vec)
        assert exact <= bound, (vec, exact, bound)
        if bound < math.inf:
            assert bound - exact <= 2e-9
    assert list(op.log_norm_bounds([{}])) == [-math.inf] == [op.log_norm({})]
    # A sum past float range, NaN, inf or tiny reads inf for its own vector only.
    edges = [{0: math.nan}, {0: math.inf, 1: 1.0}, {0: 1e-310}, {0: 1e308, 1: 1e308}]
    assert list(op.log_norm_bounds(edges + [{}, {0: 1.0}])) == (
        [math.inf] * 4 + [-math.inf, simulate._BOUND_MARGIN])
    # Site measures need every entry's log term: a composition map has no bound.
    composition = CompositionOperator(peak(p=p))
    assert list(composition.log_norm_bounds([{(0, None): 1.0}, {}])) == [math.inf, -math.inf]


def _fold(values):
    """A float sum taken left to right in an explicit loop."""
    total = 0.0
    for value in values:
        total += value
    return total


def test_float_sums_in_simulate_fold_left_to_right():
    # Each sum below rounds differently under math.fsum (and under sum() from
    # Python 3.12 on); the helpers must keep the left-to-right fold.
    op = ShiftOperator(split_weights(), 1.0)
    vec = {0: 1.0, 1: 1e-16, 2: 1e-16}
    terms = [math.log(abs(c)) for c in vec.values()]
    exps = [math.exp(v - max(terms)) for v in terms]
    assert math.fsum(exps) != _fold(exps)
    assert op.log_norm(vec) == max(terms) + math.log(_fold(exps))

    composition = CompositionOperator(decay(p=1.0))
    measure = composition._log_measure
    # After one forward step the three terms sit at 0, log 1e-16 and log 1e-16 from the top.
    top = measure(-1, None)
    walk_vec = {(0, None): 1.0}
    for k in (1, 2):
        walk_vec[k, None] = 1e-16 * math.exp(top - measure(k - 1, None))
    for n, value in orbit_log_norms(composition, walk_vec, 1, 4):
        step = [math.log(abs(c)) + measure(k - n, None) for (k, _), c in walk_vec.items()]
        step_exps = [math.exp(v - max(step)) for v in step]
        if n == 1:
            assert math.fsum(step_exps) != _fold(step_exps)
        assert value == max(step) + math.log(_fold(step_exps)), n

    table = (1e8, 4e-9, 4e-9, 4e-9, 4e-9, 0.5)
    assert math.fsum(table[:-1]) != _fold(table[:-1])
    expected = (1.0 + _fold(table[:-1])) / (1.0 - table[-1])
    assert simulate._series_sum(table, len(table), include_zero=True) == expected
    assert simulate._series_sum(table, len(table), include_zero=False) == expected - 1.0


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
    assert basis_sites(op, 50) == [(0, 0), (0, 1), (0, 2)]


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


def contracting_and_expanding_lines(p):
    # measure ratios 2 and 1/2: one weight line contracts everywhere, the other expands
    return AtomicSystem(p=p, components=tuple(
        MeasureSequence(F(1), ratio(0, [r], [r], [r])) for r in ("2", "1/2")))


@pytest.mark.parametrize("system, seed", [
    *[pytest.param(two_split_lines(), seed, id=str(seed)) for seed in range(3)],
    *[pytest.param(contracting_and_expanding_lines(p), seed, id=f"mixed-p{p:g}-{seed}")
      for p in (1.0, 2.0) for seed in range(3)],
])
def test_atomic_union_shadows_like_the_exact_series(system, seed):
    op = AtomicOperator(system)
    pt = make_pseudotrajectory(op, op.normalized_basis(op.origin), 1e-3, 41, seed)
    result = shadow(op, pt)
    assert result.splitting.kind == "split"
    error_sites = {site for e in pt.errors(op) for site in e}
    assert {site[0] for site in error_sites} == {0, 1}
    assert {site_is_stable(op, site, result.splitting) for site in error_sites} == {True, False}
    exact = shadow_exact_corrections(op, pt, result.splitting)
    exact_max = max(op.norm(d) for d in exact)
    assert exact_max <= result.eps_achieved <= exact_max + 1e-12 * pt.delta
    for z, x, d in zip(result.z_points, pt.points, exact):
        assert op.norm(vec_sub(vec_sub(z, x), d)) <= 1e-15
    stepwise = shadow_stepwise(op, pt, result.splitting)
    assert result.eps_achieved.hex() == stepwise.eps_achieved.hex()
    for z, expected in zip(result.z_points, stepwise.z_points, strict=True):
        assert [(s, c.hex()) for s, c in z.items()] == [(s, c.hex()) for s, c in expected.items()]


def test_atomic_unions_without_a_common_splitting():
    # Each line splits on its own; one line that cannot leaves the union unsplit.
    split = two_split_lines().components[0]
    expanding = MeasureSequence(F(1), ratio(0, ["1/2"], ["1/2"], ["1/2"]))
    sp = build_splitting(AtomicOperator(AtomicSystem(p=1.0, components=(split, expanding))))
    assert sp.cuts == (1, -math.inf)
    assert (sp.kind, sp.cut) == ("split", None)
    reversed_split = MeasureSequence(F(1), ratio(0, ["1"], ["1/2"], ["2"]))
    unit_tail = MeasureSequence(F(1), ratio(0, ["2"], ["1"], ["1/2"]))
    for components in ((split, Cycle.from_values([1, 2])), (expanding, reversed_split),
                       (split, unit_tail)):
        op = AtomicOperator(AtomicSystem(p=1.0, components=components))
        with pytest.raises(NoSplitting):
            build_splitting(op)


def splits(op):
    try:
        build_splitting(op)
    except NoSplitting:
        return False
    return True


def shadowing_holds(report):
    return report.verdicts["shadowing"].status is Status.HOLDS


def test_a_splitting_exists_exactly_where_classify_says_shadowing_holds():
    systems = [factory(p=p) for factory in CANONICAL.values() for p in (1.0, 2.0, 3.0)]
    for seed in (7, 11):
        rng = random.Random(seed)
        systems += [random_dissipative(rng) for _ in range(200)]
    for system in systems:
        assert splits(CompositionOperator(system)) == shadowing_holds(classify_report(system))
    for weights in (doubling_weights(), split_weights()):
        assert splits(ShiftOperator(weights, 1.0)) == shadowing_holds(classify_shift(weights))
    # A union splits iff every line shadows on its own.
    rng = random.Random(3)
    lines = [system.measures for system in systems if system.cells is None]
    for _ in range(200):
        p = float(rng.choice([1, 2, 3]))
        union = rng.sample(lines, rng.randint(1, 3))
        expected = all(shadowing_holds(classify_report(DissipativeSystem(p=p, measures=line)))
                       for line in union)
        assert splits(AtomicOperator(AtomicSystem(p=p, components=tuple(union)))) == expected


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
