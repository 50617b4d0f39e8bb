"""Measure bookkeeping, cell distortion, and the weight reduction."""

import math
import random
from fractions import Fraction
from functools import reduce
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab.cli import random_dissipative
from shiftlab.presets import decay, flat, growth, peak, valley
from shiftlab.seqcore import EventuallyPeriodicSequence, side_geometric_means, tail_sign_vs_one
from shiftlab.systems import (
    AtomicSystem,
    CellStructure,
    Cycle,
    DissipativeSystem,
    InvalidSystem,
    MeasureSequence,
    WeightSequence,
    check_bounded_distortion,
    check_star,
    derived_distortion_bound,
    eps_to_config,
    induced_weights,
)

from _oracles import h_direct, kmin_direct, mu_direct, star_direct

F = Fraction


def ratio(core_lo, core, neg, pos):
    return EventuallyPeriodicSequence.from_values(core_lo, core, neg, pos)


def cell_system(p=1.0, declared=None):
    """Two cells of measures 1/3 and 2/3 with one wobble row (2, 1/2).

    Row sum check: (1/3)*2 + (2/3)*(1/2) = 1, so the partition is intact
    while the first cell's image at k=0 is doubled.
    """
    cells = CellStructure(
        beta=(F(1, 3), F(2, 3)),
        wobble_lo=0,
        wobble=((F(2), F(1, 2)),),
    )
    return DissipativeSystem(
        p=p,
        measures=MeasureSequence(F(1), ratio(0, ["1/2"], ["1/2"], ["1/2"])),
        cells=cells,
        distortion_constant=declared,
    )


# -- measures ------------------------------------------------------------------


def test_mu_fraction_decay_frozen():
    ms = decay().measures
    assert ms.mu_fraction(3) == F(1, 8)
    assert ms.mu_fraction(-3) == F(8)
    assert ms.mu_fraction(0) == 1


@given(k=st.integers(-25, 25))
def test_mu_matches_recursion_oracle(k):
    ms = MeasureSequence(F(3, 2), ratio(-1, ["1/3", 4], [2, "1/5"], ["7/2"]))
    expected = mu_direct(ms.mu0, lambda j: ms.ratio.base_at(j), k)
    assert ms.mu_fraction(k) == expected
    assert ms.log_mu(k) == pytest.approx(
        math.log(expected.numerator) - math.log(expected.denominator), abs=1e-9
    )


def log_mu_sequential(ms, k):
    """log mu_k as one left-to-right sum over the ratio entries, with no memo.

    An explicit loop, not sum(): from Python 3.12 on, sum() compensates
    float sums and rounds differently.
    """
    partial = 0.0
    for j in range(min(k, 0), max(k, 0)):
        partial += ms.ratio.log_at(j)
    total = math.log(ms.mu0.numerator) - math.log(ms.mu0.denominator)
    return total + partial if k > 0 else total - partial


@pytest.mark.parametrize(
    "ms",
    [
        MeasureSequence(F(3, 2), ratio(-1, ["1/3", 4], [2, "1/5"], ["7/2"])),
        MeasureSequence.from_values(0.7, ratio(2, [0.3, 1.9], [1.1, 0.45, 2.0], [0.8, 1.3])),
    ],
)
def test_log_mu_memo_is_bit_identical_to_sequential_sum(ms):
    order = list(range(-300, 0)) + list(range(300, -301, -1))
    shuffled = list(range(-300, 301))
    random.Random(5).shuffle(shuffled)
    for k in order + shuffled + order:
        assert ms.log_mu(k) == log_mu_sequential(ms, k)


def test_log_mu_is_a_left_to_right_fold():
    # Float ratios of mixed size, where a compensated sum rounds differently.
    ms = MeasureSequence.from_values(
        0.7, ratio(-2, [0.3, 1e8, 1.9, 3e-7], [1.1, 1e-9, 2.0], [0.8, 7e6, 1.3])
    )
    for k in range(-60, 61):
        assert ms.log_mu(k) == log_mu_sequential(ms, k), k
    # The data is one where a compensated sum of the same logs rounds differently.
    windows = [[ms.ratio.log_at(j) for j in range(min(k, 0), max(k, 0))] for k in range(-60, 61)]
    assert any(math.fsum(logs) != reduce(add, logs, 0.0) for logs in windows)


def test_side_rates_peak():
    rates = side_geometric_means(peak().measures.ratio)
    assert rates.gm_neg == pytest.approx(2.0)
    assert rates.gm_pos == pytest.approx(0.5)


def test_measure_validation():
    with pytest.raises(InvalidSystem):
        MeasureSequence(F(0), ratio(0, [1], [1], [1]))
    with pytest.raises(InvalidSystem):
        MeasureSequence(F(1), ratio(0, [1], [1], [1]).elementwise_pow(2.0))


# -- single-step measure bound ---------------------------------------------------


def test_star_decay_frozen():
    cert = check_star(decay(p=1.0))
    # every backward step doubles the measure
    assert cert.c_fraction == 2
    assert cert.norm_bound == pytest.approx(2.0)
    assert cert.c_inverse == pytest.approx(0.5)
    assert cert.norm_bound_inverse == pytest.approx(0.5)


def test_star_flat_is_one():
    cert = check_star(flat(p=2.0))
    assert cert.c_fraction == 1
    assert cert.norm_bound == pytest.approx(1.0)


def test_star_norm_bound_uses_p():
    cert = check_star(decay(p=2.0))
    assert cert.norm_bound == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_star_cycle_frozen():
    system = AtomicSystem(p=1.0, components=(Cycle.from_values([1, 2, 3]),))
    cert = check_star(system)
    # the step onto the lightest atom from the heaviest: 3/1
    assert cert.c_fraction == 3
    # the inverse direction is capped by the 1 -> 2 step instead
    assert cert.c_inverse == pytest.approx(2.0)


def test_star_of_a_union_is_its_worst_component():
    cycle = Cycle.from_values([1, 2, 3])
    line = MeasureSequence(F(1), EventuallyPeriodicSequence.from_values(
        0, ["1/2"], ["1/5"], ["1/2"]))
    union = check_star(AtomicSystem(p=2.0, components=(cycle, line)))
    parts = [check_star(AtomicSystem(p=2.0, components=(comp,))) for comp in (cycle, line)]
    # c comes from the line's 1/5 step, c_inverse from the cycle's 1 -> 2 step
    assert (union.c_fraction, union.c_inverse) == (5, 2.0)
    assert union.c == max(cert.c for cert in parts)
    assert union.c_inverse == max(cert.c_inverse for cert in parts)
    assert parts[1] == check_star(DissipativeSystem(p=2.0, measures=line))


def celled_random_systems(count=4, seed=5):
    """The first seeded random_dissipative systems with cells and a wobble."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        system = random_dissipative(rng)
        if system.cells is not None and system.cells.wobble:
            found.append(system)
    return found


@pytest.mark.parametrize(
    "system", [decay(1.0), peak(2.0), valley(3.0), cell_system(), *celled_random_systems()]
)
def test_star_matches_exhaustive_scan(system):
    cert = check_star(system)
    assert cert.c_fraction == star_direct(system, span=60)


def test_star_inverse_pairing():
    for system in (decay(1.0), growth(1.0), peak(1.0), cell_system()):
        cert = check_star(system)
        assert cert.c * cert.c_inverse >= 1.0 - 1e-12


# -- cells and distortion --------------------------------------------------------


def test_theta_defaults_to_one_outside_window():
    cells = cell_system().cells
    assert cells.theta(0, 0) == 2
    assert cells.theta(0, 1) == F(1, 2)
    assert cells.theta(5, 0) == 1
    assert cells.theta(-1, 1) == 1


def test_cell_sum_must_match_base_measure():
    with pytest.raises(InvalidSystem, match="must sum to the base measure"):
        DissipativeSystem(
            p=1.0,
            measures=MeasureSequence(F(1), ratio(0, [1], [1], [1])),
            cells=CellStructure(beta=(F(1, 3), F(1, 3)), wobble_lo=0, wobble=()),
        )


def test_wobble_row_must_preserve_partition():
    with pytest.raises(InvalidSystem, match="partition sum"):
        DissipativeSystem(
            p=1.0,
            measures=MeasureSequence(F(1), ratio(0, [1], [1], [1])),
            cells=CellStructure(
                beta=(F(1, 2), F(1, 2)), wobble_lo=0, wobble=((F(2), F(2)),)
            ),
        )


def test_distortion_plain_window():
    cert = check_bounded_distortion(decay())
    assert cert.ok and cert.k_min == 1.0 and cert.witness is None


def test_distortion_frozen_table():
    system = cell_system()
    cert = check_bounded_distortion(system)
    assert cert.k_min_fraction == 2
    assert cert.witness == (0, 1)
    # the constructor resolved the declared constant to the minimum
    assert system.distortion_constant == 2.0


def test_distortion_rejects_undersized_declaration():
    cert = cell_system(declared=1.5).distortion_certificate
    assert not cert.ok
    assert cert.declared == 1.5


def test_distortion_matches_exhaustive_scan():
    system = cell_system()
    k_min, witness = kmin_direct(system)
    cert = check_bounded_distortion(system)
    assert cert.k_min_fraction == k_min
    assert cert.witness == witness


def test_derived_bound_frozen():
    assert derived_distortion_bound(decay()) == 1.0
    system = cell_system()
    assert derived_distortion_bound(system) == pytest.approx(float(h_direct(system)))
    assert derived_distortion_bound(system) <= check_bounded_distortion(system).k_min ** 2


@st.composite
def wobble_systems(draw):
    m = draw(st.integers(1, 3))
    shares = [draw(st.integers(1, 5)) for _ in range(m)]
    total = sum(shares)
    beta = tuple(F(c, total) for c in shares)
    rows = []
    for _ in range(draw(st.integers(0, 3))):
        t = [F(draw(st.integers(1, 4)), draw(st.integers(1, 4))) for _ in range(m)]
        s = sum(b * tj for b, tj in zip(beta, t))
        rows.append(tuple(tj / s for tj in t))
    cells = CellStructure(beta, draw(st.integers(-2, 2)), tuple(rows))
    return DissipativeSystem(
        p=float(draw(st.sampled_from([1, 2, 3]))),
        measures=MeasureSequence(F(1), ratio(0, ["1/2"], [2], ["1/2"])),
        cells=cells,
    )


@given(system=wobble_systems())
@settings(max_examples=50)
def test_distortion_invariants_hold(system):
    cert = check_bounded_distortion(system)
    direct_k, _ = kmin_direct(system)
    assert cert.k_min_fraction == direct_k
    assert cert.k_min >= 1.0
    h = derived_distortion_bound(system)
    assert float(h_direct(system)) == pytest.approx(h)
    assert h <= cert.k_min ** 2 * (1 + 1e-12)


def site_log_measure_direct(system, k, cell):
    """The cell site measure read straight from beta, mu0 and the wobble table."""

    def log(frac):
        return math.log(frac.numerator) - math.log(frac.denominator)

    cells = system.cells
    part = log(cells.beta[cell]) - log(system.measures.mu0)
    return system.measures.log_mu(k) + part + log(cells.theta(k, cell))


def off_unit_cell_system():
    """mu0 = 3/2 split 1/3 : 2/3 with two wobble rows from k = -1."""
    cells = CellStructure(
        beta=(F(1, 2), F(1)),
        wobble_lo=-1,
        wobble=((F(2), F(1, 2)), (F(1, 2), F(5, 4))),
    )
    return DissipativeSystem(
        p=2.0,
        measures=MeasureSequence(F(3, 2), ratio(-1, ["1/3", 4], [2, "1/5"], ["7/2"])),
        cells=cells,
    )


@pytest.mark.parametrize("factory", [cell_system, off_unit_cell_system])
def test_site_log_measure_matches_direct_expression(factory):
    system = factory()
    cells = system.cells
    for k in range(cells.wobble_lo - 4, cells.wobble_hi + 5):
        assert system.site_log_measure(k) == system.measures.log_mu(k)
        for j in range(cells.n_cells):
            assert system.site_log_measure(k, j) == site_log_measure_direct(system, k, j)


@given(system=wobble_systems(), k=st.integers(-6, 6))
@settings(max_examples=50)
def test_site_log_measure_matches_direct_on_random_wobble(system, k):
    for j in range(system.cells.n_cells):
        assert system.site_log_measure(k, j) == site_log_measure_direct(system, k, j)


def test_filled_caches_leave_eq_hash_and_repr_alone():
    used, twin = off_unit_cell_system(), off_unit_cell_system()
    before = (repr(used), hash(used), repr(used.measures), hash(used.measures),
              repr(used.measures.ratio), hash(used.measures.ratio))
    for k in range(-40, 41):
        used.site_log_measure(k, k % 2)
    tail_sign_vs_one(used.measures.ratio, "neg")
    tail_sign_vs_one(used.measures.ratio, "pos")
    after = (repr(used), hash(used), repr(used.measures), hash(used.measures),
             repr(used.measures.ratio), hash(used.measures.ratio))
    assert after == before
    assert used == twin and used.measures == twin.measures
    assert used.measures.ratio == twin.measures.ratio
    assert hash(used) == hash(twin) and repr(used) == repr(twin)


def test_cell_ratio_widens_core():
    system = cell_system()
    for j in (0, 1):
        line = system.cell_ratio(j)
        for k in range(-6, 7):
            expected = system.site_measure_fraction(k + 1, j) / system.site_measure_fraction(k, j)
            assert line.base_at(k) == expected
    assert system.cell_ratio(None) is system.measures.ratio


# -- weight reduction ------------------------------------------------------------


def test_induced_weights_decay_p1():
    weights = induced_weights(decay(p=1.0))
    assert weights.values.exp == -1.0
    for k in range(-8, 9):
        assert weights.values.base_at(k) ** -1 == 2


def test_induced_weights_decay_p2():
    weights = induced_weights(decay(p=2.0))
    for k in (-3, 0, 4):
        assert math.exp(weights.values.log_at(k)) == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_induced_weights_flat_are_one():
    weights = induced_weights(flat(p=3.0))
    assert weights.sup == pytest.approx(1.0)
    assert min(math.exp(weights.values.log_at(k)) for k in range(-8, 9)) == pytest.approx(1.0)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("factory", [decay, growth, peak, valley])
def test_induced_weights_carry_the_measure_ratios(factory, p):
    """w_k^p must equal mu_{k-1}/mu_k at every index."""
    system = factory(p)
    weights = induced_weights(system)
    ms = system.measures
    for k in range(-10, 11):
        lhs = p * weights.values.log_at(k)
        rhs = ms.log_mu(k - 1) - ms.log_mu(k)
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_weight_sequence_bounds():
    w = WeightSequence(ratio(0, [3], ["1/4"], [2]))
    assert w.sup == pytest.approx(3.0)
    assert min(math.exp(w.values.log_at(k)) for k in range(-8, 9)) == pytest.approx(0.25)
    rates = side_geometric_means(w.values)
    assert rates.gm_neg == pytest.approx(0.25)
    assert rates.gm_pos == pytest.approx(2.0)


# -- atomic components -----------------------------------------------------------


def test_cycle_construction():
    cycle = Cycle.from_values([1, "1/2", 3])
    assert len(cycle) == 3
    with pytest.raises(InvalidSystem):
        Cycle.from_values([])
    with pytest.raises(InvalidSystem):
        Cycle((F(1), F(0)))


def test_atomic_system_validation():
    with pytest.raises(InvalidSystem):
        AtomicSystem(p=0.5, components=(Cycle.from_values([1]),))
    with pytest.raises(InvalidSystem):
        AtomicSystem(p=2.0, components=())


# -- serialization ---------------------------------------------------------------


def test_eps_to_config_exact_strings():
    config = eps_to_config(peak().measures.ratio)
    assert config == {
        "core_lo": 0,
        "core": ["1/2"],
        "neg_period": ["2"],
        "pos_period": ["1/2"],
    }


def test_eps_to_config_materializes_exponent():
    seq = ratio(0, ["1/2"], ["1/2"], ["1/2"]).elementwise_pow(-1.0)
    assert eps_to_config(seq)["core"] == ["2"]
    half_power = ratio(0, [4], [4], [4]).elementwise_pow(-0.5)
    assert eps_to_config(half_power)["core"] == [pytest.approx(0.5)]


def test_to_config_round_trip_fields():
    system = cell_system()
    config = system.to_config(label="cells")
    assert config["kind"] == "dissipative"
    assert config["label"] == "cells"
    assert config["cells"]["beta"] == ["1/3", "2/3"]
    assert config["distortion_constant"] == 2.0


def test_random_mu_recursion_against_oracle():
    rng = random.Random(11)
    for _ in range(20):
        core = [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(rng.randint(1, 3))]
        neg = [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(rng.randint(1, 4))]
        pos = [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(rng.randint(1, 4))]
        ms = MeasureSequence(
            F(rng.randint(1, 5)),
            EventuallyPeriodicSequence(rng.randint(-2, 2), tuple(core), tuple(neg), tuple(pos)),
        )
        k = rng.randint(-15, 15)
        assert ms.mu_fraction(k) == mu_direct(ms.mu0, lambda j: ms.ratio.base_at(j), k)


def test_atomic_components_report_their_log_measures():
    cycle = Cycle.from_values(["1/2", 3, "7/5"])
    for index in range(-7, 8):
        m = cycle.measures[index % 3]
        assert cycle.log_mu(index) == math.log(m.numerator) - math.log(m.denominator)
        assert cycle.ratio.base_at(index) == cycle.measures[(index + 1) % 3] / m
    line = MeasureSequence.from_values(2, EventuallyPeriodicSequence.from_values(
        -1, ["3", "1/2"], ["2"], ["1/3"]))
    for k in range(-9, 10):
        assert math.exp(line.log_mu(k)) == pytest.approx(
            float(mu_direct(2, line.ratio.base_at, k)), rel=1e-12)
