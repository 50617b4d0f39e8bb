"""System presentations: measure data, cells, weights, and their checks.

Three kinds of objects are modeled:

* a dissipative system presented by the orbit measures of one wandering
  window, as a base measure plus the ratio sequence mu_{k+1}/mu_k;
* an atomic system, a disjoint union of cycles and lines of atoms;
* a weighted shift, presented by its weight sequence.

The checks in this module are the bookkeeping side of the theory: the
single-step measure bound, bounded distortion of cell decompositions, and
the reduction from a composition presentation to shift weights.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import islice
from operator import add
from typing import Iterable, Sequence, Union

from .canon import fraction_text
from .seqcore import (
    EventuallyPeriodicSequence,
    ScalarLike,
    _coerce,
    _coerce_all,
    _log_fraction,
)


class InvalidSystem(ValueError):
    """A system presentation violates its structural constraints."""


def check_exponent(p: float) -> None:
    """Refuse a norm exponent that is not a finite real >= 1 (NaN included)."""
    if not (p >= 1 and math.isfinite(p)):
        raise InvalidSystem("exponent p must be a finite real >= 1")


def _exp(log_value: float) -> float:
    """exp, saturating to inf beyond float range."""
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


def logsumexp(values: Iterable[float]) -> float:
    """log of the sum of exp(v), skipping -inf terms; -inf for no terms."""
    items = [v for v in values if v != -math.inf]
    if not items:
        return -math.inf
    top = max(items)
    return top + math.log(sum(math.exp(v - top) for v in items))


def draw_site(rng: random.Random, periods: Sequence[int | None], reach: int) -> tuple[int, int]:
    """A seeded (line, position) near position 0: the line first, then the position.

    A line with a period (a cycle) draws one of its positions 0..period-1;
    any other line draws a position in -reach..reach.
    """
    line = rng.randrange(len(periods))
    period = periods[line]
    return line, rng.randrange(period) if period else rng.randint(-reach, reach)


@dataclass(frozen=True)
class MeasureSequence:
    """Orbit measures mu_k presented as mu_0 and the ratio sequence.

    ``ratio.base_at(k)`` is mu_{k+1}/mu_k, so every mu_k is an exact
    rational multiple of mu_0 whenever the presentation is exact.
    """

    mu0: Fraction
    ratio: EventuallyPeriodicSequence
    exact: bool = True

    def __post_init__(self) -> None:
        if self.mu0 <= 0:
            raise InvalidSystem("base measure must be positive")
        if self.ratio.exp != 1.0:
            raise InvalidSystem("ratio sequences carry no exponent")
        # Memo of log_mu by index; not a field, so ==, hash and repr ignore it.
        object.__setattr__(self, "_log_mu0", _log_fraction(self.mu0))
        object.__setattr__(self, "_log_mu_memo", {})

    @classmethod
    def from_values(
        cls,
        mu0: ScalarLike,
        ratio: EventuallyPeriodicSequence,
    ) -> "MeasureSequence":
        frac, exact = _coerce(mu0)
        return cls(frac, ratio, exact and ratio.exact)

    def log_mu(self, k: int) -> float:
        """log mu_k, summed over the ratio entries once per k and then memoized.

        The ratio logs from min(k, 0) up to max(k, 0) - 1 are folded left
        to right, then added to (k > 0) or taken from (k < 0) log mu_0.
        That sequential sum fixes every bit of the result: a closed form
        (prefix sums plus whole periods) rounds differently, and so does
        sum(), which compensates float sums from Python 3.12 on.
        """
        total = self._log_mu_memo.get(k)
        if total is None:
            total = self._log_mu0
            if k > 0:
                total += reduce(add, islice(self.ratio.logs_from(0, 1), k), 0.0)
            elif k < 0:
                total -= reduce(add, islice(self.ratio.logs_from(k, 1), -k), 0.0)
            self._log_mu_memo[k] = total
        return total

    def mu(self, k: int) -> float:
        return math.exp(self.log_mu(k))

    def mu_fraction(self, k: int) -> Fraction:
        value = self.mu0
        if k > 0:
            for j in range(0, k):
                value *= self.ratio.base_at(j)
        else:
            for j in range(k, 0):
                value /= self.ratio.base_at(j)
        return value


@dataclass(frozen=True)
class CellStructure:
    """Decomposition of the window into cells with a distortion wobble.

    ``beta[j]`` is the measure of cell j inside the base window; the
    wobble table gives theta_{k, j}, the factor by which the k-th image of
    cell j deviates from exact proportionality.  Outside the finite wobble
    window every theta is 1.
    """

    beta: tuple[Fraction, ...]
    wobble_lo: int
    wobble: tuple[tuple[Fraction, ...], ...]
    exact: bool = True

    def __post_init__(self) -> None:
        if not self.beta:
            raise InvalidSystem("cell decomposition needs at least one cell")
        for b in self.beta:
            if b <= 0:
                raise InvalidSystem("cell measures must be positive")
        for row in self.wobble:
            if len(row) != len(self.beta):
                raise InvalidSystem("each wobble row must cover every cell")
            for theta in row:
                if theta <= 0:
                    raise InvalidSystem("wobble factors must be positive")

    @property
    def n_cells(self) -> int:
        return len(self.beta)

    @property
    def wobble_hi(self) -> int:
        return self.wobble_lo + len(self.wobble) - 1

    def theta(self, k: int, cell: int) -> Fraction:
        """Wobble factor theta_{k, j} for 0-based cell index."""
        if self.wobble and self.wobble_lo <= k <= self.wobble_hi:
            return self.wobble[k - self.wobble_lo][cell]
        return Fraction(1)


@dataclass(frozen=True)
class DissipativeSystem:
    """A dissipative system: window measures, optional cells, distortion constant K.

    The distortion certificate is computed once, at construction, and kept
    as ``distortion_certificate`` (not a field, so ==, hash and repr ignore
    it).  An undeclared K is set to its certified minimum; a declared K
    below that minimum is accepted here and refused by classification.
    """

    p: float
    measures: MeasureSequence
    cells: CellStructure | None = None
    distortion_constant: float | None = None

    def __post_init__(self) -> None:
        check_exponent(self.p)
        if self.cells is not None:
            self._validate_cells()
            cells = self.cells
            log_mu0 = self.measures._log_mu0
            # log(beta_j / mu0) per cell and log theta_{k, j} per wobble entry,
            # read by site_log_measure; not fields, so ==, hash and repr ignore them.
            object.__setattr__(self, "_cell_log_shares",
                               tuple(_log_fraction(b) - log_mu0 for b in cells.beta))
            object.__setattr__(self, "_wobble_logs",
                               tuple(tuple(_log_fraction(t) for t in row) for row in cells.wobble))
        # Written as "not >= 1" so that a NaN constant is refused too.
        if self.distortion_constant is not None and not self.distortion_constant >= 1:
            raise InvalidSystem("distortion constant must be at least 1")
        cert = check_bounded_distortion(self)
        object.__setattr__(self, "distortion_certificate", cert)
        if self.distortion_constant is None:
            object.__setattr__(self, "distortion_constant", cert.k_min)

    def _validate_cells(self) -> None:
        cells = self.cells
        assert cells is not None
        mu0 = self.measures.mu0
        total = sum(cells.beta, Fraction(0))
        if cells.exact and self.measures.exact:
            if total != mu0:
                raise InvalidSystem(
                    f"cell measures must sum to the base measure "
                    f"(got {fraction_text(total)}, expected {fraction_text(mu0)})"
                )
        elif abs(float(total) - float(mu0)) > 1e-12 * float(mu0):
            raise InvalidSystem("cell measures must sum to the base measure")
        for i, row in enumerate(cells.wobble):
            k = cells.wobble_lo + i
            row_sum = sum((b / mu0) * t for b, t in zip(cells.beta, row))
            if cells.exact and self.measures.exact:
                if row_sum != 1:
                    raise InvalidSystem(
                        f"wobble row at k={k} breaks the partition sum "
                        f"(got {fraction_text(row_sum)}, expected 1)"
                    )
            elif abs(float(row_sum) - 1.0) > 1e-12:
                raise InvalidSystem(f"wobble row at k={k} breaks the partition sum")

    @property
    def n_cells(self) -> int:
        return self.cells.n_cells if self.cells is not None else 1

    def site_log_measure(self, k: int, cell: int | None = None) -> float:
        """Log measure of the k-th image of the window (or of one cell)."""
        base = self.measures.log_mu(k)
        if cell is None or self.cells is None:
            return base
        total = base + self._cell_log_shares[cell]
        # Outside the wobble window theta is 1, whose log adds exactly 0.0.
        offset = k - self.cells.wobble_lo
        if 0 <= offset < len(self._wobble_logs):
            total += self._wobble_logs[offset][cell]
        return total

    def site_measure_fraction(self, k: int, cell: int | None = None) -> Fraction:
        value = self.measures.mu_fraction(k)
        if cell is None or self.cells is None:
            return value
        return value * self.cells.beta[cell] / self.measures.mu0 * self.cells.theta(k, cell)

    def cell_ratio(self, cell: int | None) -> EventuallyPeriodicSequence:
        """Ratio sequence of one cell's image measures (mu^{(j)}_{k+1}/mu^{(j)}_k).

        Equals the window ratio times the wobble increment; the wobble is
        finite, so the result is again eventually periodic with the same
        tails and a widened core.
        """
        ratio = self.measures.ratio
        if cell is None or self.cells is None or not self.cells.wobble:
            return ratio
        cells = self.cells
        lo = min(ratio.core_lo, cells.wobble_lo - 1)
        hi = max(ratio.core_hi, cells.wobble_hi)
        core = tuple(
            ratio.base_at(k) * cells.theta(k + 1, cell) / cells.theta(k, cell)
            for k in range(lo, hi + 1)
        )
        return EventuallyPeriodicSequence(
            lo, core, ratio.neg_period, ratio.pos_period, 1.0,
            ratio.exact and cells.exact,
        )

    def to_config(self, label: str | None = None) -> dict:
        config: dict = {
            "kind": "dissipative",
            "p": self.p,
            "mu0": _scalar_config(self.measures.mu0, self.measures.exact),
            "ratio": eps_to_config(self.measures.ratio),
        }
        if self.cells is not None:
            cells = self.cells
            config["cells"] = {
                "beta": [_scalar_config(b, cells.exact) for b in cells.beta],
                "wobble_lo": cells.wobble_lo,
                "wobble": [
                    [_scalar_config(t, cells.exact) for t in row] for row in cells.wobble
                ],
            }
            config["distortion_constant"] = self.distortion_constant
        if label is not None:
            config["label"] = label
        return config


@dataclass(frozen=True)
class Cycle:
    """Finitely many atoms permuted cyclically: f(a_i) = a_{i+1 mod r}."""

    measures: tuple[Fraction, ...]
    exact: bool = True

    def __post_init__(self) -> None:
        if not self.measures:
            raise InvalidSystem("a cycle needs at least one atom")
        for m in self.measures:
            if m <= 0:
                raise InvalidSystem("atom measures must be positive")

    @classmethod
    def from_values(cls, measures: Sequence[ScalarLike]) -> "Cycle":
        return cls(*_coerce_all(measures))

    def __len__(self) -> int:
        return len(self.measures)

    def log_mu(self, index: int) -> float:
        """log of the measure of atom index (mod r)."""
        return _log_fraction(self.measures[index % len(self.measures)])

    @property
    def ratio(self) -> EventuallyPeriodicSequence:
        """The ratios m_{k+1}/m_k of the atoms, purely periodic with period r."""
        m = self.measures
        ratios = tuple(m[(k + 1) % len(m)] / m[k] for k in range(len(m)))
        return EventuallyPeriodicSequence(0, ratios, ratios, ratios, 1.0, self.exact)


# A line of atoms, a two-sided orbit on which f shifts k to k+1, is its
# MeasureSequence: a dissipative presentation with a one-atom window, whose
# ratio and log_mu the rate machinery reads unchanged.
Component = Union[Cycle, MeasureSequence]


@dataclass(frozen=True)
class AtomicSystem:
    p: float
    components: tuple[Component, ...]

    def __post_init__(self) -> None:
        check_exponent(self.p)
        if not self.components:
            raise InvalidSystem("an atomic system needs at least one component")

    @property
    def periods(self) -> tuple[int | None, ...]:
        """Per component: the number of atoms of a cycle, None for a line."""
        return tuple(len(c) if isinstance(c, Cycle) else None for c in self.components)

    def to_config(self, label: str | None = None) -> dict:
        parts = []
        for comp in self.components:
            if isinstance(comp, Cycle):
                parts.append({
                    "type": "cycle",
                    "measures": [_scalar_config(m, comp.exact) for m in comp.measures],
                })
            else:
                parts.append({
                    "type": "line",
                    "mu0": _scalar_config(comp.mu0, comp.exact),
                    "ratio": eps_to_config(comp.ratio),
                })
        config: dict = {"kind": "atomic", "p": self.p, "components": parts}
        if label is not None:
            config["label"] = label
        return config


@dataclass(frozen=True)
class WeightSequence:
    """Weights of a bilateral shift; bounded above and below automatically.

    Invertibility of the shift needs the weights bounded away from zero,
    which an eventually periodic presentation gives for free.
    """

    values: EventuallyPeriodicSequence

    @property
    def sup(self) -> float:
        return self.values.sup_value()

    def to_config(self, label: str | None = None) -> dict:
        config: dict = {"kind": "shift", "weights": eps_to_config(self.values)}
        if label is not None:
            config["label"] = label
        return config


def _scalar_config(frac: Fraction, exact: bool) -> str | float:
    if exact:
        return fraction_text(frac)
    return float(frac)


def eps_to_config(seq: EventuallyPeriodicSequence) -> dict:
    """Materialized entries (exponent folded in) for serialization."""

    def one(base: Fraction) -> str | float:
        if seq.exact and float(seq.exp).is_integer():
            return fraction_text(base ** int(seq.exp))
        return math.exp(seq.exp * _log_fraction(base))

    return {
        "core_lo": seq.core_lo,
        "core": [one(b) for b in seq.core],
        "neg_period": [one(b) for b in seq.neg_period],
        "pos_period": [one(b) for b in seq.pos_period],
    }


@dataclass(frozen=True)
class StarCertificate:
    """Single-step measure bounds: mu(f^{-1} B) <= c mu(B) and the f-image twin.

    ``norm_bound`` is c^{1/p}, an upper bound for the operator norm; the
    inverse pair bounds the inverse operator the same way.
    """

    c: float
    norm_bound: float
    c_inverse: float
    norm_bound_inverse: float
    c_fraction: Fraction | None = None


def _atom_ratio_candidates(ratio: EventuallyPeriodicSequence) -> list[Fraction]:
    """All values of mu_{k-1}/mu_k along one ratio line, one period past each side of its core."""
    lo = ratio.core_lo - len(ratio.neg_period) - 1
    hi = ratio.core_hi + len(ratio.pos_period) + 1
    return [1 / ratio.base_at(k - 1) for k in range(lo, hi + 1)]


def check_star(system: DissipativeSystem | AtomicSystem) -> StarCertificate:
    """Least c with mu(f^{-1} B) <= c mu(B) over all measurable B.

    Unions cannot beat single atoms of the refined partition, so a finite
    scan over one period past the core of each ratio line is exact.  A
    dissipative system reads the ratio line of each cell (its wobble
    widens the core), an atomic union that of each component; a cycle's
    is purely periodic, so the scan sees each of its atoms.
    """
    if isinstance(system, DissipativeSystem):
        ratios = [system.cell_ratio(cell) for cell in range(system.n_cells)]
        exact = system.measures.exact and (system.cells is None or system.cells.exact)
    else:
        ratios = [comp.ratio for comp in system.components]
        exact = all(comp.exact for comp in system.components)
    candidates = [c for ratio in ratios for c in _atom_ratio_candidates(ratio)]
    p = system.p
    c_frac = max(candidates)
    inv_frac = max(1 / cand for cand in candidates)
    c = float(c_frac)
    c_inv = float(inv_frac)
    return StarCertificate(
        c=c,
        norm_bound=c ** (1.0 / p),
        c_inverse=c_inv,
        norm_bound_inverse=c_inv ** (1.0 / p),
        c_fraction=c_frac if exact else None,
    )


@dataclass(frozen=True)
class DistortionCertificate:
    ok: bool
    k_min: float
    declared: float | None
    witness: tuple[int, int] | None  # (k, 1-based cell index)
    k_min_fraction: Fraction | None = None


def check_bounded_distortion(system: DissipativeSystem) -> DistortionCertificate:
    """Least K with mu(f^k B) within [1/K, K] of proportional, for all B.

    Per-cell factors dominate every union of cells, so the minimal K is the
    worst of max(theta, 1/theta) over the wobble table, floored at 1.  The
    certificate is ok when the system declares no K or one at least that.
    """
    declared = system.distortion_constant
    cells = system.cells
    k_min = Fraction(1)
    witness: tuple[int, int] | None = None
    if cells is not None:
        for i, row in enumerate(cells.wobble):
            k = cells.wobble_lo + i
            for j, theta in enumerate(row):
                bound = max(theta, 1 / theta)
                if bound > k_min:
                    k_min = bound
                    witness = (k, j + 1)
    ok = True
    if declared is not None:
        ok = Fraction(declared) >= k_min or abs(declared - float(k_min)) <= 1e-12 * float(k_min)
    exact = system.measures.exact and (cells is None or cells.exact)
    return DistortionCertificate(
        ok=ok,
        k_min=float(k_min),
        declared=declared,
        witness=witness,
        k_min_fraction=k_min if exact else None,
    )


def derived_distortion_bound(system: DissipativeSystem) -> float:
    """Least H comparing any two image measures of the same cell.

    H never exceeds K^2 for the minimal distortion constant K; both scans
    run over the same finite wobble data, so the comparison is exact.
    """
    cells = system.cells
    if cells is None or not cells.wobble:
        return 1.0
    worst = Fraction(1)
    for j in range(cells.n_cells):
        column = [row[j] for row in cells.wobble] + [Fraction(1)]
        worst = max(worst, max(column) / min(column))
    cert = system.distortion_certificate
    if cert.k_min_fraction is not None:
        assert worst <= cert.k_min_fraction ** 2
    return float(worst)


def weight_line(ratio: EventuallyPeriodicSequence, p: float) -> EventuallyPeriodicSequence:
    """w_k = (mu_{k-1}/mu_k)^(1/p) from the ratios mu_{k+1}/mu_k of one measured line."""
    return ratio.shifted(1).elementwise_pow(-1.0 / p)


def induced_weights(system: DissipativeSystem) -> WeightSequence:
    """Shift weights carrying the composition operator to a weighted shift."""
    return WeightSequence(weight_line(system.measures.ratio, system.p))
