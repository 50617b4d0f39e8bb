"""Operators on sequence spaces: orbits, expansivity probes, and shadowing.

Every operator here is one line-sum core, ``LineSumOperator``: the space
is a direct sum of measured lines, each site sits at an integer position
on one line, and a line carries its weight line (the one-step norm
factors that the basis walks and the splitting read) and its site log
measure.  A weighted shift is one line with unit measures; a composition
map over a dissipative system has one line per cell (or the window); an
atomic union has one line per component, and a cycle of r atoms is the
purely periodic weight line of period r.  The three operator classes only
translate their site keys (integers, ``(k, cell)`` and ``(component,
index)``) to lines and positions, label sites and apply the map.

Vectors are sparse: a dict from site keys to coefficients.  Norms are
summed in log space; an orbit's norms step the map and carry a running
log scale, so they stay meaningful far beyond float range.

The brute-force expansivity check follows the norm-threshold definition
directly: a unit vector escapes once some iterate has norm at least 2.
Basis vectors have eventually periodic norm walks, so a non-crossing can
be certified exactly; random simple functions can only ever cross, never
certify boundedness, and an uncrossed one leaves the verdict Undecided.
Each walk is read only as far as the decision needs.  A weight line has
one increment stream per direction (``_step_logs``), read by the walk
tables and the shift's step factors alike.  A basis walk is the running
sum of its increments, sliced from its line's table as far as some walk
reads; its crossing is found by a C-level scan, and it is shared by
every later site of its tail phase whose room covers what it read.
The maps move sites one to one, so a random sample is a list of (line,
position, log term) triples, drawn when the pass reaches it, and its
walk is the log-sum-exp of each term plus p times its site's basis
walk.  The forward walks of a two-sided probe are those of a positive
probe with the same seed, so one pass reads both pointwise verdicts,
skipping the backward walks and samples that cannot move them.

Shadowing builds no dict only to fold it into another (``add_basis``,
``apply_back_sum``, ``add_residual``: one loop each on a shift) and keeps
only the largest log norm: on a shift a vector's exact log norm is taken
only where its certified bound log(S)/p + 1e-9, S the fsum of |c|^p
(``log_norm_bounds``), reaches the running maximum (``_max_log_norm``).

Float sums are folded left to right with ``reduce(add, ..., 0.0)``:
``sum()`` compensates float sums from Python 3.12 on, which would move
the last bits of every norm.
"""

from __future__ import annotations

import math
import random
import sys
from enum import Enum
from functools import partial, reduce
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import add, mul, neg
from typing import Iterator

from .classify import Status, Verdict
from .seqcore import EventuallyPeriodicSequence, Record, tail_sign_vs_one
from .systems import (
    AtomicSystem,
    DissipativeSystem,
    EmptyOrbitRange,
    WeightSequence,
    _exp,
    check_exponent,
    check_star,
    draw_site,
    logsumexp,
    weight_line,
)

Vec = dict  # site key -> float coefficient

_LOG2 = math.log(2.0)
_NEG_INF = -math.inf
_CROSS_TOL = 1e-12
_THRESHOLD = _LOG2 - _CROSS_TOL  # a log norm at or above it has crossed the norm 2
# Above the rounding of a log norm's log-sum-exp (under 1e-12 for float
# entries), so a bound plus this margin lies above the computed log norm.
_BOUND_MARGIN = 1e-9
_CERT_GAP = 1e-9
# Most values a basis walk's boundedness certificate may read (n_enter +
# period).  The test pins, the acceptance tests and the benchmark workloads
# read at most 63; a walk whose certificate would need more than the cap
# stays uncertified, so its reading can only turn Undecided, never wrong.
_CERT_READ_CAP = 4096
# Random samples draw positions -12..12 off cycles; walk tables anchor at least this far out.
_SAMPLE_REACH = 12


def _add_into(out: Vec, b: Vec, negate: bool = False) -> Vec:
    """out + b (out + (-b) with negate), in place; a sum of exactly 0 drops its site.

    The zero rule: vec_add and the line-sum kernels add here, and a shift's
    fused kernels keep its floats.  New sites follow out's in b's order.
    """
    for site, coeff in b.items():
        if negate:
            coeff = -coeff
        if site in out:
            value = out[site] + coeff
            if value:
                out[site] = value
            else:
                del out[site]
        elif coeff:  # an absent site adds to 0.0
            out[site] = 0.0 + coeff
    return out


def vec_add(a: Vec, b: Vec) -> Vec:
    return _add_into(dict(a), b)


def vec_scale(a: Vec, factor: float) -> Vec:
    if factor == 0.0:
        return {}
    return {site: c * factor for site, c in a.items()}


def _step_logs(line: EventuallyPeriodicSequence, k: int, direction: int) -> Iterator[float]:
    """The steps' log factors from k: log w_k, log w_{k-1}, ... forward, -log w_{k+1}, ... back."""
    return line.logs_from(k, -1) if direction > 0 else map(neg, line.logs_from(k + 1, 1))


class LineSumOperator:
    """Composition-type operator on a direct sum of measured lines.

    Every site sits at an integer position on one line.  A line carries
    its weight line, the one-step norm factors w_k = ||T e_k|| / ||e_k||
    that the basis walks and the splitting read, and its site log measure,
    which the norm adds to p log|c|: 0 for a shift, the cell or window
    measure for a composition map, log mu for an atom.  A cycle of r atoms
    is the purely periodic weight line of period r, its positions read
    mod r.  Subclasses translate site keys to (line, position) in
    ``_locate`` and back in ``_key``, label sites, apply the operator, and
    name their start site ``origin``.
    """

    def __init__(self, p: float, lines, periods=None, site_log_measure=None):
        self.p = p
        self.lines: tuple[EventuallyPeriodicSequence, ...] = tuple(lines)
        self._periods = tuple(periods) if periods is not None else (None,) * len(self.lines)
        # Called with the two parts of a site key; None for unit site measures.
        self._log_measure = site_log_measure

    def _cover(self, site) -> list:
        """The sites a key stands for: itself, unless it is a window over cells."""
        return [site]

    def log_norm(self, vec: Vec) -> float:
        if not vec:
            return -math.inf
        p, log = self.p, math.log
        measure = self._log_measure
        if measure is None:
            terms = [p * log(abs(c)) for c in vec.values() if c]
        else:
            terms = [p * log(abs(c)) + measure(a, b) for (a, b), c in vec.items() if c]
        return logsumexp(terms) / p

    def log_norm_bounds(self, vecs) -> Iterator[float]:
        """A certified upper bound on each log_norm(vec) from its l^p sum, in turn; inf where there is none.

        On unit-measure lines log_norm(vec) is log(S) / p with
        S = sum |c|^p, up to the rounding of its log-sum-exp: under 1e-12
        for float entries, whose |log|c|| is at most 745.  math.fsum rounds
        S once, and from S >= 1e-290 on the entries whose |c|^p underflowed
        cannot move it, so log(S) / p + _BOUND_MARGIN lies above the
        computed log norm.  An empty vector reads -inf, its log norm.
        Measured lines, sums that are tiny, non-finite or beyond float
        range, and NaN entries get inf.
        """
        p, fsum, log, inf = self.p, math.fsum, math.log, math.inf
        for vec in vecs:
            if not vec or self._log_measure is not None:
                yield inf if vec else _NEG_INF
                continue
            try:
                total = fsum(map(abs, vec.values()) if p == 1 else
                             map(pow, map(abs, vec.values()), repeat(p)))
            except OverflowError:
                total = inf
            yield log(total) / p + _BOUND_MARGIN if 1e-290 <= total < inf else inf

    def log_term(self, site, c: float) -> float:
        """log ||c e_site||^p of one entry: its term inside log_norm (-inf at 0)."""
        if not c:
            return -math.inf
        if self._log_measure is None:
            return self.p * math.log(abs(c))
        return self.p * math.log(abs(c)) + self._log_measure(*site)

    def norm(self, vec: Vec) -> float:
        return _exp(self.log_norm(vec))

    def norm_upper_bound(self) -> float:
        """Operator norm bound of a composition map: c^(1/p) of check_star."""
        return check_star(self.system).norm_bound

    def normalized_basis(self, site) -> Vec:
        """Unit vector on a site; a window key spreads evenly over its cells."""
        if self._log_measure is None:
            return {site: 1.0}
        sites = self._cover(site)
        log_mass = logsumexp([self.log_term(s, 1.0) for s in sites])
        return dict.fromkeys(sites, math.exp(-log_mass / self.p))

    def basis_positions(self, line: int, span: int) -> range:
        """Every position of a cycle, and positions -span..span of every other line."""
        period = self._periods[line]
        return range(period) if period else range(-span, span + 1)

    def apply_add(self, vec: Vec, other: Vec, negate: bool = False) -> Vec:
        """T vec + other (T vec - other with negate), under _add_into's floats and key order."""
        return _add_into(self.apply(vec, 1), other, negate)

    def apply_back_sum(self, vec: Vec, other: Vec) -> Vec:
        """T^-1 (vec + other); vec takes other in place first."""
        return self.apply(_add_into(vec, other), -1)

    def add_residual(self, acc: Vec, vec: Vec, other: Vec) -> Vec:
        """acc + (T vec - other), in place."""
        return _add_into(acc, self.apply_add(vec, other, negate=True))

    def add_basis(self, vec: Vec, site, magnitude: float) -> Vec:
        """vec + magnitude times the unit vector on site, a new dict."""
        return vec_add(vec, vec_scale(self.normalized_basis(site), magnitude))

    def _draw_site(self, rng: random.Random, reach: int):
        """A seeded site near position 0: the line first, then the position."""
        return self._key(*draw_site(rng, self._periods, reach))

    def noise_sites(self, rng: random.Random) -> object:
        return self._draw_site(rng, 2)

    def _sample_site(self, rng: random.Random) -> object:
        return self._draw_site(rng, _SAMPLE_REACH)


class ShiftOperator(LineSumOperator):
    """Bilateral weighted backward shift: (B x)_j = w_{j+1} x_{j+1}.

    One line with unit site measures; the sites are its integer positions.
    Its fused kernels (apply_add, apply_back_sum, add_residual, add_basis)
    take one pass over each input and build no intermediate dict, with the
    floats, zero rule and key order of the base class's compositions.
    """

    origin = 0

    def __init__(self, weights: WeightSequence, p: float = 2.0):
        check_exponent(p)
        super().__init__(p, [weights.values])
        self.weights = weights
        # One-step factors by direction and site, exp of the line's step logs:
        # the same floats apply() would compute afresh.
        self._factors: dict[int, dict[int, float]] = {1: {}, -1: {}}

    def _locate(self, site) -> tuple[int, int]:
        return 0, site

    def _key(self, line: int, position: int):
        return position

    def noise_sites(self, rng: random.Random) -> object:
        return rng.randrange(-2, 3)  # randint(-2, 2), one call less

    def _sample_site(self, rng: random.Random) -> object:
        return rng.randint(-_SAMPLE_REACH, _SAMPLE_REACH)

    def norm_upper_bound(self) -> float:
        return self.weights.sup

    def site_label(self, site) -> str:
        return f"e[{site}]"

    def apply(self, vec: Vec, steps: int = 1) -> Vec:
        if steps == 1 or steps == -1:  # the one step every recursion and walk takes
            return self._step(vec, steps)
        direction = 1 if steps > 0 else -1
        for _ in range(abs(steps)):
            vec = self._step(vec, direction)
        return vec

    def _factor(self, k: int, direction: int) -> float:
        """The factor of the step from k, kept with those of the 31 sites the next steps go to."""
        factors, line = self._factors[direction], self.weights.values
        try:
            factors.update(zip(range(k, k - 32 * direction, -direction),
                               map(math.exp, _step_logs(line, k, direction))))
        except OverflowError:  # a weight past float range raises only where a step reads it
            factors[k] = math.exp(next(_step_logs(line, k, direction)))
        return factors[k]

    def _step(self, vec: Vec, direction: int) -> Vec:
        """T vec (apply_add(vec, {}) without the lookups into {}), or T^-1 vec backward."""
        factors = self._factors[direction]
        out: Vec = {}
        for k, c in vec.items():
            try:
                f = factors[k]
            except KeyError:
                f = self._factor(k, direction)
            out[k - direction] = c * f
        return out

    def apply_add(self, vec: Vec, other: Vec, negate: bool = False) -> Vec:
        """T vec + other (T vec - other with negate): the moved entries in vec's order,
        less those that other cancels exactly, then other's remaining sites."""
        factors = self._factors[1]
        out: Vec = {}
        for k, c in vec.items():
            try:
                f = factors[k]
            except KeyError:
                f = self._factor(k, 1)
            site = k - 1
            if site in other:
                value = c * f - other[site] if negate else c * f + other[site]
                if value:
                    out[site] = value
            else:
                out[site] = c * f
        for site, b in other.items():
            if b and site + 1 not in vec:
                out[site] = 0.0 - b if negate else 0.0 + b
        return out

    def apply_back_sum(self, vec: Vec, other: Vec) -> Vec:
        """T^-1 (vec + other), no sum built and neither input changed."""
        factors, out = self._factors[-1], {}
        for k, c in vec.items():
            if k in other:
                c += other[k]
                if not c:
                    continue
            try:
                out[k + 1] = c * factors[k]
            except KeyError:
                out[k + 1] = c * self._factor(k, -1)
        for k, b in other.items():
            if b and k not in vec:  # an absent site adds to 0.0, and 0.0 + b is b
                try:
                    out[k + 1] = b * factors[k]
                except KeyError:
                    out[k + 1] = b * self._factor(k, -1)
        return out

    def add_residual(self, acc: Vec, vec: Vec, other: Vec) -> Vec:
        """acc + (T vec - other) in place, acc neither vec nor other: each entry of
        apply_add(vec, other, negate=True) goes into acc as _add_into adds it."""
        factors, get = self._factors[1], acc.get
        for k, c in vec.items():
            try:
                c *= factors[k]
            except KeyError:
                c *= self._factor(k, 1)
            site = k - 1
            if site in other:
                c -= other[site]
                if not c:
                    continue
            value = get(site, 0.0) + c
            if value:
                acc[site] = value
            elif site in acc:
                del acc[site]
        for site, b in other.items():
            if b and site + 1 not in vec:
                value = get(site, 0.0) - b
                if value:
                    acc[site] = value
                else:  # only a site of acc cancels: -b is not 0
                    del acc[site]
        return acc

    def add_basis(self, vec: Vec, site, magnitude: float) -> Vec:
        """vec + magnitude e_site in one new dict."""
        out = dict(vec)
        if magnitude:
            value = out.get(site, 0.0) + magnitude
            if value:
                out[site] = value
            else:
                del out[site]
        return out


class CompositionOperator(LineSumOperator):
    """Composition with the underlying map on a dissipative system.

    Acts on simple functions by reindexing: the preimage of the k-th image
    of a cell is the (k-1)-st image of the same cell, so coefficients ride
    along unchanged and only the site measures move the norm.  Each cell
    is one line, keyed (k, cell); without cells the window is the only
    line, keyed (k, None).  On a celled system a window key (k, None)
    stands for its cells: normalized_basis spreads it over them, and a
    norm of a vector holding one raises ValueError.
    """

    origin = (0, None)

    def __init__(self, system: DissipativeSystem):
        self.system = system
        self._cells = [None] if system.cells is None else list(range(system.n_cells))
        super().__init__(
            system.p,
            [weight_line(system.cell_ratio(cell), system.p) for cell in self._cells],
            site_log_measure=(
                system.site_log_measure if system.cells is None else self._cell_log_measure
            ),
        )

    def _cell_log_measure(self, k: int, cell: int | None) -> float:
        if cell is None:
            raise ValueError(f"window site ({k}, None) of a celled system in a vector; "
                             "normalized_basis spreads it over the cells")
        return self.system.site_log_measure(k, cell)

    def _locate(self, site) -> tuple[int, int]:
        k, cell = site
        if cell is None:
            if self.system.cells is not None:
                raise ValueError(f"window site ({k}, None) covers several cells")
            return 0, k
        return cell, k

    def _key(self, line: int, position: int):
        return (position, self._cells[line])

    def _cover(self, site) -> list:
        k, cell = site
        return [site] if cell is not None else [(k, c) for c in self._cells]

    def _sample_site(self, rng: random.Random) -> object:
        k = rng.randint(-_SAMPLE_REACH, _SAMPLE_REACH)  # the position before the cell
        return (k, self._cells[rng.randrange(len(self._cells))])

    def site_label(self, site) -> str:
        k, j = site
        return f"chi[{k}]" if j is None else f"chi[{k},cell{j + 1}]"

    def apply(self, vec: Vec, steps: int = 1) -> Vec:
        return {(k - steps, j): c for (k, j), c in vec.items()}


class AtomicOperator(LineSumOperator):
    """Composition over a union of cycles and lines of atoms.

    Component i is line i, keyed (i, index); a cycle's indices wrap mod r.
    """

    origin = (0, 0)

    def __init__(self, system: AtomicSystem):
        self.system = system
        comps = system.components
        super().__init__(
            system.p,
            [weight_line(comp.ratio, system.p) for comp in comps],
            system.periods,
            lambda ci, index: comps[ci].log_mu(index),
        )

    def _locate(self, site) -> tuple[int, int]:
        return site

    def _key(self, line: int, position: int):
        return (line, position)

    def site_label(self, site) -> str:
        return f"atom[{site[0]},{site[1]}]"

    def apply(self, vec: Vec, steps: int = 1) -> Vec:
        out: Vec = {}
        for (ci, idx), c in vec.items():
            period = self._periods[ci]
            target = (ci, (idx - steps) % period if period else idx - steps)
            out[target] = out.get(target, 0.0) + c
        return out


def operator_for(obj, p: float | None = None) -> LineSumOperator:
    if isinstance(obj, WeightSequence):
        return ShiftOperator(obj, p if p is not None else 2.0)
    if isinstance(obj, DissipativeSystem):
        return CompositionOperator(obj)
    if isinstance(obj, AtomicSystem):
        return AtomicOperator(obj)
    raise TypeError(f"no operator model for {type(obj).__name__}")


def _stepping_walk(op: LineSumOperator, vec: Vec, direction: int) -> Iterator[float]:
    """log ||T^n vec|| for n = 1, 2, ...: apply, then log_norm.

    A step whose coefficients would leave the normal float range is taken
    again from the vector rescaled by an exact power of two, the scale
    carried in log space; steps in range are left bit for bit.
    """
    current, log_scale = vec, 0.0
    while True:
        moved = op.apply(current, direction)
        if current and not sys.float_info.min <= max(map(abs, moved.values())) < math.inf:
            shift = math.frexp(max(map(abs, current.values())))[1]
            moved = op.apply({s: math.ldexp(c, -shift) for s, c in current.items()}, direction)
            log_scale += shift * _LOG2
        current = moved
        yield op.log_norm(current) + log_scale


def orbit_log_norms(op: LineSumOperator, vec: Vec, n_lo: int, n_hi: int) -> list[tuple[int, float]]:
    """log ||T^n x|| for n in [n_lo, n_hi]: log ||x|| and one stepping walk each way."""
    if n_lo > n_hi:
        raise EmptyOrbitRange(f"empty orbit range: nmin {n_lo} exceeds nmax {n_hi}")
    out = [(0, op.log_norm(vec))] if n_lo <= 0 <= n_hi else []
    for direction, reach in ((1, n_hi), (-1, -n_lo)):
        values = islice(_stepping_walk(op, vec, direction), max(reach, 0))
        out.extend((n, v) for n, v in zip(count(direction, direction), values) if n_lo <= n <= n_hi)
    return sorted(out)


def orbit_norms(op: LineSumOperator, vec: Vec, n_lo: int, n_hi: int) -> list[tuple[int, float]]:
    """Norms of the orbit T^n x for n in [n_lo, n_hi] (inf beyond float range)."""
    return [(n, _exp(log_norm)) for n, log_norm in orbit_log_norms(op, vec, n_lo, n_hi)]


# ---------------------------------------------------------------------------
# Brute-force expansivity


class BruteMode(Enum):
    POSITIVE = "positive"
    TWOSIDED = "twosided"
    UNIFORM_POSITIVE = "uniform_positive"
    UNIFORM_TWOSIDED = "uniform_twosided"

    @property
    def twosided(self) -> bool:
        return self in (BruteMode.TWOSIDED, BruteMode.UNIFORM_TWOSIDED)

    @property
    def uniform(self) -> bool:
        return self in (BruteMode.UNIFORM_POSITIVE, BruteMode.UNIFORM_TWOSIDED)


class BoundCertificate(Record):
    __slots__ = _fields = ("kind", "period", "sup_norm")

    kind: str  # "periodic" or "decaying"
    period: int
    sup_norm: float


class DirectionalWalk(Record):
    __slots__ = _fields = ("crossed_at", "certificate", "log_norms")

    crossed_at: int | None
    certificate: BoundCertificate | None
    log_norms: tuple[float, ...]  # log ||T^n x|| for n = 1..horizon, if asked for


def _scan(log_norms, horizon: int, want_curve: bool) -> DirectionalWalk:
    """Scan a random sample's log-norm walk (n = 1, 2, ...) for a threshold crossing.

    A sample's walk has no periodic structure to certify, so it can only
    cross.  The stream is read only as far as the crossing, or the first
    ``horizon`` values when ``want_curve``.
    """
    stream = iter(log_norms)
    values: list[float] = []
    crossed = None
    for n, value in zip(range(1, horizon + 1), stream):
        values.append(value)
        if value >= _THRESHOLD:
            crossed = n
            break
    if want_curve:
        values.extend(islice(stream, horizon - len(values)))
    return DirectionalWalk(crossed, None, tuple(values) if want_curve else ())


class _WalkTable:
    """The increments a probe's basis walks read along one weight line, in one direction.

    ``increments`` holds them as far as some walk has read, taken from the
    ``_step_logs`` stream of the anchor, the line's first basis or sample
    position in that direction: entry i is the log factor of the step
    from anchor - i forward, anchor + i backward.  ``shared`` holds the
    walks that later sites reuse, by tail phase.
    """

    __slots__ = ("line", "direction", "horizon", "want_curve", "anchor", "increments",
                 "_stream", "shared")

    def __init__(self, line: EventuallyPeriodicSequence, direction: int, positions: range,
                 horizon: int, want_curve: bool):
        self.line, self.direction, self.horizon, self.want_curve = (
            line, direction, horizon, want_curve)
        self.anchor = (max(positions[-1], _SAMPLE_REACH) if direction > 0
                       else min(positions[0], -_SAMPLE_REACH))
        self._stream = _step_logs(line, self.anchor, direction)
        self.increments: list[float] = []
        self.shared: dict = {}

    def read(self, start: int, stop: int) -> list[float]:
        """Entries start .. stop - 1, taking more from the stream where the table ends."""
        increments = self.increments
        if stop > len(increments):
            increments += islice(self._stream, stop - len(increments))
        return increments[start:stop]


def _table_walk(table: _WalkTable, position: int) -> DirectionalWalk:
    """Norm walk of the basis vector at ``position``: the running sums of its increments.

    Forward steps multiply by w at descending indices from ``position``,
    backward steps divide by w at ascending ones.  From step n_enter on,
    past the core, the increments are exactly periodic; with drift <= 0,
    the sign of their sum over one period, the supremum over all n is
    visible by n_enter + period, so a walk that has not crossed by then
    never does.  Past _CERT_READ_CAP (a far core) a walk never certifies.
    The crossing is found by a C-level scan; the rest of the certificate
    window is read only when there is none, the curve only when asked for.
    """
    line, horizon = table.line, table.horizon
    if table.direction > 0:
        n_enter, period = max(1, position - line.core_lo + 2), len(line.neg_period)
        drift = tail_sign_vs_one(line, "neg")
    else:
        n_enter, period = max(1, line.core_hi - position + 1), len(line.pos_period)
        drift = -tail_sign_vs_one(line, "pos")
    certifiable = drift <= 0 and n_enter + period <= _CERT_READ_CAP
    cert_end = n_enter + period if certifiable else 0
    search_end = min(horizon, cert_end) if certifiable else horizon
    start = table.direction * (table.anchor - position)
    reach = horizon if table.want_curve else search_end
    values = list(accumulate(table.read(start, start + reach)))
    crossed = next(compress(count(1), map(_THRESHOLD.__le__, values[:search_end])), None)
    certificate = None
    if crossed is None and certifiable:
        if cert_end > len(values):
            rest = table.read(start + len(values), start + cert_end)
            values += islice(accumulate(rest, initial=values[-1]), 1, None)
        sup = max([0.0, *values[:cert_end]])
        if sup < _LOG2 - _CERT_GAP:
            kind = "periodic" if drift == 0 else "decaying"
            certificate = BoundCertificate(kind, period, math.exp(sup))
    curve = tuple(values[:horizon]) if table.want_curve else ()
    return DirectionalWalk(crossed, certificate, curve)


def _random_sample(op: LineSumOperator, rng: random.Random) -> list[tuple[int, int, float]]:
    """Seeded unit-norm simple function with small support: (line, position, log term) triples.

    A log term is log ||c e_site||^p less p times the drawn function's log
    norm, so no norm leaves float range.  Sites stay in draw order: a set's
    order of ``(k, None)`` keys follows ``hash(None)``, which changes
    between interpreter starts on Python before 3.12.
    """
    size = rng.randint(2, 8)
    sites: dict = {}
    guard = 0
    while len(sites) < size and guard < 200:
        guard += 1
        sites[op._sample_site(rng)] = None
    vec = {site: rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5) for site in sites}
    terms = [op.log_term(site, c) for site, c in vec.items()]
    scale = op.p * (logsumexp(terms) / op.p)  # p * op.log_norm(vec), each site measured once
    return [(*op._locate(site), term - scale) for site, term in zip(vec, terms)]


def _sample_walk(sample: list, tables: list[_WalkTable], p: float,
                 gated: bool = False) -> Iterator[float]:
    """log ||T^n x|| for n = 1 .. horizon of a sample, summed only as far as it is read.

    Sites move one to one, so ||T^n x||^p sums ||c e_site||^p times the
    p-th power of each site's basis walk, read from its line's table.
    ``gated`` serves a scan that only tests value >= _THRESHOLD.  The
    log-sum-exp of k terms with largest term top lies in [top / p,
    (top + log k) / p], up to rounding far under _BOUND_MARGIN, so where
    top / p reaches the threshold or lies that margin plus log(k) / p below
    it, the step yields top / p, which passes the test iff the exact value
    does.  Samples with a non-finite term (p near float max) are not gated.
    """
    columns = []
    for line, position, term in sample:
        table = tables[line]
        start = table.direction * (table.anchor - position)
        sums = accumulate(table.read(start, start + table.horizon))
        columns.append(map(partial(add, term), map(partial(mul, p), sums)))
    if not gated or not all(math.isfinite(term) for *_, term in sample):
        yield from (logsumexp(list(terms)) / p for terms in zip(*columns))
        return
    below = _THRESHOLD - _BOUND_MARGIN - math.log(len(columns)) / p
    for terms in zip(*columns):
        value = max(terms) / p
        yield (value if _THRESHOLD <= value < math.inf or value < below
               else logsumexp(list(terms)) / p)


def _tail_start(
    line: EventuallyPeriodicSequence, position: int, direction: int
) -> tuple[tuple[bool, int], float] | None:
    """(phase, room) of a basis walk whose first increment lies in a periodic tail, else None.

    The walk reads w from index ``position`` down (forward) or from
    ``position + 1`` up (backward).  Its phase is the tail and the first
    index mod the tail's period; its room is how many increments it reads
    before it leaves that tail: none ever (inf) when it travels away from
    the core, the distance to the core when it travels towards it.
    """
    first = position if direction > 0 else position + 1
    if first < line.core_lo:
        room = math.inf if direction > 0 else line.core_lo - first
        return (False, first % len(line.neg_period)), room
    if first > line.core_hi:
        room = first - line.core_hi if direction > 0 else math.inf
        return (True, first % len(line.pos_period)), room
    return None


def _shared_line_walk(table: _WalkTable, position: int) -> DirectionalWalk:
    """_table_walk, computed once for every site whose tail room covers what it read.

    A basis walk is fixed by its line, its direction, its phase and the
    increments it read.  A walk that crossed at n read n of them (the whole
    curve of ``horizon`` when ``want_curve``), and a later site with the
    same phase and at least that much room reads the same ones first:
    its scan stops at the same n, since its certificate window lies past
    its room.  A walk that never crossed rests on where its site enters
    the period (its certificate window, the read cap), so it is shared
    only when it never leaves its tail: every such walk enters its period
    at once.
    """
    start = _tail_start(table.line, position, table.direction)
    if start is None:
        return _table_walk(table, position)
    phase, room = start
    walk = table.shared.get(phase)
    if walk is None or _reach(walk, table) > room:
        walk = _table_walk(table, position)
        if _reach(walk, table) <= room:
            table.shared[phase] = walk
    return walk


def _reach(walk: DirectionalWalk, table: _WalkTable) -> float:
    """How many increments a basis walk's result rests on: inf if it never crossed."""
    if walk.crossed_at is None:
        return math.inf
    return table.horizon if table.want_curve else walk.crossed_at


class SampleOutcome(Record):
    __slots__ = _fields = ("label", "kind", "crossed_at", "certificate",
                           "backward_crossed_at", "backward_certificate")
    _defaults = {"backward_crossed_at": None, "backward_certificate": None}

    label: str
    kind: str  # "basis" or "random"
    crossed_at: int | None
    certificate: BoundCertificate | None
    backward_crossed_at: int | None
    backward_certificate: BoundCertificate | None


class BruteForceReport(Record):
    """A probe's verdict and outcomes.

    ``positive_verdict`` is the positive reading of a TWOSIDED probe: the
    verdict a POSITIVE probe with the same horizon, samples and seed
    returns, read from the same pass over the outcomes.  It is None in the
    other modes.
    """

    __slots__ = _fields = ("verdict", "mode", "horizon", "seed", "samples", "positive_verdict")
    _defaults = {"positive_verdict": None}

    verdict: Verdict
    mode: BruteMode
    horizon: int
    seed: int
    samples: tuple[SampleOutcome, ...]
    positive_verdict: Verdict | None


def brute_force_expansivity(
    system,
    mode: BruteMode,
    *,
    horizon: int = 200,
    samples: int = 16,
    seed: int = 0,
    p: float | None = None,
    until_settled: bool = False,
) -> BruteForceReport:
    """Definition-level expansivity probe over basis vectors and random ones.

    Holds needs every sample to cross the norm threshold (a shared n in the
    uniform modes); Fails needs a certified bounded basis walk, never a
    random sample; everything else stays Undecided.  A basis walk is
    computed once per line, direction and tail phase, and shared by every
    later site whose tail room covers what it read (``_shared_line_walk``).

    Sites are walked lazily, basis sites first, as one pass reads them
    (``_pointwise_readings``); the full report walks each both ways and
    keeps its outcome.  With ``until_settled`` the probe reads only its
    verdicts, witnesses included, which are the full report's: the pass
    stops once no reading can change, a pointwise probe walks a site
    backward only where that can move the two-sided reading, and
    ``samples`` is ().
    """
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    if samples < 0:
        raise ValueError(f"samples must be at least 0, got {samples}")
    op = operator_for(system, p)
    rng = random.Random(seed)
    uniform, twosided = mode.uniform, mode.twosided
    directions = (1, -1) if twosided else (1,)
    tables: dict[int, list[_WalkTable]] = {d: [] for d in directions}  # by direction, line
    outcomes: list[SampleOutcome] = []
    curves: list[list[DirectionalWalk]] = []

    def basis_label(index: int, position: int) -> str:
        return op.site_label(op._key(index, position))

    def site(kind: str, label, forward: DirectionalWalk, backward) -> tuple:
        # A settled pointwise probe leaves the backward walk and the label to
        # the pass; the full report and the uniform curves take both walks now.
        if until_settled and not uniform:
            return forward, backward, label
        walks = [forward, backward()] if twosided else [forward]
        curves.append(walks)
        if not until_settled:
            b = walks[-1]
            outcomes.append(SampleOutcome(label(), kind, forward.crossed_at, forward.certificate,
                                          *((b.crossed_at, b.certificate) if twosided else ())))
        return forward, lambda walk=walks[-1]: walk, label

    def stream() -> Iterator[tuple | None]:
        for index, line in enumerate(op.lines):
            positions = op.basis_positions(index, horizon)
            for d in directions:
                tables[d].append(_WalkTable(line, d, positions, horizon, uniform))
            forward, *backward = [tables[d][index] for d in directions]
            for position in positions:
                yield site("basis", partial(basis_label, index, position),
                           _shared_line_walk(forward, position),
                           partial(_shared_line_walk, backward[0], position) if twosided else None)
        yield None  # the end of the basis sites
        for i in range(samples):
            sample = _random_sample(op, rng)  # drawn only when the pass reaches it
            yield site("random", partial("rand[{}]".format, i),
                       _scan(_sample_walk(sample, tables[1], op.p, not uniform), horizon, uniform),
                       lambda sample=sample: _scan(
                           _sample_walk(sample, tables[-1], op.p, not uniform), horizon, uniform))

    pending = stream()
    readings = _pointwise_readings(pending, twosided, settle=not uniform)
    if not until_settled:
        for _ in pending:  # the outcomes past the settling site, for the full report
            pass
    verdict = readings[-1]
    if uniform and not verdict.fails:
        verdict = _shared_crossing(curves, horizon)
    positive = readings[0] if twosided and not uniform else None
    return BruteForceReport(verdict, mode, horizon, seed, tuple(outcomes), positive)


def _pointwise_readings(sites: Iterator[tuple | None], twosided: bool, settle: bool
                        ) -> tuple[Verdict, ...]:
    """The positive reading of a probe's sites, then the two-sided one if twosided.

    A site is (forward walk, backward, label): backward and label are
    calls that give its backward walk and its label, made only where they
    can move a reading or name its witness; a None marks the end of the
    basis sites.  Both readings come from one pass, which reads the sites
    only as far as they can change a reading.  A reading Fails at the
    first site whose read walks all certify boundedness; otherwise it is
    Undecided at the first site that crosses in no read direction, and
    Holds when every site crosses, with the latest of their first
    crossings.  The positive reading reads the forward walks only; a
    forward crossing by the two-sided reading's latest first crossing so
    far leaves that reading as it is (a crossed walk has no certificate),
    so its backward walk is not read.  The pass stops once every reading
    Fails, and with ``settle`` at the end of the basis sites once every
    reading Fails or is Undecided, since a random sample never certifies.
    These are the verdicts of the pointwise modes; the uniform modes keep
    a Fails and otherwise look for a shared crossing.
    """
    last = 1 if twosided else 0
    # Per reading (positive, two-sided): the label and certificates of the
    # first certified site, the label of the first uncrossed site, and the
    # latest first crossing.
    bounded: list[tuple | None] = [None, None]
    uncrossed: list[str | None] = [None, None]
    latest = [0, 0]
    read = 0
    for site in sites:
        if site is None:
            if settle and all(bounded[i] is not None or uncrossed[i] is not None
                              for i in range(last + 1)):
                break
            continue
        read += 1
        forward, backward, label = site
        first = forward.crossed_at
        if first is None:
            if uncrossed[0] is None:
                uncrossed[0] = label()
        elif first > latest[0]:
            latest[0] = first
        if bounded[0] is None and forward.certificate is not None:
            bounded[0] = (label(), forward.certificate, None)
        if twosided and (first is None or first > latest[1]):
            walk = backward()
            if walk.crossed_at is not None and (first is None or walk.crossed_at < first):
                first = walk.crossed_at
            if first is None:
                if uncrossed[1] is None:
                    uncrossed[1] = label()
            elif first > latest[1]:
                latest[1] = first
            if (bounded[1] is None and forward.certificate is not None
                    and walk.certificate is not None):
                bounded[1] = (label(), forward.certificate, walk.certificate)
        if bounded[last] is not None:
            break  # every reading Fails; a two-sided bound is a forward one too
    return tuple(_reading(bounded[i], uncrossed[i], latest[i], read) for i in range(last + 1))


def _reading(bounded: tuple | None, uncrossed: str | None, latest: int, samples: int) -> Verdict:
    """One reading's verdict from what the pass over the sites found."""
    if bounded is not None:
        label, certificate, backward = bounded
        witness = {"sample": label, "certificate": certificate.as_dict()}
        if backward is not None:
            witness["backward_certificate"] = backward.as_dict()
        return Verdict(Status.FAILS, "definition", "brute-force", None, witness)
    if uncrossed is not None:
        return Verdict(
            Status.UNDECIDED, "definition", "brute-force", None,
            {"sample": uncrossed, "reason": "no crossing within the horizon"},
        )
    return Verdict(
        Status.HOLDS, "definition", "brute-force", None,
        {"max_crossing_n": latest, "samples": samples},
    )


def _shared_crossing(curves: list, horizon: int) -> Verdict:
    """Holds at the first n where every sample's curve crosses in some direction."""
    for n in range(horizon):
        if all(any(w.log_norms[n] >= _THRESHOLD for w in walks) for walks in curves):
            return Verdict(
                Status.HOLDS, "definition", "brute-force", None,
                {"n": n + 1, "samples": len(curves)},
            )
    return Verdict(
        Status.UNDECIDED, "definition", "brute-force", None,
        {"reason": "no shared crossing within the horizon"},
    )


# ---------------------------------------------------------------------------
# Pseudotrajectories and shadowing


class FloatRangeError(OverflowError, ValueError):
    """Coefficients past float range: a refused value, and an overflow to the CLI (exit 2)."""


class Pseudotrajectory(Record):
    __slots__ = _fields = ("start_index", "points", "delta")

    start_index: int
    points: tuple[Vec, ...]
    delta: float

    def _check(self) -> None:
        if not self.delta > 0:  # a NaN delta is refused too
            raise ValueError("delta must be positive")
        if len(self.points) < 2:
            raise ValueError("a pseudotrajectory needs at least two points")
        if not all(map(math.isfinite, chain.from_iterable(map(dict.values, self.points)))):
            raise FloatRangeError("pseudotrajectory coefficients must be finite")

    def errors(self, op: LineSumOperator) -> list[Vec]:
        """e_i = T x_i - x_{i+1}, each one apply_add."""
        apply_add = op.apply_add
        return [apply_add(x, y, True) for x, y in zip(self.points, self.points[1:])]


def make_pseudotrajectory(
    op: LineSumOperator, x0: Vec, delta: float, length: int, seed: int
) -> Pseudotrajectory:
    """Seeded delta-pseudotrajectory dressing the true orbit of x0 with noise.

    Each point is the exact orbit point plus a single-site perturbation of
    norm at most delta / (1 + ||T||), which keeps every one-step residual
    within delta at any orbit scale; add_basis adds it into a copy of the
    orbit point.  The draws are a contract that pinned results rest on:
    per point the site, then the uniform factor in [0.5, 1], then the sign.
    """
    rng = random.Random(seed)
    scale = delta / (1.0 + op.norm_upper_bound())
    start = -((length - 1) // 2)
    points: list[Vec] = []
    current = dict(x0)
    for i in range(length):
        site = op.noise_sites(rng)
        # rng.uniform(0.5, 1.0) is 0.5 + 0.5 * rng.random(), spelled out to save a call.
        magnitude = scale * (0.5 + 0.5 * rng.random()) * rng.choice((-1.0, 1.0))
        points.append(op.add_basis(current, site, magnitude))
        if i + 1 < length:
            current = op.apply(current, 1)
    # Positive finite factors keep an overflowed coefficient non-finite, so an
    # orbit past float range shows in the last point, and Pseudotrajectory refuses it.
    return Pseudotrajectory(start_index=start, points=tuple(points), delta=delta)


class NoSplitting(Exception):
    """The operator's rates admit no certified stable/unstable splitting."""


class Splitting(Record):
    __slots__ = _fields = ("cuts", "window", "lam_stable", "lam_unstable",
                           "stable_table", "unstable_table")

    cuts: tuple[float, ...]  # per line, its last stable position: inf for all, -inf for none
    window: int
    lam_stable: float | None
    lam_unstable: float | None
    stable_table: tuple[float, ...]
    unstable_table: tuple[float, ...]

    @property
    def kind(self) -> str:
        """"contraction", "expansion" or "split": which tables are non-empty."""
        if not self.unstable_table:
            return "contraction"
        return "split" if self.stable_table else "expansion"

    @property
    def cut(self) -> int | None:
        """The one finite cut that every line shares, else None."""
        return self.cuts[0] if len(set(self.cuts)) == 1 and math.isfinite(self.cuts[0]) else None

    def a_priori_bound(self, delta: float) -> float:
        """Worst-case shadowing distance for one-step errors of size delta."""
        total = 0.0
        if self.stable_table:
            total += _series_sum(self.stable_table, self.window, include_zero=True)
        if self.unstable_table:
            total += _series_sum(self.unstable_table, self.window, include_zero=False)
        return delta * total


def _series_sum(table: tuple[float, ...], window: int, include_zero: bool) -> float:
    # sum over j >= 0 (or >= 1) of the submultiplicative extension of the table
    a_m = table[window - 1]
    if a_m >= 1:
        raise NoSplitting("certificate window does not contract")
    block = 1.0 + reduce(add, table[: window - 1], 0.0)  # j = 0 .. window-1
    total = block / (1.0 - a_m)
    if not math.isfinite(total):
        raise NoSplitting("certificate constants leave float range")
    if not include_zero:
        total -= 1.0
    return total


def _sup_factor(line: EventuallyPeriodicSequence, j: int, cut: float, forward: bool) -> float:
    """Sup over anchors k of the log norm factor of j steps from k.

    Forward, over stable anchors k <= cut: the log product of w[k-j+1 .. k].
    Backward, over anchors k > cut: that of 1/w over [k+1 .. k+j], summed as
    negated logs; round-to-nearest makes each window sum exactly the negation
    of the forward one.  An infinite cut clamps to one period past the core.
    """
    lo = line.core_lo - len(line.neg_period)
    hi = line.core_hi + len(line.pos_period)
    if forward:
        first, last = min(lo, cut) - j + 1, min(cut, hi + j)
    else:
        first, last = max(cut + 2, lo - j + 1), max(hi, cut + 1) + j
    logs = islice(line.logs_from(first, 1), last - first + 1)
    prefix = list(accumulate(logs if forward else map(neg, logs), initial=0.0))
    return max(prefix[i + j] - prefix[i] for i in range(len(prefix) - j))


def _table_entry(log_factor: float) -> float:
    # An entry beyond float range puts the series bound beyond it too.
    try:
        return math.exp(log_factor)
    except OverflowError:
        raise NoSplitting("certificate constants leave float range") from None


def _window_rate(table: list[float]) -> float | None:
    # per-step rate certified by the last entry of a window's table
    return table[-1] ** (1.0 / len(table)) if table else None


_MAX_WINDOW = 256


def build_splitting(op: LineSumOperator) -> Splitting:
    """Stable/unstable splitting with certified contraction tables.

    A direct sum splits line by line.  A weight line with both tail rates
    below 1 is all stable, both above 1 all unstable, and one contracting on
    the left and expanding on the right is cut at its core end; any other
    line (a unit tail rate, as on every cycle, or the reversed split) leaves
    the sum unsplit.  Each table is the largest over the lines on its side.
    """
    lines = op.lines
    cuts = tuple([{(-1, -1): math.inf, (1, 1): -math.inf, (-1, 1): line.core_hi}.get(
        (tail_sign_vs_one(line, "neg"), tail_sign_vs_one(line, "pos"))) for line in lines])
    if None in cuts:
        raise NoSplitting("weight tail rates do not separate into contraction and expansion")
    stable = [(line, cut) for line, cut in zip(lines, cuts) if cut > -math.inf]
    unstable = [(line, cut) for line, cut in zip(lines, cuts) if cut < math.inf]

    window = math.lcm(*(len(tail) for line in lines for tail in (line.neg_period, line.pos_period)))
    while window <= _MAX_WINDOW:
        tables = [
            [_table_entry(max(_sup_factor(line, j, cut, forward) for line, cut in sides))
             for j in range(1, window + 1)] if sides else []
            for forward, sides in ((True, stable), (False, unstable))
        ]
        if all(table[-1] < 1.0 - 1e-12 for table in tables if table):
            return Splitting(cuts, window, *map(_window_rate, tables), *map(tuple, tables))
        window *= 2
    raise NoSplitting("no contracting certificate window within the scan bound")


class ShadowResult(Record):
    """A verified shadowing: the true orbit z_i = x_i + d_i, its distance and its bounds."""

    _fields = ("start_index", "points", "corrections", "eps_achieved", "dropped",
               "bound_a_priori", "max_orbit_residual", "splitting")
    __slots__ = _fields + ("_z_points",)

    start_index: int
    points: tuple[Vec, ...]  # the pseudotrajectory's x_i
    corrections: tuple[Vec, ...]  # the d_i
    eps_achieved: float
    dropped: float  # the largest norm the support bound dropped in one step
    bound_a_priori: float
    max_orbit_residual: float
    splitting: Splitting

    @property
    def z_points(self) -> tuple[Vec, ...]:
        """The z_i = x_i + d_i, built on first read and kept."""
        try:
            return self._z_points
        except AttributeError:
            z = tuple([_add_into(dict(x), d) for x, d in zip(self.points, self.corrections)])
            object.__setattr__(self, "_z_points", z)
            return z


# Drop floor for correction entries, relative to the largest one-step error.
_TRUNC = 1e-15


def _keep_without_log(op: LineSumOperator, floor: float) -> float:
    """A |c| at or above which an entry's log term is at least the floor: exp(floor / p)(1 + 1e-9).

    Its log term p log|c| then clears the floor by about p 1e-9, far beyond
    the rounding of exp, log and the products (under 1e-12 p while
    |floor / p| < 710), so the prune may keep the entry unread.  Only on
    unit-measure lines and only when that threshold is a positive normal
    float; otherwise NaN, which no |c| reaches, so zeros, subnormal floors
    and measured sites all read their log term.
    """
    if op._log_measure is None and floor > -math.inf:
        threshold = math.exp(floor / op.p) * (1 + 1e-9)
        if sys.float_info.min <= threshold < math.inf:
            return threshold
    return math.nan


def _max_log_norm(op: LineSumOperator, vecs: list[Vec], start: float | None = None) -> float:
    """max(map(op.log_norm, vecs), default=-inf), or max(start, ...) of them when start is given.

    An empty vector (-inf) or one whose log_norm_bounds entry lies below a
    finite running maximum cannot beat it, so its exact log norm is skipped;
    every other one is computed and compared as max compares: the first
    maximum wins, a NaN reads as max reads it, the result is max's to the bit.
    """
    log_norm, top = op.log_norm, start
    if top is None:
        top = log_norm(vecs[0]) if vecs and vecs[0] else _NEG_INF
        vecs = vecs[1:]
    for vec, bound in zip(vecs, op.log_norm_bounds(vecs)):
        if bound < top < math.inf or not vec:
            continue
        value = log_norm(vec)
        if value > top:
            top = value
    return top


def shadow(
    op: LineSumOperator,
    pt: Pseudotrajectory,
    splitting: Splitting | None = None,
) -> ShadowResult:
    """Correct a pseudotrajectory to a verified true orbit.

    With errors e_i = T x_i - x_{i+1}, the correction d_i = s_i - u_i comes
    from two exact recursions: s_0 = 0, s_i = T s_{i-1} + P_s e_{i-1} forward
    from the past, and u_{n-1} = 0, u_i = T^-1 (u_{i+1} + P_u e_i) backward
    from the future, so that T d_i + e_i = d_{i+1}.  Each step drops the
    entries whose own norm is below _TRUNC times the largest error, which
    keeps the supports bounded and the run linear in the length.  With
    `dropped` the largest norm dropped in one step, the splitting's series
    bounds what the drops could add to any d_i: a_priori_bound(dropped),
    plus dropped for the unstable j = 0 term that bound leaves out.
    eps_achieved is max ||d_i|| plus this.  The result is checked against
    the orbit relation before being returned: shadowing is linear, so the
    largest residual may be 1e-9 times the largest error once that exceeds 1.

    Each step is fused, on a shift one pass that builds no intermediate
    dict: a stable step is one apply_add and a prune, an unstable step one
    apply_back_sum and a prune, and a prune returns its input when no entry
    lies below keep_at.  The closing pass only verifies: add_residual adds
    each residual e_i + T d_i - d_{i+1} into e_i in place.  The result keeps
    the x_i and d_i and builds the z_i when first read; the largest error,
    ||d_i|| and residual are read through _max_log_norm.  Every float and
    key order is that of the step-by-step recursions, which build each
    quantity from fresh copies in a loop of its own.
    """
    if splitting is None:
        splitting = build_splitting(op)
    errors = pt.errors(op)
    count = len(pt.points)
    apply_add, apply_back_sum, p = op.apply_add, op.apply_back_sum, op.p
    # _exp is monotone, so the largest norm is _exp of the largest log norm.
    delta_eff = _exp(_max_log_norm(op, errors))
    floor = p * (math.log(_TRUNC) + math.log(delta_eff)) if delta_eff > 0 else -math.inf
    keep_at = _keep_without_log(op, floor)
    log_term = op.log_term
    lost = -math.inf  # the largest log ||dropped||^p of one step

    def pruned(vec: Vec) -> Vec:
        """vec without its entries whose log term is below the floor; their mass goes to lost.

        vec itself when no entry is below keep_at, which a NaN keep_at never shows.
        """
        nonlocal lost
        if min(map(abs, vec.values()), default=math.inf) >= keep_at:
            return vec
        kept = {s: c for s, c in vec.items() if abs(c) >= keep_at or not log_term(s, c) < floor}
        if len(kept) < len(vec):
            lost = max(lost, logsumexp([log_term(s, c) for s, c in vec.items() if s not in kept]))
        return kept

    # (P_s e_i, P_u e_i) by each line's cut; off a split, e_i is on the one side the loops read.
    stable_errors = unstable_errors = errors
    if splitting.kind == "split":
        cuts, locate = splitting.cuts, op._locate
        stable_errors, unstable_errors = [], []
        for e in errors:
            parts: tuple[Vec, Vec] = ({}, {})
            for s, c in e.items():
                line, position = locate(s)
                parts[position > cuts[line]][s] = c
            stable_errors.append(parts[0])
            unstable_errors.append(parts[1])

    corrections: list[Vec] = [{} for _ in range(count)]
    if splitting.stable_table:
        stable: Vec = {}
        for i in range(1, count):
            stable = pruned(apply_add(stable, stable_errors[i - 1]))
            corrections[i] = stable
    if splitting.unstable_table:
        unstable: Vec = {}
        for i in range(count - 2, -1, -1):
            unstable = pruned(apply_back_sum(unstable, unstable_errors[i]))
            _add_into(corrections[i], unstable, negate=True)

    # The closing pass only verifies.  The recursions are done, so each e_i
    # takes its residual e_i + T d_i - d_{i+1} in place; the largest log
    # norms of the d_i and of the residuals go through _exp once.
    for i in range(count - 1):
        op.add_residual(errors[i], corrections[i], corrections[i + 1])
    log_eps = _max_log_norm(op, corrections)
    log_residual = _max_log_norm(op, errors, start=-math.inf)

    dropped = math.exp(lost / p)
    eps = _exp(log_eps)
    eps += splitting.a_priori_bound(dropped) + dropped
    max_residual = _exp(log_residual)
    if max_residual > 1e-9 * max(1.0, delta_eff):
        raise NoSplitting(
            f"orbit relation failed after correction (residual {max_residual:.3e})"
        )

    return ShadowResult(
        start_index=pt.start_index,
        points=pt.points,
        corrections=tuple(corrections),
        eps_achieved=eps,
        dropped=dropped,
        bound_a_priori=splitting.a_priori_bound(pt.delta),
        max_orbit_residual=max_residual,
        splitting=splitting,
    )
