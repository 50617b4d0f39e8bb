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
summed in log space, and every orbit norm is read from one stream per
direction, ``log_norm_walk``; a shift's stream carries a running log scale,
so orbit norms stay meaningful far beyond float range.

The brute-force expansivity check follows the norm-threshold definition
directly: a unit vector escapes once some iterate has norm at least 2.
Basis vectors have eventually periodic norm walks, so a non-crossing can
be certified exactly; random simple functions can only ever cross, never
certify boundedness, and an uncrossed one leaves the verdict Undecided.
Each probe is one stream of log norms read by one scan, only as far as
the decision needs.  A basis walk accumulates its weight line's
increment stream (``logs_from``, built from the line's tables at C
level), and a walk that lies wholly in one periodic tail is computed
once per line, direction and phase and shared by every site with that
phase.  A random sample's stream (``log_norm_walk``) is lazy, so it
stops at its crossing; composition and atomic maps only move sites, so
each step adds p log|c| to a memoized site log measure and builds no
vector, while a shift applies each step.  The forward walks of a
two-sided probe are those of a positive probe with the same seed, so
``pointwise_verdict`` reads both pointwise verdicts from one report.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import asdict, dataclass
from enum import Enum
from itertools import accumulate, count, islice
from operator import neg
from typing import Iterator

from .classify import Status, Verdict
from .seqcore import EventuallyPeriodicSequence, tail_sign_vs_one
from .systems import (
    AtomicSystem,
    DissipativeSystem,
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
_CERT_GAP = 1e-9
# Most values a basis walk's boundedness certificate may read (n_enter +
# period).  The test pins, the acceptance tests and the benchmark workloads
# read at most 63; a walk whose certificate would need more than the cap
# stays uncertified, so its reading can only turn Undecided, never wrong.
_CERT_READ_CAP = 4096


def _add_into(out: Vec, b: Vec, negate: bool = False) -> Vec:
    """out + b (out + (-b) with negate), in place; a sum of exactly 0 drops its site.

    The one home of the zero rule: vec_add, vec_sub and shadow's passes all
    add here.  New sites follow out's in b's order.
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


def vec_sub(a: Vec, b: Vec) -> Vec:
    return _add_into(dict(a), b, negate=True)


def vec_scale(a: Vec, factor: float) -> Vec:
    if factor == 0.0:
        return {}
    return {site: c * factor for site, c in a.items()}


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
        p, log, exp = self.p, math.log, math.exp
        measure = self._log_measure
        if measure is None:
            terms = [p * log(abs(c)) for c in vec.values() if c]
        else:
            terms = [p * log(abs(c)) + measure(a, b) for (a, b), c in vec.items() if c]
        # systems.logsumexp inlined: the same floats, summed in the same order.
        if _NEG_INF in terms:
            terms = [v for v in terms if v != _NEG_INF]
        if not terms:
            return _NEG_INF
        top = max(terms)
        return (top + log(sum([exp(v - top) for v in terms]))) / p

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

    def basis_sites(self, span: int) -> list:
        """Every site of a cycle, and positions -span..span of every other line."""
        return [
            self._key(line, k)
            for line, period in enumerate(self._periods)
            for k in (range(period) if period else range(-span, span + 1))
        ]

    def _draw_site(self, rng: random.Random, reach: int):
        """A seeded site near position 0: the line first, then the position."""
        return self._key(*draw_site(rng, self._periods, reach))

    def noise_sites(self, rng: random.Random) -> object:
        return self._draw_site(rng, 2)

    def _sample_site(self, rng: random.Random) -> object:
        return self._draw_site(rng, 12)

    def site_is_stable(self, site, splitting: "Splitting") -> bool:
        return splitting.covers_stable(self._locate(site)[1])

    def log_norm_walk(self, vec: Vec, direction: int) -> Iterator[float]:
        """log ||T^n vec|| for n = 1, 2, ... in one direction, each step computed on demand.

        The map only moves sites, one position per step, and leaves the
        coefficients alone.  So step n's terms are each entry's p log|c|
        plus the log measure of its moved site, in the key order of vec:
        the floats log_norm(apply(vec, n)) sums.  Site measures are
        memoized per walk.  A shift, whose steps rescale coefficients,
        overrides this.
        """
        p, measure = self.p, self._log_measure
        entries = []
        for site, c in vec.items():
            if c != 0:
                line, position = self._locate(site)
                entries.append((p * math.log(abs(c)), line, position, self._periods[line]))
        memo: dict = {}
        for n in count(direction, direction):
            terms = []
            for coeff_term, line, position, period in entries:
                moved = (position - n) % period if period else position - n
                site_term = memo.get((line, moved))
                if site_term is None:
                    site_term = memo[line, moved] = measure(*self._key(line, moved))
                terms.append(coeff_term + site_term)
            yield logsumexp(terms) / p


class ShiftOperator(LineSumOperator):
    """Bilateral weighted backward shift: (B x)_j = w_{j+1} x_{j+1}.

    One line with unit site measures; the sites are its integer positions.
    """

    origin = 0

    def __init__(self, weights: WeightSequence, p: float = 2.0):
        check_exponent(p)
        super().__init__(p, [weights.values])
        self.weights = weights
        # One-step factors by site, exp(log w_k) forward and exp(-log w_{k+1})
        # backward: the same floats apply() would compute afresh.
        self._forward: dict[int, float] = {}
        self._backward: dict[int, float] = {}

    def _locate(self, site) -> tuple[int, int]:
        return 0, site

    def _key(self, line: int, position: int):
        return position

    def noise_sites(self, rng: random.Random) -> object:
        return rng.randint(-2, 2)

    def _sample_site(self, rng: random.Random) -> object:
        return rng.randint(-12, 12)

    def norm_upper_bound(self) -> float:
        return self.weights.sup

    def site_label(self, site) -> str:
        return f"e[{site}]"

    def log_norm_walk(self, vec: Vec, direction: int) -> Iterator[float]:
        """log ||T^n vec|| for n = 1, 2, ...: a shift step rescales coefficients, so apply it.

        A step that would take the coefficients out of the normal float
        range is taken again from the vector rescaled by an exact power of
        two, and the scale is carried in log space; steps in range are left
        bit for bit.
        """
        current, log_scale = vec, 0.0
        while True:
            moved = self.apply(current, direction)
            if current and not sys.float_info.min <= max(map(abs, moved.values())) < math.inf:
                shift = math.frexp(max(map(abs, current.values())))[1]
                scaled = {s: math.ldexp(c, -shift) for s, c in current.items()}
                moved = self.apply(scaled, direction)
                log_scale += shift * _LOG2
            current = moved
            yield self.log_norm(current) + log_scale

    def apply(self, vec: Vec, steps: int = 1) -> Vec:
        if steps == 1 or steps == -1:  # the one step every recursion and walk takes
            return self._step(vec, steps > 0)
        for _ in range(abs(steps)):
            vec = self._step(vec, steps > 0)
        return vec

    def _step(self, vec: Vec, forward: bool) -> Vec:
        w = self.weights.values
        moved: Vec = {}
        if forward:
            factors = self._forward
            for k, c in vec.items():
                f = factors.get(k)
                if f is None:
                    f = factors[k] = math.exp(w.log_at(k))
                moved[k - 1] = c * f
        else:
            factors = self._backward
            for k, c in vec.items():
                f = factors.get(k)
                if f is None:
                    f = factors[k] = math.exp(-w.log_at(k + 1))
                moved[k + 1] = c * f
        return moved


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
        k = rng.randint(-12, 12)  # the position before the cell
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


def orbit_log_norms(
    op: LineSumOperator, vec: Vec, n_lo: int, n_hi: int
) -> list[tuple[int, float]]:
    """log ||T^n x|| for n in [n_lo, n_hi]: log ||x|| and the operator's walk each way."""
    if n_lo > n_hi:
        raise ValueError("empty orbit range")
    out = [(0, op.log_norm(vec))] if n_lo <= 0 <= n_hi else []
    for direction, reach in ((1, n_hi), (-1, -n_lo)):
        values = islice(op.log_norm_walk(vec, direction), max(reach, 0))
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


@dataclass(frozen=True)
class BoundCertificate:
    kind: str  # "periodic" or "decaying"
    period: int
    sup_norm: float


@dataclass(frozen=True)
class DirectionalWalk:
    crossed_at: int | None
    certificate: BoundCertificate | None
    log_norms: tuple[float, ...]  # log ||T^n x|| for n = 1..horizon, if asked for


def _scan(log_norms, horizon: int, want_curve: bool, bound=None) -> DirectionalWalk:
    """Scan a log-norm walk (n = 1, 2, ...) for a threshold crossing or a boundedness proof.

    ``bound`` is ``(n_enter, period, drift)`` for a basis walk, whose
    increments are exactly periodic from step n_enter on, with ``drift``
    the sign of their sum over one period.  With drift <= 0 the walk is
    dominated by its first full period past the entry point, so the
    supremum over all n is already visible at n_enter + period, and a walk
    that has not crossed by then never does.  A walk without a bound (a
    random sample), or whose n_enter + period exceeds _CERT_READ_CAP (a core
    far from the walk's start), never certifies.  The stream is read only as
    far as the decision and the curve need: the first ``horizon`` values
    when ``want_curve``.
    """
    n_enter, period, drift = bound or (0, 0, 1)
    certifiable = drift <= 0 and n_enter + period <= _CERT_READ_CAP
    cert_end = n_enter + period if certifiable else 0
    search_end = min(horizon, cert_end) if certifiable else horizon
    threshold = _LOG2 - _CROSS_TOL
    stream = iter(log_norms)
    values: list[float] = []
    crossed = None
    for n, value in zip(range(1, search_end + 1), stream):
        values.append(value)
        if value >= threshold:
            crossed = n
            break
    need = max(horizon if want_curve else 0, cert_end if crossed is None else 0)
    if need > len(values):
        values.extend(islice(stream, need - len(values)))
    certificate = None
    if crossed is None and certifiable:
        sup = max([0.0, *values[:cert_end]])
        if sup < _LOG2 - _CERT_GAP:
            kind = "periodic" if drift == 0 else "decaying"
            certificate = BoundCertificate(kind, period, math.exp(sup))
    return DirectionalWalk(crossed, certificate, tuple(values[:horizon]) if want_curve else ())


def _line_walk(
    line: EventuallyPeriodicSequence, position: int, direction: int, horizon: int, want_curve: bool
) -> DirectionalWalk:
    """Norm walk of a basis vector along one weight line.

    Forward steps multiply by w at descending indices starting at
    ``position``; backward steps divide by w at ascending indices.  The
    increments become exactly periodic once the walk clears the core, so
    boundedness is certifiable from one extra period of scanning.  They
    come from the line's table-driven stream, accumulated at C level.
    """
    if direction > 0:
        increments = line.logs_from(position, -1)
        bound = (max(1, position - line.core_lo + 2), len(line.neg_period),
                 tail_sign_vs_one(line, "neg"))
    else:
        increments = map(neg, line.logs_from(position + 1, 1))
        bound = (max(1, line.core_hi - position + 1), len(line.pos_period),
                 -tail_sign_vs_one(line, "pos"))
    return _scan(accumulate(increments), horizon, want_curve, bound)


def _random_sample(op: LineSumOperator, rng: random.Random) -> Vec:
    """Seeded unit-norm simple function with small support.

    The sites are kept in draw order (a dict, not a set): a set's order of
    ``(k, None)`` keys follows ``hash(None)``, which changes between
    interpreter starts on Python before 3.12.
    """
    size = rng.randint(2, 8)
    sites: dict = {}
    guard = 0
    while len(sites) < size and guard < 200:
        guard += 1
        sites[op._sample_site(rng)] = None
    vec: Vec = {}
    for site in sites:
        vec[site] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5)
    log_norm = op.log_norm(vec)
    return vec_scale(vec, math.exp(-log_norm))


def _tail_phase(line: EventuallyPeriodicSequence, position: int, direction: int) -> int | None:
    """Phase of a basis walk that lies wholly in one periodic tail, else None.

    A forward walk from left of the core reads only the negative tail, and
    a backward walk from the core's last index on only the positive one.
    Such a walk enters its period at once (n_enter = 1), so it is fixed by
    its line, its direction and where in the period it starts.
    """
    if direction > 0 and position < line.core_lo:
        return (line.core_lo - 1 - position) % len(line.neg_period)
    if direction < 0 and position >= line.core_hi:
        return (position - line.core_hi) % len(line.pos_period)
    return None


@dataclass(frozen=True)
class SampleOutcome:
    label: str
    kind: str  # "basis" or "random"
    crossed_at: int | None
    certificate: BoundCertificate | None
    backward_crossed_at: int | None = None
    backward_certificate: BoundCertificate | None = None

    def sides(self, twosided: bool) -> tuple[tuple[int | None, BoundCertificate | None], ...]:
        """(crossed_at, certificate) of the forward walk, then of the backward one if twosided."""
        forward = (self.crossed_at, self.certificate)
        if not twosided:
            return (forward,)
        return forward, (self.backward_crossed_at, self.backward_certificate)


@dataclass(frozen=True)
class BruteForceReport:
    verdict: Verdict
    mode: BruteMode
    horizon: int
    seed: int
    samples: tuple[SampleOutcome, ...]


def brute_force_expansivity(
    system,
    mode: BruteMode,
    *,
    horizon: int = 200,
    samples: int = 16,
    seed: int = 0,
    p: float | None = None,
) -> BruteForceReport:
    """Definition-level expansivity probe over basis vectors and random ones.

    Holds needs every sample to cross the norm threshold (a shared n in the
    uniform modes); Fails needs a certified bounded basis walk, never a
    random sample; everything else stays Undecided.  A basis walk that
    lies wholly in one periodic tail is computed once per line, direction
    and phase, and shared by every site with that phase.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    if samples < 0:
        raise ValueError(f"samples must be at least 0, got {samples}")
    op = operator_for(system, p)
    rng = random.Random(seed)
    directions = (1, -1) if mode.twosided else (1,)
    probes: list[tuple[str, str, list[DirectionalWalk]]] = []
    tail_walks: dict[tuple[int, int, int], DirectionalWalk] = {}
    for site in op.basis_sites(horizon):
        index, position = op._locate(site)
        line = op.lines[index]
        walks = []
        for d in directions:
            phase = _tail_phase(line, position, d)
            walk = tail_walks.get((index, d, phase))  # never stored for phase None
            if walk is None:
                walk = _line_walk(line, position, d, horizon, mode.uniform)
                if phase is not None:
                    tail_walks[index, d, phase] = walk
            walks.append(walk)
        probes.append((op.site_label(site), "basis", walks))
    for i in range(samples):
        vec = _random_sample(op, rng)
        walks = [_scan(op.log_norm_walk(vec, d), horizon, mode.uniform) for d in directions]
        probes.append((f"rand[{i}]", "random", walks))
    # The forward walk fills crossed_at and certificate, the backward one the backward pair.
    outcomes = tuple(
        SampleOutcome(label, kind, *(field for w in walks for field in (w.crossed_at, w.certificate)))
        for label, kind, walks in probes
    )
    if mode.uniform:
        verdict = (_certified_bounded(outcomes, mode.twosided)
                   or _shared_crossing([walks for _, _, walks in probes], horizon))
    else:
        verdict = pointwise_verdict(outcomes, mode.twosided)
    return BruteForceReport(verdict, mode, horizon, seed, outcomes)


def _certified_bounded(outcomes: tuple[SampleOutcome, ...], twosided: bool) -> Verdict | None:
    """Fails at the first sample whose read walks all carry a bound certificate, else None."""
    for outcome in outcomes:
        sides = outcome.sides(twosided)
        if all(certificate is not None for _, certificate in sides):
            witness = {"sample": outcome.label}
            for name, (_, certificate) in zip(("certificate", "backward_certificate"), sides):
                witness[name] = asdict(certificate)
            return Verdict(Status.FAILS, "definition", "brute-force", None, witness)
    return None


def pointwise_verdict(outcomes: tuple[SampleOutcome, ...], twosided: bool) -> Verdict:
    """Verdict of the positive (forward walks only) or two-sided pointwise probe.

    Holds needs every sample to cross in some read direction, Fails a
    certified bounded basis walk in every read direction.  The forward
    pairs of a two-sided report are the walks a positive probe with the
    same horizon, samples and seed makes, so ``twosided=False`` on them
    gives that probe's verdict.
    """
    verdict = _certified_bounded(outcomes, twosided)
    if verdict is not None:
        return verdict
    crossings = []
    for outcome in outcomes:
        crossed = [n for n, _ in outcome.sides(twosided) if n is not None]
        if not crossed:
            return Verdict(
                Status.UNDECIDED, "definition", "brute-force", None,
                {"sample": outcome.label, "reason": "no crossing within the horizon"},
            )
        crossings.append(min(crossed))
    return Verdict(
        Status.HOLDS, "definition", "brute-force", None,
        {"max_crossing_n": max(crossings), "samples": len(outcomes)},
    )


def _shared_crossing(curves: list, horizon: int) -> Verdict:
    """Holds at the first n where every sample's curve crosses in some direction."""
    threshold = _LOG2 - _CROSS_TOL
    for n in range(horizon):
        if all(any(w.log_norms[n] >= threshold for w in walks) for walks in curves):
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


@dataclass(frozen=True)
class Pseudotrajectory:
    start_index: int
    points: tuple[Vec, ...]
    delta: float

    def __post_init__(self) -> None:
        if not self.delta > 0:  # a NaN delta is refused too
            raise ValueError("delta must be positive")
        if len(self.points) < 2:
            raise ValueError("a pseudotrajectory needs at least two points")

    def errors(self, op: LineSumOperator) -> list[Vec]:
        """e_i = T x_i - x_{i+1}, each built in place on the fresh result of apply."""
        points = self.points
        return [_add_into(op.apply(points[i], 1), points[i + 1], negate=True)
                for i in range(len(points) - 1)]

    def max_residual(self, op: LineSumOperator) -> float:
        return max((op.norm(e) for e in self.errors(op)), default=0.0)


def make_pseudotrajectory(
    op: LineSumOperator, x0: Vec, delta: float, length: int, seed: int
) -> Pseudotrajectory:
    """Seeded delta-pseudotrajectory dressing the true orbit of x0 with noise.

    Each point is the exact orbit point plus a single-site perturbation of
    norm at most delta / (1 + ||T||), which keeps every one-step residual
    within delta at any orbit scale; the seed makes runs repeatable.
    """
    if length < 2:
        raise ValueError("length must be at least 2")
    rng = random.Random(seed)
    scale = delta / (1.0 + op.norm_upper_bound())
    start = -((length - 1) // 2)
    points: list[Vec] = []
    current = dict(x0)
    for i in range(length):
        site = op.noise_sites(rng)
        magnitude = scale * rng.uniform(0.5, 1.0) * rng.choice([-1.0, 1.0])
        noise = vec_scale(op.normalized_basis(site), magnitude)
        points.append(vec_add(current, noise))
        if i + 1 < length:
            current = op.apply(current, 1)
    # Positive finite factors keep an overflowed coefficient non-finite.
    if not all(map(math.isfinite, current.values())):
        raise OverflowError("the orbit of x0 leaves float range")
    return Pseudotrajectory(start_index=start, points=tuple(points), delta=delta)


class NoSplitting(Exception):
    """The operator's rates admit no certified stable/unstable splitting."""


@dataclass(frozen=True)
class Splitting:
    kind: str  # "contraction", "expansion", or "split"
    cut: int | None
    window: int
    lam_stable: float | None
    lam_unstable: float | None
    stable_table: tuple[float, ...]
    unstable_table: tuple[float, ...]

    def covers_stable(self, k: int) -> bool:
        if self.kind == "contraction":
            return True
        if self.kind == "expansion":
            return False
        assert self.cut is not None
        return k <= self.cut

    def a_priori_bound(self, delta: float) -> float:
        """Worst-case shadowing distance for one-step errors of size delta."""
        total = 0.0
        if self.kind != "expansion":
            total += _series_sum(self.stable_table, self.window, include_zero=True)
        if self.kind != "contraction":
            total += _series_sum(self.unstable_table, self.window, include_zero=False)
        return delta * total


def _series_sum(table: tuple[float, ...], window: int, include_zero: bool) -> float:
    # sum over j >= 0 (or >= 1) of the submultiplicative extension of the table
    a_m = table[window - 1]
    if a_m >= 1:
        raise NoSplitting("certificate window does not contract")
    block = 1.0 + sum(table[: window - 1])  # j = 0 .. window-1
    total = block / (1.0 - a_m)
    if not math.isfinite(total):
        raise NoSplitting("certificate constants leave float range")
    if not include_zero:
        total -= 1.0
    return total


def _sup_factor(line: EventuallyPeriodicSequence, j: int, cut: int | None, forward: bool) -> float:
    """Sup over anchors k of the log norm factor of j steps from k.

    Forward, over stable anchors: the log product of w[k-j+1 .. k].
    Backward, over unstable anchors: that of 1/w over [k+1 .. k+j], summed
    as negated logs; round-to-nearest makes each window sum exactly the
    negation of the forward sum over the same logs.
    """
    lo = line.core_lo - len(line.neg_period)
    hi = line.core_hi + len(line.pos_period)
    if cut is None:
        first, last = lo - j + 1, hi + j
    elif forward:
        first, last = min(lo, cut) - j + 1, cut
    else:
        first, last = cut + 2, max(hi, cut + 1) + j
    logs = map(line.log_at, range(first, last + 1))
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

    The weight-line tails decide the shape: both tail rates below 1 give a
    contraction, both above 1 an expansion, and contraction on the left
    with expansion on the right splits the sites at the end of the core.
    Everything else (any tail rate equal to 1, or the reversed split) has
    no splitting to offer, and neither have lines whose tails disagree: a
    cycle's unit rates never split.
    """
    lines = op.lines
    signs = {(tail_sign_vs_one(line, "neg"), tail_sign_vs_one(line, "pos")) for line in lines}
    if len(signs) > 1:
        raise NoSplitting("the lines' weight tail rates differ")
    ((sign_neg, sign_pos),) = signs
    if sign_neg < 0 and sign_pos < 0:
        kind, cut = "contraction", None
    elif sign_neg > 0 and sign_pos > 0:
        kind, cut = "expansion", None
    elif sign_neg < 0 and sign_pos > 0:
        kind, cut = "split", max(line.core_hi for line in lines)
    else:
        raise NoSplitting(
            "weight tail rates do not separate into contraction and expansion"
        )

    window = math.lcm(*(len(tail) for line in lines for tail in (line.neg_period, line.pos_period)))
    while window <= _MAX_WINDOW:
        tables = [
            [_table_entry(max(_sup_factor(line, j, cut, forward) for line in lines))
             for j in range(1, window + 1)] if side_used else []
            for forward, side_used in ((True, kind != "expansion"), (False, kind != "contraction"))
        ]
        if all(table[-1] < 1.0 - 1e-12 for table in tables if table):
            return Splitting(kind, cut, window, *map(_window_rate, tables), *map(tuple, tables))
        window *= 2
    raise NoSplitting("no contracting certificate window within the scan bound")


@dataclass(frozen=True)
class ShadowResult:
    start_index: int
    z_points: tuple[Vec, ...]
    eps_achieved: float
    dropped: float  # the largest norm the support bound dropped in one step
    bound_a_priori: float
    max_orbit_residual: float
    splitting: Splitting


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
    the orbit relation before being returned.

    The passes are fused: a recursion step is one apply, one in-place add
    and one prune, and one closing pass takes each ||d_i||, orbit residual
    e_i + T d_i - d_{i+1} and z_i together.  Every float and key order is
    that of the step-by-step recursions, which build each quantity from
    fresh copies in a loop of its own.
    """
    if splitting is None:
        splitting = build_splitting(op)
    errors = pt.errors(op)
    count = len(pt.points)
    log_norm, apply, p = op.log_norm, op.apply, op.p
    # _exp is monotone, so the largest norm is _exp of the largest log norm.
    delta_eff = _exp(max(map(log_norm, errors), default=-math.inf))
    floor = p * (math.log(_TRUNC) + math.log(delta_eff)) if delta_eff > 0 else -math.inf
    keep_at = _keep_without_log(op, floor)
    log_term = op.log_term
    lost = -math.inf  # the largest log ||dropped||^p of one step

    def pruned(vec: Vec) -> Vec:
        """vec without its entries whose log term is below the floor; their mass goes to lost."""
        nonlocal lost
        kept = {s: c for s, c in vec.items() if abs(c) >= keep_at or not log_term(s, c) < floor}
        if len(kept) < len(vec):
            lost = max(lost, logsumexp([log_term(s, c) for s, c in vec.items() if s not in kept]))
        return kept

    # (P_s e_i, P_u e_i); off a split, e_i is on the one side the loops read.
    stable_errors = unstable_errors = errors
    if splitting.kind == "split" and splitting.cut is not None:
        cut, locate = splitting.cut, op._locate
        stable_errors, unstable_errors = [], []
        for e in errors:
            stable_part: Vec = {}
            unstable_part: Vec = {}
            for s, c in e.items():
                (stable_part if locate(s)[1] <= cut else unstable_part)[s] = c
            stable_errors.append(stable_part)
            unstable_errors.append(unstable_part)

    corrections: list[Vec] = [{} for _ in range(count)]
    if splitting.kind != "expansion":
        stable: Vec = {}
        for i in range(1, count):
            stable = pruned(_add_into(apply(stable, 1), stable_errors[i - 1]))
            corrections[i] = stable
    if splitting.kind != "contraction":
        unstable: Vec = {}
        for i in range(count - 2, -1, -1):
            unstable = pruned(apply(_add_into(unstable, unstable_errors[i]), -1))
            _add_into(corrections[i], unstable, negate=True)

    # The closing pass.  The recursions are done, so each e_i takes its
    # residual in place; the largest log norms go through _exp once.
    log_eps = log_residual = -math.inf
    z_points = []
    for i, (x, d) in enumerate(zip(pt.points, corrections)):
        log_d = log_norm(d)
        log_eps = log_d if i == 0 else max(log_eps, log_d)
        if i + 1 < count:
            moved = _add_into(apply(d, 1), corrections[i + 1], negate=True)
            log_residual = max(log_residual, log_norm(_add_into(errors[i], moved)))
        z_points.append(_add_into(dict(x), d))

    dropped = math.exp(lost / p)
    eps = _exp(log_eps)
    eps += splitting.a_priori_bound(dropped) + dropped
    max_residual = _exp(log_residual)
    if max_residual > 1e-9:
        raise NoSplitting(
            f"orbit relation failed after correction (residual {max_residual:.3e})"
        )

    return ShadowResult(
        start_index=pt.start_index,
        z_points=tuple(z_points),
        eps_achieved=eps,
        dropped=dropped,
        bound_a_priori=splitting.a_priori_bound(pt.delta),
        max_orbit_residual=max_residual,
        splitting=splitting,
    )
