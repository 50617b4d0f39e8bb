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
summed in log space, and orbit_log_norms carries a running log scale, so
orbit norms stay meaningful far beyond float range.

The brute-force expansivity check follows the norm-threshold definition
directly: a unit vector escapes once some iterate has norm at least 2.
Basis vectors have eventually periodic norm walks, so a non-crossing can
be certified exactly; random simple functions can only ever cross, never
certify boundedness, and an uncrossed one leaves the verdict Undecided.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import asdict, dataclass
from enum import Enum
from itertools import accumulate

from .classify import Status, Verdict
from .seqcore import EventuallyPeriodicSequence, tail_sign_vs_one
from .systems import (
    AtomicSystem,
    Cycle,
    DissipativeSystem,
    WeightSequence,
    check_star,
    draw_site,
    logsumexp,
)

Vec = dict  # site key -> float coefficient

_LOG2 = math.log(2.0)
_CROSS_TOL = 1e-12
_CERT_GAP = 1e-9


def vec_add(a: Vec, b: Vec) -> Vec:
    out = dict(a)
    for site, coeff in b.items():
        value = out.get(site, 0.0) + coeff
        if value == 0.0:
            out.pop(site, None)
        else:
            out[site] = value
    return out


def vec_sub(a: Vec, b: Vec) -> Vec:
    return vec_add(a, {site: -c for site, c in b.items()})


def vec_scale(a: Vec, factor: float) -> Vec:
    if factor == 0.0:
        return {}
    return {site: c * factor for site, c in a.items()}


def _exp(log_value: float) -> float:
    """exp, saturating to inf beyond float range."""
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


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
        p = self.p
        measure = self._log_measure
        if measure is None:
            return logsumexp(p * math.log(abs(c)) for c in vec.values() if c != 0) / p
        terms = [p * math.log(abs(c)) + measure(a, b) for (a, b), c in vec.items() if c != 0]
        return logsumexp(terms) / p

    def log_term(self, site, c: float) -> float:
        """log ||c e_site||^p of one entry: its term inside log_norm (-inf at 0)."""
        if not c:
            return -math.inf
        if self._log_measure is None:
            return self.p * math.log(abs(c))
        return self.p * math.log(abs(c)) + self._log_measure(*site)

    def norm(self, vec: Vec) -> float:
        try:
            return math.exp(self.log_norm(vec))
        except OverflowError:
            return math.inf

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

    def site_line(self, site) -> tuple[EventuallyPeriodicSequence, int]:
        """(weight line, position) carrying the basis walk of this site."""
        line, position = self._locate(site)
        return self.lines[line], position

    def site_is_stable(self, site, splitting: "Splitting") -> bool:
        return splitting.covers_stable(self._locate(site)[1])


def _weight_line(ratio: EventuallyPeriodicSequence, p: float) -> EventuallyPeriodicSequence:
    """w_k = (mu_{k-1}/mu_k)^(1/p) from the ratios mu_{k+1}/mu_k of one measured line."""
    return ratio.shifted(1).elementwise_pow(-1.0 / p)


def _cycle_ratio(cycle: Cycle) -> EventuallyPeriodicSequence:
    """The ratios m_{k+1}/m_k of a cycle's atoms, periodic with period r."""
    m = cycle.measures
    ratios = tuple(m[(k + 1) % len(m)] / m[k] for k in range(len(m)))
    return EventuallyPeriodicSequence(0, ratios, ratios, ratios, 1.0, cycle.exact)


class ShiftOperator(LineSumOperator):
    """Bilateral weighted backward shift: (B x)_j = w_{j+1} x_{j+1}.

    One line with unit site measures; the sites are its integer positions.
    """

    origin = 0

    def __init__(self, weights: WeightSequence, p: float = 2.0):
        if p < 1 or not math.isfinite(p):
            raise ValueError("norm exponent p must be a finite real >= 1")
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

    def apply(self, vec: Vec, steps: int = 1) -> Vec:
        w = self.weights.values
        current = vec
        for _ in range(abs(steps)):
            moved: Vec = {}
            if steps > 0:
                factors = self._forward
                for k, c in current.items():
                    f = factors.get(k)
                    if f is None:
                        f = factors[k] = math.exp(w.log_at(k))
                    moved[k - 1] = c * f
            else:
                factors = self._backward
                for k, c in current.items():
                    f = factors.get(k)
                    if f is None:
                        f = factors[k] = math.exp(-w.log_at(k + 1))
                    moved[k + 1] = c * f
            current = moved
        return current


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
            [_weight_line(system.cell_ratio(cell), system.p) for cell in self._cells],
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
        periods = system.periods
        ratios = [_cycle_ratio(c) if r else c.measures.ratio for c, r in zip(comps, periods)]
        super().__init__(
            system.p,
            [_weight_line(ratio, system.p) for ratio in ratios],
            periods,
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


Operator = LineSumOperator


def operator_for(obj, p: float | None = None) -> Operator:
    if isinstance(obj, LineSumOperator):
        return obj
    if isinstance(obj, WeightSequence):
        return ShiftOperator(obj, p if p is not None else 2.0)
    if isinstance(obj, DissipativeSystem):
        return CompositionOperator(obj)
    if isinstance(obj, AtomicSystem):
        return AtomicOperator(obj)
    raise TypeError(f"no operator model for {type(obj).__name__}")


def orbit_log_norms(op: Operator, vec: Vec, n_lo: int, n_hi: int) -> list[tuple[int, float]]:
    """log ||T^n x|| for n in [n_lo, n_hi], computed incrementally.

    A step that would take the coefficients out of the normal float range
    is taken again from the vector rescaled by an exact power of two, and
    the scale is carried in log space; steps in range are left bit for bit.
    """
    if n_lo > n_hi:
        raise ValueError("empty orbit range")
    out: dict[int, float] = {}
    if n_lo <= 0 <= n_hi:
        out[0] = op.log_norm(vec)
    for direction, steps in ((1, range(1, n_hi + 1)), (-1, range(-1, n_lo - 1, -1))):
        current, log_scale = vec, 0.0
        for n in steps:
            moved = op.apply(current, direction)
            if current and not sys.float_info.min <= max(map(abs, moved.values())) < math.inf:
                shift = math.frexp(max(map(abs, current.values())))[1]
                moved = op.apply({s: math.ldexp(c, -shift) for s, c in current.items()}, direction)
                log_scale += shift * _LOG2
            current = moved
            if n_lo <= n <= n_hi:
                out[n] = op.log_norm(current) + log_scale
    return sorted(out.items())


def orbit_norms(op: Operator, vec: Vec, n_lo: int, n_hi: int) -> list[tuple[int, float]]:
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
    sup_log_norm: float
    log_norms: tuple[float, ...]  # log ||T^n x|| for n = 1..horizon


def _line_walk(
    line: EventuallyPeriodicSequence,
    position: int,
    direction: int,
    horizon: int,
    *,
    want_curve: bool,
) -> DirectionalWalk:
    """Norm walk of a basis vector along one weight line.

    Forward steps multiply by w at descending indices starting at
    ``position``; backward steps divide by w at ascending indices.  The
    increments become exactly periodic once the walk clears the core, so
    boundedness is certifiable from one extra period of scanning.
    """
    if direction > 0:
        def inc(n: int) -> float:
            return line.log_at(position - n + 1)
        n_enter = max(1, position - line.core_lo + 2)
        period = len(line.neg_period)
        drift = tail_sign_vs_one(line, "neg")
    else:
        def inc(n: int) -> float:
            return -line.log_at(position + n)
        n_enter = max(1, line.core_hi - position + 1)
        period = len(line.pos_period)
        drift = -tail_sign_vs_one(line, "pos")
    return _walk_analysis(inc, n_enter, period, drift, horizon, want_curve)


def _walk_analysis(
    inc, n_enter: int, period: int, drift: int, horizon: int, want_curve: bool
) -> DirectionalWalk:
    """Scan a log-norm walk for a threshold crossing or a boundedness proof.

    Nonpositive drift means the walk is eventually dominated by its first
    full period past the entry point, so the supremum over all n is already
    visible there.  Positive drift guarantees a crossing; the scan keeps
    going until it sees one or the horizon runs out.
    """
    cert_end = n_enter + period
    crossed: int | None = None
    sup = 0.0
    cum = 0.0
    curve: list[float] = []
    for n in range(1, max(horizon, cert_end) + 1):
        cum += inc(n)
        if n <= horizon and want_curve:
            curve.append(cum)
        sup = max(sup, cum)
        if crossed is None and n <= horizon and cum >= _LOG2 - _CROSS_TOL:
            crossed = n
            if not want_curve:
                break
        if crossed is None and n >= cert_end and drift <= 0:
            break
    certificate = None
    if crossed is None and drift <= 0 and sup < _LOG2 - _CERT_GAP:
        certificate = BoundCertificate(
            kind="periodic" if drift == 0 else "decaying",
            period=period,
            sup_norm=math.exp(sup),
        )
    # finish the curve for uniform-mode alignment
    while want_curve and len(curve) < horizon:
        curve.append((curve[-1] if curve else 0.0) + inc(len(curve) + 1))
    return DirectionalWalk(crossed, certificate, sup, tuple(curve))


def _random_sample(op: Operator, rng: random.Random) -> Vec:
    """Seeded unit-norm simple function with small support."""
    size = rng.randint(2, 8)
    sites = set()
    guard = 0
    while len(sites) < size and guard < 200:
        guard += 1
        sites.add(op._sample_site(rng))
    vec: Vec = {}
    for site in sites:
        vec[site] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5)
    log_norm = op.log_norm(vec)
    return vec_scale(vec, math.exp(-log_norm))


def _random_curve(op: Operator, vec: Vec, direction: int, horizon: int) -> list[float]:
    out = []
    current = vec
    for _ in range(horizon):
        current = op.apply(current, direction)
        out.append(op.log_norm(current))
    return out


@dataclass(frozen=True)
class SampleOutcome:
    label: str
    kind: str  # "basis" or "random"
    crossed_at: int | None
    certificate: BoundCertificate | None
    backward_crossed_at: int | None = None
    backward_certificate: BoundCertificate | None = None


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
    random sample; everything else stays Undecided.
    """
    op = operator_for(system, p)
    rng = random.Random(seed)
    want_curve = mode.uniform
    outcomes: list[SampleOutcome] = []
    curves_fwd: list[tuple[float, ...]] = []
    curves_bwd: list[tuple[float, ...]] = []

    for site in op.basis_sites(horizon):
        line, position = op.site_line(site)
        fwd = _line_walk(line, position, +1, horizon, want_curve=want_curve)
        bwd = (
            _line_walk(line, position, -1, horizon, want_curve=want_curve)
            if mode.twosided
            else None
        )
        outcomes.append(
            SampleOutcome(
                label=op.site_label(site),
                kind="basis",
                crossed_at=fwd.crossed_at,
                certificate=fwd.certificate,
                backward_crossed_at=bwd.crossed_at if bwd else None,
                backward_certificate=bwd.certificate if bwd else None,
            )
        )
        if want_curve:
            curves_fwd.append(fwd.log_norms)
            if bwd is not None:
                curves_bwd.append(bwd.log_norms)

    for i in range(samples):
        vec = _random_sample(op, rng)
        fwd_curve = _random_curve(op, vec, +1, horizon)
        bwd_curve = _random_curve(op, vec, -1, horizon) if mode.twosided else None
        crossed = next(
            (n + 1 for n, v in enumerate(fwd_curve) if v >= _LOG2 - _CROSS_TOL), None
        )
        bwd_crossed = None
        if bwd_curve is not None:
            bwd_crossed = next(
                (n + 1 for n, v in enumerate(bwd_curve) if v >= _LOG2 - _CROSS_TOL), None
            )
        outcomes.append(
            SampleOutcome(
                label=f"rand[{i}]",
                kind="random",
                crossed_at=crossed,
                certificate=None,
                backward_crossed_at=bwd_crossed,
                backward_certificate=None,
            )
        )
        if want_curve:
            curves_fwd.append(tuple(fwd_curve))
            if bwd_curve is not None:
                curves_bwd.append(tuple(bwd_curve))

    verdict = _brute_verdict(mode, outcomes, curves_fwd, curves_bwd, horizon)
    return BruteForceReport(
        verdict=verdict,
        mode=mode,
        horizon=horizon,
        seed=seed,
        samples=tuple(outcomes),
    )


def _sample_bounded(outcome: SampleOutcome, twosided: bool) -> bool:
    if outcome.certificate is None:
        return False
    if not twosided:
        return True
    return outcome.backward_certificate is not None


def _sample_crossed(outcome: SampleOutcome, twosided: bool) -> bool:
    if outcome.crossed_at is not None:
        return True
    return twosided and outcome.backward_crossed_at is not None


def _brute_verdict(
    mode: BruteMode,
    outcomes: list[SampleOutcome],
    curves_fwd: list[tuple[float, ...]],
    curves_bwd: list[tuple[float, ...]],
    horizon: int,
) -> Verdict:
    twosided = mode.twosided
    for outcome in outcomes:
        if _sample_bounded(outcome, twosided):
            assert outcome.certificate is not None
            witness = {"sample": outcome.label, "certificate": asdict(outcome.certificate)}
            if twosided and outcome.backward_certificate is not None:
                witness["backward_certificate"] = asdict(outcome.backward_certificate)
            return Verdict(Status.FAILS, "definition", "brute-force", None, witness)

    if mode.uniform:
        threshold = _LOG2 - _CROSS_TOL
        for n in range(1, horizon + 1):
            common = True
            for i, fwd in enumerate(curves_fwd):
                hit = fwd[n - 1] >= threshold
                if not hit and twosided:
                    hit = curves_bwd[i][n - 1] >= threshold
                if not hit:
                    common = False
                    break
            if common:
                return Verdict(
                    Status.HOLDS, "definition", "brute-force", None,
                    {"n": n, "samples": len(curves_fwd)},
                )
        return Verdict(
            Status.UNDECIDED, "definition", "brute-force", None,
            {"reason": "no shared crossing within the horizon"},
        )

    crossings = []
    for outcome in outcomes:
        if not _sample_crossed(outcome, twosided):
            return Verdict(
                Status.UNDECIDED, "definition", "brute-force", None,
                {"sample": outcome.label, "reason": "no crossing within the horizon"},
            )
        candidates = [n for n in (outcome.crossed_at, outcome.backward_crossed_at) if n]
        crossings.append(min(candidates))
    return Verdict(
        Status.HOLDS, "definition", "brute-force", None,
        {"max_crossing_n": max(crossings), "samples": len(outcomes)},
    )


# ---------------------------------------------------------------------------
# Pseudotrajectories and shadowing


@dataclass(frozen=True)
class Pseudotrajectory:
    start_index: int
    points: tuple[Vec, ...]
    delta: float

    def __post_init__(self) -> None:
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if len(self.points) < 2:
            raise ValueError("a pseudotrajectory needs at least two points")

    def errors(self, op: Operator) -> list[Vec]:
        return [
            vec_sub(op.apply(self.points[i], 1), self.points[i + 1])
            for i in range(len(self.points) - 1)
        ]

    def max_residual(self, op: Operator) -> float:
        return max((op.norm(e) for e in self.errors(op)), default=0.0)


def make_pseudotrajectory(
    op: Operator,
    x0: Vec,
    delta: float,
    length: int,
    seed: int,
    noise_scale: float = 1.0,
) -> Pseudotrajectory:
    """Seeded delta-pseudotrajectory dressing the true orbit of x0 with noise.

    Each point is the exact orbit point plus a single-site perturbation of
    norm at most noise_scale * delta / (1 + ||T||), which keeps every
    one-step residual within delta at any orbit scale.  noise_scale=0
    reproduces the true orbit; the seed makes runs repeatable.
    """
    if length < 2:
        raise ValueError("length must be at least 2")
    if not 0.0 <= noise_scale <= 1.0:
        raise ValueError("noise_scale must lie in [0, 1]")
    rng = random.Random(seed)
    scale = noise_scale * delta / (1.0 + op.norm_upper_bound())
    start = -((length - 1) // 2)
    points: list[Vec] = []
    current = dict(x0)
    for i in range(length):
        if scale > 0.0:
            site = op.noise_sites(rng)
            magnitude = scale * rng.uniform(0.5, 1.0) * rng.choice([-1.0, 1.0])
            noise = vec_scale(op.normalized_basis(site), magnitude)
            points.append(vec_add(current, noise))
        else:
            points.append(dict(current))
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


def _sup_forward_factor(line: EventuallyPeriodicSequence, j: int, cut: int | None) -> float:
    """Sup over stable anchors k of the log product of w[k-j+1 .. k]."""
    k_lo = line.core_lo - len(line.neg_period)
    if cut is None:
        k_hi = line.core_hi + len(line.pos_period) + j
    else:
        k_hi = cut
        k_lo = min(k_lo, cut)
    logs = [line.log_at(i) for i in range(k_lo - j + 1, k_hi + 1)]
    prefix = list(accumulate(logs, initial=0.0))
    best = -math.inf
    for k in range(k_lo, k_hi + 1):
        hi_idx = k - (k_lo - j + 1) + 1
        best = max(best, prefix[hi_idx] - prefix[hi_idx - j])
    return best


def _sup_backward_factor(line: EventuallyPeriodicSequence, j: int, cut: int | None) -> float:
    """Sup over unstable anchors k of the log product of 1/w over [k+1 .. k+j]."""
    k_hi = line.core_hi + len(line.pos_period)
    if cut is None:
        k_lo = line.core_lo - len(line.neg_period) - j
    else:
        k_lo = cut + 1
        k_hi = max(k_hi, k_lo)
    logs = [line.log_at(i) for i in range(k_lo + 1, k_hi + j + 1)]
    prefix = list(accumulate(logs, initial=0.0))
    best = -math.inf
    for k in range(k_lo, k_hi + 1):
        lo_idx = k + 1 - (k_lo + 1)
        best = max(best, -(prefix[lo_idx + j] - prefix[lo_idx]))
    return best


def _table_entry(log_factor: float) -> float:
    # An entry beyond float range puts the series bound beyond it too.
    try:
        return math.exp(log_factor)
    except OverflowError:
        raise NoSplitting("certificate constants leave float range") from None


def _window_rate(table: list[float]) -> float | None:
    # per-step rate certified by the last entry of a window's table
    return table[-1] ** (1.0 / len(table)) if table else None


def build_splitting(op: Operator, *, max_window: int = 256) -> Splitting:
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
    while window <= max_window:
        stable_table = [
            _table_entry(max(_sup_forward_factor(line, j, cut) for line in lines))
            for j in range(1, window + 1)
        ] if kind != "expansion" else []
        unstable_table = [
            _table_entry(max(_sup_backward_factor(line, j, cut) for line in lines))
            for j in range(1, window + 1)
        ] if kind != "contraction" else []
        if all(table[-1] < 1.0 - 1e-12 for table in (stable_table, unstable_table) if table):
            return Splitting(kind, cut, window, _window_rate(stable_table),
                             _window_rate(unstable_table), tuple(stable_table),
                             tuple(unstable_table))
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


def shadow(
    op: Operator,
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
    """
    if splitting is None:
        splitting = build_splitting(op)
    errors = pt.errors(op)
    count = len(pt.points)
    delta_eff = max((op.norm(e) for e in errors), default=0.0)
    floor = op.p * (math.log(_TRUNC) + math.log(delta_eff)) if delta_eff > 0 else -math.inf
    lost_terms: list[float] = []

    def pruned(vec: Vec) -> Vec:
        kept: Vec = {}
        below = []
        for s, c in vec.items():
            term = op.log_term(s, c)
            if term < floor:
                below.append(term)
            else:
                kept[s] = c
        if below:
            lost_terms.append(logsumexp(below))
        return kept

    def halves(vec: Vec) -> tuple[Vec, Vec]:
        """(P_s vec, P_u vec); without a cut, vec is on the one side the loops read."""
        if splitting.cut is None:
            return vec, vec
        stable_part: Vec = {}
        unstable_part: Vec = {}
        for s, c in vec.items():
            (stable_part if op.site_is_stable(s, splitting) else unstable_part)[s] = c
        return stable_part, unstable_part

    split_errors = [halves(e) for e in errors]
    corrections: list[Vec] = [{} for _ in range(count)]
    if splitting.kind != "expansion":
        stable: Vec = {}
        for i in range(1, count):
            stable = pruned(vec_add(op.apply(stable, 1), split_errors[i - 1][0]))
            corrections[i] = stable
    if splitting.kind != "contraction":
        unstable: Vec = {}
        for i in range(count - 2, -1, -1):
            unstable = pruned(op.apply(vec_add(unstable, split_errors[i][1]), -1))
            corrections[i] = vec_sub(corrections[i], unstable)

    dropped = math.exp(max(lost_terms) / op.p) if lost_terms else 0.0
    eps = max((op.norm(d) for d in corrections), default=0.0)
    eps += splitting.a_priori_bound(dropped) + dropped

    max_residual = 0.0
    for i in range(count - 1):
        residual = vec_add(errors[i], vec_sub(op.apply(corrections[i], 1), corrections[i + 1]))
        max_residual = max(max_residual, op.norm(residual))
    if max_residual > 1e-9:
        raise NoSplitting(
            f"orbit relation failed after correction (residual {max_residual:.3e})"
        )

    z_points = tuple(vec_add(x, d) for x, d in zip(pt.points, corrections))
    return ShadowResult(
        start_index=pt.start_index,
        z_points=z_points,
        eps_achieved=eps,
        dropped=dropped,
        bound_a_priori=splitting.a_priori_bound(pt.delta),
        max_orbit_residual=max_residual,
        splitting=splitting,
    )
