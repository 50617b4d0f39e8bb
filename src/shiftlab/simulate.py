"""Operators on sequence spaces: orbits, expansivity probes, and shadowing.

Vectors are sparse: a dict from site keys to coefficients.  A weighted
shift uses integer sites; a composition operator over a dissipative
system uses ``(k, cell)`` pairs; an atomic composition uses
``(component, index)``.  All norm arithmetic runs in log space, so orbit
norms stay meaningful far beyond float range.

The brute-force expansivity check follows the norm-threshold definition
directly: a unit vector escapes once some iterate has norm at least 2.
Basis vectors have eventually periodic norm walks, so a non-crossing can
be certified exactly; random simple functions can only ever cross, never
certify boundedness, and an uncrossed one leaves the verdict Undecided.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .classify import Status, Verdict
from .seqcore import EventuallyPeriodicSequence, tail_sign_vs_one
from .systems import (
    AtomicSystem,
    Cycle,
    DissipativeSystem,
    Line,
    WeightSequence,
    check_star,
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


def _logsumexp(values: Iterable[float]) -> float:
    items = [v for v in values if v != -math.inf]
    if not items:
        return -math.inf
    top = max(items)
    return top + math.log(sum(math.exp(v - top) for v in items))


class ShiftOperator:
    """Bilateral weighted backward shift: (B x)_j = w_{j+1} x_{j+1}."""

    kind = "shift"

    def __init__(self, weights: WeightSequence, p: float = 2.0):
        if p < 1 or not math.isfinite(p):
            raise ValueError("norm exponent p must be a finite real >= 1")
        self.weights = weights
        self.p = p
        # One-step factors by site, exp(log w_k) forward and exp(-log w_{k+1})
        # backward: the same floats apply() would compute afresh.
        self._forward: dict[int, float] = {}
        self._backward: dict[int, float] = {}

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

    def log_norm(self, vec: Vec) -> float:
        if not vec:
            return -math.inf
        return _logsumexp(
            self.p * math.log(abs(c)) for c in vec.values() if c != 0
        ) / self.p

    def log_term(self, site, c: float) -> float:
        """log ||c e_site||^p of one entry: its term inside log_norm (-inf at 0)."""
        return self.p * math.log(abs(c)) if c else -math.inf

    def norm(self, vec: Vec) -> float:
        try:
            return math.exp(self.log_norm(vec))
        except OverflowError:
            return math.inf

    def norm_upper_bound(self) -> float:
        return self.weights.sup

    def basis_sites(self, span: int) -> list:
        return list(range(-span, span + 1))

    def site_label(self, site) -> str:
        return f"e[{site}]"

    def normalized_basis(self, site) -> Vec:
        return {site: 1.0}

    def site_log_norm_start(self, site) -> float:
        return 0.0

    def noise_sites(self, rng: random.Random) -> object:
        return rng.randint(-2, 2)

    def _weight_lines(self) -> list[EventuallyPeriodicSequence]:
        return [self.weights.values]

    def site_line(self, site) -> tuple[EventuallyPeriodicSequence, int]:
        """(weight line, position) carrying the basis walk of this site."""
        return self.weights.values, site

    def site_is_stable(self, site, splitting: "Splitting") -> bool:
        return splitting.covers_stable(site)


class CompositionOperator:
    """Composition with the underlying map on a dissipative system.

    Acts on simple functions by reindexing: the preimage of the k-th image
    of a cell is the (k-1)-st image of the same cell, so coefficients ride
    along unchanged and only the site measures move the norm.
    """

    kind = "composition"

    def __init__(self, system: DissipativeSystem):
        self.system = system
        self.p = system.p
        self._cells = list(range(system.n_cells)) if system.cells is not None else [None]
        self._lines: dict = {}

    def apply(self, vec: Vec, steps: int = 1) -> Vec:
        return {(k - steps, j): c for (k, j), c in vec.items()}

    def log_norm(self, vec: Vec) -> float:
        if not vec:
            return -math.inf
        terms = []
        for (k, j), c in vec.items():
            if c == 0:
                continue
            terms.append(self.p * math.log(abs(c)) + self.system.site_log_measure(k, j))
        return _logsumexp(terms) / self.p

    def log_term(self, site, c: float) -> float:
        """log ||c chi_site||^p of one entry: its term inside log_norm (-inf at 0)."""
        if not c:
            return -math.inf
        k, j = site
        return self.p * math.log(abs(c)) + self.system.site_log_measure(k, j)

    def norm(self, vec: Vec) -> float:
        try:
            return math.exp(self.log_norm(vec))
        except OverflowError:
            return math.inf

    def norm_upper_bound(self) -> float:
        return check_star(self.system).norm_bound

    def basis_sites(self, span: int) -> list:
        return [(k, j) for k in range(-span, span + 1) for j in self._cells]

    def site_label(self, site) -> str:
        k, j = site
        return f"chi[{k}]" if j is None else f"chi[{k},cell{j + 1}]"

    def normalized_basis(self, site) -> Vec:
        k, j = site
        return {site: math.exp(-self.system.site_log_measure(k, j) / self.p)}

    def noise_sites(self, rng: random.Random) -> object:
        cell = rng.choice(self._cells)
        return (rng.randint(-2, 2), cell)

    def _cell_line(self, cell) -> EventuallyPeriodicSequence:
        line = self._lines.get(cell)
        if line is None:
            line = self.system.cell_ratio(cell).shifted(1).elementwise_pow(-1.0 / self.p)
            self._lines[cell] = line
        return line

    def _weight_lines(self) -> list[EventuallyPeriodicSequence]:
        return [self._cell_line(j) for j in self._cells]

    def site_line(self, site) -> tuple[EventuallyPeriodicSequence, int]:
        k, j = site
        return self._cell_line(j), k

    def site_is_stable(self, site, splitting: "Splitting") -> bool:
        return splitting.covers_stable(site[0])


class AtomicOperator:
    """Composition over a union of cycles and lines of atoms."""

    kind = "atomic"

    def __init__(self, system: AtomicSystem):
        self.system = system
        self.p = system.p

    def _move(self, site, steps: int):
        ci, idx = site
        comp = self.system.components[ci]
        if isinstance(comp, Cycle):
            return (ci, (idx - steps) % len(comp))
        return (ci, idx - steps)

    def apply(self, vec: Vec, steps: int = 1) -> Vec:
        out: Vec = {}
        for site, c in vec.items():
            target = self._move(site, steps)
            out[target] = out.get(target, 0.0) + c
        return out

    def _site_log_mu(self, site) -> float:
        ci, idx = site
        comp = self.system.components[ci]
        if isinstance(comp, Cycle):
            m = comp.measures[idx % len(comp)]
            return math.log(m.numerator) - math.log(m.denominator)
        return comp.measures.log_mu(idx)

    def log_norm(self, vec: Vec) -> float:
        if not vec:
            return -math.inf
        terms = [
            self.p * math.log(abs(c)) + self._site_log_mu(site)
            for site, c in vec.items()
            if c != 0
        ]
        return _logsumexp(terms) / self.p

    def norm(self, vec: Vec) -> float:
        try:
            return math.exp(self.log_norm(vec))
        except OverflowError:
            return math.inf

    def norm_upper_bound(self) -> float:
        worst = 0.0
        for comp in self.system.components:
            if isinstance(comp, Cycle):
                hi, lo = max(comp.measures), min(comp.measures)
                worst = max(worst, float(hi / lo) ** (1.0 / self.p))
            else:
                w = comp.measures.ratio.shifted(1).elementwise_pow(-1.0 / self.p)
                worst = max(worst, w.sup_value())
        return worst

    def basis_sites(self, span: int) -> list:
        sites = []
        for ci, comp in enumerate(self.system.components):
            if isinstance(comp, Cycle):
                sites.extend((ci, i) for i in range(len(comp)))
            else:
                sites.extend((ci, k) for k in range(-span, span + 1))
        return sites

    def site_label(self, site) -> str:
        return f"atom[{site[0]},{site[1]}]"

    def normalized_basis(self, site) -> Vec:
        return {site: math.exp(-self._site_log_mu(site) / self.p)}

    def noise_sites(self, rng: random.Random) -> object:
        ci = rng.randrange(len(self.system.components))
        comp = self.system.components[ci]
        if isinstance(comp, Cycle):
            return (ci, rng.randrange(len(comp)))
        return (ci, rng.randint(-2, 2))


Operator = ShiftOperator | CompositionOperator | AtomicOperator


def operator_for(obj, p: float | None = None) -> Operator:
    if isinstance(obj, (ShiftOperator, CompositionOperator, AtomicOperator)):
        return obj
    if isinstance(obj, WeightSequence):
        return ShiftOperator(obj, p if p is not None else 2.0)
    if isinstance(obj, DissipativeSystem):
        return CompositionOperator(obj)
    if isinstance(obj, AtomicSystem):
        return AtomicOperator(obj)
    raise TypeError(f"no operator model for {type(obj).__name__}")


def orbit_norms(op: Operator, vec: Vec, n_lo: int, n_hi: int) -> list[tuple[int, float]]:
    """Norms of the orbit T^n x for n in [n_lo, n_hi], computed incrementally."""
    if n_lo > n_hi:
        raise ValueError("empty orbit range")
    out: dict[int, float] = {}
    if n_lo <= 0 <= n_hi:
        out[0] = op.norm(vec)
    current = vec
    for n in range(1, n_hi + 1):
        current = op.apply(current, 1)
        if n >= n_lo:
            out[n] = op.norm(current)
    current = vec
    for n in range(-1, n_lo - 1, -1):
        current = op.apply(current, -1)
        if n <= n_hi:
            out[n] = op.norm(current)
    return sorted(out.items())


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


def _cycle_walk(
    comp: Cycle, p: float, idx: int, direction: int, horizon: int, *, want_curve: bool
) -> DirectionalWalk:
    r = len(comp)
    logs = [math.log(m.numerator) - math.log(m.denominator) for m in comp.measures]

    def inc(n: int) -> float:
        now = (idx - direction * n) % r
        before = (idx - direction * (n - 1)) % r
        return (logs[now] - logs[before]) / p

    return _walk_analysis(inc, 1, r, 0, horizon, want_curve)


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
    n = 0
    limit = max(horizon, cert_end)
    while n < limit:
        n += 1
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
    if want_curve and len(curve) < horizon:
        # finish the curve for uniform-mode alignment
        while len(curve) < horizon:
            n_next = len(curve) + 1
            cum = (curve[-1] if curve else 0.0) + inc(n_next)
            curve.append(cum)
    return DirectionalWalk(
        crossed_at=crossed,
        certificate=certificate,
        sup_log_norm=sup,
        log_norms=tuple(curve),
    )


def _basis_walk(op: Operator, site, direction: int, horizon: int, want_curve: bool) -> DirectionalWalk:
    if isinstance(op, AtomicOperator):
        ci, idx = site
        comp = op.system.components[ci]
        if isinstance(comp, Cycle):
            return _cycle_walk(comp, op.p, idx, direction, horizon, want_curve=want_curve)
        line = comp.measures.ratio.shifted(1).elementwise_pow(-1.0 / op.p)
        return _line_walk(line, idx, direction, horizon, want_curve=want_curve)
    line, position = op.site_line(site)
    return _line_walk(line, position, direction, horizon, want_curve=want_curve)


def _random_sample(op: Operator, rng: random.Random) -> Vec:
    """Seeded unit-norm simple function with small support."""
    size = rng.randint(2, 8)
    sites = set()
    guard = 0
    while len(sites) < size and guard < 200:
        guard += 1
        if isinstance(op, ShiftOperator):
            sites.add(rng.randint(-12, 12))
        elif isinstance(op, CompositionOperator):
            sites.add((rng.randint(-12, 12), rng.choice(op._cells)))
        else:
            ci = rng.randrange(len(op.system.components))
            comp = op.system.components[ci]
            if isinstance(comp, Cycle):
                sites.add((ci, rng.randrange(len(comp))))
            else:
                sites.add((ci, rng.randint(-12, 12)))
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
        fwd = _basis_walk(op, site, +1, horizon, want_curve)
        bwd = (
            _basis_walk(op, site, -1, horizon, want_curve)
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
            cert = outcome.certificate
            assert cert is not None
            witness = {
                "sample": outcome.label,
                "certificate": {
                    "kind": cert.kind,
                    "period": cert.period,
                    "sup_norm": cert.sup_norm,
                },
            }
            if twosided and outcome.backward_certificate is not None:
                back = outcome.backward_certificate
                witness["backward_certificate"] = {
                    "kind": back.kind,
                    "period": back.period,
                    "sup_norm": back.sup_norm,
                }
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

    def is_valid(self, op: Operator) -> bool:
        return self.max_residual(op) <= self.delta * (1 + 1e-9)


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
    prefix = [0.0]
    for value in logs:
        prefix.append(prefix[-1] + value)
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
    prefix = [0.0]
    for value in logs:
        prefix.append(prefix[-1] + value)
    best = -math.inf
    for k in range(k_lo, k_hi + 1):
        lo_idx = k + 1 - (k_lo + 1)
        best = max(best, -(prefix[lo_idx + j] - prefix[lo_idx]))
    return best


def _lcm(a: int, b: int) -> int:
    return a * b // math.gcd(a, b)


def build_splitting(op: Operator, *, max_window: int = 256) -> Splitting:
    """Stable/unstable splitting with certified contraction tables.

    The weight-line tails decide the shape: both tail rates below 1 give a
    contraction, both above 1 an expansion, and contraction on the left
    with expansion on the right splits the sites at the end of the core.
    Everything else (any tail rate equal to 1, or the reversed split) has
    no splitting to offer.
    """
    if isinstance(op, AtomicOperator):
        raise NoSplitting("atomic unions are not supported by the splitting builder")
    lines = op._weight_lines()
    sign_neg = tail_sign_vs_one(lines[0], "neg")
    sign_pos = tail_sign_vs_one(lines[0], "pos")
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

    m0 = 1
    for line in lines:
        m0 = _lcm(m0, _lcm(len(line.neg_period), len(line.pos_period)))
    window = m0
    while window <= max_window:
        stable_table = []
        unstable_table = []
        for j in range(1, window + 1):
            if kind != "expansion":
                stable_table.append(
                    math.exp(max(_sup_forward_factor(line, j, cut) for line in lines))
                )
            if kind != "contraction":
                unstable_table.append(
                    math.exp(max(_sup_backward_factor(line, j, cut) for line in lines))
                )
        ok = True
        if kind != "expansion" and stable_table[window - 1] >= 1.0 - 1e-12:
            ok = False
        if kind != "contraction" and unstable_table[window - 1] >= 1.0 - 1e-12:
            ok = False
        if ok:
            return Splitting(
                kind=kind,
                cut=cut,
                window=window,
                lam_stable=(
                    stable_table[window - 1] ** (1.0 / window)
                    if kind != "expansion"
                    else None
                ),
                lam_unstable=(
                    unstable_table[window - 1] ** (1.0 / window)
                    if kind != "contraction"
                    else None
                ),
                stable_table=tuple(stable_table),
                unstable_table=tuple(unstable_table),
            )
        window *= 2
    raise NoSplitting("no contracting certificate window within the scan bound")


@dataclass(frozen=True)
class ShadowResult:
    start_index: int
    z_points: tuple[Vec, ...]
    eps_achieved: float
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
    `lost` the largest norm dropped in one step, the splitting's series
    bounds what the drops could add to any d_i: a_priori_bound(lost), plus
    lost for the unstable j = 0 term that bound leaves out.  eps_achieved is
    max ||d_i|| plus this.  The result is checked against the orbit relation
    before being returned.
    """
    if isinstance(op, AtomicOperator):
        raise NoSplitting("atomic unions are not supported by the shadowing engine")
    if splitting is None:
        splitting = build_splitting(op)
    errors = pt.errors(op)
    count = len(pt.points)
    delta_eff = max((op.norm(e) for e in errors), default=0.0)
    floor = op.p * (math.log(_TRUNC) + math.log(delta_eff)) if delta_eff > 0 else -math.inf
    lost_terms: list[float] = []

    def pruned(vec: Vec) -> Vec:
        kept: Vec = {}
        dropped = []
        for s, c in vec.items():
            term = op.log_term(s, c)
            if term < floor:
                dropped.append(term)
            else:
                kept[s] = c
        if dropped:
            lost_terms.append(_logsumexp(dropped))
        return kept

    def p_stable(vec: Vec) -> Vec:
        return {s: c for s, c in vec.items() if op.site_is_stable(s, splitting)}

    def p_unstable(vec: Vec) -> Vec:
        return {s: c for s, c in vec.items() if not op.site_is_stable(s, splitting)}

    corrections: list[Vec] = [{} for _ in range(count)]
    if splitting.kind != "expansion":
        stable: Vec = {}
        for i in range(1, count):
            stable = pruned(vec_add(op.apply(stable, 1), p_stable(errors[i - 1])))
            corrections[i] = stable
    if splitting.kind != "contraction":
        unstable: Vec = {}
        for i in range(count - 2, -1, -1):
            unstable = pruned(op.apply(vec_add(unstable, p_unstable(errors[i])), -1))
            corrections[i] = vec_sub(corrections[i], unstable)

    lost = math.exp(max(lost_terms) / op.p) if lost_terms else 0.0
    eps = max((op.norm(d) for d in corrections), default=0.0)
    eps += splitting.a_priori_bound(lost) + lost

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
        bound_a_priori=splitting.a_priori_bound(pt.delta),
        max_orbit_residual=max_residual,
        splitting=splitting,
    )
