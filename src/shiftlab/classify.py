"""Verdicts for the dynamical properties of shifts, dissipative systems and
atomic unions.

Each system is read through one rate view: the two tail geometric means of
its ratio (or weight) presentation and their signs against 1.  Every
verdict is a strict-inequality rule on that view, most of them looked up
in one table keyed by the sign pattern.  Verdicts carry the citation tag
of the rule that decided them, a margin (distance of the decisive rates
from 1), and, where the rule is existential, a concrete witness.  Rates
sitting exactly on a boundary never satisfy a strict condition; rule
families whose boundary cases are genuinely open return Undecided.

An atomic union is a direct sum of cycles and lines, and each line is a
dissipative system with a one-atom window.  Its expansivity rules E1..E4
are ED1, ED2, ED3 and UE read line by line; a cycle caps every orbit
measure and fails all four.  A seeded sampler checks a Holds of E3 or E4
on random finite sets of atoms, and can only downgrade it to Undecided.

Citation tags used here: ED1..ED4 (expansivity rules for dissipative
systems), UE1/UE2/UE3 (the uniform-expansivity trichotomy), HC/HD/GH (the
splitting conditions), SC1/SC2 (stability and shadowing rules), C
(stability forces shadowing under positive expansivity), P41 (expanding
far tail with contracting near tail certifies instability), E1..E4
(atomic expansivity rules), B-a/B-b/B-c and B (the weighted-shift table
of Bernardes and Messaoudi), and OpenProblem for honest Undecided.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from itertools import accumulate, islice
from operator import add, neg
from typing import Callable, Literal, Mapping

from .canon import fingerprint
from .seqcore import (
    EventuallyPeriodicSequence,
    side_geometric_means,
    tail_sign_vs_one,
)
from .systems import (
    AtomicSystem,
    Cycle,
    DissipativeSystem,
    WeightSequence,
    draw_site,
    logsumexp,
)

Method = Literal["exact", "horizon"]


class Status(Enum):
    HOLDS = "Holds"
    FAILS = "Fails"
    UNDECIDED = "Undecided"


@dataclass(frozen=True)
class Verdict:
    status: Status
    citation: str
    method: str = "exact"
    margin: float | None = None
    witness: dict | None = None

    @property
    def holds(self) -> bool:
        return self.status is Status.HOLDS

    @property
    def fails(self) -> bool:
        return self.status is Status.FAILS

    def to_dict(self) -> dict:
        return {
            "status": self.status.value,
            "citation": self.citation,
            "method": self.method,
            "margin": self.margin,
            "witness": self.witness,
        }


class DistortionError(ValueError):
    """Classification was asked for a system whose declared K fails its check."""


# ---------------------------------------------------------------------------
# Rate views


@dataclass(frozen=True)
class _RateView:
    g_minus: float
    g_plus: float
    sign_minus: int  # trichotomy of g_minus against 1
    sign_plus: int
    method: str

    @property
    def signs(self) -> tuple[int, int]:
        return (self.sign_minus, self.sign_plus)

    @property
    def margin_minus(self) -> float:
        return abs(self.g_minus - 1.0)

    @property
    def margin_plus(self) -> float:
        return abs(self.g_plus - 1.0)

    @property
    def margin_both(self) -> float:
        return min(self.margin_minus, self.margin_plus)


def _aligned_tail_estimate(seq: EventuallyPeriodicSequence, side: str, n: int) -> float:
    """Numeric tail rate from one window of about n entries, clear of the core.

    The window length is rounded down to a whole number of periods so the
    estimate carries no phase bias; anchoring 8 indices past the core keeps
    transients out.
    """
    period = len(seq.neg_period) if side == "neg" else len(seq.pos_period)
    length = max(period, (max(n, 1) // period) * period)
    start = seq.core_lo - 8 - length if side == "neg" else seq.core_hi + 9
    total = reduce(add, islice(seq.logs_from(start, 1), length), 0.0)
    return math.exp(total / length)


def _sign_of(value: float) -> int:
    if abs(value - 1.0) <= 1e-12:
        return 0
    return 1 if value > 1.0 else -1


def _view(
    seq: EventuallyPeriodicSequence, method: Method = "exact", horizon: int = 200
) -> _RateView:
    if method == "exact":
        rates = side_geometric_means(seq)
        return _RateView(
            g_minus=rates.gm_neg,
            g_plus=rates.gm_pos,
            sign_minus=tail_sign_vs_one(seq, "neg"),
            sign_plus=tail_sign_vs_one(seq, "pos"),
            method="exact",
        )
    if method != "horizon":
        raise ValueError(f"unknown method {method!r}")
    g_minus = _aligned_tail_estimate(seq, "neg", horizon)
    g_plus = _aligned_tail_estimate(seq, "pos", horizon)
    return _RateView(
        g_minus=g_minus,
        g_plus=g_plus,
        sign_minus=_sign_of(g_minus),
        sign_plus=_sign_of(g_plus),
        method="horizon",
    )


def _dissipative_view(system: DissipativeSystem, method: Method, horizon: int) -> _RateView:
    cert = system.distortion_certificate
    if not cert.ok:
        raise DistortionError(
            f"declared distortion constant {cert.declared} is below the "
            f"minimal value {cert.k_min}"
        )
    return _view(system.measures.ratio, method, horizon)


# The rule tags each strict sign pattern (sign_minus, sign_plus) fires:
# the uniform-expansivity trichotomy, the splitting condition, and the
# branch of the weighted-shift table.  Patterns with a rate on the
# boundary (a sign of 0) fire none of them.
_SIGN_TABLE: dict[tuple[int, int], tuple[str | None, str | None, str | None]] = {
    (1, 1): ("UE1", "HC", "B-b"),
    (-1, -1): ("UE2", "HD", "B-a"),
    (-1, 1): ("UE3", None, "B-c"),
    (1, -1): (None, "GH", None),
}
_NO_RULE = (None, None, None)


# ---------------------------------------------------------------------------
# Witness scans

_BLOWUP_LOG = math.log(1e6)
_WITNESS_CAP = 100_000


def _blowup(system: DissipativeSystem, backward: bool) -> dict | None:
    """Smallest n with mu_{-n} (or mu_n) > 1e6 mu_0, scanned incrementally."""
    ratio = system.measures.ratio
    steps = map(neg, ratio.logs_from(-1, -1)) if backward else ratio.logs_from(0, 1)
    for n, total in enumerate(islice(accumulate(steps), _WITNESS_CAP), 1):
        if total > _BLOWUP_LOG:
            return {"n": n, "measure_ratio": math.exp(total)}
    return None


def _rates_witness(view: _RateView) -> dict:
    return {"g_minus": view.g_minus, "g_plus": view.g_plus}


def _decided(
    holds: bool, citation: str, view: _RateView, margin: float, witness: dict | None
) -> Verdict:
    return Verdict(Status.HOLDS if holds else Status.FAILS, citation, view.method, margin, witness)


# ---------------------------------------------------------------------------
# Expansivity line rules


def _line_rules(view: _RateView) -> dict[str, bool]:
    """Whether each expansivity rule holds on one line's rate view.

    ED1 and ED3 need g_minus < 1, ED2 needs g_minus < 1 or g_plus > 1, and
    UE needs a row of the sign-pattern table.  A dissipative system is one
    line; an atomic union reads the same rules line by line as E1..E4.

    ED3 is the rule of positive expansivity made uniform, not the uniform
    definition of Bernardes, Cirilo, Darji, Messaoudi and Pujals (2018),
    which asks for one n with ||T^n x|| >= 2 for every unit vector x.  On a
    valley (g_minus < 1 < g_plus) the basis vector of site n has
    ||T^n e_n|| -> 0, so that definition fails there while ED3 Holds.
    """
    return {
        "positively_expansive": view.sign_minus < 0,
        "expansive": view.sign_minus < 0 or view.sign_plus > 0,
        "uniformly_positively_expansive": view.sign_minus < 0,
        "uniformly_expansive": _SIGN_TABLE.get(view.signs, _NO_RULE)[0] is not None,
    }


def _escapes_backward(view: _RateView) -> bool:
    """Whether ED2 reads its escape backward: the only side, or the wider margin."""
    return view.sign_minus < 0 and (view.sign_plus <= 0 or view.margin_minus >= view.margin_plus)


# ---------------------------------------------------------------------------
# Dissipative verdicts


def _dissipative_verdicts(system: DissipativeSystem, view: _RateView) -> dict[str, Verdict]:
    """The ten verdicts of REPORT_PROPERTIES, read from one rate view.

    The four expansivity verdicts follow the line rules; the splitting
    condition comes from the sign-pattern table.  Shadowing and strong
    structural stability follow the splitting; without one, positive
    expansivity settles stability negatively (C, P41) and anything else
    is open.  The exact method attaches blow-up witnesses to the
    expansivity verdicts.
    """
    rules = _line_rules(view)
    uniform, splitting, _ = _SIGN_TABLE.get(view.signs, _NO_RULE)
    exact = view.method == "exact"
    backward = rules["positively_expansive"]
    minus, plus, both = view.margin_minus, view.margin_plus, view.margin_both
    rates = _rates_witness(view)
    conditioned = dict(rates, condition=splitting) if splitting is not None else rates

    blowup = _blowup(system, backward=True) if exact and backward else None
    if not rules["expansive"]:
        expansive = _decided(False, "ED2", view, both, rates)
    elif _escapes_backward(view):
        expansive = _decided(True, "ED2", view, minus, {"side": "backward", **(blowup or rates)})
    else:
        forward = _blowup(system, backward=False) if exact else None
        expansive = _decided(True, "ED2", view, plus, {"side": "forward", **(forward or rates)})

    if splitting is not None:
        sss = _decided(True, "SC1", view, both, conditioned)
    elif backward:
        sss = _decided(False, "C", view, minus, rates)
    else:
        sss = Verdict(Status.UNDECIDED, "OpenProblem", view.method, None, rates)
    hyperbolic = splitting in ("HC", "HD")
    return {
        "positively_expansive": _decided(
            backward, "ED1", view, minus, blowup if exact and backward else rates
        ),
        "expansive": expansive,
        "uniformly_positively_expansive": _decided(
            rules["uniformly_positively_expansive"], "ED3", view, minus, rates
        ),
        "uniformly_expansive": _decided(
            rules["uniformly_expansive"], uniform or "ED4", view, both, rates
        ),
        "shadowing": _decided(splitting is not None, "SC2", view, both, conditioned),
        "hyperbolic": _decided(hyperbolic, splitting if hyperbolic else "SC1", view, both, rates),
        "generalized_hyperbolic": _decided(
            splitting is not None, splitting or "SC2", view, both, rates
        ),
        "strong_structural_stability": sss,
        "structurally_stable": _decided(False, "P41", view, minus, rates) if sss.fails else sss,
        "not_structurally_stable": _decided(view.signs == (-1, 1), "P41", view, both, rates),
    }


# ---------------------------------------------------------------------------
# Reports and the implication audit

REPORT_PROPERTIES = (
    "positively_expansive",
    "expansive",
    "uniformly_positively_expansive",
    "uniformly_expansive",
    "shadowing",
    "hyperbolic",
    "generalized_hyperbolic",
    "strong_structural_stability",
    "structurally_stable",
    "not_structurally_stable",
)

_IMPLICATIONS = (
    ("hyperbolic", "uniformly_expansive"),
    ("hyperbolic", "generalized_hyperbolic"),
    ("generalized_hyperbolic", "shadowing"),
    ("generalized_hyperbolic", "strong_structural_stability"),
    ("strong_structural_stability", "structurally_stable"),
    ("uniformly_expansive", "expansive"),
    ("uniformly_positively_expansive", "positively_expansive"),
)


def implication_audit(verdicts: Mapping[str, Verdict]) -> tuple[str, ...]:
    """Cross-check a verdict table against the known implications.

    Undecided entries are skipped: only a decided pair can witness a
    violation.  Returns human-readable violation lines, empty when clean.
    """
    failures: list[str] = []

    def decided(name: str) -> Verdict | None:
        verdict = verdicts.get(name)
        if verdict is None or verdict.status is Status.UNDECIDED:
            return None
        return verdict

    for stronger, weaker in _IMPLICATIONS:
        a, b = decided(stronger), decided(weaker)
        if a is not None and b is not None and a.holds and b.fails:
            failures.append(f"{stronger}=Holds but {weaker}=Fails")

    nss = decided("not_structurally_stable")
    stable = decided("structurally_stable")
    if nss is not None and stable is not None and nss.holds and stable.holds:
        failures.append("not_structurally_stable=Holds but structurally_stable=Holds")

    pe = decided("positively_expansive")
    hyp = decided("hyperbolic")
    if pe is not None and hyp is not None and stable is not None:
        if pe.holds and hyp.fails and stable.holds:
            failures.append(
                "positively_expansive=Holds and hyperbolic=Fails "
                "but structurally_stable=Holds"
            )

    sss = decided("strong_structural_stability")
    shadowing = decided("shadowing")
    if pe is not None and pe.holds and sss is not None and shadowing is not None:
        if sss.holds != shadowing.holds:
            failures.append(
                "under positively_expansive=Holds, strong_structural_stability="
                f"{verdicts['strong_structural_stability'].status.value} disagrees with "
                f"shadowing={verdicts['shadowing'].status.value}"
            )
    return tuple(failures)


# Written into every report as "k_span"; no rule reads it.  It stays only so
# that report bytes (and the benchmark's golden fingerprints) do not move.
_K_SPAN = 500


@dataclass(frozen=True)
class ClassificationReport:
    kind: str
    label: str | None
    p: float | None
    fingerprint: str
    g_minus: float
    g_plus: float
    method: str
    horizon: int
    verdicts: dict[str, Verdict]
    violations: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "label": self.label,
            "p": self.p,
            "fingerprint": self.fingerprint,
            "rates": {"g_minus": self.g_minus, "g_plus": self.g_plus},
            "method": self.method,
            "horizon": self.horizon,
            "k_span": _K_SPAN,
            "verdicts": {name: v.to_dict() for name, v in self.verdicts.items()},
            "violations": list(self.violations),
        }


def classify_report(
    system: DissipativeSystem,
    *,
    label: str | None = None,
    method: Method = "exact",
    horizon: int = 200,
) -> ClassificationReport:
    """Full verdict table for a dissipative system, with the audit attached."""
    view = _dissipative_view(system, method, horizon)
    verdicts = _dissipative_verdicts(system, view)
    return ClassificationReport(
        kind="dissipative",
        label=label,
        p=system.p,
        fingerprint=fingerprint(system.to_config()),
        g_minus=view.g_minus,
        g_plus=view.g_plus,
        method=view.method,
        horizon=horizon,
        verdicts=verdicts,
        violations=implication_audit(verdicts),
    )


# ---------------------------------------------------------------------------
# Weighted shifts


def classify_shift(
    weights: WeightSequence,
    *,
    label: str | None = None,
    method: Method = "exact",
    horizon: int = 200,
) -> ClassificationReport:
    """Stability table for an invertible weighted shift.

    The three branches of the sign-pattern table: both weight rates below
    1 (contraction), both above 1 (expansion), or contracting on the left
    with expansion on the right.  Any branch gives strong structural
    stability and shadowing; the first two give hyperbolicity; outside the
    table stability Fails.
    """
    view = _view(weights.values, method, horizon)
    branch = _SIGN_TABLE.get(view.signs, _NO_RULE)[2]
    rates = _rates_witness(view)
    margin = view.margin_both
    conditioned = dict(rates, condition=branch) if branch is not None else rates
    hyperbolic_branch = branch if branch in ("B-a", "B-b") else None
    sss = _decided(branch is not None, branch or "B", view, margin, rates)
    shadowing = _decided(branch is not None, "B", view, margin, conditioned)
    hyperbolic = _decided(bool(hyperbolic_branch), hyperbolic_branch or "B", view, margin, rates)
    verdicts = {
        "strong_structural_stability": sss,
        "shadowing": shadowing,
        "hyperbolic": hyperbolic,
    }
    violations: list[str] = []
    if hyperbolic.holds and sss.fails:
        violations.append("hyperbolic=Holds but strong_structural_stability=Fails")
    if sss.status is not shadowing.status:
        violations.append("strong_structural_stability must match shadowing for shifts")
    return ClassificationReport(
        kind="shift",
        label=label,
        p=None,
        fingerprint=fingerprint(weights.to_config()),
        g_minus=view.g_minus,
        g_plus=view.g_plus,
        method=view.method,
        horizon=horizon,
        verdicts=verdicts,
        violations=tuple(violations),
    )


# ---------------------------------------------------------------------------
# Atomic systems


class ExpansivityMode(Enum):
    POSITIVE = "positive"
    TWOSIDED = "twosided"


_SAMPLER_HORIZON = 200
_SAMPLER_BUDGET = 24
_SAMPLER_SEED = 0


def _atomic_fold(
    system: AtomicSystem, prop: str, citation: str, margin: Callable[[_RateView], float]
) -> Verdict:
    """The line rule of ``prop`` folded over the components of a union.

    A cycle fails; otherwise the first line that breaks the rule fails, and
    the verdict Holds with the least ``margin`` over the lines.
    """
    margins: list[float] = []
    for index, comp in enumerate(system.components):
        if isinstance(comp, Cycle):
            return Verdict(
                Status.FAILS, citation, "exact", None,
                {"component": index, "kind": "cycle",
                 "orbit_measure_sup": float(max(comp.measures))},
            )
        view = _view(comp.ratio)
        if not _line_rules(view)[prop]:
            return Verdict(
                Status.FAILS, citation, "exact", view.margin_both,
                {"component": index, "kind": "line", "g_minus": view.g_minus,
                 "g_plus": view.g_plus},
            )
        margins.append(margin(view))
    return Verdict(Status.HOLDS, citation, "exact", min(margins),
                   {"components": len(system.components)})


def classify_atomic_expansive(system: AtomicSystem, mode: ExpansivityMode) -> Verdict:
    """Pointwise expansivity on a union of cycles and lines: E1 or E2 per line."""
    if mode is ExpansivityMode.POSITIVE:
        return _atomic_fold(system, "positively_expansive", "E1", lambda v: v.margin_minus)
    return _atomic_fold(
        system, "expansive", "E2",
        lambda v: v.margin_minus if _escapes_backward(v) else v.margin_plus,
    )


def classify_atomic_uniform(system: AtomicSystem, mode: ExpansivityMode) -> Verdict:
    """Uniform expansivity across all measurable unions of atoms: E3 or E4 per line.

    A seeded sampler then stress-tests a Holds on random finite sets of
    atoms; a set whose measure does not double within the horizon
    downgrades the verdict to Undecided, since a rule that disagrees with
    direct measurement cannot be trusted.
    """
    positive = mode is ExpansivityMode.POSITIVE
    prop, citation = (
        ("uniformly_positively_expansive", "E3") if positive else ("uniformly_expansive", "E4")
    )
    verdict = _atomic_fold(system, prop, citation, lambda v: v.margin_both)
    if not verdict.holds:
        return verdict
    rng = random.Random(_SAMPLER_SEED)
    periods = system.periods
    for _ in range(_SAMPLER_BUDGET):
        size = rng.randint(1, 4)
        drawn = set()
        while len(drawn) < size:
            drawn.add(draw_site(rng, periods, 20))
        atoms = sorted(drawn)
        base, backward, forward = (
            logsumexp(system.components[ci].log_mu(idx + shift) for ci, idx in atoms)
            for shift in (0, -_SAMPLER_HORIZON, _SAMPLER_HORIZON)
        )
        if (backward if positive else max(backward, forward)) - base < math.log(2.0):
            return Verdict(
                Status.UNDECIDED, citation, "exact", None,
                {"sampler": "contradiction", "atoms": [list(a) for a in atoms],
                 "horizon": _SAMPLER_HORIZON},
            )
    return verdict


def classify_atomic(system: AtomicSystem, *, label: str | None = None) -> dict:
    """Report of an atomic union: its four expansivity verdicts, audited."""
    verdicts = {
        "positively_expansive": classify_atomic_expansive(system, ExpansivityMode.POSITIVE),
        "expansive": classify_atomic_expansive(system, ExpansivityMode.TWOSIDED),
        "uniformly_positively_expansive": classify_atomic_uniform(
            system, ExpansivityMode.POSITIVE
        ),
        "uniformly_expansive": classify_atomic_uniform(system, ExpansivityMode.TWOSIDED),
    }
    return {
        "kind": "atomic",
        "label": label,
        "p": system.p,
        "fingerprint": fingerprint(system.to_config()),
        "verdicts": {name: v.to_dict() for name, v in verdicts.items()},
        "violations": list(implication_audit(verdicts)),
    }
