"""Independent reimplementations used to freeze expected values.

Everything here favors directness over efficiency: materialized tails,
double loops, and plain products.  Agreement between these and the
package's closed forms is what the derived-value tests actually check.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from itertools import accumulate, islice
from operator import neg
from typing import Any


def eval_periodic(core_lo, core, neg, pos, k):
    """Value at k by materializing enough periodic repetitions."""
    core_hi = core_lo + len(core) - 1
    if k > core_hi:
        return pos[(k - core_hi - 1) % len(pos)]
    if k >= core_lo:
        return core[k - core_lo]
    steps = core_lo - k
    reps = -(-steps // len(neg))
    block = list(neg) * reps
    return block[len(block) - steps]


class Quantifier(Enum):
    SUP_ALL = "sup_all_k"
    INF_ALL = "inf_all_k"
    SUP_NEG = "sup_k_in_negatives"
    INF_NAT = "inf_k_in_naturals"


class Direction(Enum):
    FORWARD = "forward"
    BACKWARD = "backward"


def window_rate(log_at, quantifier, direction, n, k_span):
    """Quantified geometric mean of the (n + 1)-factor window products.

    Anchors run over |k| <= k_span (only k <= 0 for SUP_NEG, only k >= 0
    for INF_NAT); a forward window covers k..k+n, a backward one k-n..k.
    """
    if quantifier in (Quantifier.SUP_ALL, Quantifier.INF_ALL):
        anchors = range(-k_span, k_span + 1)
    elif quantifier is Quantifier.SUP_NEG:
        anchors = range(-k_span, 1)
    else:
        anchors = range(0, k_span + 1)
    starts = anchors if direction is Direction.FORWARD else range(
        anchors[0] - n, anchors[-1] - n + 1)
    lo = starts[0]
    prefix = [0.0]
    for j in range(lo, starts[-1] + n + 1):
        prefix.append(prefix[-1] + log_at(j))
    totals = [prefix[k + n - lo + 1] - prefix[k - lo] for k in starts]
    pick = max if quantifier in (Quantifier.SUP_ALL, Quantifier.SUP_NEG) else min
    return math.exp(pick(totals) / (n + 1))


def mu_direct(mu0, ratio_at, k):
    """mu_k from the ratio recursion, as an exact fraction."""
    value = Fraction(mu0)
    if k > 0:
        for j in range(0, k):
            value *= Fraction(ratio_at(j))
    else:
        for j in range(k, 0):
            value /= Fraction(ratio_at(j))
    return value


def site_measure_fraction(system, k, cell=None):
    """Exact measure of the k-th image of a dissipative system's window, or of one cell."""
    measures = system.measures
    value = mu_direct(measures.mu0, measures.ratio.base_at, k)
    if cell is None or system.cells is None:
        return value
    return value * system.cells.beta[cell] / measures.mu0 * system.cells.theta(k, cell)


def star_direct(system, span):
    """Largest single-step measure ratio over an explicit site scan."""
    best = None
    cells = range(system.n_cells) if system.cells is not None else [None]
    for k in range(-span, span + 1):
        for j in cells:
            ratio = site_measure_fraction(system, k - 1, j) / site_measure_fraction(system, k, j)
            if best is None or ratio > best:
                best = ratio
    return best


def kmin_direct(system):
    """Exhaustive minimal distortion constant with its first witness."""
    best = Fraction(1)
    witness = None
    cells = system.cells
    if cells is not None:
        for i, row in enumerate(cells.wobble):
            for j, theta in enumerate(row):
                theta = Fraction(theta)
                bound = theta if theta >= 1 else 1 / theta
                if bound > best:
                    best = bound
                    witness = (cells.wobble_lo + i, j + 1)
    return best, witness


def h_direct(system):
    """Worst pairwise deviation between two image measures of one cell."""
    cells = system.cells
    if cells is None or not cells.wobble:
        return Fraction(1)
    worst = Fraction(1)
    lo = cells.wobble_lo - 1
    hi = cells.wobble_lo + len(cells.wobble)
    for j in range(cells.n_cells):
        for k1 in range(lo, hi + 1):
            for k2 in range(lo, hi + 1):
                ratio = Fraction(cells.theta(k1, j)) / Fraction(cells.theta(k2, j))
                if ratio > worst:
                    worst = ratio
    return worst


def norm_direct(vec, p, site_log_mu):
    """p-norm by direct summation in plain floats."""
    total = 0.0
    for site, coeff in vec.items():
        total += abs(coeff) ** p * math.exp(site_log_mu(site))
    return total ** (1.0 / p)


def vec_sub(a, b):
    """a - b: a copy of a with b added negated through simulate's zero rule."""
    from shiftlab.simulate import _add_into

    return _add_into(dict(a), b, negate=True)


def max_residual(op, pt):
    """The largest one-step error ||T x_i - x_(i+1)|| of a pseudotrajectory (0 for none)."""
    return max((op.norm(e) for e in pt.errors(op)), default=0.0)


def covers_stable(splitting, k):
    """Whether line position k lies on the stable side of a splitting."""
    if splitting.kind == "contraction":
        return True
    if splitting.kind == "expansion":
        return False
    assert splitting.cut is not None
    return k <= splitting.cut


def site_is_stable(op, site, splitting):
    """Whether a site lies on the stable side of a splitting, by its line position."""
    return covers_stable(splitting, op._locate(site)[1])


def shadow_exact_corrections(op, pt, splitting):
    """Untruncated shadowing corrections, one series term at a time.

    d_i = sum_{k < i} T^(i-1-k) P_s e_k - sum_{k >= i} T^-(k-i+1) P_u e_k with
    e_k = T x_k - x_(k+1), every term built by repeated one-step apply and
    nothing dropped: O(n^2) applications, independent of the recursions.
    """

    def add_into(acc, vec, sign):
        for site, c in vec.items():
            acc[site] = acc.get(site, 0.0) + sign * c

    def stable(site):
        return site_is_stable(op, site, splitting)

    points = pt.points
    n = len(points)
    corrections = [{} for _ in range(n)]
    for k in range(n - 1):
        error = dict(op.apply(points[k], 1))
        add_into(error, points[k + 1], -1.0)
        error = {s: c for s, c in error.items() if c != 0.0}
        image = {s: c for s, c in error.items() if stable(s)}
        for i in range(k + 1, n):
            add_into(corrections[i], image, 1.0)
            image = op.apply(image, 1)
        image = op.apply({s: c for s, c in error.items() if not stable(s)}, -1)
        for i in range(k, -1, -1):
            add_into(corrections[i], image, -1.0)
            image = op.apply(image, -1)
    return corrections


def shadow_stepwise(op, pt, splitting=None):
    """Shadowing by the step-by-step recursions, kept verbatim as the reference.

    This is the body ``simulate.shadow`` had before its fused passes: every
    error, recursion step and residual built from fresh dict copies, one
    loop per quantity, with the orbit-relation gate that scales with
    errors larger than 1.  The fused ``shadow`` must return the same
    floats, in the same key order, on every input.
    """
    from shiftlab.simulate import (
        _TRUNC,
        NoSplitting,
        ShadowResult,
        build_splitting,
        vec_add,
    )
    from shiftlab.systems import logsumexp

    if splitting is None:
        splitting = build_splitting(op)
    errors = pt.errors(op)
    count = len(pt.points)
    delta_eff = max((op.norm(e) for e in errors), default=0.0)
    floor = op.p * (math.log(_TRUNC) + math.log(delta_eff)) if delta_eff > 0 else -math.inf
    lost_terms: list[float] = []

    def pruned(vec):
        kept = {}
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

    def halves(vec):
        """(P_s vec, P_u vec); without a cut, vec is on the one side the loops read."""
        if splitting.cut is None:
            return vec, vec
        stable_part = {}
        unstable_part = {}
        for s, c in vec.items():
            (stable_part if site_is_stable(op, s, splitting) else unstable_part)[s] = c
        return stable_part, unstable_part

    split_errors = [halves(e) for e in errors]
    corrections = [{} for _ in range(count)]
    if splitting.kind != "expansion":
        stable = {}
        for i in range(1, count):
            stable = pruned(vec_add(op.apply(stable, 1), split_errors[i - 1][0]))
            corrections[i] = stable
    if splitting.kind != "contraction":
        unstable = {}
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
    if max_residual > 1e-9 * max(1.0, delta_eff):
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


def _tail_phase(line, position, direction):
    """Phase of a basis walk that lies wholly in one periodic tail, else None."""
    if direction > 0 and position < line.core_lo:
        return (line.core_lo - 1 - position) % len(line.neg_period)
    if direction < 0 and position >= line.core_hi:
        return (position - line.core_hi) % len(line.pos_period)
    return None


def memo_log_norm_walk(op, vec, direction):
    """log ||T^n vec|| for n = 1, 2, ... with the site measures memoized per walk."""
    from itertools import count

    from shiftlab.systems import logsumexp

    p, measure = op.p, op._log_measure
    entries = []
    for site, c in vec.items():
        if c != 0:
            line, position = op._locate(site)
            entries.append((p * math.log(abs(c)), line, position, op._periods[line]))
    memo = {}
    for n in count(direction, direction):
        terms = []
        for coeff_term, line, position, period in entries:
            moved = (position - n) % period if period else position - n
            site_term = memo.get((line, moved))
            if site_term is None:
                site_term = memo[line, moved] = measure(*op._key(line, moved))
            terms.append(coeff_term + site_term)
        yield logsumexp(terms) / p


def pointwise_reference(outcomes, twosided):
    """A pointwise reading as two passes over per-outcome (crossed_at, certificate) pairs.

    This is how a reading was taken before one pass gave both: first the
    Fails scan for a sample certified bounded in every read direction,
    then the crossing scan.  The probe's readings must equal it.
    """
    from shiftlab.classify import Status, Verdict

    def sides(outcome):
        forward = (outcome.crossed_at, outcome.certificate)
        if not twosided:
            return (forward,)
        return forward, (outcome.backward_crossed_at, outcome.backward_certificate)

    for outcome in outcomes:
        read = sides(outcome)
        if all(certificate is not None for _, certificate in read):
            witness = {"sample": outcome.label}
            for name, (_, c) in zip(("certificate", "backward_certificate"), read):
                witness[name] = {"kind": c.kind, "period": c.period, "sup_norm": c.sup_norm}
            return Verdict(Status.FAILS, "definition", "brute-force", None, witness)
    crossings = []
    for outcome in outcomes:
        crossed = [n for n, _ in sides(outcome) if n is not None]
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


def scan_reference(log_norms, horizon, want_curve, bound=None):
    """A walk's scan as one loop over a lazy stream, kept as the reference for the probe's walks.

    ``bound`` is ``(n_enter, period, drift)`` for a basis walk, whose
    increments are exactly periodic from step n_enter on, with ``drift``
    the sign of their sum over one period.  With drift <= 0 the supremum
    over all n is visible at n_enter + period, so a walk that has not
    crossed by then never does.  A walk without a bound (a random sample),
    or whose n_enter + period exceeds the read cap, never certifies.
    """
    from shiftlab.simulate import (
        _CERT_GAP,
        _CERT_READ_CAP,
        _CROSS_TOL,
        _LOG2,
        BoundCertificate,
        DirectionalWalk,
    )

    n_enter, period, drift = bound or (0, 0, 1)
    certifiable = drift <= 0 and n_enter + period <= _CERT_READ_CAP
    cert_end = n_enter + period if certifiable else 0
    search_end = min(horizon, cert_end) if certifiable else horizon
    threshold = _LOG2 - _CROSS_TOL
    stream = iter(log_norms)
    values = []
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


def line_walk_reference(line, position, direction, horizon, want_curve):
    """A basis walk as the running sums of the line's own ``logs_from`` chain, scanned lazily.

    Forward steps multiply by w at descending indices starting at
    ``position``; backward steps divide by w at ascending indices.  This
    is the walk the probe computed before it read one increment table per
    line and direction; ``_table_walk`` must equal it field for field.
    """
    from shiftlab.seqcore import tail_sign_vs_one

    if direction > 0:
        increments = line.logs_from(position, -1)
        bound = (max(1, position - line.core_lo + 2), len(line.neg_period),
                 tail_sign_vs_one(line, "neg"))
    else:
        increments = map(neg, line.logs_from(position + 1, 1))
        bound = (max(1, line.core_hi - position + 1), len(line.pos_period),
                 -tail_sign_vs_one(line, "pos"))
    return scan_reference(accumulate(increments), horizon, want_curve, bound)


def basis_sites(op, span):
    """The site keys of the operator's basis positions, line by line."""
    return [op._key(line, k)
            for line in range(len(op.lines)) for k in op.basis_positions(line, span)]


def brute_force_reference(system, mode, *, horizon, samples, seed, p=None):
    """brute_force_expansivity with only wholly-in-tail walks shared, kept as the reference.

    This is the basis and sample loop the probe had before a walk was
    shared by what it read: a basis walk is shared only when it lies
    wholly in one periodic tail, keyed by ``_tail_phase``, and a random
    sample memoizes its site measures per walk.  The probe must return an
    equal report on every input, its readings taken by ``pointwise_reference``.
    """
    import random

    from shiftlab.simulate import (
        BruteForceReport,
        SampleOutcome,
        _random_sample,
        _shared_crossing,
        operator_for,
    )

    op = operator_for(system, p)
    rng = random.Random(seed)
    directions = (1, -1) if mode.twosided else (1,)
    walk_of = op.log_norm_walk if op._log_measure is None else (
        lambda vec, d: memo_log_norm_walk(op, vec, d))
    probes = []
    tail_walks = {}
    for site in basis_sites(op, horizon):
        index, position = op._locate(site)
        line = op.lines[index]
        walks = []
        for d in directions:
            phase = _tail_phase(line, position, d)
            walk = tail_walks.get((index, d, phase))  # never stored for phase None
            if walk is None:
                walk = line_walk_reference(line, position, d, horizon, mode.uniform)
                if phase is not None:
                    tail_walks[index, d, phase] = walk
            walks.append(walk)
        probes.append((op.site_label(site), "basis", walks))
    for i in range(samples):
        vec = _random_sample(op, rng)
        walks = [scan_reference(walk_of(vec, d), horizon, mode.uniform) for d in directions]
        probes.append((f"rand[{i}]", "random", walks))
    outcomes = tuple(
        SampleOutcome(label, kind, *(field for w in walks for field in (w.crossed_at, w.certificate)))
        for label, kind, walks in probes
    )
    verdict = pointwise_reference(outcomes, mode.twosided)
    if mode.uniform:
        if not verdict.fails:
            verdict = _shared_crossing([walks for _, _, walks in probes], horizon)
        return BruteForceReport(verdict, mode, horizon, seed, outcomes)
    positive = pointwise_reference(outcomes, False) if mode.twosided else None
    return BruteForceReport(verdict, mode, horizon, seed, outcomes, positive)


# The canonical JSON encoder as it stood before its scalar dispatch was
# reordered for speed, kept byte for byte (only the names differ) as the
# reference that any later rewrite of shiftlab.canon must match.


def _canon_scalar_reference(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"cannot serialize non-finite float {value!r}")
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        # 12 significant digits, enough to round-trip every reported rate.
        return format(value, ".12g")
    if isinstance(value, Fraction):
        return _canon_scalar_reference(_fraction_text_reference(value))
    if isinstance(value, str):
        out = ['"']
        for ch in value:
            if ch == '"':
                out.append('\\"')
            elif ch == "\\":
                out.append("\\\\")
            elif ord(ch) < 0x20:
                out.append(f"\\u{ord(ch):04x}")
            else:
                out.append(ch)
        out.append('"')
        return "".join(out)
    raise TypeError(f"cannot canonicalize {type(value).__name__}")


def canonical_json_reference(obj: Any) -> str:
    """Serialize with sorted keys and fixed float formatting.

    Equal inputs yield byte-identical output; reports and config dumps go
    through here so repeated runs can be compared with a plain diff.
    """
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: kv[0])
        inner = ",".join(f"{_canon_scalar_reference(str(k))}:{canonical_json_reference(v)}"
                         for k, v in items)
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_json_reference(v) for v in obj) + "]"
    return _canon_scalar_reference(obj)


def _fraction_text_reference(frac: Fraction) -> str:
    if frac.denominator == 1:
        return str(frac.numerator)
    return f"{frac.numerator}/{frac.denominator}"
