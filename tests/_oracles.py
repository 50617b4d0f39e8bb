"""Independent reimplementations used to freeze expected values.

Everything here favors directness over efficiency: materialized tails,
double loops, and plain products.  Agreement between these and the
package's closed forms is what the derived-value tests actually check.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction


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


def star_direct(system, span):
    """Largest single-step measure ratio over an explicit site scan."""
    best = None
    cells = range(system.n_cells) if system.cells is not None else [None]
    for k in range(-span, span + 1):
        for j in cells:
            ratio = system.site_measure_fraction(k - 1, j) / system.site_measure_fraction(k, j)
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
        return op.site_is_stable(site, splitting)

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
