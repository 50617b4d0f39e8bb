#!/usr/bin/env python3
"""Shadow noisy pseudotrajectories under the stock hyperbolic operators.

For the two stock hyperbolic weights, and for the atomic union of a
contracting and an expanding line (measure ratios 2 and 1/2 at p = 2),
which splits line by line, this perturbs an orbit of the normalized basis
vector at the operator's origin by independent errors of size delta, then
reports the achieved tracking distance next to the a-priori bound.  It
exits 1 when some operator's worst distance exceeds its bound, and 0
otherwise.
"""

import argparse

from shiftlab.presets import SHIFTS
from shiftlab.seqcore import EventuallyPeriodicSequence
from shiftlab.simulate import (
    AtomicOperator,
    ShiftOperator,
    build_splitting,
    make_pseudotrajectory,
    shadow,
)
from shiftlab.systems import AtomicSystem, MeasureSequence


def mixed_union() -> AtomicOperator:
    lines = tuple(MeasureSequence.from_values(1, EventuallyPeriodicSequence.from_values(
        0, [r], [r], [r])) for r in ("2", "1/2"))
    return AtomicOperator(AtomicSystem(p=2.0, components=lines))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--delta", type=float, default=1e-3)
    parser.add_argument("--length", type=int, default=201)
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()

    operators = {name: ShiftOperator(factory(), 1.0) for name, factory in SHIFTS.items()}
    operators["mixed"] = mixed_union()
    failed = False
    for name, op in operators.items():
        sp = build_splitting(op)
        bound = sp.a_priori_bound(args.delta)
        x0 = op.normalized_basis(op.origin)
        worst = 0.0
        for seed in range(args.seeds):
            pt = make_pseudotrajectory(op, x0, args.delta, args.length, seed)
            worst = max(worst, shadow(op, pt, sp).eps_achieved)
        ok = worst <= bound
        failed = failed or not ok
        print(
            f"{name:9s} kind={sp.kind:11s} delta={args.delta:g} "
            f"worst_eps={worst:.6e} bound={bound:.6e} ok={ok}"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
