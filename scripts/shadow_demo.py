#!/usr/bin/env python3
"""Shadow noisy pseudotrajectories under the two stock hyperbolic weights.

For each weight family this perturbs an orbit of the unit vector at 0 by
independent errors of size delta, then reports the achieved tracking
distance next to the a-priori bound.  It exits 1 when some family's worst
distance exceeds its bound, and 0 otherwise.
"""

import argparse

from shiftlab.presets import SHIFTS
from shiftlab.simulate import ShiftOperator, build_splitting, make_pseudotrajectory, shadow


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--delta", type=float, default=1e-3)
    parser.add_argument("--length", type=int, default=201)
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()

    failed = False
    for name, factory in SHIFTS.items():
        op = ShiftOperator(factory(), 1.0)
        sp = build_splitting(op)
        bound = sp.a_priori_bound(args.delta)
        worst = 0.0
        for seed in range(args.seeds):
            pt = make_pseudotrajectory(op, {0: 1.0}, args.delta, args.length, seed)
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
