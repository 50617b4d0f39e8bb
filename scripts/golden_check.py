#!/usr/bin/env python3
"""Check every pool entry of the given benchmark workloads against perfbench/golden.json.

Usage, from the root of a checkout:

    python3 scripts/golden_check.py WORKLOAD...    (audit, shadow, classify, cli)

Each entry runs through the workload's own make_input, run and check, as
the benchmark does, but over the whole pool rather than a timed stretch of
it.  Prints, per workload, the number of fingerprint mismatches and of
entries whose output check fails (an entry that raises counts as failed),
and the wall-clock seconds the check took; exits 1 if any count is nonzero.
"""

import json
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS  # noqa: E402

GOLDEN = ROOT / "perfbench" / "golden.json"


def check_workload(name: str, golden: str) -> tuple[int, int, int]:
    """(entries, fingerprint mismatches, failed checks) over the whole pool."""
    workload = WORKLOADS[name](ROOT)
    workload.setup()
    mismatches = failed = 0
    for index in range(workload.pool):
        inp = workload.make_input(index)
        try:
            ok, fingerprint = workload.check(inp, workload.run(inp))
        except Exception:  # a raising entry is a failed one; keep checking the rest
            traceback.print_exc(limit=4)
            ok, fingerprint = False, None
        failed += not ok
        if fingerprint != golden[8 * index: 8 * index + 8]:
            mismatches += 1
            print(f"{name}: fingerprint mismatch at pool entry {index}", flush=True)
    return workload.pool, mismatches, failed


def main(argv: list[str]) -> int:
    unknown = [name for name in argv if name not in WORKLOADS]
    if not argv or unknown:
        print(f"usage: golden_check.py WORKLOAD... (from {', '.join(sorted(WORKLOADS))})",
              file=sys.stderr)
        return 2
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    bad = False
    for name in argv:
        start = perf_counter()
        entries, mismatches, failed = check_workload(name, golden[name])
        print(f"{name}: {entries} entries, {mismatches} mismatches, {failed} failed checks, "
              f"{perf_counter() - start:.1f} s", flush=True)
        bad = bad or mismatches or failed
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
