#!/usr/bin/env python3
"""Rewrite golden.json: the fingerprint of every pool entry of the given workloads.

Usage, from the root of a checkout: python3 perfbench/record.py [WORKLOAD...]

Run it only on a commit whose outputs are known to be right; the
benchmark then counts any operation whose output differs as failed.
Entries whose own output check fails are reported and abort the recording.
"""

import json
import sys
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden.json"


def record(name: str) -> str:
    workload = WORKLOADS[name](ROOT)
    workload.setup()
    fingerprints = []
    for index in range(workload.pool):
        inp = workload.make_input(index)
        ok, fingerprint = workload.check(inp, workload.run(inp))
        if not ok:
            raise SystemExit(f"{name}: pool entry {index} fails its own output check")
        fingerprints.append(fingerprint)
    return "".join(fingerprints)


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    golden = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.is_file() else {}
    for name in argv or sorted(WORKLOADS):
        golden[name] = record(name)
        print(f"{name}: {len(golden[name]) // 8} entries", flush=True)
    GOLDEN.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
