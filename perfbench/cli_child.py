"""Run ``shiftlab.cli.main`` under the benchmark's tracer in a fresh interpreter.

Usage: python cli_child.py TRACE_FILE [shiftlab arguments...]

Behaves like ``python -m shiftlab.cli`` (same stdout, stderr and exit
code) and writes the tracer's call counts and self times to TRACE_FILE.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    import shiftlab.cli  # noqa: F401  (the tracer wraps what is imported)

    tracer = Tracer()
    tracer.install()
    try:
        code = shiftlab.cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(trace_file, "w", encoding="utf-8") as handle:
            json.dump(tracer.totals(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
