#!/usr/bin/env python3
"""shiftlab benchmark: four seeded closed-loop workloads, one client each.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {audit,shadow,classify,cli} \
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` the run times every operation with tracing off and
reports the end-to-end metrics (set-up time, throughput, median and p90
operation time, peak resident memory).  The run is split over ``WORKERS``
fresh interpreters started one after another.  Each sets the workload up
once, as a user's process would (imports, configs, warm-up), and then
measures its share of the time on its own stretch of the input pool; the
set-up time reported is the median over the workers.

The machine the benchmark was defined on (a shared 2-core box) runs the
same code up to twice as fast in one minute as in the next.  So each
worker also times a fixed calibration kernel (plain Python shaped like
shiftlab's inner loops, owned by the benchmark) every 50 ms between
operations, and divides each operation's time by its slowdown: the median
of the three kernel readings nearest to it over ``CAL_REF_MS``.  The
``cli`` workload spends its time starting interpreters, which a busy
neighbour slows more than it slows the kernel; there the reading is a
bare interpreter start (``python -c pass``, the floor) before every
operation, over ``FLOOR_REF_MS``.  Set-up times are divided by the
readings around them.  End-to-end times are therefore in milliseconds
(or seconds) at the reference speed; the raw figures and the slowdowns
are printed and recorded as well.  A change to shiftlab moves the timings
but not the kernel or the floor.

With ``--trace 1`` the run first measures for half the time with the
benchmark's tracer wrapped around the program's public functions, then
replays the same operations untraced; it reports per-operation call
counts and self times per layer, the interpreter floor and import time of
the CLI, and the tracing overhead.

Every operation's output is checked and its fingerprint compared with
``golden.json``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it print each metric with its unit and sample count,
and the environment.  Results and raw spans also go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import traceback
from dataclasses import astuple, dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
GOLDEN = Path(__file__).resolve().parent / "golden.json"
WORKERS = 5          # interpreters per untraced run, each set up once
FLOOR_REPEATS = 5    # interpreter starts per floor / import measurement
CAL_REF_MS = 4.0     # calibration kernel time at the reference speed
CAL_EVERY_S = 0.05   # calibrate after at least this much time of operations
FLOOR_REF_MS = 64.0  # bare interpreter start at the reference speed (cli workload)


def environment() -> dict:
    """Where and on what the run happened, so busier machines can be told apart."""
    sources = sorted((SRC / "shiftlab").glob("*.py"))
    source_digest = hashlib.sha256()
    for path in sources:
        source_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "commit": _git_commit(),
        "source_sha256": source_digest.hexdigest(),
    }


def _git_commit() -> str | None:
    # Read .git directly: a checkout need not be a repository, and running
    # git there would search the parent directories.
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def calibration_kernel() -> float:
    """Fixed plain-Python work: tuple-keyed dicts, float maths, Fractions, sorting."""
    total = 0.0
    for j in range(20):
        vec = {(k, None): 1.0 / (k + 1) for k in range(j, j + 40)}
        moved = {(k - 1, c): x * 0.5 for (k, c), x in vec.items()}
        total += max(moved.values()) + sum(math.exp(math.log(abs(x))) for x in moved.values())
    rng = random.Random(1)
    for _ in range(200):
        a = Fraction(rng.randint(1, 7), rng.randint(1, 7))
        b = Fraction(rng.randint(1, 7), rng.randint(1, 7))
        total += float(a * b + a / b)
    words = sorted(format(rng.random(), ".12g") for _ in range(300))
    seq = [rng.random() for _ in range(400)]
    return total + len(",".join(words)) + sum(math.log1p(x) for x in seq)


def kernel_ms() -> float:
    """Time of one call of the calibration kernel."""
    started = perf_counter()
    calibration_kernel()
    return (perf_counter() - started) * 1000.0


class Speedometer:
    """Samples the machine's speed between operations by timing a probe of fixed work.

    A reading is taken before set-up, before an operation once ``every_s``
    seconds have passed since the last one, and after the last operation.
    Operation i is divided by its slowdown: the median of the reading
    before it, the one after it and the one before that, over the probe's
    time at the reference speed.  Set-up is divided by the mean of the
    readings before and after it.  The machine switches between a fast and
    a slow state within fractions of a second, so readings must be close
    to the work they divide.
    """

    def __init__(self, probe_ms, ref_ms: float, every_s: float):
        self.probe_ms, self.ref_ms, self.every_s = probe_ms, ref_ms, every_s
        self.readings: list[tuple[int, float]] = []   # (operations before it, ms)
        self.ops = 0
        self.last = -math.inf

    def start(self) -> None:
        self._read()

    def stop(self) -> None:
        self._read()

    def sample(self) -> None:
        """Call before each operation."""
        if perf_counter() - self.last >= self.every_s:
            self._read()
        self.ops += 1

    def _read(self) -> None:
        self.readings.append((self.ops, self.probe_ms()))
        self.last = perf_counter()

    def _around(self, j: int) -> float:
        """The slowdown over readings j - 1 to j + 1."""
        times = [ms for _, ms in self.readings[max(0, j - 1): j + 2]]
        return statistics.median(times) / self.ref_ms

    def setup_scale(self) -> float:
        return self._around(0)

    def scales(self, n: int) -> list[float]:
        """The slowdown of each of the first ``n`` operations."""
        before = [ops for ops, _ in self.readings]
        # reading j is the last one before operation i
        return [self._around(bisect.bisect_right(before, i) - 1) for i in range(n)]


@dataclass(slots=True)
class Sample:
    index: int
    ms: float
    ok: bool
    fingerprint: str | None


def run_one(workload, index: int, golden: str, tracer: Tracer | None) -> Sample:
    """One operation: build input, time the call, check the output."""
    if tracer is not None:
        tracer.enabled = False
        tracer.op = index
    inp = workload.make_input(index)
    if tracer is not None:
        tracer.enabled = True
    started = perf_counter()
    try:
        out = workload.run(inp)
    except Exception:  # a raising operation is a failed one; keep measuring
        ms = (perf_counter() - started) * 1000.0
        traceback.print_exc(limit=4, file=sys.stderr)
        return Sample(index, ms, False, None)
    ms = (perf_counter() - started) * 1000.0
    if tracer is not None:
        tracer.enabled = False
    ok, fingerprint = workload.check(inp, out)
    expected = golden[8 * index: 8 * index + 8]
    if fingerprint != expected:
        print(f"fingerprint mismatch at pool entry {index}: {fingerprint} != {expected}",
              file=sys.stderr)
        ok = False
    return Sample(index, ms, ok, fingerprint)


def measure(workload, golden: str, indices, seconds: float | None, tracer=None,
            speed: Speedometer | None = None) -> list[Sample]:
    """Run operations on ``indices`` until they run out or ``seconds`` pass."""
    deadline = None if seconds is None else perf_counter() + seconds
    samples = []
    for index in indices:
        if deadline is not None and perf_counter() >= deadline:
            break
        if speed is not None:
            speed.sample()
        samples.append(run_one(workload, index, golden, tracer))
    return samples


def pool_indices(workload, start: int):
    j = 0
    while True:
        yield (start + j) % workload.pool
        j += 1


def timed_setup(workload) -> float:
    """Imports, config writing and warm-up on the last pool entries.

    The warm-up entries are the same for every seed, so set-up does the
    same work in every run.
    """
    started = perf_counter()
    workload.setup()
    for w in range(workload.warmup):
        workload.run(workload.make_input(workload.pool - 1 - w))
    return perf_counter() - started


def worker(workload, golden: str, start: int, seconds: float) -> dict:
    """One interpreter's share of an untraced run, with its measured slowdowns."""
    if workload.name == "cli":
        speed = Speedometer(workload.floor_ms, FLOOR_REF_MS, every_s=0.0)
    else:
        speed = Speedometer(kernel_ms, CAL_REF_MS, every_s=CAL_EVERY_S)
    speed.start()
    setup_s = timed_setup(workload)
    samples = measure(workload, golden, pool_indices(workload, start), seconds, speed=speed)
    speed.stop()
    return {"setup_s": setup_s, "peak_rss_mb": workload.peak_rss_mb(),
            "setup_scale": speed.setup_scale(), "scales": speed.scales(len(samples)),
            "samples": [astuple(s) for s in samples]}


def end_to_end(shares: list[dict], normalize: bool) -> dict:
    """Metrics over all workers; with ``normalize`` each operation's time is divided
    by its slowdown, and so is each worker's set-up time."""
    def scale(share):
        return share["setup_scale"] if normalize else 1.0
    ms = [s[1] / (k if normalize else 1.0)
          for share in shares for s, k in zip(share["samples"], share["scales"])]
    n = len(ms)
    return {
        "setup_s": (statistics.median(sh["setup_s"] / scale(sh) for sh in shares), "s", len(shares)),
        "ops_per_s": (n / (sum(ms) / 1000.0), "1/s", n),
        "op_ms_p50": (statistics.median(ms), "ms", n),
        "op_ms_p90": (statistics.quantiles(ms, n=10)[8], "ms", n),
        "peak_rss_mb": (max(sh["peak_rss_mb"] for sh in shares), "MB", len(shares)),
    }


def untraced(workload, seed: int, start: int, seconds: float):
    """Run the workers one after another; returns samples, metrics and the speed record."""
    shares = []
    for k in range(WORKERS):
        worker_start = (start + k * (workload.pool // WORKERS)) % workload.pool
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
             "--seed", str(seed), "--seconds", str(seconds / WORKERS), "--trace", "0",
             "--worker-start", str(worker_start)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=seconds + 150, check=True)
        shares.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    samples = [Sample(*s) for share in shares for s in share["samples"]]
    raw = end_to_end(shares, normalize=False)
    speed = {"slowdowns": [statistics.median(share["scales"]) for share in shares],
             "raw": {name: value for name, (value, _, _) in raw.items()}}
    return samples, end_to_end(shares, normalize=True), speed


def _child_ms(code: str, env: dict) -> tuple[float, str]:
    started = perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return (perf_counter() - started) * 1000.0, proc.stdout


def cli_floors() -> dict:
    """Bare interpreter start, and the import of shiftlab.cli in a fresh one."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    floor = [_child_ms("pass", env)[0] for _ in range(FLOOR_REPEATS)]
    probe = ("import time; t = time.perf_counter(); import shiftlab.cli; "
             "print((time.perf_counter() - t) * 1000.0)")
    imports = [float(_child_ms(probe, env)[1]) for _ in range(FLOOR_REPEATS)]
    return {
        "cli.python_floor_ms": (statistics.median(floor), "ms", FLOOR_REPEATS),
        "cli.import_ms": (statistics.median(imports), "ms", FLOOR_REPEATS),
    }


def traced(workload, golden: str, start: int, seconds: float):
    """Traced half-run, then the same operations untraced; returns samples and metrics."""
    timed_setup(workload)
    tracer = Tracer()
    in_child = workload.name == "cli"   # the cli workload traces its child processes
    if in_child:
        workload.tracer, workload.trace_file = tracer, OUT / "cli-child-trace.json"
    else:
        tracer.install()
    try:
        with_trace = measure(workload, golden, pool_indices(workload, start), seconds / 2, tracer)
    finally:
        tracer.uninstall()
        if in_child:
            workload.tracer = workload.trace_file = None
    without = measure(workload, golden, [s.index for s in with_trace], None)
    for a, b in zip(with_trace, without):
        if a.fingerprint != b.fingerprint:
            print(f"traced and untraced fingerprints differ at pool entry {a.index}",
                  file=sys.stderr)
            b.ok = False
    n = len(with_trace)
    metrics = {name: (value, unit, n) for name, (value, unit) in tracer.layer_metrics(n).items()}
    metrics.update(cli_floors())
    ratio = sum(s.ms for s in without) / sum(s.ms for s in with_trace)
    metrics["trace.overhead_ratio"] = (ratio, "ratio", n)
    tracer.write_spans(OUT / f"spans-{workload.name}.jsonl")
    return with_trace + without, metrics, tracer.absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="shiftlab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: run as one worker of an untraced run, from this pool entry
    parser.add_argument("--worker-start", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "shiftlab" / "__init__.py").is_file():
        print(f"no shiftlab sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](ROOT)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[workload.name]
    if args.worker_start is not None:
        print(json.dumps(worker(workload, golden, args.worker_start, args.seconds)))
        return 0

    env = environment()
    start = random.Random(args.seed).randrange(workload.pool)
    absent: list[str] = []
    speed = None
    if args.trace:
        samples, metrics, absent = traced(workload, golden, start, args.seconds)
    else:
        samples, metrics, speed = untraced(workload, args.seed, start, args.seconds)

    failed = sum(not s.ok for s in samples)
    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"workload {workload.name}, seed {args.seed}, pool start {start}, "
          f"trace {args.trace}: {len(samples)} operations, {failed} failed "
          f"(fail_ratio {failed / len(samples):.4g})")
    if speed is not None:
        print(f"speed (times below are divided by the slowdowns): {json.dumps(speed)}")
    for name, (value, unit, count) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit:9s} n={count}")
    if absent:
        print(f"absent targets: {', '.join(absent)}")
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    record = dict(result, env=env, workload=workload.name, seed=args.seed, trace=args.trace,
                  samples={name: count for name, (_, _, count) in metrics.items()},
                  absent=absent, speed=speed)
    (OUT / f"result-{workload.name}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
