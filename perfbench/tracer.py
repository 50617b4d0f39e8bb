"""Call tracer owned by the benchmark.

It wraps shiftlab's public functions from outside the package, so the
program itself carries no tracing code.  Each target is a function or a
method; a function is rebound in every shiftlab module that imported it
with ``from .x import y``, so a call is seen whichever module makes it.

Two kinds of target:

* a *span* records how often it ran and its self time, i.e. its duration
  minus the time its traced children took;
* a *counter* only counts calls.  Hot leaves such as ``log_at`` run
  millions of times per sweep, and a span object per call would exhaust
  memory.

Spans are also kept as raw records (at most ``MAX_SPANS``) and written
out when the run ends.  A target missing from the code is reported as
absent, never as zero.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Target:
    metric: str             # metric stem, e.g. "systems.log_mu"
    module: str             # shiftlab submodule that defines the code
    paths: tuple[str, ...]  # "func" or "Class.method"; several sum into one metric
    span: bool = True
    outermost_only: bool = False  # for recursive functions


TARGETS: tuple[Target, ...] = (
    Target("seqcore.log_at", "seqcore", ("EventuallyPeriodicSequence.log_at",), span=False),
    Target("seqcore.tail_sign_vs_one", "seqcore", ("tail_sign_vs_one",)),
    Target("seqcore.side_geometric_means", "seqcore", ("side_geometric_means",), span=False),
    Target("systems.log_mu", "systems", ("MeasureSequence.log_mu",)),
    Target("systems.site_log_measure", "systems", ("DissipativeSystem.site_log_measure",), span=False),
    Target("systems.check_bounded_distortion", "systems", ("check_bounded_distortion",)),
    Target("systems.check_star", "systems", ("check_star",), span=False),
    Target("systems.induced_weights", "systems", ("induced_weights",), span=False),
    Target("classify.classify_report", "classify", ("classify_report",)),
    Target("classify.classify_shift", "classify", ("classify_shift",)),
    Target("classify.classify_atomic_uniform", "classify", ("classify_atomic_uniform",)),
    Target("classify.implication_audit", "classify", ("implication_audit",), span=False),
    Target("simulate.brute_force_expansivity", "simulate", ("brute_force_expansivity",)),
    Target(
        "simulate.log_norm", "simulate",
        ("ShiftOperator.log_norm", "CompositionOperator.log_norm", "AtomicOperator.log_norm"),
        span=False,
    ),
    Target(
        "simulate.apply", "simulate",
        ("ShiftOperator.apply", "CompositionOperator.apply", "AtomicOperator.apply"),
        span=False,
    ),
    Target("simulate.build_splitting", "simulate", ("build_splitting",)),
    Target("simulate.make_pseudotrajectory", "simulate", ("make_pseudotrajectory",)),
    Target("simulate.shadow", "simulate", ("shadow",)),
    Target("simulate.orbit_norms", "simulate", ("orbit_norms",), span=False),
    Target("canon.canonical_json", "canon", ("canonical_json",), outermost_only=True),
    Target("canon.fingerprint", "canon", ("fingerprint",), span=False),
    Target("cli.main", "cli", ("main",)),
    Target("cli.load_config", "cli", ("load_config",)),
    Target("cli.run_audit", "cli", ("run_audit",)),
)

# Brute-force probes end Holds, Fails or Undecided; only the first two
# decide anything, so the tracer counts them for the decided ratio.
BRUTE = "simulate.brute_force_expansivity"
BRUTE_DECIDED = BRUTE + ".decided"


MAX_SPANS = 50_000  # raw span records kept for writing out; totals count every call


def _shiftlab_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "shiftlab" or name.startswith("shiftlab."))]


class Tracer:
    """Counts calls and self time of the targets while installed and enabled."""

    def __init__(self, targets: tuple[Target, ...] = TARGETS):
        self.targets = targets
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.spans: list[tuple] = []   # (id, parent id, op, name, start, end)
        self.absent: list[str] = []
        self.op = None                 # identifier shared by the spans of one operation
        self.enabled = True
        self._stack: list[list] = []   # [name, start, child seconds, span id]
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every target that resolves; record the others as absent."""
        modules = _shiftlab_modules()
        by_name = {m.__name__: m for m in modules}
        for target in self.targets:
            found = 0
            for path in target.paths:
                owner = by_name.get(f"shiftlab.{target.module}")
                *owner_path, attr = path.split(".")
                for part in owner_path:
                    owner = getattr(owner, part, None)
                orig = getattr(owner, attr, None) if owner is not None else None
                if not callable(orig):
                    continue
                found += 1
                wrapper = self._wrap(target, orig)
                if owner_path:
                    self._rebind(owner, attr, wrapper)
                else:
                    for module in modules:
                        for name, value in list(vars(module).items()):
                            if value is orig:
                                self._rebind(module, name, wrapper)
            if found:
                self.calls[target.metric] = 0
                if target.span:
                    self.self_s[target.metric] = 0.0
            else:
                self.absent.append(target.metric)
        if BRUTE in self.calls:
            self.calls[BRUTE_DECIDED] = 0

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _rebind(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, target: Target, fn):
        name = target.metric
        calls = self.calls
        tracer = self

        if not target.span:
            def counted(*args, **kwargs):
                if tracer.enabled:
                    calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        stack = self._stack
        self_s = self.self_s
        spans = self.spans
        on_result = _brute_decided if name == BRUTE else None
        inside = [False]

        def spanned(*args, **kwargs):
            if not tracer.enabled or inside[0]:
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][3] if stack else None
            frame = [name, perf_counter(), 0.0, span_id]
            stack.append(frame)
            if target.outermost_only:
                inside[0] = True
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                inside[0] = False
                stack.pop()
                duration = end - frame[1]
                self_s[name] += duration - frame[2]
                calls[name] += 1
                if stack:
                    stack[-1][2] += duration
                if len(spans) < MAX_SPANS:
                    spans.append((span_id, parent, tracer.op, name, frame[1], end))
            if on_result is not None and on_result(result):
                calls[BRUTE_DECIDED] += 1
            return result

        return spanned

    # -- results ----------------------------------------------------------

    def totals(self) -> dict:
        """Call counts and self seconds, in a form ``merge`` accepts."""
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "absent": list(self.absent)}

    def merge(self, totals: dict) -> None:
        """Add the totals of a tracer that ran in a child process."""
        for name, n in totals["calls"].items():
            self.calls[name] = self.calls.get(name, 0) + n
        for name, s in totals["self_s"].items():
            self.self_s[name] = self.self_s.get(name, 0.0) + s
        for name in totals["absent"]:
            if name not in self.absent:
                self.absent.append(name)

    def layer_metrics(self, ops: int) -> dict:
        """Per-operation call counts and self times, keyed by metric name."""
        out = {}
        for target in self.targets:
            if target.metric in self.absent:
                continue
            out[f"{target.metric}.calls"] = (self.calls.get(target.metric, 0) / ops, "count/op")
            if target.span:
                ms = 1000.0 * self.self_s.get(target.metric, 0.0) / ops
                out[f"{target.metric}.self_ms"] = (ms, "ms/op")
        if BRUTE not in self.absent:
            attempts = self.calls.get(BRUTE, 0)
            decided = self.calls.get(BRUTE_DECIDED, 0)
            # 0 when the workload makes no brute-force probes at all.
            out[f"{BRUTE}.decided_ratio"] = (decided / attempts if attempts else 0.0, "ratio")
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, op, name, start, end in self.spans:
                handle.write(json.dumps({"id": span_id, "parent": parent, "op": op,
                                         "name": name, "start": start, "end": end}) + "\n")


def _brute_decided(report) -> bool:
    return getattr(report.verdict.status, "value", None) in ("Holds", "Fails")
