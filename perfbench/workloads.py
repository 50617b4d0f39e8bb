"""Seeded inputs and the four workloads of the shiftlab benchmark.

Every workload draws its inputs from a fixed pool indexed by an integer;
``--seed`` picks where in the pool a run starts, so one seed always gives
the same inputs and the golden file can hold one fingerprint per pool
entry.  Inputs are built outside the timed region, and each operation gets
freshly built objects, so a cache on an instance never carries over.

Every workload is a closed loop with one client: an operation starts only
after the previous one has finished.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

MODULES = ("canon", "seqcore", "systems", "classify", "simulate", "cli")


def digest(text: str) -> str:
    """Short fingerprint stored in the golden file (first 8 hex digits of sha256)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:8]


def import_shiftlab() -> dict:
    return {name: importlib.import_module(f"shiftlab.{name}") for name in MODULES}


# ---------------------------------------------------------------------------
# Config generators (plain JSON data; the program parses it itself)


def _ratio_text(rng: random.Random) -> str:
    return f"{rng.randint(1, 7)}/{rng.randint(1, 7)}"


def _unit_period(rng: random.Random) -> list[str]:
    """A period whose product is exactly 1."""
    head = [Fraction(_ratio_text(rng)) for _ in range(rng.randint(0, 3))]
    product = Fraction(1)
    for frac in head:
        product *= frac
    return [str(f) for f in head + [1 / product]]


def _eps(rng: random.Random, unit_tail: bool = False) -> dict:
    """Eventually periodic table with periods 1-4 and entries in [1/7, 7]."""
    table = {
        "core_lo": rng.randint(-2, 0),
        "core": [_ratio_text(rng) for _ in range(rng.randint(1, 3))],
        "neg_period": [_ratio_text(rng) for _ in range(rng.randint(1, 4))],
        "pos_period": [_ratio_text(rng) for _ in range(rng.randint(1, 4))],
    }
    if unit_tail:
        for side in rng.choice([("neg_period",), ("pos_period",), ("neg_period", "pos_period")]):
            table[side] = _unit_period(rng)
    return table


def _floats(table: dict) -> dict:
    out = dict(table)
    for key in ("core", "neg_period", "pos_period"):
        out[key] = [float(Fraction(v)) for v in table[key]]
    return out


def _cells(rng: random.Random, mu0: Fraction) -> dict:
    m = rng.randint(1, 3)
    shares = [rng.randint(1, 5) for _ in range(m)]
    beta = [mu0 * Fraction(c, sum(shares)) for c in shares]
    rows = []
    for _ in range(rng.randint(0, 2)):
        t = [Fraction(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(m)]
        s = sum((b / mu0) * tj for b, tj in zip(beta, t))
        rows.append([str(tj / s) for tj in t])
    return {"beta": [str(b) for b in beta], "wobble_lo": rng.randint(-1, 1), "wobble": rows}


def dissipative_config(rng: random.Random, variant: str) -> dict:
    """variant: "exact", "unit_tail", "float" or "celled"."""
    mu0 = rng.choice([Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3)])
    ratio = _eps(rng, unit_tail=variant == "unit_tail" or (variant == "float" and rng.random() < 0.5))
    if variant == "float":
        ratio = _floats(ratio)
    config = {"kind": "dissipative", "p": rng.choice([1, 2, 3]), "mu0": str(mu0), "ratio": ratio}
    if variant == "celled":
        config["cells"] = _cells(rng, mu0)
    return config


def shift_config(rng: random.Random) -> dict:
    return {"kind": "shift", "weights": _eps(rng, unit_tail=rng.random() < 0.2),
            "p": rng.choice([1, 2])}


def atomic_config(rng: random.Random) -> dict:
    components = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.35:
            components.append({"type": "cycle",
                               "measures": [_ratio_text(rng) for _ in range(rng.randint(1, 3))]})
        else:
            components.append({"type": "line", "mu0": _ratio_text(rng),
                               "ratio": _eps(rng, unit_tail=rng.random() < 0.15)})
    return {"kind": "atomic", "p": rng.choice([1, 2]), "components": components}


# Shares of the classify mix, by input kind.  Shifts and atomic unions
# classify about ten times faster than dissipative systems; keeping them to
# a seventh of the mix puts the median in the middle of the dissipative
# mode rather than on its lower shoulder, where it would jump from run to run.
CLASSIFY_MIX = (
    ("exact", 36), ("unit_tail", 12), ("float", 12), ("celled", 20), ("shift", 6), ("atomic", 8),
)


def classify_config(index: int) -> dict:
    rng = random.Random(1_000_000 + index)
    kinds, weights = zip(*CLASSIFY_MIX)
    kind = rng.choices(kinds, weights)[0]
    if kind == "shift":
        return shift_config(rng)
    if kind == "atomic":
        return atomic_config(rng)
    return dissipative_config(rng, kind)


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """One workload: a pool of inputs and the operation run on each.

    ``make_input`` builds an input outside the timed region, ``run`` is the
    timed operation and ``check`` returns ``(ok, fingerprint)`` for its
    output, again outside the timed region.
    """

    name = ""
    pool = 0
    warmup = 1

    def __init__(self, root: Path):
        self.root = root
        self.mods: dict = {}

    def setup(self) -> None:
        self.mods = import_shiftlab()

    def make_input(self, index: int):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> tuple[bool, str]:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Audit(Workload):
    """``run_audit(1, s)`` for pool seed s: one audited system per operation."""

    name = "audit"
    pool = 4096
    warmup = 3

    def make_input(self, index: int):
        return index

    def run(self, seed):
        summary = self.mods["cli"].run_audit(1, seed)
        return summary, self.mods["canon"].canonical_json(summary)

    def check(self, seed, out):
        summary, text = out
        return summary["violations"] == [], digest(text)


SHADOW_FAMILIES = (
    ("doubling", ("2",), ("2",), ("2",)),      # expansion
    ("split", ("1/2",), ("1/2",), ("2",)),     # split at the end of the core
    ("half", ("1/2",), ("1/2",), ("1/2",)),    # contraction
)
SHADOW_DELTA = 1e-3
SHADOW_LENGTH = 201


def _round9(value):
    # Nine significant digits absorb last-digit drift from an exact
    # recursion while any real change in eps or the bound still shows.
    return None if value is None else float(f"{value:.9g}")


class Shadow(Workload):
    """Splitting, pseudotrajectory and shadowing at p = 1 on three shift families."""

    name = "shadow"
    pool = 3 * 512
    warmup = 3

    def make_input(self, index: int):
        family, core, neg, pos = SHADOW_FAMILIES[index % 3]
        seq = self.mods["seqcore"].EventuallyPeriodicSequence.from_values(0, core, neg, pos)
        op = self.mods["simulate"].ShiftOperator(self.mods["systems"].WeightSequence(seq), 1.0)
        return family, op, index // 3

    def run(self, inp):
        _, op, pt_seed = inp
        sim = self.mods["simulate"]
        splitting = sim.build_splitting(op)
        pt = sim.make_pseudotrajectory(op, {0: 1.0}, SHADOW_DELTA, SHADOW_LENGTH, pt_seed)
        return sim.shadow(op, pt, splitting)

    def check(self, inp, result):
        sp = result.splitting
        ok = result.max_orbit_residual <= 1e-9 and result.eps_achieved <= result.bound_a_priori
        record = {
            "family": inp[0], "kind": sp.kind, "cut": sp.cut, "window": sp.window,
            "lam_stable": _round9(sp.lam_stable), "lam_unstable": _round9(sp.lam_unstable),
            "eps": _round9(result.eps_achieved), "bound": _round9(result.bound_a_priori),
        }
        return ok, digest(json.dumps(record, sort_keys=True))


ATOMIC_PROPERTIES = (
    ("positively_expansive", "classify_atomic_expansive", "POSITIVE"),
    ("expansive", "classify_atomic_expansive", "TWOSIDED"),
    ("uniformly_positively_expansive", "classify_atomic_uniform", "POSITIVE"),
    ("uniformly_expansive", "classify_atomic_uniform", "TWOSIDED"),
)


class Classify(Workload):
    """Full verdict tables for a seeded mix of systems, serialized canonically."""

    name = "classify"
    pool = 16384
    warmup = 50

    def make_input(self, index: int):
        return self.mods["cli"].parse_config(json.dumps(classify_config(index)))

    def run(self, parsed):
        cl = self.mods["classify"]
        if parsed.kind == "dissipative":
            tables = [cl.classify_report(parsed.system, method=m).to_dict()
                      for m in ("exact", "horizon")]
        elif parsed.kind == "shift":
            tables = [cl.classify_shift(parsed.system).to_dict()]
        else:
            verdicts = {name: getattr(cl, fn)(parsed.system, getattr(cl.ExpansivityMode, mode))
                        for name, fn, mode in ATOMIC_PROPERTIES}
            tables = [{"verdicts": {n: v.to_dict() for n, v in verdicts.items()},
                       "violations": list(cl.implication_audit(verdicts))}]
        return tables, self.mods["canon"].canonical_json(tables)

    def check(self, parsed, out):
        tables, text = out
        return all(t["violations"] == [] for t in tables), digest(text)


# (argv after the config path is substituted, config file, expected exit code)
CLI_OPS = (
    (("classify", "{}", "--json"), "dissipative", 0),
    (("classify", "{}", "--json"), "celled", 0),
    (("classify", "{}", "--json"), "shift", 0),
    (("classify", "{}", "--json"), "atomic", 0),
    (("reduce", "{}"), "dissipative", 0),
    (("simulate", "{}", "--nmin", "-10", "--nmax", "10"), "dissipative", 0),
    (("classify", "{}", "--json"), "malformed", 2),
)
CLI_SETS = 64


def cli_configs(set_index: int) -> dict:
    rng = random.Random(2_000_000 + set_index)
    configs = {
        "dissipative": dissipative_config(rng, "exact"),
        "celled": dissipative_config(rng, "celled"),
        "shift": shift_config(rng),
        "atomic": atomic_config(rng),
    }
    malformed = dict(configs["dissipative"])
    del malformed["kind"]
    configs["malformed"] = malformed
    return configs


class Cli(Workload):
    """Cold-start ``python -m shiftlab.cli`` invocations, one at a time.

    Pool entry i is operation ``i % 7`` of config set ``i // 7``.  When
    ``trace_file`` is set, each invocation runs through ``cli_child.py``,
    which traces the child and leaves its totals in that file.
    """

    name = "cli"
    pool = CLI_SETS * len(CLI_OPS)
    warmup = 2

    def __init__(self, root: Path):
        super().__init__(root)
        self.config_dir = root / ".perfbench" / "cli-configs"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.trace_file: Path | None = None
        self.tracer = None

    def setup(self) -> None:
        for set_index in range(CLI_SETS):
            folder = self.config_dir / f"set-{set_index:03d}"
            folder.mkdir(parents=True, exist_ok=True)
            for name, config in cli_configs(set_index).items():
                (folder / f"{name}.json").write_text(json.dumps(config), encoding="utf-8")

    def make_input(self, index: int):
        if self.trace_file is not None:
            self.trace_file.unlink(missing_ok=True)
        argv, config, code = CLI_OPS[index % len(CLI_OPS)]
        path = self.config_dir / f"set-{index // len(CLI_OPS):03d}" / f"{config}.json"
        return [a.format(path) for a in argv], code

    def run(self, inp):
        argv, _ = inp
        if self.trace_file is None:
            cmd = [sys.executable, "-m", "shiftlab.cli", *argv]
        else:
            child = str(Path(__file__).resolve().parent / "cli_child.py")
            cmd = [sys.executable, child, str(self.trace_file), *argv]
        proc = subprocess.run(cmd, env=self.env, cwd=self.root, capture_output=True,
                              text=True, timeout=60)
        return proc.returncode, proc.stdout

    def floor_ms(self) -> float:
        """Time of a bare interpreter start with the children's environment."""
        started = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=self.env, cwd=self.root,
                       capture_output=True, timeout=60, check=True)
        return (perf_counter() - started) * 1000.0

    def check(self, inp, out):
        code, stdout = out
        if self.tracer is not None:
            self.tracer.merge(json.loads(self.trace_file.read_text(encoding="utf-8")))
        return code == inp[1], digest(f"{code}\n{stdout}")

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


WORKLOADS = {cls.name: cls for cls in (Audit, Shadow, Classify, Cli)}
