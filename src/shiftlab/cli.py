"""Command-line front end: config ingestion, reports, and the audit sweep.

Exit codes are part of the contract: 0 for success, 2 for a rejected
config or bad invocation, 3 when any internal audit finds a violation
(the report is still emitted first), 4 when shadowing is requested for a
system without a certified splitting.  A config whose measures or weights
put a vector beyond float range is a rejected config.

``simulate`` is bound lazily (``importlib.util.LazyLoader``): importing this
module registers it, and the first read of one of its names runs it, which
only the ``simulate``, ``shadow`` and ``audit`` commands do.  It is no
function-level import, so that it sits in ``sys.modules`` from the start and
a tracer that wraps the functions of loaded shiftlab modules finds them too.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import random
import sys
import time
from fractions import Fraction

from . import __version__
from .canon import canonical_json, float_text
from .classify import (
    DEFAULT_HORIZON,
    REPORT_PROPERTIES,
    Status,
    classify_atomic,
    classify_report,
    classify_shift,
)
from .seqcore import EventuallyPeriodicSequence, Record, SequenceError, _coerce
from .systems import (
    AtomicSystem,
    CellStructure,
    Cycle,
    DissipativeSystem,
    EmptyOrbitRange,
    InvalidSystem,
    MeasureSequence,
    WeightSequence,
    _LOG_MU_TABLE_CAP,
    _exp,
    check_exponent,
    induced_weights,
)

simulate = sys.modules.get("shiftlab.simulate")
if simulate is None:
    _spec = importlib.util.find_spec("shiftlab.simulate")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    simulate = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(simulate)
    sys.modules["shiftlab"].simulate = simulate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VIOLATION = 3
EXIT_NO_SPLITTING = 4

AUDIT_MARGIN_GATE = 0.05
# Most steps `simulate` walks, max(nmax, 0) + max(-nmin, 0), on any line:
# a shift's orbit of this many steps prints in about a second.
MAX_ORBIT_STEPS = 2 * 10**5
# On a measured line a site past log mu's table (|K| > 4096) refolds |K|
# ratio logs.  A walk that leaves the table may read (steps + 1) sites
# times its farthest |K| up to this budget, about a second of folds; the
# default -10..10 orbit at |K| = 10**6 spends 2.1e7 of it.
FOLD_BUDGET = 3 * 10**7
# Most points of a `shadow` pseudotrajectory: about a second on a shift.
MAX_SHADOW_LENGTH = 20001
# Largest `--horizon`: a horizon report averages this many entries per tail
# in about a third of a second.
MAX_HORIZON = 10**6
# Horizon and random samples of the audit's brute-force expansivity probes
_BRUTE_HORIZON = 40
_BRUTE_SAMPLES = 3


class ConfigError(ValueError):
    """A config file failed validation; carries the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class ParsedConfig(Record):
    __slots__ = _fields = ("kind", "system", "label", "p")

    kind: str
    system: DissipativeSystem | WeightSequence | AtomicSystem
    label: str | None
    p: float | None


def _require(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ConfigError(f"{path}.{key}" if path else key, "missing required field")
    return mapping[key]


def _as_dict(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(path, f"expected an object, got {type(value).__name__}")
    return value


def _as_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(path, f"expected an array, got {type(value).__name__}")
    return value


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    return value


def _as_number(value, path: str) -> int | float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    return value


def _coerce_config_scalar(value, path: str) -> tuple[Fraction, bool]:
    try:
        return _coerce(value)
    except SequenceError as err:
        raise ConfigError(path, str(err)) from err


def _parse_scalars(raw, path: str) -> tuple[tuple[Fraction, ...], bool]:
    """An array of scalars as fractions, and whether every entry was exact."""
    pairs = [_coerce_config_scalar(v, f"{path}[{i}]") for i, v in enumerate(_as_list(raw, path))]
    return tuple(frac for frac, _ in pairs), all(exact for _, exact in pairs)


def _parse_eps(raw, path: str) -> EventuallyPeriodicSequence:
    table = _as_dict(raw, path)
    core_lo = _as_int(_require(table, "core_lo", path), f"{path}.core_lo")
    (core, core_exact), (neg, neg_exact), (pos, pos_exact) = (
        _parse_scalars(_require(table, key, path), f"{path}.{key}")
        for key in ("core", "neg_period", "pos_period")
    )
    try:
        return EventuallyPeriodicSequence(
            core_lo, core, neg, pos, 1.0, core_exact and neg_exact and pos_exact
        )
    except SequenceError as err:
        raise ConfigError(path, str(err)) from err


def _parse_measures(table: dict, path: str) -> tuple[MeasureSequence, bool]:
    """The measured line of a table's ``mu0`` and ``ratio``, and whether mu0 was exact."""
    prefix = f"{path}." if path else ""
    mu0, mu0_exact = _coerce_config_scalar(_require(table, "mu0", path), prefix + "mu0")
    ratio = _parse_eps(_require(table, "ratio", path), prefix + "ratio")
    return MeasureSequence(mu0, ratio, mu0_exact and ratio.exact), mu0_exact


def _parse_cells(raw, path: str, mu0_exact: bool) -> CellStructure:
    table = _as_dict(raw, path)
    beta, exact = _parse_scalars(_require(table, "beta", path), f"{path}.beta")
    wobble_lo = _as_int(table.get("wobble_lo", 0), f"{path}.wobble_lo")
    rows = []
    for i, row_raw in enumerate(_as_list(table.get("wobble", []), f"{path}.wobble")):
        row, row_exact = _parse_scalars(row_raw, f"{path}.wobble[{i}]")
        exact = exact and row_exact
        rows.append(row)
    try:
        return CellStructure(beta, wobble_lo, tuple(rows), mu0_exact and exact)
    except InvalidSystem as err:
        raise ConfigError(path, str(err)) from err


def parse_config(text: str, source: str = "config") -> ParsedConfig:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{source}:{err.lineno}:{err.colno}", f"invalid JSON: {err.msg}")
    table = _as_dict(raw, source)
    kind = _require(table, "kind", "")
    label = table.get("label")
    if label is not None and not isinstance(label, str):
        raise ConfigError("label", f"expected a string, got {label!r}")

    if kind == "dissipative":
        p = _parse_p(_require(table, "p", ""))
        measures, mu0_exact = _parse_measures(table, "")
        cells = None
        if table.get("cells") is not None:
            cells = _parse_cells(table["cells"], "cells", mu0_exact)
        declared = table.get("distortion_constant")
        if declared is not None:
            declared = float(_as_number(declared, "distortion_constant"))
        try:
            system = DissipativeSystem(
                p=p, measures=measures, cells=cells, distortion_constant=declared
            )
        except InvalidSystem as err:
            field = err.field or ("cells" if cells is not None else "ratio")
            raise ConfigError(field, str(err)) from err
        return ParsedConfig("dissipative", system, label, p)

    if kind == "shift":
        weights = _parse_eps(_require(table, "weights", ""), "weights")
        p = _parse_p(table["p"]) if table.get("p") is not None else None
        return ParsedConfig("shift", WeightSequence(weights), label, p)

    if kind == "atomic":
        p = _parse_p(_require(table, "p", ""))
        comps = []
        for i, comp_raw in enumerate(_as_list(_require(table, "components", ""), "components")):
            comp = _as_dict(comp_raw, f"components[{i}]")
            ctype = _require(comp, "type", f"components[{i}]")
            if ctype == "cycle":
                fracs, exact = _parse_scalars(
                    _require(comp, "measures", f"components[{i}]"),
                    f"components[{i}].measures",
                )
                try:
                    comps.append(Cycle(fracs, exact))
                except InvalidSystem as err:
                    raise ConfigError(f"components[{i}]", str(err)) from err
            elif ctype == "line":
                comps.append(_parse_measures(comp, f"components[{i}]")[0])
            else:
                raise ConfigError(
                    f"components[{i}].type", f"expected 'cycle' or 'line', got {ctype!r}"
                )
        try:
            system = AtomicSystem(p=p, components=tuple(comps))
        except InvalidSystem as err:
            raise ConfigError("components", str(err)) from err
        return ParsedConfig("atomic", system, label, p)

    raise ConfigError("kind", f"expected 'dissipative', 'shift' or 'atomic', got {kind!r}")


def _parse_p(raw) -> float:
    try:
        check_exponent(_as_number(raw, "p"))
    except InvalidSystem as err:
        raise ConfigError("p", str(err)) from err
    return float(raw)


def load_config(path: str) -> ParsedConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(path, str(err)) from err
    return parse_config(text, source=path)


# ---------------------------------------------------------------------------
# Report rendering


def _fmt(value) -> str:
    if value is None:
        return "-"
    return float_text(value) if isinstance(value, float) else str(value)


# ln 10 as hi + lo: n * _LN10_HI is exact for |n| < 2**21, and _LN10_LO
# carries the next 53 bits, so a log reduces by whole decades exactly.
_LN10_HI = 2.30258509330451488494873046875
_LN10_LO = -3.10469200930739e-10


def _fmt_log(log_value: float) -> str:
    """_fmt of exp(log_value); beyond float range, at most 12 digits in e-notation.

    A float log L is uncertain by about ulp(L), and so is exp(L) relative
    to its size.  Beyond float range only the digits whose half-unit
    exceeds that are printed, and L is reduced by whole decades exactly,
    so (1e300)^5 prints as 1e+1500.
    """
    if log_value == -math.inf:
        return _fmt(0.0)
    value = _exp(log_value)
    if sys.float_info.min <= value < math.inf:
        return _fmt(value)
    digits = min(12, int(-math.log10(2 * math.ulp(log_value))))
    decades = math.floor(log_value / _LN10_HI)
    rest = (log_value - decades * _LN10_HI) - decades * _LN10_LO
    # The 'e' format renormalizes a rest that the rounded quotient put
    # outside [0, ln 10).
    mantissa, shift = format(math.exp(rest), f".{digits - 1}e").split("e")
    if "." in mantissa:
        mantissa = mantissa.rstrip("0").rstrip(".")
    return f"{mantissa}e{decades + int(shift):+03d}"


def _emit_report(report: dict, as_json: bool) -> None:
    payload = dict(report)
    payload["version"] = __version__
    if as_json:
        print(canonical_json(payload))
        return
    print(f"label       : {payload.get('label') or '-'}")
    kind = payload.get("kind")
    p = payload.get("p")
    print(f"kind        : {kind}" + (f" (p = {_fmt(p)})" if p is not None else ""))
    if "rates" in payload:
        rates = payload["rates"]
        print(f"rates       : g- = {_fmt(rates['g_minus'])}   g+ = {_fmt(rates['g_plus'])}")
    if "method" in payload:
        print(
            f"method      : {payload['method']} "
            f"(horizon {payload.get('horizon')}, k_span {payload.get('k_span')})"
        )
    print(f"fingerprint : {payload['fingerprint']}")
    print()
    name_width = max(len(name) for name in payload["verdicts"])
    print(f"{'property'.ljust(name_width)}  {'status'.ljust(9)}  {'citation'.ljust(12)}  margin")
    for name in sorted(payload["verdicts"]):
        v = payload["verdicts"][name]
        print(
            f"{name.ljust(name_width)}  {v['status'].ljust(9)}  "
            f"{v['citation'].ljust(12)}  {_fmt(v['margin'])}"
        )
    print()
    if payload["violations"]:
        print("violations  :")
        for line in payload["violations"]:
            print(f"  - {line}")
    else:
        print("violations  : none")


# ---------------------------------------------------------------------------
# Commands


def cmd_classify(args) -> int:
    parsed = load_config(args.config)
    if parsed.kind == "atomic":
        report = classify_atomic(parsed.system, label=parsed.label)
    else:
        classify = classify_report if parsed.kind == "dissipative" else classify_shift
        report = classify(
            parsed.system,
            label=parsed.label,
            method=args.method,
            horizon=args.horizon,
        ).to_dict()
    _emit_report(report, args.json)
    return EXIT_VIOLATION if report["violations"] else EXIT_OK


def _simulate_site(parsed: ParsedConfig, args):
    if parsed.kind == "shift":
        return args.site
    if parsed.kind == "dissipative":
        _check_measured_reach(args)
        n_cells = parsed.system.n_cells
        if args.cell is not None and not 1 <= args.cell <= n_cells:
            raise ConfigError("--cell", f"expected 1..{n_cells}, got {args.cell}")
        if args.cell is None or parsed.system.cells is None:
            return (args.site, None)
        return (args.site, args.cell - 1)
    count = len(parsed.system.components)
    if not 0 <= args.component < count:
        raise ConfigError("--component", f"expected 0..{count - 1}, got {args.component}")
    if parsed.system.periods[args.component] is None:
        _check_measured_reach(args)
    return (args.component, args.site)


def _orbit_steps(args) -> int:
    return max(args.nmax, 0) + max(-args.nmin, 0)


def _check_measured_reach(args) -> None:
    """Refuse a walk past log mu's table whose folds exceed FOLD_BUDGET."""
    site = args.site
    # Step n reads site K - n, for n from min(nmin, 0) to max(nmax, 0).
    farthest = max(abs(site - max(args.nmax, 0)), abs(site + max(-args.nmin, 0)))
    sites = _orbit_steps(args) + 1
    if farthest > _LOG_MU_TABLE_CAP and sites * farthest > FOLD_BUDGET:
        raise ConfigError(
            "--site/--nmin/--nmax",
            f"the orbit reads {sites} sites out to |K| = {farthest} on a measured line; "
            f"past |K| = {_LOG_MU_TABLE_CAP}, sites x |K| must stay within {FOLD_BUDGET}",
        )


def cmd_simulate(args) -> int:
    parsed = load_config(args.config)
    if _orbit_steps(args) > MAX_ORBIT_STEPS:
        raise ConfigError(
            "--nmin/--nmax",
            f"the orbit walks max(nmax, 0) + max(-nmin, 0) = {_orbit_steps(args)} steps; "
            f"expected at most {MAX_ORBIT_STEPS}",
        )
    op = simulate.operator_for(parsed.system, parsed.p)
    site = _simulate_site(parsed, args)
    vec = op.normalized_basis(site)
    rows = simulate.orbit_log_norms(op, vec, args.nmin, args.nmax)
    # One write: unbuffered, each print would reach the file as two.
    sys.stdout.write("".join(["n,norm\n", *(f"{n},{_fmt_log(v)}\n" for n, v in rows)]))
    return EXIT_OK


def cmd_shadow(args) -> int:
    parsed = load_config(args.config)
    op = simulate.operator_for(parsed.system, parsed.p)
    try:
        splitting = simulate.build_splitting(op)
        x0 = op.normalized_basis(op.origin)
        pt = simulate.make_pseudotrajectory(op, x0, args.delta, args.length, args.seed)
        result = simulate.shadow(op, pt, splitting)
    except simulate.NoSplitting as err:
        print(f"no splitting: {err}", file=sys.stderr)
        return EXIT_NO_SPLITTING
    if not all(map(math.isfinite, (result.eps_achieved, result.bound_a_priori,
                                   result.max_orbit_residual))):
        raise ConfigError("--delta", "the shadow's eps, bound or residual leaves float range")
    bound_ok = result.eps_achieved <= result.bound_a_priori * (1 + 1e-12)
    payload = {
        "version": __version__,
        "label": parsed.label,
        "kind": parsed.kind,
        "delta": pt.delta,
        "length": len(pt.points),
        "seed": args.seed,
        "eps_achieved": result.eps_achieved,
        "bound_a_priori": result.bound_a_priori,
        "bound_satisfied": bound_ok,
        "max_orbit_residual": result.max_orbit_residual,
        "splitting": {
            "kind": result.splitting.kind,
            "cut": result.splitting.cut,
            "window": result.splitting.window,
            "lam_stable": result.splitting.lam_stable,
            "lam_unstable": result.splitting.lam_unstable,
        },
    }
    if args.json:
        print(canonical_json(payload))
    else:
        print(f"splitting   : {payload['splitting']['kind']} (window {payload['splitting']['window']})")
        print(f"delta       : {_fmt(payload['delta'])}")
        print(f"eps         : {_fmt(payload['eps_achieved'])}")
        print(f"bound       : {_fmt(payload['bound_a_priori'])}")
        print(f"bound_ok    : {'pass' if bound_ok else 'FAIL'}")
        print(f"residual    : {_fmt(payload['max_orbit_residual'])}")
    return EXIT_OK if bound_ok else EXIT_VIOLATION


def cmd_reduce(args) -> int:
    parsed = load_config(args.config)
    if parsed.kind != "dissipative":
        raise ConfigError("kind", "reduce needs a dissipative config")
    weights = induced_weights(parsed.system)
    config = weights.to_config(label=parsed.label)
    config["p"] = parsed.system.p
    print(canonical_json(config))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Audit sweep


def _random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 7), rng.randint(1, 7))


def random_dissipative(rng: random.Random) -> DissipativeSystem:
    """One seeded random system: periodic tails <= 4, ratios within [1/7, 7]."""
    core_lo = rng.randint(-2, 0)
    core = tuple(_random_fraction(rng) for _ in range(rng.randint(1, 3)))
    neg = tuple(_random_fraction(rng) for _ in range(rng.randint(1, 4)))
    pos = tuple(_random_fraction(rng) for _ in range(rng.randint(1, 4)))
    ratio = EventuallyPeriodicSequence(core_lo, core, neg, pos)
    mu0 = rng.choice([Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3)])
    p = float(rng.choice([1, 2, 3]))
    cells = None
    if rng.random() < 0.35:
        m = rng.randint(1, 3)
        shares = [rng.randint(1, 5) for _ in range(m)]
        total = sum(shares)
        beta = tuple(mu0 * Fraction(c, total) for c in shares)
        rows = []
        for _ in range(rng.randint(0, 2)):
            t = [Fraction(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(m)]
            s = sum((b / mu0) * tj for b, tj in zip(beta, t))
            rows.append(tuple(tj / s for tj in t))
        cells = CellStructure(beta, rng.randint(-1, 1), tuple(rows))
    return DissipativeSystem(p=p, measures=MeasureSequence(mu0, ratio), cells=cells)


def run_audit(
    count: int,
    seed: int,
    *,
    horizon: int = DEFAULT_HORIZON,
    k_span: int = 500,
    base_system: DissipativeSystem | None = None,
    base_label: str | None = None,
) -> dict:
    """Classify seeded random systems and cross-check every verdict.

    Three detectors run per system: the implication audit, exact-versus-
    horizon agreement on verdicts whose decisive margin clears the gate,
    and brute-force oracle agreement for the two pointwise expansivity
    properties, both read from one two-sided probe per system.
    ``k_span`` is only echoed into the summary; no rule reads it.
    """
    if count < 1:
        raise ConfigError("--count", "count must be at least 1")
    rng = random.Random(seed)
    violations: list[str] = []
    distribution = {
        name: {status.value: 0 for status in Status} for name in REPORT_PROPERTIES
    }
    margin_gated = 0
    brute_checks = 0

    # Each system is drawn as it is audited, so memory does not grow with count.
    systems = ((base_label or "config", base_system) if i == 0 and base_system is not None
               else (f"rand-{i:04d}", random_dissipative(rng)) for i in range(count))

    for index, (label, system) in enumerate(systems):
        exact = classify_report(system, label=label, method="exact", horizon=horizon)
        estimated = classify_report(system, label=label, method="horizon", horizon=horizon)
        for line in exact.violations:
            violations.append(f"{label}: {line}")

        for name in REPORT_PROPERTIES:
            ve = exact.verdicts[name]
            vh = estimated.verdicts[name]
            distribution[name][ve.status.value] += 1
            if ve.margin is not None and ve.margin > AUDIT_MARGIN_GATE:
                margin_gated += 1
                if ve.status is not vh.status:
                    violations.append(
                        f"{label}: {name} exact={ve.status.value} "
                        f"horizon={vh.status.value} at margin {ve.margin:.4f}"
                    )

        # One two-sided probe yields both pointwise checks: its forward
        # walks are the ones a positive probe with the same seed makes.
        # Only the verdicts are read, so it stops once they are settled.
        brute = simulate.brute_force_expansivity(
            system,
            simulate.BruteMode.TWOSIDED,
            horizon=_BRUTE_HORIZON,
            samples=_BRUTE_SAMPLES,
            seed=seed + index,
            until_settled=True,
        )
        for mode, prop, verdict in (
            (simulate.BruteMode.POSITIVE, "positively_expansive", brute.positive_verdict),
            (simulate.BruteMode.TWOSIDED, "expansive", brute.verdict),
        ):
            brute_checks += 1
            rule = exact.verdicts[prop]
            if verdict.holds and rule.fails:
                violations.append(
                    f"{label}: brute-force {mode.value} crossed everywhere "
                    f"but {prop} Fails"
                )
            if verdict.fails and rule.holds:
                violations.append(
                    f"{label}: brute-force {mode.value} certified bounded "
                    f"but {prop} Holds"
                )

    return {
        "version": __version__,
        "count": count,
        "seed": seed,
        "horizon": horizon,
        "k_span": k_span,
        "margin_gated_comparisons": margin_gated,
        "brute_checks": brute_checks,
        "violations": violations,
        "distribution": distribution,
    }


def cmd_audit(args) -> int:
    base_system = None
    base_label = None
    if args.config is not None:
        parsed = load_config(args.config)
        if parsed.kind != "dissipative":
            raise ConfigError("kind", "audit needs a dissipative config")
        base_system = parsed.system
        base_label = parsed.label
    started = time.perf_counter()
    summary = run_audit(
        args.count,
        args.seed,
        horizon=args.horizon,
        base_system=base_system,
        base_label=base_label,
    )
    summary["elapsed_seconds"] = round(time.perf_counter() - started, 3)
    if args.json:
        print(canonical_json(summary))
    else:
        print(
            f"audited {summary['count']} systems "
            f"(seed {summary['seed']}, horizon {summary['horizon']}, "
            f"k_span {summary['k_span']}) in {summary['elapsed_seconds']}s"
        )
        print(
            f"margin-gated comparisons: {summary['margin_gated_comparisons']}; "
            f"brute-force checks: {summary['brute_checks']}"
        )
        print(f"violations: {len(summary['violations'])}")
        for line in summary["violations"]:
            print(f"  - {line}")
        print()
        width = max(len(name) for name in REPORT_PROPERTIES)
        print(f"{'property'.ljust(width)}  {'Holds':>6}  {'Fails':>6}  {'Undecided':>9}")
        for name in REPORT_PROPERTIES:
            row = summary["distribution"][name]
            print(
                f"{name.ljust(width)}  {row['Holds']:>6}  {row['Fails']:>6}  "
                f"{row['Undecided']:>9}"
            )
    return EXIT_VIOLATION if summary["violations"] else EXIT_OK


# ---------------------------------------------------------------------------
# Entry point


def _int_at_least(minimum: int, maximum: int):
    """argparse type of an integer flag that must lie within ``minimum..maximum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        if value > maximum:
            raise argparse.ArgumentTypeError(f"must be at most {maximum}, got {value}")
        return value

    return parse


def _delta_arg(text: str) -> float:
    """argparse type of ``--delta``: a finite pseudotrajectory tolerance above 0."""
    try:
        delta = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not (math.isfinite(delta) and delta > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return delta


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftlab",
        description=(
            "Classify weighted shifts and dissipative composition operators, "
            "simulate orbits, and verify shadowing certificates."
        ),
    )
    parser.add_argument("--version", action="version", version=f"shiftlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    classify = sub.add_parser("classify", help="full verdict table for one config")
    classify.add_argument("config", help="path to a system config (JSON)")
    classify.add_argument("--json", action="store_true", help="canonical JSON output")
    classify.add_argument("--method", choices=("exact", "horizon"), default="exact")
    classify.add_argument("--horizon", type=_int_at_least(1, MAX_HORIZON),
                          default=DEFAULT_HORIZON, metavar="N")
    classify.set_defaults(func=cmd_classify)

    simulate_cmd = sub.add_parser("simulate", help="orbit norms as CSV")
    simulate_cmd.add_argument("config")
    simulate_cmd.add_argument("--site", type=int, default=0, metavar="K",
                          help="basis site (window image index, or atom index)")
    simulate_cmd.add_argument("--cell", type=int, default=None, metavar="J",
                          help="1-based cell index (dissipative configs)")
    simulate_cmd.add_argument("--component", type=int, default=0, metavar="I",
                          help="component index (atomic configs)")
    simulate_cmd.add_argument("--nmin", type=int, default=-10)
    simulate_cmd.add_argument("--nmax", type=int, default=10)
    simulate_cmd.set_defaults(func=cmd_simulate)

    shadow_cmd = sub.add_parser("shadow", help="correct a seeded pseudotrajectory")
    shadow_cmd.add_argument("config")
    shadow_cmd.add_argument("--delta", type=_delta_arg, default=1e-3, metavar="D")
    # A pseudotrajectory has at least two points, and at most MAX_SHADOW_LENGTH.
    shadow_cmd.add_argument("--length", type=_int_at_least(2, MAX_SHADOW_LENGTH), default=201,
                            metavar="L")
    shadow_cmd.add_argument("--seed", type=int, default=0, metavar="S")
    shadow_cmd.add_argument("--json", action="store_true")
    shadow_cmd.set_defaults(func=cmd_shadow)

    reduce_cmd = sub.add_parser("reduce", help="emit the induced shift config")
    reduce_cmd.add_argument("config")
    reduce_cmd.set_defaults(func=cmd_reduce)

    audit = sub.add_parser("audit", help="seeded sweep with cross-checks")
    audit.add_argument("config", nargs="?", default=None,
                       help="optional dissipative config audited first")
    audit.add_argument("--count", type=int, default=50, metavar="C")
    audit.add_argument("--seed", type=int, default=0, metavar="S")
    audit.add_argument("--horizon", type=_int_at_least(1, MAX_HORIZON),
                       default=DEFAULT_HORIZON, metavar="N")
    audit.add_argument("--json", action="store_true")
    audit.set_defaults(func=cmd_audit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, EmptyOrbitRange, InvalidSystem, SequenceError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OverflowError as err:
        # e.g. a unit vector on a site whose measure is below float range
        print(f"config error: values leave float range ({err})", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
