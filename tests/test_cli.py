"""End-to-end command tests: configs in, reports and exit codes out."""

import argparse
import hashlib
import json
import math
import time
from decimal import Decimal

import pytest

import shiftlab.classify
import shiftlab.cli
from shiftlab.canon import canonical_json
from shiftlab.cli import (
    EXIT_CONFIG,
    EXIT_NO_SPLITTING,
    EXIT_OK,
    EXIT_VIOLATION,
    SITE_REACH,
    _fmt_log,
    build_parser,
    main,
    parse_config,
    run_audit,
)
from shiftlab.classify import Status, Verdict, classify_report, implication_audit
from shiftlab.presets import decay, flat, growth, peak
from shiftlab.simulate import (
    BruteMode,
    brute_force_expansivity,
    build_splitting,
    make_pseudotrajectory,
    operator_for,
)

from _oracles import shadow_exact_corrections

PEAK = {
    "kind": "dissipative",
    "label": "peak",
    "p": 1,
    "mu0": "1",
    "ratio": {"core_lo": 0, "core": ["1/2"], "neg_period": ["2"], "pos_period": ["1/2"]},
}

DECAY = {
    "kind": "dissipative",
    "label": "decay",
    "p": 1,
    "mu0": "1",
    "ratio": {"core_lo": 0, "core": ["1/2"], "neg_period": ["1/2"], "pos_period": ["1/2"]},
}

FLAT = {
    "kind": "dissipative",
    "label": "flat",
    "p": 2,
    "mu0": "1",
    "ratio": {"core_lo": 0, "core": ["1"], "neg_period": ["1"], "pos_period": ["1"]},
}

CELLS = {
    "kind": "dissipative",
    "label": "two-cells",
    "p": 1,
    "mu0": "1",
    "ratio": {"core_lo": 0, "core": ["1/2"], "neg_period": ["1/2"], "pos_period": ["1/2"]},
    "cells": {"beta": ["1/3", "2/3"], "wobble_lo": 0, "wobble": [["2", "1/2"]]},
}

DOUBLING_SHIFT = {
    "kind": "shift",
    "label": "doubling",
    "weights": {"core_lo": 0, "core": ["2"], "neg_period": ["2"], "pos_period": ["2"]},
    "p": 1,
}

THREE_CYCLE = {
    "kind": "atomic",
    "label": "three-cycle",
    "p": 1,
    "components": [{"type": "cycle", "measures": ["1", "2", "3"]}],
}


@pytest.fixture
def config_file(tmp_path):
    def write(payload, name="system.json"):
        path = tmp_path / name
        if isinstance(payload, str):
            path.write_text(payload)
        else:
            path.write_text(json.dumps(payload))
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- classify -----------------------------------------------------------------


def test_classify_peak_json(config_file, capsys):
    code, out, err = run(capsys, "classify", config_file(PEAK), "--json")
    assert code == EXIT_OK and err == ""
    report = json.loads(out)
    assert report["label"] == "peak"
    assert report["verdicts"]["generalized_hyperbolic"]["status"] == "Holds"
    assert report["verdicts"]["hyperbolic"]["status"] == "Fails"
    assert report["violations"] == []
    expected = classify_report(peak(p=1.0), label="peak").to_dict()
    for prop, verdict in expected["verdicts"].items():
        assert report["verdicts"][prop]["status"] == verdict["status"]
        assert report["verdicts"][prop]["citation"] == verdict["citation"]


def test_classify_json_is_byte_stable(config_file, capsys):
    path = config_file(PEAK)
    _, first, _ = run(capsys, "classify", path, "--json")
    _, second, _ = run(capsys, "classify", path, "--json")
    assert first == second


def test_classify_human_table(config_file, capsys):
    code, out, _ = run(capsys, "classify", config_file(DECAY))
    assert code == EXIT_OK
    assert "strong_structural_stability" in out
    assert "Holds" in out and "ED1" in out


def test_classify_horizon_method(config_file, capsys):
    code, out, _ = run(capsys, "classify", config_file(PEAK), "--json", "--method", "horizon")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["method"] == "horizon"
    assert report["verdicts"]["shadowing"]["status"] == "Holds"


def test_classify_atomic_config(config_file, capsys):
    code, out, _ = run(capsys, "classify", config_file(THREE_CYCLE), "--json")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["kind"] == "atomic"
    assert report["verdicts"]["positively_expansive"]["status"] == "Fails"


# -- config validation ----------------------------------------------------------


def test_broken_json_reports_line_and_column(config_file, capsys):
    path = config_file('{"kind": "dissipative",\n  "p": }', name="broken.json")
    code, _, err = run(capsys, "classify", path)
    assert code == EXIT_CONFIG
    assert ":2:" in err and "invalid JSON" in err


def test_missing_field_names_its_path(config_file, capsys):
    bad = {k: v for k, v in PEAK.items() if k != "mu0"}
    code, _, err = run(capsys, "classify", config_file(bad))
    assert code == EXIT_CONFIG and "mu0" in err


def test_bad_ratio_entry_names_index(config_file, capsys):
    bad = json.loads(json.dumps(PEAK))
    bad["ratio"]["neg_period"] = ["2", "0"]
    code, _, err = run(capsys, "classify", config_file(bad))
    assert code == EXIT_CONFIG
    assert "ratio.neg_period[1]" in err


def test_cell_sum_violation_is_reported(config_file, capsys):
    bad = json.loads(json.dumps(CELLS))
    bad["cells"]["beta"] = ["1/3", "1/3"]
    code, _, err = run(capsys, "classify", config_file(bad))
    assert code == EXIT_CONFIG
    assert "cell measures must sum to the base measure" in err


def test_unknown_kind_rejected(config_file, capsys):
    code, _, err = run(capsys, "classify", config_file({"kind": "banach"}))
    assert code == EXIT_CONFIG and "kind" in err


def test_undersized_distortion_constant_rejected(config_file, capsys):
    bad = json.loads(json.dumps(CELLS))
    bad["distortion_constant"] = 1.5
    code, _, err = run(capsys, "classify", config_file(bad))
    assert code == EXIT_CONFIG
    assert "distortion" in err


def test_nan_distortion_constant_rejected(config_file, capsys):
    bad = json.loads(json.dumps(CELLS))
    bad["distortion_constant"] = float("nan")
    code, _, err = run(capsys, "classify", config_file(bad))
    assert code == EXIT_CONFIG
    assert "distortion constant must be at least 1" in err


def test_infinite_p_rejected(config_file, capsys):
    bad = dict(DOUBLING_SHIFT, p=float("inf"))
    code, _, err = run(capsys, "classify", config_file(bad))
    assert code == EXIT_CONFIG
    assert "p: exponent must be finite" in err


def test_nan_p_rejected_by_shadow(config_file, capsys):
    bad = dict(DOUBLING_SHIFT, p=float("nan"))
    code, _, err = run(capsys, "shadow", config_file(bad))
    assert code == EXIT_CONFIG
    assert "p: exponent must be finite" in err


def test_parse_config_round_trips_the_preset():
    parsed = parse_config(json.dumps(PEAK))
    assert parsed.kind == "dissipative"
    assert parsed.system.measures.ratio.base_at(-3) == 2
    report = classify_report(parsed.system)
    assert report.fingerprint == classify_report(peak(p=1.0)).fingerprint


# -- simulate ---------------------------------------------------------------------


def test_simulate_decay_csv(config_file, capsys):
    code, out, _ = run(
        capsys, "simulate", config_file(DECAY), "--nmin", "-2", "--nmax", "2"
    )
    assert code == EXIT_OK
    assert out.splitlines() == ["n,norm", "-2,0.25", "-1,0.5", "0,1", "1,2", "2,4"]


# Config set 34 of the benchmark's cli pool: its row n = 7, mu(-7)/mu(0), is
# 31.65380859375 exactly halfway at 10 decimals, and only the sequential
# fold of the ratio logs rounds it up (a closed form prints ...937).
ROUNDING_TIE = {
    "kind": "dissipative", "p": 1, "mu0": "2",
    "ratio": {"core_lo": 0, "core": ["4/6", "4/2", "2/6"], "neg_period": ["2/3", "4/7"],
              "pos_period": ["5/6", "6/1", "6/5"]},
}


def test_simulate_rows_keep_the_rounding_tie_of_the_sequential_fold(config_file, capsys):
    code, out, _ = run(
        capsys, "simulate", config_file(ROUNDING_TIE), "--nmin", "-10", "--nmax", "10"
    )
    assert code == EXIT_OK
    assert "7,31.6538085938" in out.splitlines()


def test_simulate_cell_site(config_file, capsys):
    code, out, _ = run(
        capsys,
        "simulate", config_file(CELLS),
        "--site", "0", "--cell", "1", "--nmin", "0", "--nmax", "1",
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "n,norm" and lines[1] == "0,1"


def test_simulate_rejects_empty_range(config_file, capsys):
    code, _, err = run(
        capsys, "simulate", config_file(DECAY), "--nmin", "3", "--nmax", "1"
    )
    assert code == EXIT_CONFIG and "nmin" in err


# -- shadow -----------------------------------------------------------------------


def test_shadow_doubling_shift(config_file, capsys):
    code, out, _ = run(
        capsys,
        "shadow", config_file(DOUBLING_SHIFT),
        "--delta", "1e-3", "--length", "201", "--seed", "0", "--json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["bound_satisfied"] is True
    assert payload["eps_achieved"] <= 1e-3
    assert payload["splitting"]["kind"] == "expansion"


def test_shadow_at_a_large_delta_meets_the_scaled_gate(config_file, capsys):
    # Its residual, about 2.8e-8, is 2.8e-15 of delta, as at delta 1e-3.
    split = {"kind": "shift", "label": "split", "p": 1,
             "weights": {"core_lo": 0, "core": ["1/2"], "neg_period": ["1/2"],
                         "pos_period": ["2"]}}
    code, out, err = run(capsys, "shadow", config_file(split), "--delta", "1e7", "--json")
    assert code == EXIT_OK and err == ""
    payload = json.loads(out)
    assert payload["bound_satisfied"] is True
    assert 1e-9 < payload["max_orbit_residual"] <= 1e-14 * payload["delta"]


def test_shadow_flat_has_no_splitting(config_file, capsys):
    code, _, err = run(capsys, "shadow", config_file(FLAT))
    assert code == EXIT_NO_SPLITTING
    assert "no splitting" in err


def test_shadow_human_output(config_file, capsys):
    code, out, _ = run(capsys, "shadow", config_file(DOUBLING_SHIFT), "--length", "51")
    assert code == EXIT_OK
    assert "bound_ok    : pass" in out


BAD_FLAG_CONFIGS = {"shadow": DOUBLING_SHIFT, "classify": PEAK, "audit": PEAK}


@pytest.mark.parametrize(
    "command, flag, value, message",
    [
        ("shadow", "--length", "1", "must be at least 2"),
        ("shadow", "--delta", "0", "must be a finite number > 0"),
        ("shadow", "--delta", "nan", "must be a finite number > 0"),
        ("classify", "--horizon", "0", "must be at least 1"),
        ("audit", "--horizon", "-5", "must be at least 1"),
    ],
)
def test_rejects_bad_flag(config_file, capsys, command, flag, value, message):
    with pytest.raises(SystemExit) as exited:
        main([command, config_file(BAD_FLAG_CONFIGS[command]), flag, value])
    assert exited.value.code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"argument {flag}: {message}" in err
    assert "Traceback" not in err


# -- reduce -----------------------------------------------------------------------


def test_reduce_decay_emits_doubling_weights(config_file, capsys):
    code, out, _ = run(capsys, "reduce", config_file(DECAY))
    assert code == EXIT_OK
    config = json.loads(out)
    assert config["kind"] == "shift"
    assert config["weights"]["core"] == ["2"]
    assert config["weights"]["neg_period"] == ["2"]
    assert config["p"] == 1


def test_reduce_then_classify_round_trip(config_file, capsys, tmp_path):
    code, out, _ = run(capsys, "reduce", config_file(PEAK))
    assert code == EXIT_OK
    reduced = tmp_path / "reduced.json"
    reduced.write_text(out)
    code, out, _ = run(capsys, "classify", str(reduced), "--json")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["kind"] == "shift"
    # the induced shift must keep the splitting-family verdicts
    assert report["verdicts"]["shadowing"]["status"] == "Holds"
    assert report["verdicts"]["hyperbolic"]["status"] == "Fails"


def test_reduce_rejects_shift_configs(config_file, capsys):
    code, _, err = run(capsys, "reduce", config_file(DOUBLING_SHIFT))
    assert code == EXIT_CONFIG and "dissipative" in err


# -- audit ------------------------------------------------------------------------


def test_audit_small_sweep_is_clean(capsys):
    code, out, _ = run(capsys, "audit", "--count", "8", "--seed", "7", "--json")
    assert code == EXIT_OK
    summary = json.loads(out)
    assert summary["violations"] == []
    assert summary["count"] == 8
    assert summary["margin_gated_comparisons"] > 0
    assert summary["brute_checks"] == 16


def test_audit_constant_system_stays_open(config_file, capsys):
    code, out, _ = run(
        capsys, "audit", config_file(FLAT), "--count", "1", "--seed", "0", "--json"
    )
    assert code == EXIT_OK
    summary = json.loads(out)
    assert summary["violations"] == []
    assert summary["distribution"]["strong_structural_stability"]["Undecided"] == 1


def replaced(record, **changes):
    """A copy of a record with the given fields changed."""
    return type(record)(**{**{name: getattr(record, name) for name in record._fields}, **changes})


def test_audit_detects_injected_corruption(config_file, capsys, monkeypatch):
    """A report carrying a splitting without shadowing makes the audit exit 3 and name both."""
    real = shiftlab.cli.classify_report

    def corrupted_report(system, *, label, method, **kwargs):
        report = real(system, label=label, method=method, **kwargs)
        if method != "exact":
            return report
        verdicts = dict(report.verdicts)
        verdicts["generalized_hyperbolic"] = Verdict(Status.HOLDS, "GH", "injected")
        verdicts["shadowing"] = Verdict(Status.FAILS, "SC2", "injected")
        return replaced(report, verdicts=verdicts, violations=implication_audit(verdicts))

    monkeypatch.setattr(shiftlab.cli, "classify_report", corrupted_report)
    code, out, _ = run(
        capsys, "audit", config_file(FLAT), "--count", "1", "--seed", "0",
    )
    assert code == EXIT_VIOLATION
    assert "generalized_hyperbolic" in out and "shadowing" in out


def test_audit_of_a_far_core_exits_cleanly(config_file, capsys):
    # The backward basis walks enter their tail a billion steps out; their
    # certificates are capped, and the forward walks decide both readings.
    far = dict(DECAY, ratio=dict(DECAY["ratio"], core_lo=10 ** 9))
    code, out, _ = run(
        capsys, "audit", config_file(far), "--count", "1", "--seed", "0", "--json"
    )
    assert code == EXIT_OK
    summary = json.loads(out)
    assert summary["violations"] == [] and summary["brute_checks"] == 2


def test_audit_summary_is_deterministic(capsys):
    _, first, _ = run(capsys, "audit", "--count", "5", "--seed", "3", "--json")
    _, second, _ = run(capsys, "audit", "--count", "5", "--seed", "3", "--json")
    a, b = json.loads(first), json.loads(second)
    a.pop("elapsed_seconds"), b.pop("elapsed_seconds")
    assert a == b


def test_audit_text_output_lists_distribution(capsys):
    code, out, _ = run(capsys, "audit", "--count", "4", "--seed", "2")
    assert code == EXIT_OK
    assert "violations: 0" in out
    assert "positively_expansive" in out


def test_audit_probes_each_system_once(monkeypatch):
    probes = []

    def counted(system, mode, **kwargs):
        probes.append((mode, kwargs.get("until_settled")))
        return brute_force_expansivity(system, mode, **kwargs)

    monkeypatch.setattr(shiftlab.cli, "brute_force_expansivity", counted)
    summary = run_audit(6, 7)
    assert probes == [(BruteMode.TWOSIDED, True)] * 6
    assert summary["brute_checks"] == 12


def test_settled_audit_probes_give_the_full_probes_summary(monkeypatch):
    settled = run_audit(200, 7)
    settled_flags = []

    def full(system, mode, **kwargs):
        settled_flags.append(kwargs.pop("until_settled"))
        return brute_force_expansivity(system, mode, **kwargs)

    monkeypatch.setattr(shiftlab.cli, "brute_force_expansivity", full)
    assert canonical_json(run_audit(200, 7)) == canonical_json(settled)
    assert settled_flags == [True] * 200


def test_audit_brute_force_detector_flags_disagreement(monkeypatch):
    """Rule verdicts forced against the brute force raise every detector message.

    decay crosses everywhere in both modes and flat's basis walks certify
    bounded in both.  growth crosses everywhere only two-sidedly, so its
    lines tell the positive reading apart from the two-sided verdict.
    """
    forced = {
        "decay": {"positively_expansive": Status.FAILS, "expansive": Status.FAILS},
        "flat": {"positively_expansive": Status.HOLDS, "expansive": Status.HOLDS},
        "growth": {"positively_expansive": Status.HOLDS, "expansive": Status.FAILS},
    }
    real = shiftlab.cli.classify_report

    def forced_report(system, *, label, method, **kwargs):
        report = real(system, label=label, method=method, **kwargs)
        if method != "exact":
            return report
        verdicts = dict(report.verdicts)
        for prop, status in forced[label].items():
            verdicts[prop] = Verdict(status, "forced")
        return replaced(report, verdicts=verdicts)

    monkeypatch.setattr(shiftlab.cli, "classify_report", forced_report)
    lines = []
    for label, system in (("decay", decay(1.0)), ("flat", flat(1.0)), ("growth", growth(1.0))):
        summary = run_audit(1, 0, base_system=system, base_label=label)
        lines += [line for line in summary["violations"] if "brute-force" in line]
    assert lines == [
        "decay: brute-force positive crossed everywhere but positively_expansive Fails",
        "decay: brute-force twosided crossed everywhere but expansive Fails",
        "flat: brute-force positive certified bounded but positively_expansive Holds",
        "flat: brute-force twosided certified bounded but expansive Holds",
        "growth: brute-force positive certified bounded but positively_expansive Holds",
        "growth: brute-force twosided crossed everywhere but expansive Fails",
    ]


def test_audit_computes_no_fingerprint(monkeypatch):
    calls = [0]
    fingerprint = shiftlab.classify.fingerprint

    def counted(config):
        calls[0] += 1
        return fingerprint(config)

    monkeypatch.setattr(shiftlab.classify, "fingerprint", counted)
    assert run_audit(3, 11)["violations"] == []
    assert calls == [0]


# sha256 of canonical_json(run_audit(40, 7)): the summary holds only counts,
# the verdict distribution and violations, so it pins what every detector saw.
AUDIT_PIN_DIGEST = "c0ab0645404c48b3e4ab565d38144ee2680b3043875db09adce9fcf8f8201ee4"


def test_audit_summary_bytes_are_pinned():
    text = canonical_json(run_audit(40, 7))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == AUDIT_PIN_DIGEST


# -- odds and ends ------------------------------------------------------------------


# Every option string of each subcommand.  A new option, flag or hidden
# knob shows up here and needs a deliberate edit of this table.
CLI_OPTIONS = {
    None: {"-h", "--help", "--version"},
    "classify": {"-h", "--help", "--json", "--method", "--horizon"},
    "simulate": {"-h", "--help", "--site", "--cell", "--component", "--nmin", "--nmax"},
    "shadow": {"-h", "--help", "--delta", "--length", "--seed", "--json"},
    "reduce": {"-h", "--help"},
    "audit": {"-h", "--help", "--count", "--seed", "--horizon", "--json"},
}


def test_cli_option_set_is_pinned():
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    parsers = {None: parser, **subparsers.choices}
    options = {
        name: {option for action in sub._actions for option in action.option_strings}
        for name, sub in parsers.items()
    }
    assert options == CLI_OPTIONS
    hidden = [
        (name, action.dest) for name, sub in parsers.items() for action in sub._actions
        if action.help == argparse.SUPPRESS
    ]
    assert hidden == []


def test_missing_file_is_a_config_error(capsys):
    code, _, err = run(capsys, "classify", "/nonexistent/system.json")
    assert code == EXIT_CONFIG and "config error" in err


# -- beyond float range and out-of-range flags (crashes found by test_cli_fuzz) ------

CONSTANT_SEVEN = {
    "kind": "shift",
    "weights": {"core_lo": 0, "core": ["7"], "neg_period": ["7"], "pos_period": ["7"]},
}

HUGE_RATIOS = {
    "kind": "dissipative",
    "p": 1,
    "mu0": "1",
    "ratio": {"core_lo": 0, "core": [1e300], "neg_period": [1e300], "pos_period": [1e300]},
}


def csv_log10(out):
    rows = {}
    for line in out.splitlines()[1:]:
        n, text = line.split(",")
        mantissa, _, exponent = text.partition("e")
        rows[int(n)] = math.log10(float(mantissa)) + int(exponent or 0)
    return rows


def test_simulate_prints_orbits_beyond_float_range(config_file, capsys):
    # 7^400 overflows a float; the rows used to turn NaN and crash the printer.
    code, out, err = run(capsys, "simulate", config_file(CONSTANT_SEVEN),
                         "--nmin", "0", "--nmax", "400")
    assert code == EXIT_OK and err == ""
    rows = csv_log10(out)
    assert sorted(rows) == list(range(401))
    for n, log10 in rows.items():
        assert log10 == pytest.approx(n * math.log10(7), abs=1e-9), n
    assert out.splitlines()[-1] == f"400,{format(Decimal(7) ** 400, '.12g')}"


def test_simulate_prints_measures_beyond_float_range(config_file, capsys):
    code, out, err = run(capsys, "simulate", config_file(HUGE_RATIOS),
                         "--nmin", "-5", "--nmax", "5")
    assert code == EXIT_OK and err == ""
    rows = csv_log10(out)
    for n in range(-5, 6):
        assert rows[n] == pytest.approx(-300 * n, abs=1e-9), n
    assert out.splitlines()[1:3] == ["-5,1e+1500", "-4,1e+1200"]


def test_fmt_log_reduces_by_whole_decades_beyond_float_range():
    # The float log of (1e300)^k is off by about k * 1e-13, which must move
    # neither the printed digits nor the decade.
    log_1e300 = math.log(1e300)
    for k in (5, 10, 100):
        assert _fmt_log(k * log_1e300) == f"1e+{300 * k}", k
        assert _fmt_log(-k * log_1e300) == f"1e-{300 * k}", k


@pytest.mark.parametrize(
    "config, flag, value",
    [(CELLS, "--cell", "0"), (CELLS, "--cell", "3"), (CELLS, "--cell", "-1"),
     (THREE_CYCLE, "--component", "-1"), (THREE_CYCLE, "--component", "1")],
)
def test_simulate_rejects_out_of_range_site_flags(config_file, capsys, config, flag, value):
    code, _, err = run(capsys, "simulate", config_file(config), flag, value)
    assert code == EXIT_CONFIG
    assert flag in err and "Traceback" not in err


CYCLE_AND_LINE = {
    "kind": "atomic",
    "p": 1,
    "components": [THREE_CYCLE["components"][0],
                   {"type": "line", "mu0": "1", "ratio": FLAT["ratio"]}],
}


@pytest.mark.parametrize("config, argv", [
    (FLAT, ("--site", "100000000000")),
    (FLAT, ("--site", str(-SITE_REACH - 1))),
    (CELLS, ("--site", str(SITE_REACH + 1), "--cell", "2")),
    (CYCLE_AND_LINE, ("--component", "1", "--site", "-100000000000")),
])
def test_simulate_refuses_far_sites_on_measured_lines(config_file, capsys, config, argv):
    # log mu_K folds |K| ratio logs: a site past the reach is refused before any fold.
    start = time.perf_counter()
    code, out, err = run(capsys, "simulate", config_file(config), *argv, "--nmin", "0", "--nmax", "2")
    assert time.perf_counter() - start < 2.0
    assert code == EXIT_CONFIG and out == ""
    assert "--site" in err and "Traceback" not in err


@pytest.mark.parametrize("config, argv", [
    (DOUBLING_SHIFT, ("--site", "-100000000000")),
    (CYCLE_AND_LINE, ("--component", "0", "--site", "100000000000")),
])
def test_simulate_takes_far_sites_where_no_fold_reaches_them(config_file, capsys, config, argv):
    code, out, _ = run(capsys, "simulate", config_file(config), *argv, "--nmin", "0", "--nmax", "2")
    assert code == EXIT_OK
    assert len(out.splitlines()) == 4


def test_simulate_cell_flag_on_a_window_reads_the_window(config_file, capsys):
    code, out, _ = run(capsys, "simulate", config_file(DECAY), "--cell", "1",
                       "--nmin", "-2", "--nmax", "2")
    assert code == EXIT_OK
    assert out.splitlines() == ["n,norm", "-2,0.25", "-1,0.5", "0,1", "1,2", "2,4"]


def test_shadow_rejects_an_orbit_beyond_float_range(config_file, capsys):
    weights = {"core_lo": 0, "core": ["1"], "neg_period": [1e300], "pos_period": ["2"]}
    code, _, err = run(capsys, "shadow", config_file({"kind": "shift", "weights": weights}),
                       "--length", "9")
    assert code == EXIT_CONFIG
    assert "float range" in err and "Traceback" not in err


def test_shadow_rejects_a_unit_vector_beyond_float_range(config_file, capsys):
    # mu_{-2} = 1e-600: the normalized noise vector on that site overflows
    config = {
        "kind": "dissipative", "p": 1, "mu0": "1",
        "ratio": {"core_lo": -1, "core": ["1e300", 1.0], "neg_period": [1.0, "1e300"],
                  "pos_period": [1.0, 0.5]},
        "cells": {"beta": ["5/5"], "wobble_lo": 1, "wobble": [["10/10"], ["15/15"]]},
    }
    code, _, err = run(capsys, "shadow", config_file(config), "--length", "21",
                       "--seed", "2", "--json")
    assert code == EXIT_CONFIG
    assert "float range" in err and "Traceback" not in err


def test_shadow_certificate_beyond_float_range_has_no_splitting(config_file, capsys):
    weights = {"core_lo": -3, "core": [1e300, 1e300, "1e-300"],
               "neg_period": ["1/2", 1.0, "1e-300"], "pos_period": [1e300, 1e300, "1e-300"]}
    code, _, err = run(capsys, "shadow", config_file({"kind": "shift", "weights": weights, "p": 2}),
                       "--length", "9", "--delta", "0.5", "--seed", "-3", "--json")
    assert code == EXIT_NO_SPLITTING
    assert "float range" in err


def test_audit_rejects_samples_beyond_float_range(config_file, capsys):
    config = {
        "kind": "dissipative", "p": 1, "mu0": "1",
        "ratio": {"core_lo": -3, "core": ["7"], "neg_period": [1.0, "1e300", 1e-300],
                  "pos_period": ["1e-300"]},
    }
    code, _, err = run(capsys, "audit", config_file(config), "--count", "1", "--seed", "-2",
                       "--horizon", "20")
    assert code == EXIT_CONFIG
    assert "float range" in err and "Traceback" not in err


# -- shadowing through the line-sum core --------------------------------------------

TWO_SPLIT_LINES = {
    "kind": "atomic",
    "p": 1,
    "components": [
        {"type": "line", "mu0": "1",
         "ratio": {"core_lo": 0, "core": ["1/2"], "neg_period": ["2"], "pos_period": ["1/2"]}},
        {"type": "line", "mu0": "3",
         "ratio": {"core_lo": 0, "core": ["1/3"], "neg_period": ["3"], "pos_period": ["1/3"]}},
    ],
}


def test_celled_shadow_reports_the_exact_series_eps(config_file, capsys):
    code, out, _ = run(capsys, "shadow", config_file(CELLS), "--length", "41", "--seed", "3",
                       "--json")
    assert code == EXIT_OK
    eps = json.loads(out)["eps_achieved"]
    op = operator_for(parse_config(json.dumps(CELLS)).system)
    pt = make_pseudotrajectory(op, op.normalized_basis(op.origin), 1e-3, 41, 3)
    exact_max = max(op.norm(d) for d in shadow_exact_corrections(op, pt, build_splitting(op)))
    # the payload carries 12 significant digits
    assert eps == pytest.approx(exact_max, abs=1e-12 * pt.delta + 5e-12 * exact_max)


def mixed_union(second):
    config = json.loads(json.dumps(TWO_SPLIT_LINES))
    config["components"][1] = second
    return config


@pytest.mark.parametrize(
    "config, expected",
    [
        (TWO_SPLIT_LINES, EXIT_OK),
        (mixed_union({"type": "line", "mu0": "1", "ratio": {
            "core_lo": 0, "core": ["1/2"], "neg_period": ["1/2"], "pos_period": ["1/2"]}}),
         EXIT_NO_SPLITTING),
        (mixed_union({"type": "cycle", "measures": ["1", "2"]}), EXIT_NO_SPLITTING),
        (THREE_CYCLE, EXIT_NO_SPLITTING),
    ],
    ids=["split-lines", "mismatched-tails", "line-and-cycle", "cycle"],
)
def test_shadow_atomic_configs(config_file, capsys, config, expected):
    code, out, err = run(capsys, "shadow", config_file(config), "--length", "41", "--json")
    assert code == expected
    assert "Traceback" not in err
    if expected == EXIT_OK:
        assert json.loads(out)["bound_satisfied"] is True
    else:
        assert "no splitting" in err
