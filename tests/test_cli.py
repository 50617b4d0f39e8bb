"""End-to-end command tests: configs in, reports and exit codes out."""

import json

import pytest

from shiftlab.cli import (
    EXIT_CONFIG,
    EXIT_NO_SPLITTING,
    EXIT_OK,
    EXIT_VIOLATION,
    main,
    parse_config,
)
from shiftlab.classify import classify_report
from shiftlab.presets import peak

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
        ("classify", "--kspan", "-1", "must be at least 0"),
        ("audit", "--kspan", "-1", "must be at least 0"),
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


def test_audit_detects_injected_corruption(config_file, capsys):
    code, out, _ = run(
        capsys,
        "audit", config_file(FLAT),
        "--count", "1", "--seed", "0", "--inject-corruption",
    )
    assert code == EXIT_VIOLATION
    assert "generalized_hyperbolic" in out and "shadowing" in out


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


# -- odds and ends ------------------------------------------------------------------


def test_missing_file_is_a_config_error(capsys):
    code, _, err = run(capsys, "classify", "/nonexistent/system.json")
    assert code == EXIT_CONFIG and "config error" in err
