"""End-to-end command tests: configs in, reports and exit codes out."""

import argparse
import hashlib
import json
import math
import time
from decimal import Decimal
from fractions import Fraction as F

import pytest

import shiftlab.classify
import shiftlab.cli
from shiftlab.canon import canonical_json
from shiftlab.cli import (
    EXIT_CONFIG,
    EXIT_NO_SPLITTING,
    EXIT_OK,
    EXIT_VIOLATION,
    FOLD_BUDGET,
    MAX_HORIZON,
    MAX_ORBIT_STEPS,
    MAX_SHADOW_LENGTH,
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
from shiftlab.seqcore import EventuallyPeriodicSequence
from shiftlab.systems import MAX_CELL_SPAN, DissipativeSystem, MeasureSequence

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

CYCLE_AND_LINE = {
    "kind": "atomic",
    "p": 1,
    "components": [THREE_CYCLE["components"][0],
                   {"type": "line", "mu0": "1", "ratio": FLAT["ratio"]}],
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


# Every command builds the system when it loads the config, and the system
# refuses a declared K below its certified minimum.
@pytest.mark.parametrize("command", ["classify", "simulate", "shadow", "reduce", "audit"])
def test_every_command_refuses_an_undersized_distortion_constant(config_file, capsys, command):
    code, out, err = run(capsys, command, config_file(dict(CELLS, distortion_constant=1.5)))
    assert code == EXIT_CONFIG and out == ""
    assert ("distortion_constant: declared distortion constant 1.5 is below the minimal "
            "value 2.0") in err
    assert "Traceback" not in err


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


@pytest.mark.parametrize("p, message", [
    (0, "p: exponent must be >= 1, got 0"),
    (0.5, "p: exponent must be >= 1, got 0.5"),
    ("2", "p: expected a number, got '2'"),
    (True, "p: expected a number, got True"),
])
def test_bad_p_is_refused_with_its_path(config_file, capsys, p, message):
    code, out, err = run(capsys, "classify", config_file(dict(PEAK, p=p)))
    assert code == EXIT_CONFIG and out == ""
    assert message in err and "Traceback" not in err


# seqcore._coerce words these refusals; the config parser adds the path.
@pytest.mark.parametrize("entry, message", [
    (True, "sequence values must be numbers, not bool"),
    ([1], "unsupported sequence value type list"),
    (None, "unsupported sequence value type NoneType"),
])
def test_non_number_entries_are_refused_with_their_path(config_file, capsys, entry, message):
    in_ratio, in_cells = json.loads(json.dumps(PEAK)), json.loads(json.dumps(CELLS))
    in_ratio["ratio"]["core"] = ["1/2", entry]
    in_cells["cells"]["beta"] = [entry, "2/3"]
    for config, path in ((in_ratio, "ratio.core[1]"), (in_cells, "cells.beta[0]"),
                         (dict(PEAK, mu0=entry), "mu0")):
        code, out, err = run(capsys, "classify", config_file(config))
        assert code == EXIT_CONFIG and out == ""
        assert f"{path}: {message}" in err and "Traceback" not in err


def with_entry(config, path, value):
    """A copy of a config with the entry at ``path`` (a tuple of keys) set to value."""
    copy = json.loads(json.dumps(config))
    *parents, last = path
    target = copy
    for key in parents:
        target = target[key]
    target[last] = value
    return copy


@pytest.mark.parametrize("config, argv, message", [
    (with_entry(PEAK, ("ratio",), 5), (), "ratio: expected an object, got int"),
    (with_entry(PEAK, ("ratio", "core_lo"), "x"), (),
     "ratio.core_lo: expected an integer, got 'x'"),
    (with_entry(PEAK, ("ratio", "core"), []), (), "ratio: core table must be nonempty"),
    (with_entry(CELLS, ("cells",), {"beta": []}), (),
     "cells: cell decomposition needs at least one cell"),
    (with_entry(CELLS, ("cells",), {"beta": ["1"], "wobble": [["1", "1"]]}), (),
     "cells: each wobble row must cover every cell"),
    (with_entry(PEAK, ("label",), 5), (), "label: expected a string, got 5"),
    (with_entry(THREE_CYCLE, ("components", 0, "measures"), []), (),
     "components[0]: a cycle needs at least one atom"),
    (with_entry(THREE_CYCLE, ("components", 0, "type"), "ring"), (),
     "components[0].type: expected 'cycle' or 'line', got 'ring'"),
    (with_entry(THREE_CYCLE, ("components",), []), (),
     "components: an atomic system needs at least one component"),
    (with_entry(CYCLE_AND_LINE, ("components", 1), {"type": "line", "ratio": FLAT["ratio"]}),
     (), "components[1].mu0: missing required field"),
    (with_entry(CYCLE_AND_LINE, ("components", 1, "mu0"), "-1"), (),
     "components[1].mu0: sequence values must be positive, got '-1'"),
    (with_entry(CYCLE_AND_LINE, ("components", 1, "ratio", "core_lo"), "x"), (),
     "components[1].ratio.core_lo: expected an integer, got 'x'"),
    (with_entry(CYCLE_AND_LINE, ("components", 1), {"type": "line", "mu0": "1"}), (),
     "components[1].ratio: missing required field"),
    (with_entry(PEAK, ("mu0",), "0"), (), "mu0: sequence values must be positive, got '0'"),
    ({name: value for name, value in PEAK.items() if name != "ratio"}, (),
     "ratio: missing required field"),
    (None, ("audit", "--count", "0"), "--count: count must be at least 1"),
    (PEAK, ("classify", "--horizon", "x"), "argument --horizon: expected an integer, got 'x'"),
    (DOUBLING_SHIFT, ("shadow", "--delta", "abc"),
     "argument --delta: expected a number, got 'abc'"),
    # The system refuses its declared constant, under that field, with or without cells.
    (dict(CELLS, distortion_constant=1.5), (),
     "distortion_constant: declared distortion constant 1.5 is below the minimal value 2.0"),
    (dict(DECAY, distortion_constant=0.5), (),
     "distortion_constant: distortion constant must be at least 1"),
], ids=["ratio-object", "core_lo-integer", "empty-core", "no-cells", "short-wobble-row",
        "label-string", "empty-cycle", "component-type", "no-components", "line-no-mu0",
        "line-mu0-positive", "line-core_lo-integer", "line-no-ratio", "mu0-positive", "no-ratio",
        "audit-count", "horizon-integer", "delta-number", "undersized-distortion",
        "distortion-below-one"])
def test_refusals_name_their_path(config_file, capsys, config, argv, message):
    command, *flags = argv or ("classify",)
    paths = [config_file(config)] if config is not None else []
    try:
        code = main([command, *paths, *flags])
    except SystemExit as exited:  # argparse refuses the flag before any command runs
        code = exited.code
    out, err = capsys.readouterr()
    assert code == EXIT_CONFIG and out == ""
    assert message in err and "Traceback" not in err


def test_classify_text_lists_violations(config_file, capsys, monkeypatch):
    real = shiftlab.cli.classify_report

    def violated_report(system, **kwargs):
        return replaced(real(system, **kwargs), violations=("injected=Holds but other=Fails",))

    monkeypatch.setattr(shiftlab.cli, "classify_report", violated_report)
    code, out, _ = run(capsys, "classify", config_file(PEAK))
    assert code == EXIT_VIOLATION
    assert out.endswith("\nviolations  :\n  - injected=Holds but other=Fails\n")


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


def test_simulate_refuses_an_empty_range_before_its_header(config_file, capsys):
    code, out, err = run(capsys, "simulate", config_file(DECAY), "--nmin", "3", "--nmax", "1")
    assert code == EXIT_CONFIG and out == ""
    assert "nmin 3 exceeds nmax 1" in err and "Traceback" not in err


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


SPLIT_SHIFT = {
    "kind": "shift", "label": "split", "p": 1,
    "weights": {"core_lo": 0, "core": ["1/2"], "neg_period": ["1/2"], "pos_period": ["2"]},
}


@pytest.mark.parametrize("delta", ["1e308", "1.7e308"])
@pytest.mark.parametrize("as_json", [True, False], ids=["json", "text"])
def test_shadow_refuses_results_beyond_float_range(config_file, capsys, delta, as_json):
    # The split shift's a priori bound is 3 delta, past float range here: the
    # JSON report used to crash, the text report to stop after its eps line.
    start = time.perf_counter()
    code, out, err = run(capsys, "shadow", config_file(SPLIT_SHIFT), "--delta", delta,
                         *(["--json"] if as_json else []))
    assert time.perf_counter() - start < 2.0
    assert code == EXIT_CONFIG and out == ""
    assert "--delta" in err and "float range" in err and "Traceback" not in err


def test_shadow_at_the_top_of_float_range_where_the_bound_is_delta(config_file, capsys):
    code, out, err = run(capsys, "shadow", config_file(DOUBLING_SHIFT), "--delta", "1.7e308",
                         "--json")
    assert code == EXIT_OK and err == ""
    payload = json.loads(out)
    assert payload["bound_a_priori"] == 1.7e308 and payload["bound_satisfied"] is True


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
        ("shadow", "--length", str(MAX_SHADOW_LENGTH + 1), f"must be at most {MAX_SHADOW_LENGTH}"),
        ("shadow", "--delta", "0", "must be a finite number > 0"),
        ("shadow", "--delta", "nan", "must be a finite number > 0"),
        ("classify", "--horizon", "0", "must be at least 1"),
        ("audit", "--horizon", "-5", "must be at least 1"),
        ("classify", "--horizon", str(MAX_HORIZON + 1), f"must be at most {MAX_HORIZON}"),
        ("audit", "--horizon", "1000000000", f"must be at most {MAX_HORIZON}"),
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


def test_audit_flags_a_horizon_verdict_that_disagrees_past_the_gate(capsys, monkeypatch):
    """The first random system of seed 0 has shadowing Fails at margin 0.3486, past the gate."""
    real = shiftlab.cli.classify_report

    def flipped_report(system, *, label, method, **kwargs):
        report = real(system, label=label, method=method, **kwargs)
        if method != "horizon":
            return report
        return replaced(report, verdicts=dict(report.verdicts,
                                              shadowing=Verdict(Status.HOLDS, "flipped")))

    monkeypatch.setattr(shiftlab.cli, "classify_report", flipped_report)
    code, out, _ = run(capsys, "audit", "--count", "1", "--seed", "0")
    assert code == EXIT_VIOLATION
    line = "rand-0000: shadowing exact=Fails horizon=Holds at margin 0.3486"
    assert f"violations: 1\n  - {line}\n" in out


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


def test_audit_draws_each_system_as_it_audits_it(monkeypatch):
    events = []
    draw, report = shiftlab.cli.random_dissipative, shiftlab.cli.classify_report

    def drawn(rng):
        events.append("draw")
        return draw(rng)

    def classified(system, **kwargs):
        events.append(kwargs["method"])
        return report(system, **kwargs)

    monkeypatch.setattr(shiftlab.cli, "random_dissipative", drawn)
    monkeypatch.setattr(shiftlab.cli, "classify_report", classified)
    run_audit(3, 7, base_system=peak(p=1.0))
    # The config system is audited first and drawn from no rng.
    assert events == ["exact", "horizon"] + ["draw", "exact", "horizon"] * 2


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


def test_audit_compares_the_methods_only_on_margins_past_the_gate():
    # A line with tail ratios 1 +- delta has every decisive margin about delta,
    # so all ten verdicts clear the 0.05 gate at delta 0.055 and none at 0.045.
    for delta, gated in ((F(9, 200), 0), (F(11, 200), 10)):
        line = EventuallyPeriodicSequence.from_values(0, [1], [1 + delta], [1 - delta])
        system = DissipativeSystem(p=1.0, measures=MeasureSequence(F(1), line))
        assert run_audit(1, 0, base_system=system)["margin_gated_comparisons"] == gated, delta


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


@pytest.mark.parametrize("config, argv", [
    (FLAT, ("--site", "100000000000")),
    (FLAT, ("--site", str(-(FOLD_BUDGET // 3) - 1))),
    (CELLS, ("--site", str(FOLD_BUDGET // 3 + 1), "--cell", "2")),
    (CYCLE_AND_LINE, ("--component", "1", "--site", "-100000000000")),
])
def test_simulate_refuses_far_sites_on_measured_lines(config_file, capsys, config, argv):
    # log mu_K folds |K| ratio logs: three sites out past FOLD_BUDGET / 3 are
    # refused before any fold.
    start = time.perf_counter()
    code, out, err = run(capsys, "simulate", config_file(config), *argv, "--nmin", "0", "--nmax", "2")
    assert time.perf_counter() - start < 2.0
    assert code == EXIT_CONFIG and out == ""
    assert "--site" in err and "Traceback" not in err


@pytest.mark.parametrize("site", [FOLD_BUDGET // 3, -(FOLD_BUDGET // 3)])
def test_simulate_takes_a_far_single_site_within_the_fold_budget(config_file, capsys, site):
    # No reach caps the site itself: one site 10**7 out spends a third of the budget.
    start = time.perf_counter()
    code, out, err = run(capsys, "simulate", config_file(FLAT), "--site", str(site),
                         "--nmin", "0", "--nmax", "0")
    assert time.perf_counter() - start < 2.0
    assert code == EXIT_OK and err == ""
    assert out.splitlines() == ["n,norm", "0,1"]


@pytest.mark.parametrize("config, argv", [
    (DOUBLING_SHIFT, ("--site", "-100000000000")),
    (CYCLE_AND_LINE, ("--component", "0", "--site", "100000000000")),
])
def test_simulate_takes_far_sites_where_no_fold_reaches_them(config_file, capsys, config, argv):
    code, out, _ = run(capsys, "simulate", config_file(config), *argv, "--nmin", "0", "--nmax", "2")
    assert code == EXIT_OK
    assert len(out.splitlines()) == 4


@pytest.mark.parametrize("config, argv", [
    (FLAT, ("--nmin", "100000000000", "--nmax", "100000000000")),
    (FLAT, ("--site", "1000000", "--nmin", "1000000", "--nmax", "1000000")),
    (FLAT, ("--nmin", "0", "--nmax", "8000")),
    (FLAT, ("--site", "1000000", "--nmin", "-15", "--nmax", "15")),
    (CELLS, ("--site", "-5000", "--nmin", "-10000", "--nmax", "10", "--cell", "1")),
    (CYCLE_AND_LINE, ("--component", "1", "--nmin", "-20000", "--nmax", "0")),
    (DOUBLING_SHIFT, ("--nmin", "100000000000", "--nmax", "100000000000")),
    (DOUBLING_SHIFT, ("--nmin", str(-MAX_ORBIT_STEPS), "--nmax", "1")),
    (THREE_CYCLE, ("--nmin", "-100000000000", "--nmax", "0")),
])
def test_simulate_refuses_far_orbit_ranges(config_file, capsys, config, argv):
    # Each of these used to walk for seconds to hours, or until killed.
    start = time.perf_counter()
    code, out, err = run(capsys, "simulate", config_file(config), *argv)
    assert time.perf_counter() - start < 2.0
    assert code == EXIT_CONFIG and out == ""
    assert "--nmin/--nmax" in err and "Traceback" not in err


def test_simulate_range_limits_sit_at_their_documented_edges(config_file, capsys, monkeypatch):
    monkeypatch.setattr(shiftlab.cli, "MAX_ORBIT_STEPS", 30)
    monkeypatch.setattr(shiftlab.cli, "FOLD_BUDGET", 3 * 5000)
    shift, flat = config_file(DOUBLING_SHIFT, "shift.json"), config_file(FLAT, "flat.json")
    cases = [
        ((shift, "--nmin", "-10", "--nmax", "20"), EXIT_OK),  # 30 steps
        ((shift, "--nmin", "-11", "--nmax", "20"), EXIT_CONFIG),
        ((flat, "--nmin", "-15", "--nmax", "16"), EXIT_CONFIG),  # the cap holds on every kind
        # Inside log mu's table any walk the step cap allows is taken.
        ((flat, "--site", "4090", "--nmin", "-6", "--nmax", "20"), EXIT_OK),
        # Past it, (steps + 1) sites times the farthest |K| meets the budget...
        ((flat, "--site", "5000", "--nmin", "0", "--nmax", "2"), EXIT_OK),
        # ...or exceeds it.
        ((flat, "--site", "5000", "--nmin", "-1", "--nmax", "2"), EXIT_CONFIG),
    ]
    for argv, expected in cases:
        code, _, err = run(capsys, "simulate", *argv)
        assert code == expected, (argv, err)


def test_horizon_takes_its_documented_maximum(config_file, capsys):
    start = time.perf_counter()
    peak_file = config_file(PEAK)
    code, out, _ = run(capsys, "classify", peak_file, "--json", "--method", "horizon",
                       "--horizon", str(MAX_HORIZON))
    assert code == EXIT_OK and json.loads(out)["horizon"] == MAX_HORIZON
    code, out, _ = run(capsys, "audit", peak_file, "--count", "1", "--json",
                       "--horizon", str(MAX_HORIZON))
    assert code == EXIT_OK and json.loads(out)["horizon"] == MAX_HORIZON
    assert time.perf_counter() - start < 2.0


def far_cells(core_lo):
    """CELLS with its one-entry ratio core at core_lo: the cell ratios span k = -1..core_lo."""
    config = json.loads(json.dumps(CELLS))
    config["ratio"]["core_lo"] = core_lo
    return config


@pytest.mark.parametrize("argv", [
    ("simulate", "--nmin", "0", "--nmax", "1"),
    ("audit", "--count", "1"),
    ("shadow",),
    ("shadow", "--json"),
])
def test_far_cells_are_refused_past_the_span_cap(config_file, capsys, argv):
    # Each cell ratio used to materialize every index out to the core: 5 to 14 s here.
    start = time.perf_counter()
    code, out, err = run(capsys, argv[0], config_file(far_cells(200000)), *argv[1:])
    assert time.perf_counter() - start < 2.0
    assert code == EXIT_CONFIG and out == ""
    assert f"at most {MAX_CELL_SPAN} indices" in err and "Traceback" not in err


def test_far_cells_still_classify(config_file, capsys):
    code, out, err = run(capsys, "classify", config_file(far_cells(200000)), "--json")
    assert code == EXIT_OK and err == ""
    assert json.loads(out)["verdicts"]["hyperbolic"]["status"] == "Holds"


def test_cell_span_cap_sits_at_its_documented_edge(config_file, capsys):
    argv = ("--nmin", "0", "--nmax", "1", "--cell", "2")
    code, out, _ = run(capsys, "simulate", config_file(far_cells(MAX_CELL_SPAN - 2)), *argv)
    assert code == EXIT_OK and out.splitlines()[:2] == ["n,norm", "0,1"]
    code, _, err = run(capsys, "simulate", config_file(far_cells(MAX_CELL_SPAN - 1)), *argv)
    assert code == EXIT_CONFIG and f"at most {MAX_CELL_SPAN} indices" in err


def test_shadow_takes_the_longest_documented_length():
    args = build_parser().parse_args(["shadow", "shift.json", "--length", str(MAX_SHADOW_LENGTH)])
    assert args.length == MAX_SHADOW_LENGTH


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


def test_shadow_rejects_noise_beyond_float_range(config_file, capsys):
    # Found by test_cli_fuzz at the top of --delta: the unit vector of a site
    # of measure 5e-301 is 2e300 there, and its noise overflowed only in a
    # point, which the pseudotrajectory refused with a traceback.
    config = {
        "kind": "dissipative", "p": 1, "mu0": "1",
        "ratio": {"core_lo": 0, "core": ["1/2"], "neg_period": ["2"], "pos_period": ["1e-300"]},
        "cells": {"beta": ["1/1"], "wobble_lo": 0, "wobble": []},
    }
    code, out, err = run(capsys, "shadow", config_file(config), "--length", "2",
                         "--delta", "1e308", "--seed", "1")
    assert code == EXIT_CONFIG and out == ""
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


def test_audit_reads_samples_beyond_float_range(config_file, capsys):
    # The random samples' norms lie beyond float range: above it at probe seed
    # 0, below it at seed -2.  A sample is kept in log scale, so the audit
    # reads this config as classify does, and every sample walks.
    config = {
        "kind": "dissipative", "p": 1, "mu0": "1",
        "ratio": {"core_lo": -3, "core": ["7"], "neg_period": [1.0, "1e300", 1e-300],
                  "pos_period": ["1e-300"]},
    }
    path = config_file(config)
    code, out, err = run(capsys, "audit", path, "--count", "1", "--seed", "-2",
                         "--horizon", "20", "--json")
    assert code == EXIT_OK and err == ""
    summary = json.loads(out)
    assert summary["count"] == 1 and summary["violations"] == []
    system = parse_config(json.dumps(config)).system
    crossings = {}
    for seed in (0, -2):
        report = brute_force_expansivity(system, BruteMode.TWOSIDED, horizon=20, samples=3,
                                         seed=seed)
        crossings[seed] = [o.crossed_at for o in report.samples if o.kind == "random"]
    # Three samples each; at seed 0 each crosses at its first step.
    assert crossings[0] == [1, 1, 1] and len(crossings[-2]) == 3


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
         EXIT_OK),
        (mixed_union({"type": "cycle", "measures": ["1", "2"]}), EXIT_NO_SPLITTING),
        (THREE_CYCLE, EXIT_NO_SPLITTING),
    ],
    ids=["split-lines", "mixed-tails", "line-and-cycle", "cycle"],
)
def test_shadow_atomic_configs(config_file, capsys, config, expected):
    code, out, err = run(capsys, "shadow", config_file(config), "--length", "41", "--json")
    assert code == expected
    assert "Traceback" not in err
    if expected == EXIT_OK:
        assert json.loads(out)["bound_satisfied"] is True
    else:
        assert "no splitting" in err


def test_a_union_of_a_contracting_and_an_expanding_line_shadows(config_file, capsys):
    # measure ratios 2 and 1/2 at p = 2: weights 2^(-1/2) on one line and 2^(1/2) on the other
    lines = [{"type": "line", "mu0": "1", "ratio": {
        "core_lo": 0, "core": [r], "neg_period": [r], "pos_period": [r]}} for r in ("2", "1/2")]
    config = {"kind": "atomic", "p": 2, "components": lines}
    code, out, err = run(capsys, "shadow", config_file(config), "--delta", "1e-3",
                         "--length", "51", "--json")
    assert code == EXIT_OK and err == ""
    payload = json.loads(out)
    # stable series 1 / (1 - 2^(-1/2)) plus unstable series 2^(-1/2) / (1 - 2^(-1/2))
    assert payload["bound_a_priori"] == pytest.approx(1e-3 * (3 + 2 * math.sqrt(2)), rel=1e-11)
    assert payload["bound_satisfied"] is True
    assert payload["eps_achieved"] <= payload["bound_a_priori"]
    assert payload["splitting"]["kind"] == "split" and payload["splitting"]["cut"] is None
