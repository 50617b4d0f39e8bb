"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracer import TARGETS, Target, Tracer  # noqa: E402
from workloads import CLI_OPS, WORKLOADS  # noqa: E402

GOLDEN = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
IN_PROCESS = ("audit", "shadow", "classify")


def make(name):
    workload = WORKLOADS[name](ROOT)
    workload.setup()
    return workload


def test_every_target_resolves():
    make("audit")
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()


def test_missing_target_is_absent_not_zero():
    make("audit")
    tracer = Tracer(TARGETS + (Target("systems.gone", "systems", ("no_such_function",)),))
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["systems.gone"]
    assert not any(name.startswith("systems.gone") for name in tracer.layer_metrics(1))


@pytest.mark.parametrize("name", IN_PROCESS)
def test_traced_and_untraced_fingerprints_agree(name):
    workload = make(name)
    indices = range(3)
    plain = [run.run_one(workload, i, GOLDEN[name], None) for i in indices]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [run.run_one(workload, i, GOLDEN[name], tracer) for i in indices]
    finally:
        tracer.uninstall()
    assert all(s.ok for s in plain + traced)
    assert [s.fingerprint for s in plain] == [s.fingerprint for s in traced]
    assert sum(tracer.calls.values()) > 0


def test_input_generation_is_not_traced():
    workload = make("classify")
    tracer = Tracer()
    tracer.install()
    try:
        tracer.enabled = False
        workload.make_input(0)
    finally:
        tracer.uninstall()
    assert sum(tracer.calls.values()) == 0


def test_canonical_json_counts_outermost_calls_only():
    workload = make("classify")
    tracer = Tracer()
    tracer.install()
    try:
        workload.mods["canon"].canonical_json({"a": [1, {"b": 2}]})
    finally:
        tracer.uninstall()
    assert tracer.calls["canon.canonical_json"] == 1


@pytest.mark.parametrize("name", IN_PROCESS)
def test_altered_output_counts_as_failure(name, monkeypatch):
    workload = make(name)
    honest = workload.run

    def altered(inp):
        out = honest(inp)
        if name == "shadow":
            object.__setattr__(out, "eps_achieved", out.eps_achieved * 1.001)
            return out
        data, text = out
        return data, text.replace("Holds", "Fails", 1) + " "

    monkeypatch.setattr(workload, "run", altered)
    assert not run.run_one(workload, 0, GOLDEN[name], None).ok


def test_cli_error_operation_exits_2():
    workload = make("cli")
    index = next(i for i, op in enumerate(CLI_OPS) if op[1] == "malformed")
    inp = workload.make_input(index)
    code, stdout = workload.run(inp)
    assert code == 2 and stdout == ""
    assert run.run_one(workload, index, GOLDEN["cli"], None).ok


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_result_line(trace):
    proc = bench("--workload", "shadow", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["end_to_end"] if trace == "0" else spec["per_layer"]
    assert {m["name"] for m in wanted} == set(result["metrics"])
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_run_fails_without_sources():
    bare = ROOT / ".perfbench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "audit", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_worker_times_are_divided_by_their_slowdown():
    samples = [[i, float(i + 1), True, "0" * 8] for i in range(20)]
    shares = [{"setup_s": 0.4, "peak_rss_mb": 20.0, "setup_scale": 2.0, "scales": [2.0] * 20,
               "samples": samples},
              {"setup_s": 0.2, "peak_rss_mb": 21.0, "setup_scale": 1.0, "scales": [1.0] * 20,
               "samples": samples}]
    raw = run.end_to_end(shares, normalize=False)
    scaled = run.end_to_end(shares, normalize=True)
    assert scaled["setup_s"][0] == pytest.approx(0.2)
    assert scaled["ops_per_s"][0] == pytest.approx(raw["ops_per_s"][0] * 4 / 3)
    assert scaled["peak_rss_mb"] == raw["peak_rss_mb"] == (21.0, "MB", 2)


def test_each_operation_is_divided_by_its_nearest_readings():
    def scales(readings):
        probes = iter(readings)   # before set-up, before each operation, after the last
        speed = run.Speedometer(lambda: next(probes), 64.0, every_s=0.0)
        speed.start()
        for _ in range(4):
            speed.sample()
        speed.stop()
        return speed.setup_scale(), speed.scales(4)

    # one slow reading is outvoted; a slow stretch is divided out
    assert scales([64.0, 64.0, 128.0, 64.0, 64.0, 64.0]) == (1.0, [1.0] * 4)
    assert scales([64.0, 64.0, 128.0, 128.0, 64.0, 64.0]) == (1.0, [1.0, 2.0, 2.0, 1.0])
    assert scales([128.0, 64.0, 64.0, 64.0, 64.0, 64.0]) == (1.5, [1.0] * 4)
