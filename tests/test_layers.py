"""How the package's modules import one another.

The layers run seqcore, systems, classify, simulate and cli, each
importing only those before it, so the classifier loads none of the
numeric cross-checks in simulate.  Importing a lower layer must not load a
higher one, and no module keeps an import it never reads.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(SRC.glob("shiftlab/*.py"))


def loaded_by(module: str) -> set[str]:
    """The shiftlab modules a fresh interpreter holds after importing module."""
    code = (f"import json, sys, {module}; "
            "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'shiftlab']))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True, timeout=60)
    return set(json.loads(result.stdout))


def test_classify_loads_neither_simulate_nor_cli():
    loaded = loaded_by("shiftlab.classify")
    assert "shiftlab.classify" in loaded
    assert not loaded & {"shiftlab.simulate", "shiftlab.cli"}, sorted(loaded)


def test_seqcore_loads_no_other_shiftlab_module():
    assert loaded_by("shiftlab.seqcore") == {"shiftlab", "shiftlab.seqcore"}


def test_cli_start_loads_every_layer_and_no_dataclasses_inspect_or_hashlib():
    """What ``import shiftlab.cli`` adds to sys.modules in a fresh interpreter.

    Every shiftlab module but presets, since a traced CLI run finds the
    functions of the modules that import loaded (``simulate`` is registered
    there, not run, until a command reads it); and none of dataclasses, inspect
    (which dataclasses loads) or hashlib, which only a printed fingerprint
    needs.
    """
    code = ("import json, sys; before = set(sys.modules); import shiftlab.cli; "
            "print(json.dumps(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True, timeout=60)
    added = set(json.loads(result.stdout))
    layers = ("canon", "seqcore", "systems", "classify", "simulate", "cli")
    assert {f"shiftlab.{name}" for name in layers} <= added, sorted(added)
    assert not added & {"dataclasses", "inspect", "hashlib"}, sorted(added)


DECAY = {"kind": "dissipative", "p": 1, "mu0": "1",
         "ratio": {"core_lo": 0, "core": ["1/2"], "neg_period": ["1/2"], "pos_period": ["1/2"]}}

# Runs argument lists through cli.main in one interpreter and prints, after
# each, the class of the registered simulate module: type() reads no
# attribute, so it does not run the module.
LAZY_PROBE = """
import contextlib, io, json, sys
from shiftlab.cli import main
states = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    states.append((code, type(sys.modules["shiftlab.simulate"]).__name__))
print(json.dumps(states))
"""


@pytest.mark.parametrize("reader", [
    ["simulate", "{decay}"],
    ["shadow", "{decay}"],
    ["audit", "--count", "1"],
])
def test_simulate_runs_only_in_the_commands_that_read_it(tmp_path, reader):
    decay, malformed = tmp_path / "decay.json", tmp_path / "malformed.json"
    decay.write_text(json.dumps(DECAY))
    malformed.write_text('{"kind": "dissipative"')
    runs = [["classify", "{decay}", "--json"], ["classify", "{decay}"], ["reduce", "{decay}"],
            ["classify", "{malformed}"], ["simulate", "{malformed}"], reader]
    argvs = [[a.format(decay=decay, malformed=malformed) for a in argv] for argv in runs]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", LAZY_PROBE, json.dumps(argvs)], env=env,
                            capture_output=True, text=True, check=True, timeout=60)
    states = [tuple(state) for state in json.loads(result.stdout)]
    assert states == [(0, "_LazyModule")] * 3 + [(2, "_LazyModule")] * 2 + [(0, "module")]


def test_traced_cli_child_finds_every_target(tmp_path):
    """perfbench's traced child wraps simulate's functions too: its first read runs the module."""
    config, trace = tmp_path / "decay.json", tmp_path / "trace.json"
    config.write_text(json.dumps(DECAY))
    child = SRC.parent / "perfbench" / "cli_child.py"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, str(child), str(trace), "classify", str(config), "--json"],
                   env=env, capture_output=True, text=True, check=True, timeout=60)
    totals = json.loads(trace.read_text(encoding="utf-8"))
    assert totals["absent"] == []
    assert totals["calls"]["simulate.brute_force_expansivity"] == 0


def unused_imports(path: Path) -> list[str]:
    """Names a module imports and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path) == []
