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
    functions of the modules that import loaded; and none of dataclasses, inspect
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
