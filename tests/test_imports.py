"""What ``import drivelife`` loads, and that a run loads nothing after it.

The runtime needs numpy alone: no ``scipy`` module is loaded by importing
every drivelife module (``scipy.special`` took about 0.25 s and 17 MiB
of ``import drivelife.cli``). numpy 2 loads ``numpy.random`` and
``numpy.ma`` on first access, so the modules that use them import them at
the top; a run forked from an imported process, as perfbench runs are,
then pays for no import of its own.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import drivelife

SRC = str(Path(drivelife.__file__).resolve().parents[1])

CHECK = """
import importlib, pkgutil, sys
import drivelife
for info in pkgutil.iter_modules(drivelife.__path__):
    importlib.import_module(f"drivelife.{info.name}")
print(" ".join(sorted(m for m in sys.modules if m.startswith("drivelife."))))
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""

# A small CLI round trip that touches every layer: synth, ingest, featurize,
# a logistic CV, a 2-thread forest and every characterization of an SSD and
# an HDD fleet. Ingest stores each dataset, so the subcommands after it load
# the stored file. It prints the modules that were first imported during the
# run.
ROUND_TRIP = """
import json, sys, tempfile
from pathlib import Path
from drivelife.cli import run
FLEETS = {"ssd": {"family": "ssd", "n_drives": 60, "horizon_days": 120,
                  "models": {"MLC-A": 0.4}},
          "hdd": {"family": "hdd", "n_drives": 40, "horizon_days": 90}}
with tempfile.TemporaryDirectory() as tmp:
    before = set(sys.modules)
    out = {family: str(Path(tmp) / family) for family in FLEETS}
    src = {family: ["--family", family, "--input",
                    str(Path(tmp) / family / f"{family}_telemetry.csv")]
           for family in FLEETS}
    for family, fleet in FLEETS.items():
        Path(out[family]).mkdir()
        (Path(tmp) / f"{family}.json").write_text(json.dumps(fleet))
        assert run(["synth", "--config", str(Path(tmp) / f"{family}.json"),
                    "--seed", "3", "--out", out[family]]) == 0
    for family, argv in (
            ("ssd", ["ingest"]), ("hdd", ["ingest"]),
            ("ssd", ["featurize", "--lookahead", "7"]),
            ("ssd", ["evaluate", "--lookahead", "7", "--model", "logreg",
                     "--folds", "3"]),
            ("ssd", ["train", "--lookahead", "7", "--model", "rf",
                     "--hyper", '{"n_trees": 4}', "--jobs", "2"]),
            ("ssd", ["characterize"]), ("hdd", ["characterize"])):
        code = run([*argv, *src[family], "--seed", "3", "--out", out[family]])
        assert code == 0, (argv, code)
print(" ".join(sorted(set(sys.modules) - before)))
"""

# argparse translates its messages through gettext, which imports locale
# (and its C half) when the first parser is built.
ALLOWED_LATE = {"locale", "_locale"}


def _python(code: str) -> str:
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": SRC},
                          timeout=120)
    return done.stdout


def test_import_loads_no_scipy():
    loaded, scipy = _python(CHECK).split("\n")[:2]
    assert "drivelife.cli" in loaded.split() and "drivelife.synth" in loaded.split()
    assert scipy == "", f"import drivelife loads {scipy}"


def test_run_imports_nothing_after_import():
    late = set(_python(ROUND_TRIP).split())
    assert late <= ALLOWED_LATE, f"first imported during a run: {sorted(late - ALLOWED_LATE)}"


def _package_imports() -> dict[str, list[str]]:
    """Each module ``drivelife/__init__.py`` imports from: the names it imports."""
    tree = ast.parse(Path(drivelife.__file__).read_text())
    return {node.module: [alias.name for alias in node.names]
            for node in tree.body if isinstance(node, ast.ImportFrom) and node.level}


def _public_definitions(module) -> set[str]:
    """The names a module's top level defines (def, class or assignment) and
    that do not start with ``_``; imported names are not definitions."""
    names = set()
    for node in ast.parse(Path(module.__file__).read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        for target in (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else []):
            names |= {t.id for t in ast.walk(target) if isinstance(t, ast.Name)}
    return {name for name in names if not name.startswith("_")}


@pytest.mark.parametrize("name", sorted(_package_imports()))
def test_all_lists_the_public_definitions(name):
    module = importlib.import_module(f"drivelife.{name}")
    assert sorted(module.__all__) == sorted(_public_definitions(module))
    assert len(set(module.__all__)) == len(module.__all__)
    assert set(_package_imports()[name]) <= set(module.__all__)
