"""``import drivelife`` loads only the scipy it runs: ``scipy.special``.

``scipy.stats`` alone takes about 0.8 s and 45 MiB to import, and
``scipy.optimize`` about 0.26 s and 23 MiB; the package needs neither.
"""

import os
import subprocess
import sys
from pathlib import Path

import drivelife

SRC = str(Path(drivelife.__file__).resolve().parents[1])

CHECK = """
import importlib, pkgutil, sys
import drivelife
for info in pkgutil.iter_modules(drivelife.__path__):
    importlib.import_module(f"drivelife.{info.name}")
print(" ".join(sorted(m for m in sys.modules if m.startswith("drivelife."))))
print(" ".join(sorted(m for m in sys.modules
                      if m.split(".")[:2] in (["scipy", "stats"], ["scipy", "optimize"]))))
"""


def test_import_loads_neither_scipy_stats_nor_optimize():
    done = subprocess.run([sys.executable, "-c", CHECK], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": SRC},
                          timeout=120)
    loaded, heavy = done.stdout.split("\n")[:2]
    assert "drivelife.cli" in loaded.split() and "drivelife.synth" in loaded.split()
    assert heavy == "", f"import drivelife loads {heavy}"
