"""Importing the CLI loads no module that numpy leaves unloaded and that
would add to every run's start-up: the noise helper is built from
``threading`` and ``collections`` alone."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
UNWANTED = ("logging", "concurrent.futures", "queue", "multiprocessing", "asyncio")


def test_cli_import_loads_no_unwanted_module():
    code = f"import sys, blindmm.cli; print(*[m for m in {UNWANTED!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
