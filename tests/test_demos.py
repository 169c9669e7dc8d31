"""Smoke test: the demos that exercise the exhaustive oracles run to completion."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# 01 solves the walkthrough with exact_optimal, 03 decides set packing
# questions with macdp_decide
DEMOS = ("01_motivating_example.py", "03_hardness_reduction.py")


def test_demos_exit_cleanly():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    procs = [
        subprocess.Popen([sys.executable, str(ROOT / "demos" / name)], env=env,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for name in DEMOS
    ]
    for name, proc in zip(DEMOS, procs):
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, f"{name}: {err}"
