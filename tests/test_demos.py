"""Smoke test: every demo runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# 01 solves the walkthrough with exact_optimal, 02 checks the closed form
# against the brute-force oracle and the simulator, 03 decides set packing
# questions with macdp_decide, 04 compares the schemes and writes a CSV
DEMOS = (
    "01_motivating_example.py",
    "02_cost_model_validation.py",
    "03_hardness_reduction.py",
    "04_scheme_comparison.py",
)


def test_demos_exit_cleanly(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # in a temporary directory, so a demo's output files stay out of the repo
    procs = [
        subprocess.Popen([sys.executable, str(ROOT / "demos" / name)], env=env, cwd=tmp_path,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for name in DEMOS
    ]
    for name, proc in zip(DEMOS, procs):
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, f"{name}: {err}"
    assert (tmp_path / "scheme_comparison.csv").is_file()
