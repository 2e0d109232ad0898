"""Smoke tests: the experiment scripts under ``scripts/`` run to completion."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


def test_gaussian_demo_runs(tmp_path):
    # n >= 128: at n = 64 the fourth sweep entry exceeds the chirp bound
    proc = run_script("gaussian_demo.py", "--n", "128", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("paths agree to") == 4


def test_uncertainty_sweep_writes_tsv(tmp_path):
    out = tmp_path / "sweep.tsv"
    proc = run_script("uncertainty_sweep.py", "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    rows = out.read_text().splitlines()
    assert rows[0].split("\t")[0] == "width"
    assert len(rows) == 1 + 32  # 4 widths x 8 alphas


def test_analysis_split_times_every_step(tmp_path):
    proc = run_script("analysis_split.py", "--n", "32", "--cycles", "1", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    names = [line.split("\t")[0] for line in proc.stdout.splitlines()[1:]]
    assert names[:3] == ["analysis", "heisenberg-1", "heisenberg-2"]
    assert "cycle" in names and "qnorm of d/dt2 w" in names
