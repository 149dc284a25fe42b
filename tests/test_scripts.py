"""`scripts/run_acceptance.py` and `scripts/regen_goldens.py` run from a bare
checkout: no install and no PYTHONPATH, each putting the checkout's `src/` first."""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def _bare_env(outdir):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    env["CHARGEDPHI2_OUTDIR"] = str(outdir)
    return env


def _goldens():
    return {p.name: p.read_bytes() for p in (REPO / "goldens").iterdir()}


def test_run_acceptance_without_pythonpath(tmp_path):
    # one criterion, passed through to pytest: the suite runs all ten in test_acceptance.py
    before = _goldens()
    proc = subprocess.run([sys.executable, str(REPO / "scripts" / "run_acceptance.py"), "-k", "criterion_01"],
                          cwd=tmp_path, env=_bare_env(tmp_path), capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr
    assert "1 passed, 9 deselected" in proc.stdout
    assert _goldens() == before


def test_regen_goldens_imports_without_pythonpath(tmp_path):
    # loaded under another name, so `main` (which rewrites goldens/) does not run
    before = _goldens()
    code = "import runpy, sys; assert callable(runpy.run_path(sys.argv[1])['_golden_registry'])"
    proc = subprocess.run([sys.executable, "-c", code, str(REPO / "scripts" / "regen_goldens.py")], cwd=tmp_path,
                          env=_bare_env(tmp_path), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert _goldens() == before


def test_compare_h_against_this_checkout(tmp_path):
    # this checkout as both trees: every bundle's H, T and d must be bitwise equal
    proc = subprocess.run([sys.executable, str(REPO / "scripts" / "compare_h.py"), str(REPO), str(REPO)],
                          cwd=tmp_path, env=_bare_env(tmp_path), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["desk", "probe.json", "probe_m9", "m17"]
    assert all("DIFFER" not in line and "T data equal" in line and line.endswith("max|dH| 0") for line in lines)
