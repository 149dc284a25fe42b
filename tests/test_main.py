"""The `python -m chargedphi2` process: same reports, exit codes and output as `cli.main`.

The process entry freezes the import heap of the numeric stack and runs with
the collector back on, and it defers numpy's unused submodules; a library
import leaves the collector and `sys.modules` alone.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from chargedphi2 import cli
from chargedphi2.__main__ import DEFERRED, run

REPO = Path(__file__).resolve().parents[1]
DESK = REPO / "configs" / "desk_bundle.json"


def run_entry(args, outdir, **env):
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")]),
        "CHARGEDPHI2_OUTDIR": str(outdir),
        **env,
    }
    return subprocess.run(
        [sys.executable, "-m", "chargedphi2", *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_entry_report_and_stdout_match_in_process(tmp_path, monkeypatch, capsys):
    proc = run_entry(["spectrum", str(DESK)], tmp_path / "entry")
    assert proc.returncode == 0, proc.stderr
    monkeypatch.setenv("CHARGEDPHI2_OUTDIR", str(tmp_path / "lib"))
    assert cli.main(["spectrum", str(DESK)]) == 0
    # stdout arrives whole through the pipe: the same summary line, newline included
    assert proc.stdout == capsys.readouterr().out
    (entry,), (lib,) = (list((tmp_path / d).glob("spectrum_*.json")) for d in ("entry", "lib"))
    assert entry.name == lib.name
    assert json.loads(entry.read_text())["report"] == json.loads(lib.read_text())["report"]


@pytest.mark.parametrize("traced", [False, True])
def test_entry_logs_one_line_per_stage(tmp_path, traced):
    env = {"OPENBLAS_NUM_THREADS": "1", **({"PYTHONTRACEMALLOC": "1"} if traced else {})}
    proc = run_entry(["spectrum", str(DESK)], tmp_path, **env)
    assert proc.returncode == 0, proc.stderr
    header, *lines = proc.stderr.splitlines()
    assert header.startswith("numpy ") and "scipy " in header and "OPENBLAS_NUM_THREADS 1, " in header
    names = [line.split(" ")[1] for line in lines]
    assert names == ["basis", "kernels", "stream", "solve", "overlaps", "persist"]
    assert all(line.split(", ")[1].startswith("maxrss ") and ("traced " in line) == traced for line in lines)
    basis, _, stream, solve, *_ = lines
    assert "dim 1,330" in basis and "nnz(T) " in stream and "T and d " in stream and "workers 1" in stream
    assert "path arpack, n 1,330, k 9, ncv 20, H x " in solve and ", max residual " in solve


def _write(tmp_path, raw):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    return path


def _desk_capped(raw):
    raw["solver"] = {"basis_cap": 1000}
    return raw


@pytest.mark.parametrize(
    "edit, code, label, message",
    [
        (lambda raw: {**raw, "n_max": "x"}, 2, "config", "n_max"),
        (_desk_capped, 6, "resource", "dimension 1330 exceeds the hard cap 1000"),
        (
            lambda raw: {**raw, "lattice": {"v": "1", "kappa": 2e7}, "n_max": 0},
            6,
            "resource",
            "momentum lattice mode count 40000001 exceeds the dense ceiling 4000",
        ),
        (lambda raw: {**raw, "polynomial": {"coeffs": [[3, 0, 1.0]]}}, 7, "contract", "degree 3 is odd"),
    ],
)
def test_entry_exit_codes(tmp_path, edit, code, label, message):
    cfg = _write(tmp_path, edit(json.loads(DESK.read_text())))
    proc = run_entry(["spectrum", str(cfg)], tmp_path / "out")
    assert proc.returncode == code
    *stages, line = proc.stderr.splitlines()
    assert line.startswith(f"{label} error: ") and message in line
    # the config error comes before any stage; the others name the stage they left
    assert all(stage.startswith(("numpy ", "stage ")) for stage in stages) and bool(stages) == (code != 2)
    assert proc.stdout == ""
    assert not list((tmp_path / "out").glob("spectrum_*"))


def test_library_import_keeps_the_collector():
    # and installs no lazy module: with the numeric stack, each deferred name is imported whole
    code = ("import gc, sys, types, chargedphi2.cli, chargedphi2.linalg; "
            "print(gc.isenabled(), gc.get_freeze_count(), "
            f"all(type(sys.modules.get(name)) is types.ModuleType for name in {DEFERRED!r}))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.split() == ["True", "0", "True"]


# Run as `python -m chargedphi2` does; at exit print which heavy modules ran, then touch numpy.testing.
AT_EXIT = """
import atexit, json, runpy, sys

def report():
    loaded = [name for name in WATCHED if name in sys.modules]
    import numpy
    numpy.testing.assert_allclose([1.0], [1.0 + 1e-12])
    try:
        numpy.testing.assert_allclose([1.0], [1.1])
        caught = False
    except AssertionError:
        caught = True
    print(json.dumps({"loaded": loaded, "caught": caught}))

atexit.register(report)
runpy.run_module("chargedphi2", run_name="__main__", alter_sys=True)
"""
WATCHED = ["numpy.f2py.crackfortran", "numpy.testing._private.utils", "charset_normalizer"]


@pytest.mark.parametrize("sub, cfg", [("spectrum", DESK), ("quantize", REPO / "configs" / "quantize.json")])
def test_entry_never_runs_the_deferred_modules(tmp_path, sub, cfg):
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")]),
        "CHARGEDPHI2_OUTDIR": str(tmp_path),
    }
    code = f"WATCHED = {WATCHED!r}\n{AT_EXIT}"
    proc = subprocess.run([sys.executable, "-c", code, sub, str(cfg)], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    # the deferred numpy.testing still loads, and works, on its first touch
    assert json.loads(proc.stdout.splitlines()[-1]) == {"loaded": [], "caught": True}


def test_the_script_runs_the_entry():
    tomllib = pytest.importorskip("tomllib")
    target = tomllib.loads((REPO / "pyproject.toml").read_text())["project"]["scripts"]["chargedphi2"]
    module, _, name = target.partition(":")
    assert getattr(__import__(module, fromlist=[name]), name) is run
