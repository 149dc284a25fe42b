"""scripts/measure_peaks.py: repeated runs, their median and quartiles, and argument checks."""

import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


measure_peaks = _load("measure_peaks", REPO / "scripts" / "measure_peaks.py")


def test_spread_is_the_median_and_the_quartiles():
    assert measure_peaks.spread([4.0, 1.0, 3.0, 2.0, 5.0]) == "3.00 [2.00, 4.00]"


def test_repeat_prints_every_run_then_the_spread(capsys):
    assert measure_peaks.main(["--repeat", "2", "validate", str(REPO / "configs" / "desk_bundle.json")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[:4] for line in out[:2]] == [["validate", "desk_bundle.json", "exit", "0"]] * 2
    assert out[2] == "median [quartiles] of 2 runs" and out[3].startswith("validate")


@pytest.mark.parametrize("argv", [["validate"], ["--repeat", "0", "validate", "configs/desk_bundle.json"]])
def test_bad_arguments_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        measure_peaks.main(argv)
    assert exc.value.code == 2


def test_default_operations_are_the_benchmark_solver_suite(monkeypatch, capsys):
    workloads = _load("bench_workloads", REPO / "perfbench" / "workloads.py")
    suite = [(sub, str(workloads.SOURCES[name])) for sub, name in workloads.WORKLOADS["solver_suite"]]
    ran = []
    monkeypatch.setattr(measure_peaks, "measure", lambda sub, path, env: ran.append((sub, path)) or (0, 0.0, 0.0))
    assert measure_peaks.main([]) == 0
    assert ran == suite and len(ran) == 9
    assert ("probe-scattering", str(REPO / "perfbench" / "configs" / "probe_m9.json")) in ran
