"""Smoke tests of the benchmark harness, on the smallest ladder level (dim 66).

Run with: python3 -m pytest -q perfbench/test_harness.py
"""

import json
import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402

ALL_INPUTS = sorted({name for ops in workloads.WORKLOADS.values() for _, name in ops})


def test_seed_zero_inputs_are_the_shipped_bytes(tmp_path):
    paths = workloads.make_inputs(ALL_INPUTS, 0, tmp_path)
    for name, path in paths.items():
        assert path.read_bytes() == workloads.SOURCES[name].read_bytes()


def _leaves(obj, prefix=""):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, f"{prefix}{key}/")
    else:
        yield prefix, obj


def test_other_seeds_jitter_only_continuous_parameters(tmp_path):
    allowed = {"coupling/lambda/", "potential/amplitude/", "potential/width/", "probe/f_center/"}
    for seed in (1, 7):
        paths = workloads.make_inputs(ALL_INPUTS, seed, tmp_path / str(seed))
        again = workloads.make_inputs(ALL_INPUTS, seed, tmp_path / f"{seed}-again")
        for name, path in paths.items():
            assert path.read_bytes() == again[name].read_bytes()
            base = dict(_leaves(json.loads(workloads.SOURCES[name].read_text())))
            new = dict(_leaves(json.loads(path.read_text())))
            assert base.keys() == new.keys()
            changed = {k for k in base if base[k] != new[k]}
            assert changed <= allowed, (name, changed)
            for key in changed - {"probe/f_center/"}:
                assert 0.9 <= new[key] / base[key] <= 1.1
        free = json.loads(paths["free.json"].read_text())
        assert free == json.loads(workloads.SOURCES["free.json"].read_text())


def test_peak_rss_is_read_per_process(tmp_path):
    big = run.run_process([sys.executable, "-c", "b = bytearray(200 * 2**20); b[::4096] = b'x' * len(b[::4096])"], tmp_path / "big")
    small = run.run_process([sys.executable, "-c", "pass"], tmp_path / "small")
    assert big["exit"] == small["exit"] == 0
    assert big["rss_mb"] > 200
    assert small["rss_mb"] < 100


def test_hung_child_is_killed(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "RUN_DEADLINE", time.monotonic() + 1)
    previous = signal.signal(signal.SIGALRM, run._terminate)
    try:
        with pytest.raises(TimeoutError):
            run.run_process([sys.executable, "-c", "import time; time.sleep(60)"], tmp_path / "hang")
    finally:
        signal.signal(signal.SIGALRM, previous)


def test_checks_catch_wrong_outputs():
    ref = json.loads(workloads.REFERENCES.read_text())["m17_spectrum.json"]["spectrum"][0]["values"]
    e0 = ref["e0"] + 1e-6
    report = {"e0": e0, "eigenvalues": [e0, 0.97], "gap": 0.97 - e0, "hvz_onset_estimate": ref["hvz_onset_estimate"],
              "onset_overlaps": [0.0, 0.99]}
    assert workloads.check_report("spectrum", "m17_spectrum.json", 1, report, {}) == []
    assert workloads.check_report("spectrum", "m17_spectrum.json", 0, report, {})
    free = {"resolvent_gaps": [0.0, 1e-18], "levels": [{}, {}, {}], "e0_trace": [0.0] * 3, "beta": 1.0}
    assert workloads.check_report("convergence", "free.json", 3, free, {})


def test_work_identity_is_checked_across_runs(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "STATE", tmp_path)
    op = {"traced": False, "work": [[66, 1147]], "report_bytes": 1000}
    assert run.check_identity("src", "w", run.work_counts([op], 4)) == []
    assert run.check_identity("src", "w", run.work_counts([dict(op, report_bytes=999)], 5)) == []
    assert run.check_identity("src", "w", run.work_counts([dict(op, report_bytes=999)], 4))
    assert run.check_identity("src", "w", run.work_counts([dict(op, work=[[66, 1148]])], 6))
    assert run.check_identity("other", "w", run.work_counts([dict(op, work=[[66, 1148]])], 6)) == []


def test_smoke_smallest_ladder_level(tmp_path):
    cfg = json.loads(workloads.SOURCES["ladder.json"].read_text())
    cfg["lattice"]["refinement_levels"] = 1
    inputs = {"smoke.json": tmp_path / "smoke.json"}
    inputs["smoke.json"].write_text(json.dumps(cfg))
    for sub in ("hvz", "spectrum"):
        cli_op = run.run_op(sub, "smoke.json", inputs, 1, tmp_path, f"{sub}-cli", traced=False)
        traced_op = run.run_op(sub, "smoke.json", inputs, 1, tmp_path, f"{sub}-traced", traced=True)
        for op in (cli_op, traced_op):
            assert not op["failed"], run.describe(dict(op, **{"pass": 1}))
            assert op["work"] == [[66, None if sub == "hvz" else 1147]]
        assert cli_op["report_bytes"] == traced_op["report_bytes"] > 0
        m = run.layer_metrics([traced_op], [cli_op])
        assert set(m) == set(run.PER_LAYER_UNITS)
        assert m["fock.dim"] == 66 and m["hamiltonian.nnz"] == 1147
        assert m["hamiltonian.herm_asym_nnz"] == 0
        assert 0 < m["spectral.eig_residual_max"] <= 1e-8
        assert m["spectral.dense_calls"] >= 1 and m["spectral.sparse_calls"] == 0
        assert 0 < m["hamiltonian.assemble_s"] < m["cli.run_s"] < m["trace.traced_s"]
        assert m["fock.wick_operator_s"] > 0 and m["spectral.low_lying_s"] > 0


def test_benchmark_json_names_the_reported_metrics():
    bench = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
