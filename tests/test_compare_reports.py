"""scripts/compare_reports.py on two small output trees: records, tables and missing files."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_reports.py"
_spec = importlib.util.spec_from_file_location("compare_reports", SCRIPT)
compare_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_reports)

RECORD = {
    "subcommand": "probe-scattering",
    "config_hash": "26b1ac61" + "0" * 56,
    "version": "0.1.0",
    "quantities": {"values_re": "field expectation"},
    "report": {"values_re": [0.5, -0.25], "recurrence_time": "inf"},
}
TABLE = "t,re,trusted\r\n4.0,0.5,True\r\n8.0,-0.25,True\r\n"


def _tree(path, created, record=RECORD, table=TABLE):
    path.mkdir()
    (path / "probe_26b1ac61.json").write_text(json.dumps({**record, "created_utc": created}))
    (path / "probe_26b1ac61.csv").write_text(table, newline="")
    return path


def _run(tmp_path, capsys, **other):
    ref = _tree(tmp_path / "ref", "2026-01-01")
    new = _tree(tmp_path / "new", "2026-01-02", **other)
    code = compare_reports.main([str(ref), str(new), "--rtol", "0", "--atol", "0"])
    return code, capsys.readouterr().out


def test_trees_that_differ_only_in_created_utc_agree(tmp_path, capsys):
    code, out = _run(tmp_path, capsys)
    assert code == 0
    assert out.count(": ok") == 2


@pytest.mark.parametrize(
    "table, where",
    [
        (TABLE.replace("-0.25", "-0.2500001"), "[2][1]"),
        (TABLE.replace("8.0,-0.25,True", "8.0,-0.25,False"), "[2][2]"),
        (TABLE + "16.0,0.0,True\r\n", "(top level)"),
    ],
)
def test_a_table_cell_that_differs_fails(tmp_path, capsys, table, where):
    code, out = _run(tmp_path, capsys, table=table)
    assert code == 1
    assert "probe_26b1ac61.csv: max abs" in out and "DIFFERS" in out and where in out.split("DIFFERS")[1]


def test_a_record_field_outside_the_report_must_be_equal(tmp_path, capsys):
    code, out = _run(tmp_path, capsys, record={**RECORD, "quantities": {"values_re": "renamed"}})
    assert code == 1
    assert "probe_26b1ac61.json" in out and "DIFFERS at quantities" in out


@pytest.mark.parametrize("side", ["ref", "new"])
def test_a_file_missing_on_either_side_fails(tmp_path, capsys, side):
    ref = _tree(tmp_path / "ref", "2026-01-01")
    new = _tree(tmp_path / "new", "2026-01-02")
    (tmp_path / side / "probe_26b1ac61.csv").unlink()
    assert compare_reports.main([str(ref), str(new)]) == 1
    assert f"probe_26b1ac61.csv: MISSING in {tmp_path / side}" in capsys.readouterr().out
