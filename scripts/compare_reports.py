#!/usr/bin/env python3
"""Compare two CLI output directories: every JSON record and every CSV table.

Each directory is a CHARGEDPHI2_OUTDIR tree.  Every `.json` and `.csv` file
of either directory is paired with the file of the same name in the other;
a file that one side lacks fails.  A record's `report` is walked key by key
and a table cell by cell.  Numbers agree when they are within --atol or
within --rtol of the reference value; anything else (strings, booleans, list
lengths, key sets, a CSV cell that is not a number) must be equal.  The other
fields of a record (`subcommand`, `config_hash`, `version`, `quantities`)
must be equal; only `created_utc` is skipped.  One line per file gives the
worst absolute and relative difference and the key or cell (`[row][column]`)
where each occurs.  Exits 1 if any value disagrees or any file is missing,
else 0; `--rtol 0 --atol 0` checks that two trees hold the same values apart
from `created_utc` and the one key below (its max rel still shows a change).

One report key is compared at its own tolerance instead: `recurrence_time`, at the
rtol that `perfbench/references.json` pins for it (the file is only read).
It is 2 pi over the smallest level spacing, about 1e-6 on the probe inputs,
so a change of H in its last bits moves it by 1e-9 to 1e-8 relative; at
the command-line rtol every such change would fail.  Each file where it was
compared says so.  All other keys keep --rtol and --atol.

Example:
    CHARGEDPHI2_OUTDIR=/tmp/before python -m chargedphi2 spectrum configs/desk_bundle.json
    CHARGEDPHI2_OUTDIR=/tmp/after  python -m chargedphi2 spectrum configs/desk_bundle.json
    python scripts/compare_reports.py /tmp/before /tmp/after --rtol 1e-12 --atol 1e-14
"""

import argparse
import csv
import json
import math
import sys
from pathlib import Path

REFERENCES = Path(__file__).resolve().parents[1] / "perfbench" / "references.json"
PINNED_KEY = "recurrence_time"


def _leaves(value, path=""):
    """(path, leaf) pairs of a JSON value, lists indexed and dicts keyed."""
    if isinstance(value, dict):
        yield path, ("keys", sorted(value))
        for key in sorted(value):
            yield from _leaves(value[key], f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        yield path, ("length", len(value))
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def pinned_rtol(references: Path = REFERENCES) -> float:
    """The rtol that the benchmark references pin for PINNED_KEY."""
    for workload in json.loads(references.read_text()).values():
        for checks in workload.values() if isinstance(workload, dict) else ():
            for check in checks:
                if PINNED_KEY in check["values"]:
                    return float(check["rtol"])
    raise KeyError(f"{references} pins no rtol for {PINNED_KEY}")


def compare(ref: dict, new: dict, rtol: float, atol: float, pinned: dict | None = None):
    """(worst absolute, its key, worst relative, its key, mismatched keys) of two
    reports; a top-level key in pinned is compared at its own rtol alone."""
    pinned = pinned or {}
    worst_abs, worst_rel, abs_key, rel_key, bad = 0.0, 0.0, "", "", []
    new_leaves = dict(_leaves(new))
    for path, a in _leaves(ref):
        if path not in new_leaves:  # extra keys or items show up in "keys" or "length"
            bad.append(path)
            continue
        b = new_leaves[path]
        if not (_number(a) and _number(b)):
            if a != b:
                bad.append(path)
            continue
        if a == b or (math.isnan(a) and math.isnan(b)):
            continue
        diff = abs(b - a)
        rel = diff / abs(a) if a else math.inf
        if diff > worst_abs:
            worst_abs, abs_key = diff, path
        if rel > worst_rel:
            worst_rel, rel_key = rel, path
        if path in pinned:
            if rel > pinned[path]:
                bad.append(path)
        elif not (diff <= atol or rel <= rtol):
            bad.append(path)
    return worst_abs, abs_key, worst_rel, rel_key, bad


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def load(path: Path):
    """(compared value, fields that must be equal) of one output file: a CSV's
    rows of cells, or a record's report and its fields apart from created_utc."""
    if path.suffix == ".csv":
        with path.open(newline="") as fh:
            return [[_cell(cell) for cell in row] for row in csv.reader(fh)], {}
    record = json.loads(path.read_text())
    return record.pop("report"), {k: v for k, v in record.items() if k != "created_utc"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("reference", type=Path, help="output directory of the reference run")
    parser.add_argument("other", type=Path, help="output directory to check against it")
    parser.add_argument("--rtol", type=float, default=1e-12)
    parser.add_argument("--atol", type=float, default=1e-14)
    args = parser.parse_args(argv)

    trees = (args.reference, args.other)
    names = sorted({p.name for tree in trees for pattern in ("*.json", "*.csv") for p in tree.glob(pattern)})
    if not names:
        print(f"no JSON records or CSV tables in {args.reference} or {args.other}")
        return 1
    pinned = {PINNED_KEY: pinned_rtol()}
    failed = False
    for name in names:
        absent = [tree for tree in trees if not (tree / name).exists()]
        if absent:
            print(f"{name}: MISSING in {absent[0]}")
            failed = True
            continue
        (ref, ref_fields), (new, new_fields) = (load(tree / name) for tree in trees)
        worst_abs, abs_key, worst_rel, rel_key, bad = compare(ref, new, args.rtol, args.atol, pinned)
        fields = sorted(ref_fields.keys() | new_fields.keys())
        bad += [key for key in fields if ref_fields.get(key) != new_fields.get(key)]
        where = [key or "(top level)" for key in bad[:5]]
        status = "ok" if not bad else "DIFFERS at " + ", ".join(where) + (" ..." if len(bad) > 5 else "")
        print(f"{name}: max abs {worst_abs:.3g} ({abs_key or '-'}), "
              f"max rel {worst_rel:.3g} ({rel_key or '-'}): {status}")
        for key in sorted(pinned.keys() & ref.keys()) if isinstance(ref, dict) else ():
            print(f"  {key}: compared at its pinned rtol {pinned[key]:g} (perfbench/references.json)")
        failed = failed or bool(bad)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
