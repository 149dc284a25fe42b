#!/usr/bin/env python3
"""Recompute every golden value and rewrite goldens/desk_suite.json.

Run only when a deliberate convention change moves the pinned numbers; the
diff of the suite file then documents exactly what moved.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))  # the checkout's own source, with no install or PYTHONPATH

from chargedphi2.cli import _golden_registry  # noqa: E402

TOLS = {
    "weyl_gaussian_hs_sq": 1e-10,
    "lambda_quant_gaussian_v8_k32": 1e-9,
    "c0_gaussian_v8_k32": 1e-9,
    "c1_gaussian_v8_k32": 1e-9,
    "pair_kernel_frobenius_gaussian_v4_k8": 1e-9,
    "desk_bundle_e0": 1e-9,
}


def main() -> int:
    registry = _golden_registry()
    entries = []
    for name, fn in registry.items():
        value = float(fn())
        print(f"{name:44s} {value:.15g}")
        entries.append({"name": name, "value": value, "tol": TOLS[name]})
    suite = {
        "description": "Pinned desk-scale values; recompute with "
        "`chargedphi2 golden-check goldens/desk_suite.json`.",
        "entries": entries,
    }
    out = ROOT / "goldens" / "desk_suite.json"
    out.write_text(json.dumps(suite, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
