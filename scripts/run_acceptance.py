#!/usr/bin/env python3
"""Run the acceptance suite and show one pass/fail line per criterion.

The checkout's `src/` goes first on the child's PYTHONPATH, so the script runs
from a checkout with no install and no PYTHONPATH set.  Extra arguments go to
pytest: `scripts/run_acceptance.py -k criterion_01` runs one criterion.
"""

import os
import subprocess
import sys
from pathlib import Path

if __name__ == "__main__":
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    sys.exit(
        subprocess.call(
            [sys.executable, "-m", "pytest", str(root / "tests" / "test_acceptance.py"), "-v", "-s", *sys.argv[1:]],
            env=env,
        )
    )
