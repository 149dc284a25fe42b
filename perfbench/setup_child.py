"""Set-up probe: import the CLI stack and parse a workload's inputs, then exit.

Usage: python3 perfbench/setup_child.py (config PATH | suite PATH)...

Stops before any lattice or basis work, so its wall time is what every CLI
process pays before computing: interpreter start, the chargedphi2 modules
with numpy and scipy, and config validation.
"""

import json
import sys

import chargedphi2.cli  # noqa: F401
import chargedphi2.hamiltonian  # noqa: F401
import chargedphi2.spectral  # noqa: F401
from chargedphi2.config import load_config

args = sys.argv[1:]
for kind, path in zip(args[::2], args[1::2]):
    if kind == "config":
        load_config(path)
    else:
        with open(path) as fh:
            json.load(fh)
