"""Run one chargedphi2 subcommand in-process with a span around each layer call.

Usage: python3 perfbench/traced_cli.py SPANS_JSON SUBCOMMAND INPUT

The package is imported unchanged; for the life of this process each public
function named in TRACED is replaced, in every chargedphi2 module that holds
it, by a wrapper that records a span (name, parent, start, end, RSS
high-water mark at both ends).  Checks on returned objects run in their own
`trace.check` span, so they count against no layer.  Spans stay in memory
and are written to SPANS_JSON when the run ends, also when it raises.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
import time

import numpy as np

# Defining module -> public functions timed as that module's layer.
TRACED = {
    "fock": ["enumerate_basis", "wick_operator", "field_operator", "fock_embedding", "dgamma"],
    "hamiltonian": ["assemble", "interaction_kernels", "charge_operator", "free_hamiltonian"],
    "oneparticle": ["lambda_quant", "omega_block", "weyl_quantize"],
    "quantization": ["quantize_report"],
    "spectral": [
        "low_lying",
        "hvz_gap_probe",
        "resolvent_convergence",
        "higher_order_norm",
        "heisenberg_probe",
    ],
}


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """In-memory span recorder; parents are indices into `spans`."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            {"name": name, "parent": parent, "rss0_kb": _maxrss_kb(), "t0": time.perf_counter()}
        )
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int):
        span = self.spans[idx]
        span["t1"] = time.perf_counter()
        span["rss1_kb"] = _maxrss_kb()
        self._stack.pop()

    def wrap(self, name: str, fn, inspect=None):
        """fn inside a span; inspect(result, *args) adds attributes afterwards."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if inspect is not None:
                check = self._open("trace.check")
                try:
                    self.spans[idx].update(inspect(result, *args, **kwargs))
                finally:
                    self._close(check)
            return result

        return traced


def _csr_bytes(mat) -> int:
    return int(mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes)


def _inspect_assemble(bundle, *args, **kwargs) -> dict:
    h = bundle.h.matrix
    diff = (h - h.getH()).tocsr()
    diff.eliminate_zeros()
    return {
        "dim": int(h.shape[0]),
        "nnz": int(h.nnz),
        "csr_bytes": _csr_bytes(h),
        "herm_asym_nnz": int(diff.nnz),
        "herm_asym_max": float(np.abs(diff.data).max()) if diff.nnz else 0.0,
    }


def _inspect_low_lying(result, op, *args, **kwargs) -> dict:
    from chargedphi2 import spectral

    w, vecs = result
    mat = op.matrix
    res = np.linalg.norm(mat @ vecs - vecs * w, axis=0) / np.maximum(1.0, np.abs(w))
    limit = getattr(spectral, "DENSE_EIG_LIMIT", None)
    return {
        "n": int(mat.shape[0]),
        "k": int(len(w)),
        "dense": None if limit is None else bool(mat.shape[0] <= limit),
        "residual": float(res.max()) if len(w) else 0.0,
    }


INSPECT = {
    "enumerate_basis": lambda basis, *a, **k: {"dim": int(basis.dim)},
    "wick_operator": lambda op, *a, **k: {"nnz": int(op.matrix.nnz)},
    "assemble": _inspect_assemble,
    "low_lying": _inspect_low_lying,
}


def install(tracer: Tracer):
    """Replace every traced function, wherever a chargedphi2 module holds it."""
    cli = importlib.import_module("chargedphi2.cli")
    homes = {name: importlib.import_module(f"chargedphi2.{name}") for name in TRACED}
    modules = [m for n, m in sys.modules.items() if n.startswith("chargedphi2.") and m]
    for modname, fnames in TRACED.items():
        for fname in fnames:
            orig = getattr(homes[modname], fname, None)
            if orig is None:
                continue
            wrapped = tracer.wrap(f"{modname}.{fname}", orig, INSPECT.get(fname))
            for mod in modules:
                for attr in [a for a, v in vars(mod).items() if v is orig]:
                    setattr(mod, attr, wrapped)
    for key, fn in list(cli.RUNNERS.items()):
        cli.RUNNERS[key] = tracer.wrap("cli.run", fn)
    cli.golden_check = tracer.wrap("cli.run", cli.golden_check)
    return cli


def main(argv) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    cli = install(tracer)
    code = 1
    try:
        code = cli.main(cli_argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"exit": code, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
