#!/usr/bin/env python3
"""Compare the assembled Hamiltonians of two source trees, bundle by bundle.

Usage: python scripts/compare_h.py REF_ROOT NEW_ROOT

Each root is a checkout of this repository.  For every bundle in BUNDLES
(a config path relative to the root), each tree assembles `bundle.h` from its
own `src/` and its own copy of the config, as `spectrum` builds it
(`cli._single_level_bundle`), in a child process with BLAS pinned
to one thread; the children run one at a time and hand the arrays back
through a temporary .npz file.  The arrays are the CSR of H (`bundle.h.matrix`,
stored or built on demand) and, from a tree whose `bundle.h` holds H as its
strictly upper triangle T and real diagonal d, T's CSC arrays and d.  One line
per bundle says whether H's indptr, indices and data are bitwise equal (same
dtype, same bytes), and T's and d when both trees hold them, and gives the
largest |H_new - H_ref|.  Exits 1 if any bundle differs or fails to build,
else 0.

Example:
    git archive HEAD~1 | (mkdir -p /tmp/ref && tar -x -C /tmp/ref)
    python scripts/compare_h.py /tmp/ref .
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy.sparse as sp

THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
BUNDLES = {
    "desk": "configs/desk_bundle.json",
    "probe.json": "configs/probe.json",
    "probe_m9": "perfbench/configs/probe_m9.json",
    "m17": "perfbench/configs/m17_spectrum.json",
}

CHILD = """
import sys
import numpy as np
from chargedphi2 import cli
from chargedphi2.config import load_config

h = cli._single_level_bundle(load_config(sys.argv[1])).h
m = h.matrix
parts = {"T indptr": h.t.indptr, "T indices": h.t.indices, "T data": h.t.data, "d": h.d} if hasattr(h, "t") else {}
np.savez(sys.argv[2], indptr=m.indptr, indices=m.indices, data=m.data, shape=np.array(m.shape), **parts)
"""


def assemble_in(root: Path, config: str, out: Path) -> dict:
    """The arrays of bundle.h of config as root's own source builds it, in a child process."""
    env = dict(os.environ, **THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", CHILD, str(root / config), str(out)], env=env, check=True)
    with np.load(out) as arrays:
        return dict(arrays)


def _csr(arrays: dict) -> sp.csr_matrix:
    return sp.csr_matrix((arrays["data"], arrays["indices"], arrays["indptr"]), shape=tuple(arrays["shape"]))


def _bitwise(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref_root", type=Path, help="reference checkout")
    parser.add_argument("new_root", type=Path, help="checkout under test")
    args = parser.parse_args(argv)

    differ = False
    with tempfile.TemporaryDirectory() as tmp:
        for name, config in BUNDLES.items():
            try:
                ref = assemble_in(args.ref_root.resolve(), config, Path(tmp) / "ref.npz")
                new = assemble_in(args.new_root.resolve(), config, Path(tmp) / "new.npz")
            except subprocess.CalledProcessError as exc:
                print(f"{name:10s} assembly failed with exit code {exc.returncode}")
                differ = True
                continue
            shared = [key for key in ref if key in new and key != "shape"]
            same = {key: _bitwise(ref[key], new[key]) for key in shared}
            ref, new = _csr(ref), _csr(new)
            delta = abs(new - ref)
            largest = float(delta.max()) if delta.nnz else 0.0
            flags = "  ".join(f"{key} {'equal' if ok else 'DIFFER'}" for key, ok in same.items())
            print(f"{name:10s} dim {ref.shape[0]:>6,}  nnz {ref.nnz:>10,} -> {new.nnz:>10,}  {flags}  "
                  f"max|dH| {largest:.3g}")
            differ |= not all(same.values())
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
