"""The process entry, `run()`, of `python -m chargedphi2` and the `chargedphi2`
script.  It keeps the import heap cheap in two ways; importing `chargedphi2`
as a library does neither, and leaves the collector and `sys.modules` alone.

Importing numpy and scipy leaves tens of thousands of long-lived container
objects, which the cyclic collector would walk during the imports and again
at exit: tens of milliseconds per process, and none of them is garbage.  So
the collector is held off while the CLI and the numeric stack are imported
(`linalg` pulls in numpy, scipy.sparse, scipy.linalg and scipy.sparse.linalg),
those objects are frozen into the permanent generation, and it is switched
back on for the run.

scipy's vendored `array_api_compat.numpy` runs `from numpy import *`, which
executes every submodule in `numpy.__all__`.  The five in DEFERRED (with
`charset_normalizer` and `unittest` behind them) cost about 0.15 s and 9 MiB,
and no subcommand needs them at import.  So each is installed, in `sys.modules`
and on numpy, as an `importlib.util.LazyLoader` module: its code runs on its
first attribute access, or never.  Binding it on numpy keeps numpy's
`__getattr__` from importing it anew, which recurses.  Python 3.11's
`LazyLoader` is not thread-safe on that first access; the H x worker thread
(`linalg`) touches none of these modules.
"""

import gc
import importlib.util
import sys

DEFERRED = ("numpy.f2py", "numpy.testing", "numpy.ma", "numpy.polynomial", "numpy.ctypeslib")


def defer(names):
    """Install each module not yet imported as a lazy module; names not found are skipped."""
    for name in names:
        if name in sys.modules or (spec := importlib.util.find_spec(name)) is None:
            continue
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        parent, _, child = name.rpartition(".")
        setattr(sys.modules[parent], child, module)


def run() -> int:
    """Defer the unused numpy submodules, import the stack with the collector off, then run the CLI."""
    gc.disable()
    defer(DEFERRED)  # find_spec imports numpy, inside the collector-off window
    from . import linalg  # noqa: F401
    from .cli import main

    gc.freeze()
    gc.enable()
    return main()


if __name__ == "__main__":
    sys.exit(run())
