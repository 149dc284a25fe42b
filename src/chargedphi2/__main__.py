"""`python -m chargedphi2` entry: keep the cyclic garbage collector off the
import heap.

Importing numpy and scipy leaves tens of thousands of long-lived container
objects behind.  The collector would walk them during the imports and once
more at interpreter exit, a fixed cost of tens of milliseconds in every CLI
process that no run needs: none of them is garbage.  So the collector is
held off while the CLI and the numeric stack every subcommand loads are
imported (`linalg` pulls in numpy, scipy.sparse, scipy.linalg and
scipy.sparse.linalg), those objects are frozen into the permanent
generation, and the collector is switched back on.  The run's own garbage is
collected as usual.  Only this process entry does this; importing
`chargedphi2` as a library leaves the collector as the caller set it.
"""

import gc
import sys

gc.disable()
from . import linalg  # noqa: E402,F401
from .cli import main  # noqa: E402

gc.freeze()
gc.enable()

sys.exit(main())
