"""The yardstick: a frozen copy of orthocal that every timed run also runs.

The speed of a shared virtual machine drifts: the same table3 pass takes
anywhere from about 260 to 600 ms within an hour on a 2-vCPU Xeon VM, in
phases that often last longer than a run, and CPU time drifts with it.  Raw
wall times of two runs of the same code therefore differ by far more than
any bound a regression check could use.

So each timed operation is run twice in a row on the same input, once by the
package under test and once by ``frozen/orthocal_yardstick``, a copy of
``src/orthocal`` as it stood when the benchmark was defined (identical but
for the package name under which ``fileio.fixture_path`` finds its data).
Both see the same machine speed, so their ratio does not drift.  A timing
metric is the yardstick's nominal figure (``NOMINAL``) times the package's
ratio to the yardstick (``run.speed_corrected``): the figure the package
would show on the machine at the speed at which the nominal figures were
measured.  The raw wall times of both are printed in
the run details next to the result.

The yardstick is never edited: a change to ``src/orthocal`` moves the ratio,
a change of machine speed does not.
"""

from __future__ import annotations

import importlib
import os
import sys

FROZEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "frozen")
PACKAGE = "orthocal_yardstick"

#: The yardstick's own figures per workload, measured once on a 2-vCPU Intel
#: Xeon VM (Python 3.11, numpy 2.4, one BLAS thread).  They set the scale of
#: the timing metrics, nothing else.  The latencies are percentiles of the
#: class-typical times (``run.speed_corrected``), so on a workload with one
#: class of job p90_ms equals p50_ms.  setup_s in s, p50_ms and p90_ms in ms,
#: items_per_s in 1/s.
NOMINAL = {
    "mc_table3": {"setup_s": 0.23, "p50_ms": 275.0, "p90_ms": 275.0, "items_per_s": 14600.0},
    "calibrate_stream": {"setup_s": 0.21, "p50_ms": 5.5, "p90_ms": 9.1, "items_per_s": 211.0},
    "cli_cold": {"setup_s": 0.40, "p50_ms": 198.0, "p90_ms": 198.0, "items_per_s": 5.05},
}


def load():
    """Import the frozen copy as ``orthocal_yardstick``."""
    if FROZEN_DIR not in sys.path:
        sys.path.append(FROZEN_DIR)
    return importlib.import_module(PACKAGE)
