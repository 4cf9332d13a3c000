"""Joint-offset calibration toolkit for Orthoglide-type translational
parallel manipulators.

The package models the machine's exact kinematics, simulates the
leg-parallelism gauge measurements used for calibration, identifies the
actuated-joint encoder offsets by linear or nonlinear least squares, and
quantifies estimator accuracy under measurement noise both analytically and
by Monte-Carlo simulation.
"""

__version__ = "0.1.0"  # above the imports: fileio reads it

# the public API is each module's __all__, republished here
from .errors import *
from .geometry import *
from .kinematics import *
from .measurement import *
from .identification import *
from .accuracy import *
from .fileio import *
