"""chronolab: clock-driven emergence of classical and quantum dynamics.

A laboratory for the reduction of timeless composite systems (a heavy
clock coordinate plus a light system) to time-dependent classical and
quantum mechanics: fixed-energy variational paths and clock time maps
on the classical side, composite eigenstates, factorizations,
close-coupled channels and directed states on the stationary quantum
side, WKB clocks and complex quantum time in between, and conditional
TDSE checks, two-route propagation, and clock-energy scans for the
dynamics that emerges.
"""

__version__ = "0.1.0"

# each module's __all__ is its public API, and their union is the package's
from .errors import *
from .core import *
from .classical import *
from .stationary import *
from .semiclassical import *
from .dynamics import *
