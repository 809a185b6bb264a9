"""Flow-level network simulation over the cluster topology."""

from .collectives import all_reduce, all_to_all, uniform_matrix
from .fabric import Fabric
from .fluid import Flow, FluidNetwork
from .goodput import GoodputResult, measure_all_to_all_goodput
from .memory import OutOfMemoryError

__all__ = [
    "Fabric",
    "Flow",
    "FluidNetwork",
    "GoodputResult",
    "OutOfMemoryError",
    "all_reduce",
    "all_to_all",
    "measure_all_to_all_goodput",
    "uniform_matrix",
]
