"""Bell tests with a pair of two-level atoms via population spectroscopy.

The package follows one thread: atomic coherent states turn level populations
of a displaced system into Husimi Q functions; the joint Q function of two
atoms is a legitimate Clauser-Horne correlation, bounded in [-1, 0] by every
local hidden-variable model; and any entangled pure two-atom state beats the
bound for suitable displacement settings, which Ramsey pulse pairs realize in
the lab.  `su2` holds the spin kernel, `bell` the inequality machinery,
`ramsey` the pulse bookkeeping and finite-shot simulation, and `cli` a small
command-line front end.
"""

from . import bell, ramsey, su2
from .bell import *
from .ramsey import *
from .su2 import *

__version__ = "0.1.0"

__all__ = ["__version__", *su2.__all__, *bell.__all__, *ramsey.__all__]
