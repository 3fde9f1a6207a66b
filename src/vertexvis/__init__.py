"""Exact computation of vertex visibility numbers of graphs.

A visibility set for a root x is a vertex set S, x excluded, such that every
member can be reached from x along at least one shortest path whose interior
avoids S.  The package computes the largest such set for one root or over
all roots (with certificates), evaluates every applicable closed-form bound,
constructs verified extremal sets for square grids, prisms, and toruses, and
materializes the independent-set hardness gadget.  The package's names are
those its modules list in ``__all__``.
"""

from .bounds import *
from .errors import *
from .generators import *
from .graph import *
from .solvers import *
from .visibility import *
from .witnesses import *

__version__ = "0.1.0"
