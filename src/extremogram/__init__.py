"""Extremal spatial dependence: simulators, estimators, oracles, inference.

The package measures how extremes at one location propagate to another:
the extremogram of a heavy-tailed random field, estimated on regular
lattices or scattered points, compared against closed-form limits and
their finite-threshold corrections, with permutation bands and a Monte
Carlo harness for calibration studies.

The public names are those each module lists in its ``__all__``.
"""
from . import (errors, fields, simulate, lattice, kernel, oracles, inference, pipeline,
               fileio)
from .errors import *
from .fields import *
from .simulate import *
from .lattice import *
from .kernel import *
from .oracles import *
from .inference import *
from .pipeline import *
from .fileio import *

__version__ = "0.1.0"

__all__ = [
    *(name for module in (errors, fields, simulate, lattice, kernel, oracles, inference,
                          pipeline, fileio) for name in module.__all__),
    "__version__",
]
