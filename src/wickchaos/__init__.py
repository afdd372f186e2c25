"""Wick calculus on finite Wiener chaos expansions.

Polynomial functionals of d independent standard Gaussians, stored as
Hermite coefficient tables. Exact Wick/pointwise products, second
quantization, stochastic exponentials, seeded Monte Carlo sampling, and
convergence experiments for rescaled Wick powers.
"""

__version__ = "0.1.0"

from .core import *
from .algebra import *
from .sampling import *
from .limits import *

__all__ = [name for name in dir() if not name.startswith("_")]
