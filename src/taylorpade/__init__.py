"""Exact and modular linear algebra for Pade matrices of Taylor varieties."""

from .errors import UsageError
from .pade import column_transform, pade_matrix, random_lambda
from .detcalc import eliminate
from .variety import TaylorParams
from .hessian import run_case

__version__ = "0.1.0"
