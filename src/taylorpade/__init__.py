"""Exact and modular linear algebra for Pade matrices of Taylor varieties."""

from .errors import UsageError
from .pade import column_transform, pade_matrix, random_lambda
from .detcalc import eliminate
from .variety import TaylorParams, nondefective_hypersurface_check
from .hessian import certify_hessian_pade, full_from_essential, relation_check, run_case

__version__ = "0.1.0"
