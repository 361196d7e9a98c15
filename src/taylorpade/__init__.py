"""Exact and modular linear algebra for Pade matrices of Taylor varieties."""

from .errors import DomainError, UnsupportedParametersError, UsageError
from .fields import (
    PRIMES_62,
    Jet,
    JetRing,
    PrimeField,
    Rationals,
    derive_seed,
    random_point,
)
from .series import (
    MonomialOrder,
    SparsePoly,
    TruncatedSeries,
    monomials_of_degree,
    monomials_upto,
    series_inverse,
    series_mul,
)
from .pade import (
    SymbolicMatrix,
    block_view,
    column_transform,
    export_m2,
    pade_matrix,
    pade_shape,
    random_lambda,
    reduced_pade,
)
from .detcalc import (
    adjugate,
    block_grad_det_at,
    det_berkowitz,
    eliminate,
    expand_det_poly,
    grad_det_at,
    hessian_det_at,
    jet_grad_det,
    jet_hessian_entry,
)
from .variety import (
    TaylorParams,
    RationalPair,
    actual_dimension,
    expected_dimension,
    membership,
    nondefective_hypersurface_check,
    random_rational_pair,
    square_family,
    taylor_coeffs,
)
from .hessian import (
    Certificate,
    NONZERO,
    VANISHES,
    build_M,
    certify_hessian_pade,
    certify_hessian_poly,
    full_from_essential,
    polar_image_rank,
    rank_M_at,
    verify_relations,
)

__version__ = "0.1.0"
