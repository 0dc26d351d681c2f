"""Finite-dimensional representations of the rank-1 four-parameter
double affine Hecke algebra, with generic q.

Submodules:

- :mod:`daha_cc1.core`    — parameters, tolerances, scalar parsing, and
  ``GENERATORS``, the one table of the four generators (parameter,
  partner, involution, leg, polynomial side) with their factor order
- :mod:`daha_cc1.laurent` — Laurent polynomial ring and quotient divisors
- :mod:`daha_cc1.roots`   — the star-graph root system bookkeeping
- :mod:`daha_cc1.strata`  — parameter strata and classification
- :mod:`daha_cc1.rep`     — operator actions and quotient matrices
- :mod:`daha_cc1.dsbridge`— the four-matrix product-problem translation,
  with the eigenvalue pairs ``xi_table`` and the closure ``xi_product``
- :mod:`daha_cc1.cli`     — command-line entry point
"""

from .core import DEFAULT_TOL, Params, Tolerance, validate_params
from .laurent import LaurentPoly, build_E, build_E_dual, reduce_mod
from .rep import (
    Rep,
    SignVector,
    build_quotient_rep,
    commutant_dim,
    dim_vector,
    rigidity_D,
    spectrum_of_z,
    verify_relations,
)
from .roots import (
    RootKind,
    RootVector,
    Type1E,
    Type1F,
    Type2,
    classify_root,
    enumerate_strict_roots,
    kind_from_str,
    kind_to_str,
)
from .strata import classify_params, sigma_membership
from .dsbridge import xi_product, xi_table

__version__ = "1.0.0"

__all__ = [
    "DEFAULT_TOL",
    "Params",
    "Tolerance",
    "validate_params",
    "LaurentPoly",
    "build_E",
    "build_E_dual",
    "reduce_mod",
    "Rep",
    "SignVector",
    "build_quotient_rep",
    "commutant_dim",
    "dim_vector",
    "rigidity_D",
    "spectrum_of_z",
    "verify_relations",
    "RootKind",
    "RootVector",
    "Type1E",
    "Type1F",
    "Type2",
    "classify_root",
    "enumerate_strict_roots",
    "kind_from_str",
    "kind_to_str",
    "classify_params",
    "sigma_membership",
    "xi_product",
    "xi_table",
    "__version__",
]
