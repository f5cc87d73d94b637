"""Numerical verification of coadjoint-orbit geometry for the sixteen
seven-dimensional solvable Lie groups whose nilradical is the
five-dimensional algebra with two independent brackets.

The package builds each Lie algebra from its catalog of structure
constants, computes pairing forms, orbit dimensions, coadjoint actions,
generating vector fields of the orbit foliations, and topological
classification data, and re-checks every closed-form statement
numerically.
"""
from __future__ import annotations

from .catalog import (
    FAMILIES,
    PARAM_ARITY,
    build,
    default_parameter_grid,
    derivation_pair,
    validate_params,
)
from .coadjoint import (
    OrbitType,
    coadjoint_act,
    condition_margin,
    jacobian_check,
    orbit_dimension,
    orbit_type,
    rank_condition,
    sample_orbit,
)
from .foliation import (
    SYSTEM_FAMILIES,
    LinearVectorField,
    distribution_equiv,
    flow_closed,
    flow_numeric,
    invariant,
    involutivity_residual,
    system_fields,
)
from .liecore import (
    DIM,
    DomainError,
    LieAlgebra7,
    ParameterError,
    UnsupportedFamilyError,
    exp_matrix,
    numeric_rank,
    phi1,
    verify_jacobi,
)
from .topology import (
    CSTAR_DESCRIPTORS,
    LEAF_MAP_NAMES,
    FoliationType,
    LeafMap,
    Manifold,
    boundary_margin,
    classify,
    cstar_descriptor,
    fibration_gradient,
    fibration_value,
    leaf_map,
    manifold_of,
)
from .verify import CheckResult, run_family_suite

__version__ = "0.1.0"

__all__ = [
    "DIM",
    "FAMILIES",
    "PARAM_ARITY",
    "CSTAR_DESCRIPTORS",
    "LEAF_MAP_NAMES",
    "SYSTEM_FAMILIES",
    "CheckResult",
    "DomainError",
    "FoliationType",
    "LeafMap",
    "LieAlgebra7",
    "LinearVectorField",
    "Manifold",
    "OrbitType",
    "ParameterError",
    "UnsupportedFamilyError",
    "boundary_margin",
    "build",
    "classify",
    "coadjoint_act",
    "condition_margin",
    "cstar_descriptor",
    "default_parameter_grid",
    "derivation_pair",
    "distribution_equiv",
    "exp_matrix",
    "fibration_gradient",
    "fibration_value",
    "flow_closed",
    "flow_numeric",
    "invariant",
    "involutivity_residual",
    "jacobian_check",
    "leaf_map",
    "manifold_of",
    "numeric_rank",
    "orbit_dimension",
    "orbit_type",
    "phi1",
    "rank_condition",
    "run_family_suite",
    "sample_orbit",
    "system_fields",
    "validate_params",
    "verify_jacobi",
    "__version__",
]
