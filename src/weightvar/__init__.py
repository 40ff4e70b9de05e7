"""Exact computation of weight-variety cohomology from root-system data.

The pipeline: build a root system (`rootsys`), generate its Weyl group
with Bruhat order (`weyl`), realize the equivariant Schubert basis as
restriction vectors (`schubert`), then enumerate the kernel generators of
the reduction and count graded dimensions of the quotient (`kirwan`). The
`cli` module fronts all of it.
"""

from .errors import (CacheCorrupt, ConfigError, DegreeOverflow,
                     DimensionMismatch, InhomogeneousInput,
                     InternalConsistencyError, InvalidRank,
                     LocalizationNotPolynomial, MuNotRegularValue,
                     NonExactDivision, RankLimitExceeded, WeightvarError)
from .kirwan import (GradedDims, KernelGeneratorSpec, OrbitParameter,
                     RegularLevel, facet_normals, ideal_graded_dims,
                     is_regular, kernel_generators, mu_from_weight_coords,
                     orbit_parameter, quotient_betti, regular_level,
                     tw_oracle_generators)
from .poly import Polynomial, divide_exact, monomial_basis
from .rootsys import DEFAULT_MAX_RANK, RootSystem, TVector, build_root_system
from .schubert import (EquivariantClass, SchubertCalculus,
                       SchubertCoefficients, support)
from .weyl import WeylElement, WeylGroup, generate_weyl

__version__ = "0.1.0"

__all__ = [
    "build_root_system", "RootSystem", "TVector", "DEFAULT_MAX_RANK",
    "generate_weyl", "WeylGroup", "WeylElement",
    "Polynomial", "divide_exact", "monomial_basis",
    "SchubertCalculus", "EquivariantClass", "SchubertCoefficients", "support",
    "OrbitParameter", "RegularLevel", "KernelGeneratorSpec", "GradedDims",
    "orbit_parameter", "mu_from_weight_coords",
    "regular_level", "is_regular", "kernel_generators", "tw_oracle_generators",
    "ideal_graded_dims", "quotient_betti", "facet_normals",
    "WeightvarError", "ConfigError", "InvalidRank", "RankLimitExceeded",
    "DimensionMismatch", "DegreeOverflow", "MuNotRegularValue",
    "NonExactDivision", "InhomogeneousInput", "LocalizationNotPolynomial",
    "InternalConsistencyError", "CacheCorrupt",
]
