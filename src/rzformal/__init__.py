"""Equivariant formality of reflection actions on moment-angle complexes.

Decides, for a simplicial complex K and a subgroup A of the coordinate
2-torus (Z/2)^m, whether the A-action on the real moment-angle complex
of K is equivariantly formal over F2, equivalently whether the group
cohomology of the corresponding coabelian reflection subgroup is free
over its polynomial part. Several independent criteria are implemented
and cross-checked; see the README for the CLI and census harness.
"""

from .cohomology import BettiTable
from .census import CensusRecord, run_census, verify_census
from .f2 import Subgroup
from .formality import (
    FixedPointModelError,
    FormalityReport,
    betti_sum_oracle,
    decide,
    evaluate_all,
    flag_criterion,
    general_criterion,
    reports_agree,
    torus_oracle,
)
from .group_report import GroupReport, PoincareSeries, coabelian_report, poincare_series
from .moment_angle import (
    CubicalComplex,
    build_cubical,
    fixed_betti_via_link,
    hochster_complex_betti,
    hochster_real_betti,
)
from .simplicial import Graph, InputError, SimplicialComplex

__version__ = "0.1.0"

__all__ = [
    "BettiTable",
    "CensusRecord",
    "CubicalComplex",
    "FixedPointModelError",
    "FormalityReport",
    "Graph",
    "GroupReport",
    "InputError",
    "PoincareSeries",
    "SimplicialComplex",
    "Subgroup",
    "betti_sum_oracle",
    "build_cubical",
    "coabelian_report",
    "decide",
    "evaluate_all",
    "fixed_betti_via_link",
    "flag_criterion",
    "general_criterion",
    "hochster_complex_betti",
    "hochster_real_betti",
    "poincare_series",
    "reports_agree",
    "run_census",
    "torus_oracle",
    "verify_census",
]
