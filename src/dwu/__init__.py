"""Computations for unoriented Dijkgraaf-Witten theory of finite Z2-graded groups.

The pipeline: build a graded group, pick (or enumerate) a twisted 2-cocycle,
then compare closed-surface partition functions along three independent
routes (holonomy sums, Frobenius-algebra cut-and-paste, Verlinde-type block
sums), with twisted Frobenius-Schur indicators and full axiom checkers along
the way.
"""

from dwu.cohomology import (
    TwistedCochain,
    cochain_from_json,
    cochain_to_json,
    cohomology_classes,
    is_twisted_coboundary,
    is_twisted_cocycle,
    restrict_to_even,
    twisted_differential,
)
from dwu.groups import (
    FiniteGroup,
    GradedGroup,
    GroupAxiomError,
    ResourceBudgetError,
    build_group,
    enumerate_gradings,
    split_grading,
)
from dwu.moduli import Surface, parse_surface
from dwu.phases import CycField, CycNum
from dwu.reptheory import BlockData, blocks, crosscap_element, fs_indicators
from dwu.tqft import (
    TuraevAlgebraData,
    UnorientedFrobeniusData,
    check_turaev_axioms,
    check_unoriented_frobenius,
    consistency_report,
    kr_rank,
    orbifold,
    partition_direct,
    partition_tqft,
    partition_verlinde,
    turaev_from_cocycle,
)
from dwu.transgression import tau_ref

__all__ = [
    "BlockData",
    "CycField",
    "CycNum",
    "FiniteGroup",
    "GradedGroup",
    "GroupAxiomError",
    "ResourceBudgetError",
    "Surface",
    "TuraevAlgebraData",
    "TwistedCochain",
    "UnorientedFrobeniusData",
    "blocks",
    "build_group",
    "check_turaev_axioms",
    "check_unoriented_frobenius",
    "cochain_from_json",
    "cochain_to_json",
    "cohomology_classes",
    "consistency_report",
    "crosscap_element",
    "enumerate_gradings",
    "fs_indicators",
    "is_twisted_coboundary",
    "is_twisted_cocycle",
    "kr_rank",
    "orbifold",
    "parse_surface",
    "partition_direct",
    "partition_tqft",
    "partition_verlinde",
    "restrict_to_even",
    "split_grading",
    "tau_ref",
    "turaev_from_cocycle",
    "twisted_differential",
]
