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
from dwu.groupoids import ActionGroupoid, double_real_loop, loop_groupoid
from dwu.groups import (
    FiniteGroup,
    GradedGroup,
    GroupAxiomError,
    ResourceBudgetError,
    build_group,
    enumerate_gradings,
    odd_square_roots,
    real_conjugate,
    split_grading,
)
from dwu.moduli import (
    Surface,
    bundle_groupoid,
    crosscap_groupoid,
    one_loop_groupoid,
    parse_surface,
)
from dwu.phases import CycField, CycNum, Phase
from dwu.reptheory import (
    BlockData,
    blocks,
    crosscap_element,
    duality_phases,
    fs_indicators,
    real_1d_phases,
)
from dwu.tqft import (
    TuraevAlgebraData,
    UnorientedFrobeniusData,
    check_turaev_axioms,
    check_unoriented_frobenius,
    consistency_report,
    kr_rank,
    one_loop,
    orbifold,
    partition_direct,
    partition_tqft,
    partition_verlinde,
    turaev_from_cocycle,
)
from dwu.transgression import pair_surface, tau_ref

__all__ = [
    "ActionGroupoid",
    "BlockData",
    "CycField",
    "CycNum",
    "FiniteGroup",
    "GradedGroup",
    "GroupAxiomError",
    "Phase",
    "ResourceBudgetError",
    "Surface",
    "TuraevAlgebraData",
    "TwistedCochain",
    "UnorientedFrobeniusData",
    "blocks",
    "build_group",
    "bundle_groupoid",
    "check_turaev_axioms",
    "check_unoriented_frobenius",
    "cochain_from_json",
    "cochain_to_json",
    "cohomology_classes",
    "consistency_report",
    "crosscap_element",
    "crosscap_groupoid",
    "double_real_loop",
    "duality_phases",
    "enumerate_gradings",
    "fs_indicators",
    "is_twisted_coboundary",
    "is_twisted_cocycle",
    "kr_rank",
    "loop_groupoid",
    "odd_square_roots",
    "one_loop",
    "one_loop_groupoid",
    "orbifold",
    "pair_surface",
    "parse_surface",
    "partition_direct",
    "partition_tqft",
    "partition_verlinde",
    "real_1d_phases",
    "real_conjugate",
    "restrict_to_even",
    "split_grading",
    "tau_ref",
    "turaev_from_cocycle",
    "twisted_differential",
]
