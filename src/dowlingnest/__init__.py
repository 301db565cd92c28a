"""Exact combinatorics of generalized Dowling arrangements.

Given a triple (n, G, V) with G a finite group and V an exact faithful
representation without trivial summands, this package builds the subspace
arrangement H(n, G, V) in V^n, its closed subgroups and minimal building
set, enumerates nested sets and the equivalent labelled forests, counts the
forests by part size for any finite G, and (for abelian G) computes the
exponential generating series that counts them.
Every count is reachable by at least two independent routes.
"""

from .arrangement import (
    Block,
    ClosedSubgroupSet,
    NestedSet,
    ProblemInstance,
    block_leq,
    block_subspace,
    blocks_compatible,
    building_blocks,
    closed_subgroups,
    closure_phi,
    count_nested_sets,
    enumerate_nested_sets,
    flat_counts,
    intersection_lattice,
    is_block_subspace,
    is_nested,
    iter_nested_sets,
    raw_arrangement,
)
from .errors import (
    AbelianOnly,
    AmbientMismatch,
    DowlingNestError,
    InstanceError,
    MalformedForest,
    NonInvertibleConstantTerm,
    NotRealizable,
    OrderBoundExceeded,
    SizeBoundExceeded,
)
from .forests import (
    LabelledForest,
    Leaf,
    Vertex,
    count_forests,
    decompose_forest,
    enumerate_forests,
    forest_to_nested,
    nested_to_forest,
    validate_forest,
)
from .groups import (
    ConjClass,
    FiniteGroup,
    Subgroup,
    conjugate_subgroup,
    enumerate_subgroups,
    left_cosets,
    subgroup_conj_classes,
)
from .instancefile import load_instance, parse_instance
from .linalg import Subspace, kernel
from .reps import Representation
from .series import (
    MultiSeries,
    big_g,
    gamma_bar,
    gamma_tilde,
    lambda_bar,
    lambda_for_subgroup,
    nested_count_via_series,
    partition_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianOnly",
    "AmbientMismatch",
    "Block",
    "ClosedSubgroupSet",
    "ConjClass",
    "DowlingNestError",
    "FiniteGroup",
    "InstanceError",
    "LabelledForest",
    "Leaf",
    "MalformedForest",
    "MultiSeries",
    "NestedSet",
    "NonInvertibleConstantTerm",
    "NotRealizable",
    "OrderBoundExceeded",
    "ProblemInstance",
    "Representation",
    "SizeBoundExceeded",
    "Subgroup",
    "Subspace",
    "Vertex",
    "big_g",
    "block_leq",
    "block_subspace",
    "blocks_compatible",
    "building_blocks",
    "closed_subgroups",
    "closure_phi",
    "conjugate_subgroup",
    "count_forests",
    "count_nested_sets",
    "decompose_forest",
    "enumerate_forests",
    "enumerate_nested_sets",
    "enumerate_subgroups",
    "flat_counts",
    "forest_to_nested",
    "gamma_bar",
    "gamma_tilde",
    "intersection_lattice",
    "is_block_subspace",
    "is_nested",
    "iter_nested_sets",
    "kernel",
    "lambda_bar",
    "lambda_for_subgroup",
    "left_cosets",
    "load_instance",
    "nested_count_via_series",
    "nested_to_forest",
    "parse_instance",
    "partition_oracle",
    "raw_arrangement",
    "subgroup_conj_classes",
    "validate_forest",
]
