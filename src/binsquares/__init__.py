"""Sums of binary squares: exhaustive oracles, folded-word recognizers,
machine-checked coverage assertions, and certified decompositions."""

from .folding import FoldedWord, fold, syntax_checker, unfold
from .lemma_machines import (
    FAMILY_NAMES,
    Profile,
    Summand,
    family_union,
)
from .numberforms import (
    GroundSetKind,
    is_binary_square,
    is_generalized_binary_square,
    is_power_of_two,
)
from .oracle import (
    decompose_brute,
    exceptions_four_squares,
    four_squares_counts,
    lower_density_estimate,
    sumset_table,
    two_squares_density,
)
from .witness import (
    Decomposition,
    InvalidInput,
    NotRepresentable,
    decompose,
    decompose_generalized,
    decompose_square_power,
)

__all__ = [
    "FAMILY_NAMES",
    "Decomposition",
    "FoldedWord",
    "GroundSetKind",
    "InvalidInput",
    "NotRepresentable",
    "Profile",
    "Summand",
    "decompose",
    "decompose_brute",
    "decompose_generalized",
    "decompose_square_power",
    "exceptions_four_squares",
    "family_union",
    "fold",
    "four_squares_counts",
    "is_binary_square",
    "is_generalized_binary_square",
    "is_power_of_two",
    "lower_density_estimate",
    "sumset_table",
    "syntax_checker",
    "two_squares_density",
    "unfold",
]
