"""Sums of binary squares: exhaustive oracles, folded-word recognizers,
machine-checked coverage assertions, and certified decompositions.

The names below load their module on first use (PEP 562), so importing one
submodule, such as ``binsquares.automata``, does not load the others.
"""

from importlib import import_module

# exported name -> the submodule that defines it
_EXPORTS = {
    "FAMILY_NAMES": "lemma_machines",
    "Decomposition": "witness",
    "FoldedWord": "folding",
    "GroundSetKind": "numberforms",
    "InvalidInput": "witness",
    "NotRepresentable": "witness",
    "Profile": "lemma_machines",
    "Summand": "lemma_machines",
    "decompose": "witness",
    "decompose_brute": "oracle",
    "decompose_generalized": "witness",
    "decompose_square_power": "witness",
    "exceptions_four_squares": "oracle",
    "family_union": "lemma_machines",
    "fold": "folding",
    "four_squares_counts": "oracle",
    "is_binary_square": "numberforms",
    "is_generalized_binary_square": "numberforms",
    "is_power_of_two": "numberforms",
    "lower_density_estimate": "oracle",
    "sumset_table": "oracle",
    "syntax_checker": "folding",
    "two_squares_density": "oracle",
    "unfold": "folding",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
