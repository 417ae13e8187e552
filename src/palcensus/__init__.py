"""Exact enumeration of words by border, palindromic-prefix, and
square-prefix structure, with certified limiting densities.

The names below load lazily: ``import palcensus`` imports no submodule,
and the first access to a name imports the one submodule that defines it.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "census": (
        "DEFAULT_BUDGET", "BudgetExceededError", "CheckFailure", "Family",
        "ProfileKind", "census_family", "census_profile", "list_profile",
    ),
    "constants": (
        "CertificationError", "DecimalReport", "Enclosure",
        "closed_form_report", "density_series",
        "density_series_enclosure", "density_series_report",
        "pal_free_density", "square_prefix_densities", "unbordered_density",
        "unbordered_density_enclosure", "unbordered_density_estimate",
    ),
    "maps": (
        "Permutation", "adjacent_sum_map", "adjacent_sum_preimages",
        "milk_shuffle", "milk_shuffle_order", "milk_shuffle_permutation",
        "milk_unshuffle", "permutation_order",
    ),
    "recurrences": (
        "CacheMismatchError", "CacheStore", "CountSeq", "MissingCountError",
        "default_cache_path", "family_counts", "min_square_counts",
        "no_pal_prefix_counts", "no_pal_prefix_ratios",
        "square_prefix_counts", "unbordered_counts",
    ),
    "words": (
        "Word", "WordProfile", "format_word", "parse_word", "word_profile",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    # cached, so later lookups are plain attribute reads and skip this hook
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
