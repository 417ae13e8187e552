"""Exact enumeration of words by border, palindromic-prefix, and
square-prefix structure, with certified limiting densities."""

from .census import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    Family,
    ProfileKind,
    census_family,
    census_profile,
    list_profile,
)
from .constants import (
    CertificationError,
    DecimalReport,
    Enclosure,
    Method,
    closed_form_report,
    decimal_string,
    density_series,
    density_series_closed_form,
    density_series_enclosure,
    density_series_report,
    pal_free_density,
    pal_free_density_enclosure,
    square_prefix_densities,
    unbordered_density_estimate,
)
from .maps import (
    Permutation,
    adjacent_sum_map,
    adjacent_sum_preimages,
    milk_shuffle,
    milk_shuffle_order,
    milk_shuffle_permutation,
    milk_unshuffle,
    permutation_order,
)
from .recurrences import (
    CacheMismatchError,
    CacheStore,
    CountSeq,
    MissingCountError,
    default_cache_path,
    family_counts,
    min_square_counts,
    no_even_pp_counts,
    no_odd_pp_counts,
    no_pal_prefix_counts,
    no_pal_prefix_ratios,
    square_prefix_counts,
    unbordered_counts,
)
from .words import (
    Alphabet,
    Parity,
    Word,
    WordProfile,
    border_lengths,
    format_word,
    has_nontrivial_pal_prefix,
    is_palindrome,
    is_unbordered,
    pal_prefix_orders,
    parse_word,
    perfect_shuffle,
    reverse,
    short_border_lengths,
    square_half_lengths,
    unshuffle,
    word_profile,
)

__version__ = "0.1.0"
