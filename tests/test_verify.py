"""The cross-checking suites must fail on planted bugs, not only pass."""

import pytest

from palcensus import census
from palcensus.census import DEFAULT_BUDGET, Family
from palcensus.verify import suite_counts


def test_counts_suite_passes():
    result = suite_counts(3, 7, DEFAULT_BUDGET)
    assert result.passed, result.failures


@pytest.mark.parametrize(
    "family,planted",
    [
        # even palindromic prefixes tested from length 4: 00... survives
        pytest.param(
            Family.NO_EVEN_PP, (census._palindrome_letter, 4, 2, None),
            id="no-even-pp",
        ),
        # square prefixes of minimal-square roots tested from length 4; no
        # recurrence backs min-square, only the naive filter can see this
        pytest.param(
            Family.MIN_SQUARE,
            (census._square_letter, 4, 2, census._straddling_letters),
            id="min-square",
        ),
    ],
)
def test_counts_suite_catches_an_off_by_one_prune(monkeypatch, family, planted):
    monkeypatch.setattr(census, "_family_cache", {})
    monkeypatch.setitem(census._PRUNED_FAMILIES, family, planted)
    result = suite_counts(3, 7, DEFAULT_BUDGET)
    assert not result.passed
    assert result.failures[0].startswith(f"{family.value} mismatch at k=2")
    assert "naive filter" in result.failures[0]
