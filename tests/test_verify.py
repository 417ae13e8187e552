"""The cross-checking suites must fail on planted bugs, not only pass."""

import math
from fractions import Fraction

import pytest

from palcensus import census, constants, maps, recurrences, verify
from palcensus.census import DEFAULT_BUDGET, Family
from palcensus.constants import Enclosure
from palcensus.recurrences import CountSeq
from palcensus.verify import run_suites, suite_counts
from palcensus.words import _shuffle


def test_counts_suite_passes():
    result = suite_counts(3, 7, DEFAULT_BUDGET)
    assert result.passed, result.failures


def test_constants_suite_keeps_the_census_within_the_budget(monkeypatch):
    # the gamma checks read unbordered counts, whose census self-check must
    # stop at the suite's budget like every other census call
    monkeypatch.setattr(census, "_family_cache", {})
    [result] = run_suites(["constants"], k_max=3, n_max=9, budget=100)
    assert result.passed, result.failures
    assert max(k ** n for k, n, _ in census._family_cache) <= 100


@pytest.mark.parametrize(
    "family,planted",
    [
        # even palindromic prefixes forbidden from length 4: 00... survives
        pytest.param(
            Family.NO_EVEN_PP,
            lambda n: [census._palindrome(2 * i) for i in range(2, n // 2 + 1)],
            id="no-even-pp",
        ),
        # square prefixes of minimal-square roots forbidden from length 4; no
        # recurrence backs min-square, only the naive filter can see this
        pytest.param(
            Family.MIN_SQUARE,
            lambda n: [census._square(n, j) for j in range(2, n)],
            id="min-square",
        ),
    ],
)
def test_counts_suite_catches_an_off_by_one_prune(monkeypatch, family, planted):
    monkeypatch.setattr(census, "_family_cache", {})
    monkeypatch.setitem(census._PATTERNS, family, planted)
    result = suite_counts(3, 7, DEFAULT_BUDGET)
    assert not result.passed
    assert result.failures[0].startswith(f"{family.value} mismatch at k=2")
    assert "naive filter" in result.failures[0]


def _walk_planted(k, length, prefix, dead=None, *, new_weight=True, past_k=False):
    # the prefix walk with one part changed: new_weight=False weights the
    # first unused letter 1, not k - used; past_k=True still offers a letter
    # once all k are used, weighted 1 and keeping used at k (at its true
    # weight k - k = 0 the extra letter would count nothing)
    w = list(prefix) + [0] * (length - len(prefix))
    if dead is not None and any(dead(m, w) for m in range(1, len(prefix) + 1)):
        return
    stack = [(len(prefix), None, len(set(prefix)), 1)]
    while stack:
        m, c, used, weight = stack.pop()
        if c is not None:
            w[m - 1] = c
            if dead is not None and dead(m, w):
                continue
        if m == length:
            yield w, used, weight
            continue
        top = used + 1 if past_k else min(used + 1, k)
        for c in range(top - 1, -1, -1):
            grown = c == used < k
            factor = k - used if grown and new_weight else 1
            stack.append((m + 1, c, used + grown, weight * factor))


def _canonical_blocks_planted(k, n, count, *, weight=math.perm):
    # the census blocks with their class size given by weight; weight=pow
    # weights each canonical block k**d instead of perm(k, d)
    length = 0
    prefixes = [()]
    while k > 1 and length < n and len(prefixes) < count:
        length += 1
        prefixes = [w for w, _ in census._words_up_to_renaming(k, length)]
    return [(w, weight(k, len(set(w)))) for w in prefixes]


def _dead_at(lengths):
    return lambda m, w: m in lengths and w[0] == w[m - 1]


def test_planted_renaming_walk_without_a_change_is_the_walk():
    for k in range(1, 6):
        for n in range(0, 6):
            for prefix in ((), (0,), (0, 0, 1), (0, 1, 0, 2, 1)):
                if len(prefix) > n or max(prefix, default=0) >= k:
                    continue
                for dead in (None, _dead_at({2}), _dead_at({3, 5})):
                    walks = [
                        [(tuple(w), used, weight) for w, used, weight in walk(
                            k, n, prefix, dead
                        )]
                        for walk in (_walk_planted, census._walk)
                    ]
                    assert walks[0] == walks[1]
            for count in (1, 4, 8, 128):
                assert _canonical_blocks_planted(k, n, count) == (
                    census._canonical_blocks(k, n, count)
                )


_honest_masks = census._masks


def _masks_with_a_wrong_bit(k, split):
    # the completion masks with one bit set in the first letter's mask for
    # 0: that of the last completion, which spells k-1 at every place
    letter, pair, full = _honest_masks(k, split)
    if split:
        letter = [row[:] for row in letter]
        letter[0][0] ^= 1 << k ** split - 1
    return letter, pair, full


def test_planted_masks_differ_in_one_bit():
    for k in (2, 3):
        for split in range(1, 7):
            honest, pair, full = _honest_masks(k, split)
            planted, planted_pair, planted_full = _masks_with_a_wrong_bit(k, split)
            assert (planted_pair, planted_full) == (pair, full)
            flipped = [
                (q, x, (a ^ b).bit_count())
                for q, (row, other) in enumerate(zip(honest, planted))
                for x, (a, b) in enumerate(zip(row, other))
                if a != b
            ]
            assert flipped == [(0, 0, 1)]


@pytest.mark.parametrize(
    "name,planted,unchanged,failure",
    [
        pytest.param(
            "_walk",
            lambda *args: _walk_planted(*args, new_weight=False),
            _walk_planted,
            # at k=2 the new letter weighs k - 1 = 1 everywhere below the root;
            # at k=3, n=4 the walk adds one letter below the five blocks
            "unbordered mismatch at k=3, n=4: census 45, naive filter 48",
            id="new-letter-weighted-one",
        ),
        pytest.param(
            "_canonical_blocks",
            lambda k, n, count: _canonical_blocks_planted(k, n, count, weight=pow),
            _canonical_blocks_planted,
            "unbordered mismatch at k=2, n=2: census 4, naive filter 2",
            id="blocks-weighted-k-to-the-d",
        ),
        pytest.param(
            "_walk",
            lambda *args: _walk_planted(*args, past_k=True),
            _walk_planted,
            # at n=4 the walk adds one letter below the four binary blocks
            "unbordered mismatch at k=2, n=4: census 12, naive filter 6",
            id="new-letter-past-k",
        ),
        pytest.param(
            "_masks",
            _masks_with_a_wrong_bit,
            _honest_masks,
            # n=5 is the first length that decides a letter from the masks
            "unbordered mismatch at k=2, n=5: census 0, naive filter 12",
            id="mask-table-one-wrong-bit",
        ),
    ],
)
def test_counts_suite_catches_a_planted_renaming_bug(
    monkeypatch, name, planted, unchanged, failure
):
    # the naive route calls the class generator, not the census blocks,
    # walk or masks, so only the census sees the plant
    def run_fresh():
        monkeypatch.setattr(census, "_family_cache", {})
        monkeypatch.setattr(census, "_profile_cache", {})
        return suite_counts(3, 7, DEFAULT_BUDGET)

    monkeypatch.setattr(census, name, unchanged)
    honest = run_fresh()
    assert honest.passed, honest.failures
    monkeypatch.setattr(census, name, planted)
    # the unbordered recurrence checks itself against the census on every
    # call, so it sees the plant first; silenced, the naive filter must
    with pytest.raises(RuntimeError, match="unbordered recurrence disagrees"):
        run_fresh()
    monkeypatch.setattr(recurrences, "_validate_unbordered", lambda k, budget: None)
    result = run_fresh()
    assert not result.passed
    assert result.failures[0] == failure


def _milk_shuffle_reading_one_letter_early(w):
    # the second half should be w[n - half:]; this reads it a letter early
    n = len(w)
    half = n // 2
    y, z = w[:half], w[n - half - 1:n - 1]
    return _shuffle(y, z[::-1]) + w[half:n - half]


def _preimages_subtracting_the_first_letter(x, k):
    # each next symbol should be the target minus the previous one; at k=2
    # adding the previous one instead would be the same map
    return [
        (first,) + tuple((s - first) % k for s in x) for first in range(k)
    ]


def _preimages_adding_the_previous_letter(x, k):
    # each next symbol should be the target minus the previous one; mod 2
    # adding is subtracting, so only an alphabet of three or more sees this
    preimages = []
    for first in range(k):
        symbols = [first]
        for s in x:
            symbols.append((s + symbols[-1]) % k)
        preimages.append(tuple(symbols))
    return preimages


def _border_set_reading_one_letter_early(w):
    # the suffix of length i should be w[n - i:]; this ends a letter early
    n = len(w)
    return frozenset(i for i in range(1, n) if w[:i] == w[n - i - 1:n - 1])


def _shuffle_reading_the_second_track_backwards(y, z):
    return _shuffle(y, z[::-1])


def _no_pal_prefix_counts_without_even_subtraction(k, N):
    # count(2n) = k * count(2n-1) - count(n), with the subtraction dropped
    values = {1: k, 2: k * k - k}
    for m in range(3, N + 1):
        values[m] = k * values[m - 1] - (0 if m % 2 == 0 else values[(m + 1) // 2])
    return CountSeq(k, Family.NO_PAL_PREFIX, values)


def _old_pal_prefix_lemma(p, m):
    # "has a nontrivial palindromic prefix shorter than half", whatever m is
    return any(p[:j] == p[j - 1::-1] for j in range(2, len(p)) if 2 * j < len(p))


_honest_series_enclosure = constants._series_enclosure


def _series_with_a_wider_tail(k, counts, N):
    # a valid but k times looser enclosure: it still nests and still holds
    # the closed form, so only the comparison with the reference sees it
    honest = _honest_series_enclosure(k, counts, N)
    return Enclosure(honest.lower, honest.lower + k * honest.width)


def _series_without_the_last_term(k, counts, N):
    numerator = 0
    for n in range(1, N):
        numerator = numerator * k * k + counts[n]
    lower = Fraction(numerator, k ** (2 * N - 2))
    return Enclosure(lower, lower + Fraction(1, (k - 1) * k ** N))


_honest_unbordered_counts = recurrences.unbordered_counts


# the gamma plants change counts past n = 14, where the unbordered
# recurrence's census self-check stops
def _unbordered_counts_shifted(k, N, **options):
    # each count past n = 14 is read one index early
    u = _honest_unbordered_counts(k, N, **options)
    return CountSeq(k, Family.UNBORDERED, {n: u[n - (n > 14)] for n in u.values})


def _unbordered_counts_one_scaled(k, N, **options):
    # the count at n = 20 is k times too large
    u = _honest_unbordered_counts(k, N, **options)
    return CountSeq(
        k, Family.UNBORDERED, {n: u[n] * (k if n == 20 else 1) for n in u.values}
    )


def _unbordered_tail_on_the_wrong_side(k, N, **options):
    # gamma lies at most the tail below 1 minus the partial sum, not above
    series = _honest_series_enclosure(k, _honest_unbordered_counts(k, N, **options), N)
    return Enclosure(1 - series.lower, 1 - series.lower + series.width)


def _functional_enclosure_planted(k, j, *, sign=-1, quadratic=True, tail_power=3):
    # the engine with one of its parts changed: sign=+1 flips the sign of
    # c(X), quadratic=False drops the (1-1/k) X_j**2 term of the starting
    # enclosure, tail_power=2 bounds its tail by X_j**2 / (1 - X_j)
    top = k ** (2 ** (j + 1) - 1)
    denominator = k * top * top * (top - 1)
    low = (k * top + (k - 1 if quadratic else 0)) * (top - 1)
    high = low + k * top ** (3 - tail_power)
    for i in range(j - 1, -1, -1):
        power = k ** (2 ** (i + 1) - 1)
        scale = (k * power + 1) * power
        low, high = sorted(
            (2 * denominator + sign * scale * low, 2 * denominator + sign * scale * high)
        )
        denominator *= power - 1
    return Enclosure(Fraction(low, denominator), Fraction(high, denominator))


def test_planted_engine_without_a_change_is_the_engine():
    for k in (2, 3, 5):
        for j in (0, 1, 4):
            assert _functional_enclosure_planted(k, j) == constants._functional_enclosure(
                k, j
            )


def _shuffle_order_planted(n, *, halve=True, strip_repeats=True):
    # the factorisation route with one of its parts changed: halve=False
    # gives the plain multiplicative order of 2 mod 2n-1, and
    # strip_repeats=False divides each prime out of phi(2n-1) at most once
    modulus = 2 * n - 1
    order = modulus
    for p in maps._prime_factors(modulus):
        order = order // p * (p - 1)
    for p in maps._prime_factors(order):
        while order % p == 0 and pow(2, order // p, modulus) == 1:
            order //= p
            if not strip_repeats:
                break
    if halve and order % 2 == 0 and pow(2, order // 2, modulus) == modulus - 1:
        order //= 2
    return order


def test_planted_order_without_a_change_is_the_order():
    for n in range(2, 3001):
        assert _shuffle_order_planted(n) == maps.milk_shuffle_order(n)


def _case(module, name, planted, suite, failure, *, id, k=2):
    # one planted bug, run on the alphabets up to k
    return pytest.param(module, name, planted, suite, failure, k, id=id)


@pytest.mark.parametrize(
    "module,name,planted,suite,failure,k",
    [
        _case(
            verify, "_milk_shuffle", _milk_shuffle_reading_one_letter_early,
            "bijection", "round trip failed at k=2", id="milk-shuffle",
        ),
        _case(
            verify, "milk_shuffle_order",
            lambda n: _shuffle_order_planted(n, halve=False),
            "bijection", "shuffle order mismatch at n=2", id="order-not-halved",
        ),
        # M = 51 = 3 * 17: phi = 32 keeps a 2 too many, the order is 8
        _case(
            verify, "milk_shuffle_order",
            lambda n: _shuffle_order_planted(n, strip_repeats=False),
            "bijection", "shuffle order mismatch at n=26", id="order-primes-stripped-once",
        ),
        _case(
            verify, "_adjacent_sum_preimages", _preimages_subtracting_the_first_letter,
            "g-map", "preimage does not map back at k=2", id="preimage-first-letter",
        ),
        _case(
            verify, "_adjacent_sum_preimages", _preimages_adding_the_previous_letter,
            "g-map", "preimage does not map back at k=3", id="preimage-adds-previous",
            k=3,
        ),
        _case(
            verify, "_border_set", _border_set_reading_one_letter_early,
            "lemmas", "long border without short border at k=2", id="border-set",
        ),
        _case(
            verify, "_shuffle", _shuffle_reading_the_second_track_backwards,
            "lemmas", "shuffle reversal law failed at k=2", id="shuffle-reversal",
        ),
        _case(
            recurrences, "no_pal_prefix_counts",
            _no_pal_prefix_counts_without_even_subtraction,
            "counts", "no-pal-prefix mismatch at k=2, n=4: census 2, recurrence 4",
            id="no-pal-prefix-recurrence",
        ),
        _case(
            verify, "_pal_prefix_lemma", _old_pal_prefix_lemma,
            "lemmas", "palindromic prefix lemma failed at k=2, p=(0, 0, 0), m=2",
            id="non-sharp-lemma",
        ),
        _case(
            constants, "_series_enclosure", _series_with_a_wider_tail,
            "constants", "series kernel differs from the Fraction sum at k=2, N=10",
            id="series-tail-widened",
        ),
        _case(
            constants, "_series_enclosure", _series_without_the_last_term,
            "constants", "series kernel differs from the Fraction sum at k=2, N=10",
            id="series-last-term-dropped",
        ),
        _case(
            verify, "_functional_enclosure",
            lambda k, j: _functional_enclosure_planted(k, j, sign=1),
            "constants",
            "functional-equation enclosure left the series enclosure at k=2, N=16, j=1",
            id="functional-c-sign-flipped",
        ),
        _case(
            verify, "_functional_enclosure",
            lambda k, j: _functional_enclosure_planted(k, j, quadratic=False),
            "constants",
            "functional-equation enclosure left the series enclosure at k=2, N=16, j=1",
            id="functional-quadratic-term-dropped",
        ),
        _case(
            verify, "_functional_enclosure",
            lambda k, j: _functional_enclosure_planted(k, j, tail_power=2),
            "constants", "functional-equation enclosure too wide at k=2, j=1",
            id="functional-tail-widened",
        ),
        _case(
            constants, "unbordered_counts", _unbordered_counts_shifted,
            "constants",
            "unbordered ratio strayed from its limit at k=2, n=32",
            id="gamma-counts-shifted",
        ),
        _case(
            constants, "unbordered_counts", _unbordered_counts_one_scaled,
            "constants",
            "unbordered ratio strayed from its limit at k=2, n=64",
            id="gamma-count-scaled",
        ),
        _case(
            verify, "unbordered_density_enclosure", _unbordered_tail_on_the_wrong_side,
            "constants", "unbordered enclosures failed to nest at k=2, N=10",
            id="gamma-tail-on-the-wrong-side",
        ),
    ],
)
def test_suite_catches_a_planted_bug(
    monkeypatch, module, name, planted, suite, failure, k
):
    [honest] = run_suites([suite], k_max=k, n_max=6)
    assert honest.passed, honest.failures
    monkeypatch.setattr(module, name, planted)
    [result] = run_suites([suite], k_max=k, n_max=6)
    assert not result.passed
    assert any(message.startswith(failure) for message in result.failures)
