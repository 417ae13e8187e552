"""The cross-checking suites must fail on planted bugs, not only pass."""

import itertools
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from palcensus import census, constants, maps, recurrences, verify
from palcensus.census import DEFAULT_BUDGET, Family, ProfileKind
from palcensus.constants import Enclosure
from palcensus.recurrences import CountSeq
from palcensus.verify import run_suites, suite_counts
from palcensus.words import _shuffle


def test_counts_suite_passes():
    result = suite_counts(3, 7, DEFAULT_BUDGET)
    assert result.passed, result.failures


def test_constants_suite_keeps_the_census_within_the_budget(monkeypatch):
    # the gamma rate check reads unbordered counts, whose census self-check
    # must stop at the suite's budget like every other census call
    monkeypatch.setattr(census, "_memo", {})
    [result] = run_suites(["constants"], k_max=3, n_max=9, budget=100)
    assert result.passed, result.failures
    assert max(k ** n for k, n, *_ in census._memo) <= 100


@pytest.mark.parametrize("budget", [2, 4, 9, 16, 24])
def test_constants_suite_passes_at_small_budgets(budget):
    # a square-density bound needs counts past depth 1, where the with-square
    # enclosure's top equals the bound 1/(k-1); below that it is skipped
    [result] = run_suites(["constants"], k_max=3, n_max=9, budget=budget)
    assert result.passed, result.failures


@pytest.mark.parametrize(
    "name,options",
    [
        ("counts", {"k_max": 1}),
        ("recurrences", {"k_max": 1}),
        ("lemmas", {"k_max": 1}),
        ("counts", {"budget": 1}),
        ("counts", {"n_max": 0}),
    ],
)
def test_a_suite_that_runs_no_check_fails(name, options):
    # the suite itself, since run_suites refuses bounds below k=2 or n=1
    bounds = {"k_max": 3, "n_max": 10, "budget": DEFAULT_BUDGET} | options
    result = verify.SUITES[name](bounds["k_max"], bounds["n_max"], bounds["budget"])
    assert (result.checks, result.failures, result.passed) == (0, [], False)


@pytest.mark.parametrize(
    "options", [{"k_max": 1}, {"k_max": 0}, {"n_max": 0}, {"n_max": -3}],
)
def test_run_suites_refuses_bounds_that_scan_no_word(monkeypatch, options):
    def not_run(*args):
        raise AssertionError("a suite ran")

    [(name, value)] = options.items()
    bound = "lie in 2..120" if name == "k_max" else "be at least 1"
    message = f"--{name.replace('_', '-')} must {bound}, got {value}"
    monkeypatch.setattr(verify, "SUITES", dict.fromkeys(verify.SUITES, not_run))
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        run_suites(list(verify.SUITES), **options)


def test_the_default_budget_bounds_every_suite_in_a_fresh_process():
    # the naive word scans run about a thousand times slower per word than
    # the census: at the census budget of 2**26, lemmas alone ran past 60 s
    src = str(Path(verify.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    script = ("from palcensus.verify import SUITES, run_suites\n"
              "results = run_suites(list(SUITES), k_max=2, n_max=40)\n"
              "assert all(result.passed for result in results)\n")
    subprocess.run([sys.executable, "-c", script], env=env, timeout=30, check=True)


@pytest.mark.parametrize("budget", [1, 0, -2])
def test_run_suites_refuses_a_budget_below_two(monkeypatch, budget):
    def not_run(*args):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(verify, "SUITES", dict.fromkeys(verify.SUITES, not_run))
    with pytest.raises(ValueError, match="--budget must be at least 2, got"):
        run_suites(list(verify.SUITES), budget=budget)


def _listed_by_bijection(monkeypatch, k_max, n_max):
    calls = []

    def recorded(k, n, *args, **options):
        calls.append((k, n))
        return census.list_profile(k, n, *args, **options)

    monkeypatch.setattr(verify, "list_profile", recorded)
    result = verify.suite_bijection(k_max, n_max, DEFAULT_BUDGET)
    assert result.passed, result.failures
    return sorted(set(calls))


def test_bijection_lists_at_most_3_to_the_8_words(monkeypatch):
    # a listed word holds about 300 bytes: 9**8 of them would need gigabytes;
    # each k lists at its longest length up to 8 within 3**8 words
    listed = _listed_by_bijection(monkeypatch, 5, 8)
    assert listed == [(2, 8), (3, 8), (4, 6), (5, 5)]
    assert all(k ** n <= 3 ** 8 for k, n in listed)


def test_bijection_lists_images_at_every_k(monkeypatch):
    # k = 4 and 5 list shorter words rather than none (4**7 and 5**7 > 3**8)
    assert _listed_by_bijection(monkeypatch, 5, 7) == [(2, 7), (3, 7), (4, 6), (5, 5)]


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
    monkeypatch.setattr(census, "_memo", {})
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
    while length < n and len(prefixes) < count:
        length += 1
        prefixes = [w for w, _ in verify._words_up_to_renaming(k, length)]
    return [(w, weight(k, len(set(w)))) for w in prefixes]


def _dead_at(lengths):
    return lambda m, w: m in lengths and w[0] == w[m - 1]


def test_planted_renaming_walk_without_a_change_is_the_walk():
    for k in range(2, 6):
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
    # walk or masks, so only the census sees the plant.  The blocks are
    # pinned to the reference classes, since the census takes them from its
    # walk: a walk plant then reaches only the walk below the blocks
    def run_fresh():
        monkeypatch.setattr(census, "_memo", {})
        return suite_counts(3, 7, DEFAULT_BUDGET)

    monkeypatch.setattr(census, "_canonical_blocks", _canonical_blocks_planted)
    monkeypatch.setattr(census, name, unchanged)
    honest = run_fresh()
    assert honest.passed, honest.failures
    monkeypatch.setattr(census, name, planted)
    # the unbordered recurrence checks itself against the census on every
    # call, so it sees the plant first; silenced, the naive filter must
    with pytest.raises(census.CheckFailure, match="unbordered recurrence disagrees"):
        run_fresh()
    monkeypatch.setattr(recurrences, "_validate_unbordered", lambda k, budget: None)
    result = run_fresh()
    assert not result.passed
    assert result.failures[0] == failure


def test_counts_suite_catches_a_walk_plant_in_the_blocks(monkeypatch):
    # unpinned, the walk also makes the blocks: at n = 1 the one block (0,)
    # weighs 1, not k
    monkeypatch.setattr(census, "_memo", {})
    monkeypatch.setattr(census, "_walk", lambda *args: _walk_planted(*args, new_weight=False))
    monkeypatch.setattr(recurrences, "_validate_unbordered", lambda k, budget: None)
    result = suite_counts(3, 7, DEFAULT_BUDGET)
    assert result.failures[0] == "unbordered mismatch at k=2, n=1: census 1, naive filter 2"


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
    return CountSeq(k, Family.NO_PAL_PREFIX, tuple(values.values()))


def _no_pal_prefix_counts_from_a_wrong_start(k, N):
    # the doubling recurrence started from count(1) = k - 1: every identity
    # between lengths still holds, only the telescoped sum reads count(1)
    values = [k - 1]
    for m in range(2, N + 1):
        values.append(k * values[-1] - values[(m + 1) // 2 - 1])
    return CountSeq(k, Family.NO_PAL_PREFIX, tuple(values))


def _differences(w, k):
    # each next letter minus the one before, where the map adds them; at
    # k = 2 the two agree
    return tuple((w[i + 1] - w[i]) % k for i in range(len(w) - 1))


def _preimages_without_the_first(x, k):
    # each listed preimage maps back, but the one starting with 0 is dropped
    return maps._adjacent_sum_preimages(x, k)[1:]


def _density_series_at_one_over_k(k, x, N):
    # the series summed at 1/k whatever x is asked for: right at 1/k only
    return constants.density_series(k, Fraction(1, k), N)


def _pal_free_limit_off_by_one(k, N):
    # D(1/k) scaled by k/(k+1), so that the limit 2 - (k + 1) * D(1/k) the tail
    # control reads is 2 - k * D(1/k)
    series = constants.density_series_enclosure(k, N)
    return Enclosure(k * series.low, k * series.high, (k + 1) * series.denominator)


def _unshuffle_reading_the_second_track_backwards(x):
    return x[0::2], x[1::2][::-1]


def _even_pp_set_from_order_two(w):
    # even palindromic prefixes should be looked for from order 1 (length 2),
    # so palindromic prefixes are now found from length 3 only
    return frozenset(
        i for i in range(2, len(w) // 2 + 1) if w[:2 * i] == w[2 * i - 1::-1]
    )


_honest_even_pp_set, _honest_odd_pp_set = verify._even_pp_set, verify._odd_pp_set
_honest_words_up_to_renaming = verify._words_up_to_renaming


def _classes_without_a_third_letter(k, n):
    # the class generator that never introduces letter 2: at k = 3 every
    # class that uses all three letters goes missing, while each word it
    # still yields passes every position check
    return ((w, size) for w, size in _honest_words_up_to_renaming(k, n) if 2 not in w)


def _old_pal_prefix_lemma(p, m):
    # "has a nontrivial palindromic prefix shorter than half", whatever m is
    return any(p[:j] == p[j - 1::-1] for j in range(2, len(p)) if 2 * j < len(p))


_honest_series_enclosure = constants._series_enclosure


def _series_with_a_wider_tail(k, counts, N):
    # a valid but k times looser enclosure: it still nests and still holds
    # the closed form, so only the comparison with the reference sees it
    honest = _honest_series_enclosure(k, counts, N)
    return Enclosure(honest.low, honest.low + k * (honest.high - honest.low), honest.denominator)


def _series_without_the_last_term(k, counts, N):
    numerator = 0
    for count in itertools.islice(counts, N - 1):
        numerator = numerator * k * k + count
    # numerator / k**(2N - 2) plus the tail 1 / ((k-1) k**N), over (k-1) k**(2N)
    low = numerator * (k - 1) * k * k
    return Enclosure(low, low + k ** N, (k - 1) * k ** (2 * N))


_honest_doubling = recurrences._doubling


def _unbordered_stream_changed(change):
    # the kernel as constants calls it, with change(counts) applied to the
    # unbordered stream, which in constants only gamma's series reference
    # reads
    def doubling(k, N, back):
        counts = _honest_doubling(k, N, back)
        return change(counts) if back is recurrences._unbordered_back else counts

    return doubling


def _counts_shifted(counts):
    # each count past n = 14 is read one index early
    previous = None
    for n, count in enumerate(counts, 1):
        yield previous if n > 14 else count
        previous = count


def _count_doubled_at_20(counts):
    # the count at n = 20 is twice too large
    for n, count in enumerate(counts, 1):
        yield 2 * count if n == 20 else count


_honest_unbordered_density_enclosure = constants.unbordered_density_enclosure


def _unbordered_tail_on_the_wrong_side(k, N):
    # gamma lies at most the tail below 1 minus the partial sum, not above
    honest = _honest_unbordered_density_enclosure(k, N)
    return Enclosure(honest.high, 2 * honest.high - honest.low, honest.denominator)


_honest_family_counts = recurrences.family_counts


def _count_raised(raised_family, at, by):
    # family_counts with the count at `at` of one family at k = 2 raised by `by`
    def family_counts(k, N, family, **options):
        counts = _honest_family_counts(k, N, family, **options)
        if family is not raised_family or k != 2:
            return counts
        raised = tuple(count + (n == at) * by for n, count in enumerate(counts.values, 1))
        return CountSeq(k, family, raised)

    return family_counts


def _min_square_counts_doubled(k, n, **options):
    # every minimal-square count at k = 2 doubled
    counts = recurrences.min_square_counts(k, n, **options)
    if k != 2:
        return counts
    return CountSeq(k, counts.family, tuple(2 * c for c in counts.values))


def _square_prefix_counts_without_one_subtraction(k, N, min_square):
    # the parity recurrence with its subtraction dropped at n = 6
    free = tuple(recurrences._doubling(
        k, N, lambda m, kept: 0 if m % 2 or m == 6 else min_square[m // 2]
    ))
    has = tuple(k ** n - count for n, count in enumerate(free, 1))
    return (
        CountSeq(k, Family.NO_SQUARE_PREFIX, free),
        CountSeq(k, Family.HAS_SQUARE_PREFIX, has),
    )


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
    return Enclosure(low, high, denominator)


def _nielsen_enclosure_planted(
    k, j, *, reciprocal=True, wide_tail=False, offset=lambda p: 2 * p
):
    # Nielsen's stepper with one of its parts changed: reciprocal=False drops
    # the 1/p term of the starting enclosure, wide_tail=True bounds its tail
    # by 1/(p-1) in place of 1/(p(p-1)), offset=lambda p: 2 steps with 2 in
    # place of 2p
    u = constants._stepped(
        k, j,
        lambda p: (p * (p - 1) + reciprocal * (p - 1), p if wide_tail else 1, p * (p - 1)),
        lambda p: (offset(p), p),
    )
    return u.complement(2)


def _h_enclosure_planted(k, j, *, scale=lambda k: (k - 2, k - 1)):
    # h = (2 - ρ) / (k+1) with ρ = (b/c) γ, (b, c) = scale(k): (k-2, k-1) is the
    # proved identity
    b, c = scale(k)
    return constants._nielsen_enclosure(k, j).complement(2 * c, b, c * (k + 1))


def _count_identity_with_coefficient_k(k, n, p, u):
    return k * p[n] == (k - 2) * u[n] + p[n // 2 + 1]


def _count_identity_at_half_rounded_up(k, n, p, u):
    # p(ceil(n/2)) in place of p(n//2 + 1): at k = 2 both sides read the
    # constant binary count 2, so only k >= 3 can show it
    return (k - 1) * p[n] == (k - 2) * u[n] + p[(n + 1) // 2]


def _no_pal_prefix_back_one_index_late(m, kept):
    # the back term of m - 1, p(ceil((m-1)/2)), in place of p(ceil(m/2)): it
    # differs at odd m, and not at k = 2, where every p(m) is 2
    return kept[m // 2]


def test_planted_engine_without_a_change_is_the_engine():
    for k in (2, 3, 5):
        for j in (0, 1, 4):
            assert _functional_enclosure_planted(k, j) == constants._functional_enclosure(
                k, j
            )
            assert _nielsen_enclosure_planted(k, j) == constants._nielsen_enclosure(k, j)
            assert _h_enclosure_planted(k, j) == constants._h_enclosure(k, j)


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
            verify, "_words_up_to_renaming", _classes_without_a_third_letter,
            "bijection", "renaming classes cover 21 of the 27 words at k=3, n=3",
            id="classes-without-a-third-letter-bijection", k=3,
        ),
        # the lemmas scan classes of even length first
        _case(
            verify, "_words_up_to_renaming", _classes_without_a_third_letter,
            "lemmas", "renaming classes cover 45 of the 81 words at k=3, n=4",
            id="classes-without-a-third-letter-lemmas", k=3,
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
        # γ's stepper reads no part of D's: the γ-derived h leaves D's enclosure
        _case(
            verify, "_functional_enclosure",
            lambda k, j: _functional_enclosure_planted(k, j, quadratic=False),
            "constants", "gamma-derived h left D's enclosure at k=2, j=1",
            id="functional-quadratic-term-dropped-against-gamma",
        ),
        # (k-1)/(k-2) has no value at k = 2, where ρ = 0 is kept
        _case(
            verify, "_h_enclosure",
            lambda k, j: _h_enclosure_planted(
                k, j, scale=lambda k: (k - 1, k - 2) if k > 2 else (0, 1)),
            "constants", "gamma-derived h enclosure left the series enclosure at k=3, N=16, j=1",
            id="gamma-derived-h-scale-inverted", k=3,
        ),
        _case(
            verify, "_h_enclosure",
            lambda k, j: _h_enclosure_planted(k, j, scale=lambda k: (k - 2, k)),
            "constants", "gamma-derived h left D's enclosure at k=3, j=1",
            id="gamma-derived-h-coefficient-k", k=3,
        ),
        _case(
            verify, "_count_identity", _count_identity_with_coefficient_k,
            "counts", "count identity failed on the census at k=2, n=1",
            id="count-identity-coefficient-k",
        ),
        _case(
            verify, "_count_identity", _count_identity_at_half_rounded_up,
            "counts", "count identity failed on the recurrences at k=3, n=2",
            id="count-identity-half-rounded-up", k=3,
        ),
        _case(
            recurrences, "_no_pal_prefix_back", _no_pal_prefix_back_one_index_late,
            "counts", "count identity failed on the recurrences at k=3, n=3",
            id="no-pal-prefix-back-term-late", k=3,
        ),
        _case(
            verify, "_functional_enclosure",
            lambda k, j: _functional_enclosure_planted(k, j, tail_power=2),
            "constants", "functional-equation enclosure too wide at k=2, j=1",
            id="functional-tail-widened",
        ),
        # the series reference reads the changed counts, the stepper none
        _case(
            constants, "_doubling", _unbordered_stream_changed(_counts_shifted),
            "constants",
            "Nielsen-equation enclosure left the series enclosure at k=2, N=64, j=3",
            id="gamma-counts-shifted",
        ),
        _case(
            constants, "_doubling", _unbordered_stream_changed(_count_doubled_at_20),
            "constants",
            "Nielsen-equation enclosure left the series enclosure at k=2, N=64, j=3",
            id="gamma-count-scaled",
        ),
        # u(32)/2**32 - gamma grows by 2**-17 to about 0.77 * 2**-16: inside
        # the one-sided bound 2**-16, far above the two-sided one, about
        # 0.27 * 2**-16
        _case(
            verify, "family_counts", _count_raised(Family.UNBORDERED, 32, 2 ** 15),
            "constants",
            "unbordered ratio strayed from its limit at k=2, n=32",
            id="gamma-count-raised-at-32",
        ),
        # n = 40 lies between the powers of two the rate check once read
        _case(
            verify, "family_counts", _count_raised(Family.UNBORDERED, 40, 2 ** 20),
            "constants",
            "unbordered ratio strayed from its limit at k=2, n=40",
            id="gamma-count-raised-at-40",
        ),
        _case(
            verify, "_nielsen_enclosure",
            lambda k, j: _nielsen_enclosure_planted(k, j, reciprocal=False),
            "constants",
            "Nielsen-equation enclosure left the series enclosure at k=2, N=16, j=1",
            id="nielsen-reciprocal-term-dropped",
        ),
        _case(
            verify, "_nielsen_enclosure",
            lambda k, j: _nielsen_enclosure_planted(k, j, wide_tail=True),
            "constants", "Nielsen-equation enclosure too wide at k=2, j=1",
            id="nielsen-tail-widened",
        ),
        _case(
            verify, "_nielsen_enclosure",
            lambda k, j: _nielsen_enclosure_planted(k, j, offset=lambda p: 2),
            "constants",
            "Nielsen-equation enclosure left the series enclosure at k=2, N=16, j=1",
            id="nielsen-step-offset-2-not-2p",
        ),
        _case(
            recurrences, "square_prefix_counts",
            _square_prefix_counts_without_one_subtraction,
            "counts", "no-square-prefix mismatch at k=2, n=6",
            id="square-subtraction-dropped-counts",
        ),
        _case(
            recurrences, "square_prefix_counts",
            _square_prefix_counts_without_one_subtraction,
            "recurrences", "square-prefix convolution failed at k=2, n=6",
            id="square-subtraction-dropped-recurrences",
        ),
        _case(
            verify, "min_square_counts", _min_square_counts_doubled,
            "constants", "with-square density bound failed at k=2",
            id="min-square-counts-doubled",
        ),
        _case(
            verify, "unbordered_density_enclosure", _unbordered_tail_on_the_wrong_side,
            "constants", "unbordered enclosures failed to nest at k=2, N=10",
            id="gamma-tail-on-the-wrong-side",
        ),
        # the borders profile counted from the odd palindromic prefixes
        _case(
            census, "_KIND_FAMILY",
            {**census._KIND_FAMILY, ProfileKind.SHORT_BORDERS: Family.NO_ODD_PP},
            "bijection", "profile censuses disagree at k=2, n=2",
            id="borders-profile-from-odd-patterns",
        ),
        _case(
            verify, "_adjacent_sums", _differences,
            "g-map", "order correspondence failed at k=3", id="adjacent-differences", k=3,
        ),
        _case(
            verify, "_adjacent_sum_preimages", _preimages_without_the_first,
            "g-map", "expected 2 distinct preimages at k=2", id="preimage-dropped",
        ),
        _case(
            recurrences, "no_pal_prefix_counts",
            _no_pal_prefix_counts_without_even_subtraction,
            "recurrences", "halving ratio identity failed at k=2, n=2",
            id="no-pal-prefix-halving",
        ),
        _case(
            recurrences, "no_pal_prefix_counts", _no_pal_prefix_counts_from_a_wrong_start,
            "recurrences", "telescoped identity failed at k=2, n=1",
            id="no-pal-prefix-telescoped",
        ),
        # c(3) = 6 raised past 2**3; the convolution fails at n = 6 only
        _case(
            verify, "family_counts", _count_raised(Family.MIN_SQUARE, 3, 2 ** 3),
            "recurrences", "min-square count out of range at k=2, i=3",
            id="min-square-count-out-of-range",
        ),
        _case(
            verify, "density_series", _density_series_at_one_over_k,
            "constants", "functional equation enclosures disjoint at k=2",
            id="series-argument-ignored",
        ),
        _case(
            verify, "density_series_enclosure", _pal_free_limit_off_by_one,
            "constants", "ratio strayed from the limiting density at k=2, n=4",
            id="pal-free-limit-off-by-one",
        ),
        _case(
            verify, "_unshuffle", _unshuffle_reading_the_second_track_backwards,
            "lemmas", "shuffle-palindrome splitting failed at k=2, x=(0, 1, 1, 0)",
            id="unshuffle-reversed",
        ),
        _case(
            verify, "_even_pp_set", _even_pp_set_from_order_two,
            "lemmas", "reflection equivalence failed at k=2", id="pal-prefix-from-three",
        ),
    ],
)
def test_suite_catches_a_planted_bug(
    monkeypatch, module, name, planted, suite, failure, k
):
    [honest] = run_suites([suite], k_max=k, n_max=6)
    assert honest.passed, honest.failures
    monkeypatch.setattr(module, name, planted)
    # the census memo would still answer with the honest counts
    monkeypatch.setattr(census, "_memo", {})
    [result] = run_suites([suite], k_max=k, n_max=6)
    assert not result.passed
    assert any(message.startswith(failure) for message in result.failures)


def test_g_map_catches_swapped_parity_scans(monkeypatch):
    # the even-to-odd analogue then holds on every word; at n = 2 the order
    # correspondence fails only at 00 and 11
    monkeypatch.setattr(verify, "_even_pp_set", _honest_odd_pp_set)
    monkeypatch.setattr(verify, "_odd_pp_set", _honest_even_pp_set)
    [result] = run_suites(["g-map"], k_max=2, n_max=2)
    assert result.failures == [
        "order correspondence failed at k=2, w=(0, 0)",
        "order correspondence failed at k=2, w=(1, 1)",
        "even-to-odd analogue unexpectedly held on all short binary words",
    ]


def test_each_failed_check_reports_its_first_failure(monkeypatch):
    # up to n = 6 the order correspondence fails at many words before the
    # analogue is tried; the analogue's line must still show, in its place
    monkeypatch.setattr(verify, "_even_pp_set", _honest_odd_pp_set)
    monkeypatch.setattr(verify, "_odd_pp_set", _honest_even_pp_set)
    [result] = run_suites(["g-map"], k_max=2, n_max=6)
    assert result.failures == [
        "order correspondence failed at k=2, w=(0, 0)",
        "order correspondence failed at k=2, w=(1, 1)",
        "order correspondence failed at k=2, w=(0, 0, 0)",
        "order correspondence failed at k=2, w=(0, 0, 1)",
        "even-to-odd analogue unexpectedly held on all short binary words",
        "... further failures suppressed",
    ]


def test_reported_failures_keep_their_order_and_the_cap():
    result = verify.SuiteResult("demo")
    result.checks = 9
    for n in range(7):
        result.fail(f"first check failed at n={n}")
    for name in ("second", "third", "fourth", "fifth", "sixth"):
        result.fail(f"{name} check failed at n=0")
    assert not result.passed
    assert result.failures == [
        "first check failed at n=0",
        "second check failed at n=0",
        "third check failed at n=0",
        "fourth check failed at n=0",
        "fifth check failed at n=0",
        "... further failures suppressed",
    ]
