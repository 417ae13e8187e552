"""Structure-revealing maps on words.

The milk shuffle interleaves the first half of a word with the reversed
second half; it is a bijection on each length and turns border lengths into
even palindromic-prefix orders.  The adjacent-sum map compresses a word to
the mod-k sums of neighbouring symbols; it is exactly k-to-1 and turns odd
palindromic-prefix orders into even ones.  The milk shuffle viewed as a
permutation of positions is the classic card-table shuffle whose order obeys
a power-of-two congruence.
"""

from __future__ import annotations

import math

from .words import Word, _Record, _shuffle, _unshuffle

# milk_shuffle_order's largest n: up to it the two trial divisions take at
# most 0.25 s on a 2-CPU x86-64 box (2n-1 and n-1 prime); past it they can
# run for seconds to minutes (n = 2**57 + 1 took 7 s)
MAX_SHUFFLE_N = 10**12


def _milk_shuffle(w: tuple[int, ...]) -> tuple[int, ...]:
    n = len(w)
    half = n // 2
    # the middle letter w[half:n - half] is empty at even n
    return _shuffle(w[:half], w[n - half:][::-1]) + w[half:n - half]


def _milk_unshuffle(w: tuple[int, ...]) -> tuple[int, ...]:
    even = len(w) - len(w) % 2
    y, zr = _unshuffle(w[:even])
    return y + w[even:] + zr[::-1]


def milk_shuffle(w: Word) -> Word:
    """Interleave the first half with the reversed second half; the middle
    letter of an odd-length word moves to the end.

    Sends "preserve" to "perverse" and "cider" to "cried".  Bijective on the
    words of each fixed length; the output length equals the input length.
    """
    return Word(w.k, _milk_shuffle(w.symbols))


def milk_unshuffle(w: Word) -> Word:
    """The inverse of milk_shuffle."""
    return Word(w.k, _milk_unshuffle(w.symbols))


class Permutation(_Record):
    """A permutation of positions 1..n.

    images[j-1] is the input position whose symbol lands at output position j.
    """

    __slots__ = ("images",)
    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        seen = bytearray(n + 1)  # a byte a position, not sorted lists of n ints
        if min(self.images, default=1) >= 1 and max(self.images, default=0) <= n:
            for i in self.images:
                seen[i] = 1
        if seen.count(1) != n:  # n images in 1..n mark all n iff distinct
            raise ValueError(f"not a permutation of 1..{n}: {self.images}")

    @property
    def n(self) -> int:
        return len(self.images)


def milk_shuffle_permutation(n: int) -> Permutation:
    """The positional permutation realising the milk shuffle on length n.

    Derived by shuffling the identity position word, so it agrees with
    milk_shuffle by construction.  For n = 7 the images are
    (1, 7, 2, 6, 3, 5, 4).
    """
    if n < 1:
        raise ValueError(f"permutation size must be at least 1, got {n}")
    return Permutation(_milk_shuffle(tuple(range(1, n + 1))))


def permutation_order(p: Permutation) -> int:
    """Least m >= 1 with the m-fold composition equal to the identity,
    computed as the lcm of the cycle lengths."""
    images = p.images
    n = len(images)
    seen = [False] * n
    lengths = []
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = images[j] - 1
            length += 1
        lengths.append(length)
    return math.lcm(*lengths) if lengths else 1


def _prime_factors(x: int) -> list[int]:
    """The distinct prime factors of x >= 1, by trial division."""
    primes = []
    p, step = 2, 1
    while p * p <= x:
        if x % p == 0:
            primes.append(p)
            while x % p == 0:
                x //= p
        p, step = p + step, 2
    return primes + [x] if x > 1 else primes


def milk_shuffle_order(n: int) -> int:
    """Least m >= 1 with 2**m congruent to +1 or -1 mod 2n-1.

    This closed characterisation equals permutation_order of the length-n
    milk shuffle for every n >= 2.  The n = 1 shuffle is the identity and is
    handled by permutation_order directly; the modulus 2n-1 = 1 makes the
    congruence degenerate there, so this function requires n >= 2.

    Computed from the factorisation of M = 2n-1: Euler's phi(M) loses each
    prime p while 2**(order/p) is still 1 mod M, and the order of 2 left is
    halved when 2**(order/2) is -1.  The two trial divisions run up to about
    sqrt(2n), so n must be at most MAX_SHUFFLE_N.
    """
    if n < 2:
        raise ValueError(f"milk shuffle order characterisation needs n >= 2, got {n}")
    if n > MAX_SHUFFLE_N:
        raise ValueError(f"milk shuffle order needs n <= {MAX_SHUFFLE_N}, got {n}")
    modulus = 2 * n - 1
    order = modulus
    for p in _prime_factors(modulus):
        order = order // p * (p - 1)
    for p in _prime_factors(order):
        while order % p == 0 and pow(2, order // p, modulus) == 1:
            order //= p
    if order % 2 == 0 and pow(2, order // 2, modulus) == modulus - 1:
        order //= 2
    return order


def _adjacent_sums(w: tuple[int, ...], k: int) -> tuple[int, ...]:
    return tuple((w[i] + w[i + 1]) % k for i in range(len(w) - 1))


def adjacent_sum_map(w: Word) -> Word:
    """Map a nonempty word to the mod-k sums of adjacent symbols.

    The output is one symbol shorter; each word has exactly k preimages.
    """
    if len(w) == 0:
        raise ValueError("adjacent-sum map needs a nonempty word")
    return Word(w.k, _adjacent_sums(w.symbols, w.k))


def _adjacent_sum_preimages(x: tuple[int, ...], k: int) -> list[tuple[int, ...]]:
    preimages = []
    for first in range(k):
        symbols = [first]
        for s in x:
            symbols.append((s - symbols[-1]) % k)
        preimages.append(tuple(symbols))
    return preimages


def adjacent_sum_preimages(x: Word) -> list[Word]:
    """The k words mapping to x under adjacent_sum_map, ordered by first symbol.

    Fixing the first symbol determines the rest: each next symbol is the
    current target symbol minus the previous one, mod k.
    """
    preimages = _adjacent_sum_preimages(x.symbols, x.k)
    return [Word(x.k, w) for w in preimages]
