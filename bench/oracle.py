"""Independent second routes for checking palcensus outputs.

Nothing here imports palcensus.  The scans are the textbook definitions over
plain symbol tuples; the recurrences are restated from the paper.  Both
make_reference.py (which writes the stored answers) and the benchmark's
checks use them, so a planted bug in palcensus cannot leak into its own
answer key.
"""

from __future__ import annotations

import hashlib
import itertools

FAMILIES = (
    "unbordered", "no-even-pp", "no-odd-pp", "no-pal-prefix",
    "no-square-prefix", "has-square-prefix", "min-square",
)
PROFILE_KINDS = ("borders", "even-pp", "odd-pp")


def is_pal(w, m):
    """True iff the length-m prefix of w is a palindrome."""
    return w[:m] == w[:m][::-1]


def profile_sets(w):
    """(short borders, even-pp orders, odd-pp orders, square half-lengths)."""
    n = len(w)
    return (
        frozenset(i for i in range(1, n // 2 + 1) if w[:i] == w[n - i:]),
        frozenset(i for i in range(1, n // 2 + 1) if is_pal(w, 2 * i)),
        frozenset(i for i in range(1, (n - 1) // 2 + 1) if is_pal(w, 2 * i + 1)),
        frozenset(j for j in range(1, n // 2 + 1) if w[:j] == w[j:2 * j]),
    )


def set_key(found) -> str:
    """Text key of a profile set: sorted indices, comma-separated."""
    return ",".join(map(str, sorted(found)))


def family_member(w, family) -> bool:
    n = len(w)
    if family == "unbordered":
        return not any(w[:i] == w[n - i:] for i in range(1, n))
    if family == "no-even-pp":
        return not any(is_pal(w, m) for m in range(2, n + 1, 2))
    if family == "no-odd-pp":
        return not any(is_pal(w, m) for m in range(3, n + 1, 2))
    if family == "no-pal-prefix":
        return not any(is_pal(w, m) for m in range(2, n + 1))
    if family == "min-square":
        ww = w + w
        return not any(ww[:j] == ww[j:2 * j] for j in range(1, n))
    square = any(w[:j] == w[j:2 * j] for j in range(1, n // 2 + 1))
    return square if family == "has-square-prefix" else not square


def words(k, n):
    return itertools.product(range(k), repeat=n)


def unbordered_rec(k, N):
    """u(1..N): u(2m+1) = k u(2m), u(2m) = k u(2m-1) - u(m)."""
    u = [1, k, k * k - k]
    for m in range(3, N + 1):
        u.append(k * u[m - 1] - (u[m // 2] if m % 2 == 0 else 0))
    return u[1:N + 1]


def no_pal_prefix_rec(k, N):
    """c(1..N): c(m) = k c(m-1) - c(ceil(m/2)) for m >= 3."""
    c = [1, k, k * k - k]
    for m in range(3, N + 1):
        c.append(k * c[m - 1] - c[(m + 1) // 2])
    return c[1:N + 1]


def sequence_digest(values) -> str:
    """sha256 over the hexadecimal forms (no decimal-conversion limit)."""
    return hashlib.sha256("\n".join(map(hex, values)).encode()).hexdigest()


def milk_shuffle(w):
    """First half interleaved with the reversed second half; an odd word's
    middle letter goes last."""
    half = len(w) // 2
    first, second = w[:half], w[len(w) - half:][::-1]
    out = tuple(s for pair in zip(first, second) for s in pair)
    return out + (w[half:half + 1] if len(w) % 2 else ())


def adjacent_sums(w, k):
    return tuple((a + b) % k for a, b in zip(w, w[1:]))


def shuffle_order(n):
    """A003558(n): least m >= 1 with 2**m = +-1 mod 2n+1."""
    modulus = 2 * n + 1
    if modulus == 1:
        return 1
    m, power = 1, 2 % modulus
    while power not in (1, modulus - 1):
        power = power * 2 % modulus
        m += 1
    return m


def parse_digits(text):
    return tuple(int(c) for c in text)


def format_digits(w):
    return "".join(map(str, w))
