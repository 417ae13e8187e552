"""Regenerate bench/reference.json, the benchmark's independent answer key.

Run from the repository root:

    python3 bench/make_reference.py

Nothing here imports palcensus.  Every value comes from this file and
oracle.py: a brute-force scan of all words, integer recurrences, and exact
integer series for the constants.  Each recurrence is cross-checked against the
brute force over the range the scan covers before anything is written, and
the file records, key by key, which route produced each value.  The binary
sequences carry the OEIS numbers whose definitions they match; the terms
were computed here, not downloaded from OEIS.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from oracle import (
    FAMILIES,
    PROFILE_KINDS,
    family_member,
    no_pal_prefix_rec,
    profile_sets,
    sequence_digest,
    set_key,
    shuffle_order,
    unbordered_rec,
    words,
)

OUT = Path(__file__).resolve().parent / "reference.json"

# brute-force ranges: every (k, n) the benchmark queries by enumeration
BRUTE_MAX = {2: 19, 3: 12, 4: 9}
BINARY_MAX = 40          # longest binary count prefix stored
BINARY_MIN_SQUARE_MAX = 20
DIGITS = 1100            # decimal places of each constant
SERIES_N = 20_000        # length of the hashed k=3 sequences
SHUFFLE_ORDERS = 5000    # A003558 terms, offsets 0..4999
PROFILE_LENGTHS = (4, 5, 6, 7, 8, 9, 10, 14, 16)


# ---------------------------------------------------------------------------
# brute force


def brute_counts(k, n_max, families=FAMILIES, n_min=1):
    counts = {f: [] for f in families}
    for n in range(n_min, n_max + 1):
        tally = dict.fromkeys(families, 0)
        for w in words(k, n):
            for f in families:
                if family_member(w, f):
                    tally[f] += 1
        for f in families:
            counts[f].append(tally[f])
        print(f"  brute k={k} n={n}", file=sys.stderr)
    return counts


def profile_distribution(k, n):
    tallies = ({}, {}, {})
    for w in words(k, n):
        for tally, found in zip(tallies, profile_sets(w)):
            key = set_key(found)
            tally[key] = tally.get(key, 0) + 1
    return dict(zip(PROFILE_KINDS, tallies))


# ---------------------------------------------------------------------------
# recurrences


def no_odd_pp_rec(k, N):
    u = [1] + unbordered_rec(k, N)
    return [u[n] if n % 2 else k * u[n - 1] for n in range(1, N + 1)]


def square_prefix_rec(k, N, min_square):
    has = [
        sum(min_square[i - 1] * k ** (n - 2 * i) for i in range(1, n // 2 + 1))
        for n in range(1, N + 1)
    ]
    return [k ** n - h for n, h in enumerate(has, 1)], has


def recurrence_counts(k, N, min_square):
    free, has = square_prefix_rec(k, N, min_square)
    u = unbordered_rec(k, N)
    return {
        "unbordered": u,
        "no-even-pp": list(u),
        "no-odd-pp": no_odd_pp_rec(k, N),
        "no-pal-prefix": no_pal_prefix_rec(k, N),
        "no-square-prefix": free,
        "has-square-prefix": has,
    }


# ---------------------------------------------------------------------------
# constants as exact integer series


def truncate(x: Fraction, digits: int) -> str:
    whole, rest = divmod(x.numerator * 10 ** digits // x.denominator, 10 ** digits)
    return f"{whole}.{rest:0{digits}d}"


def agreed(lower: Fraction, upper: Fraction, digits: int) -> str:
    """The longest common prefix of the two bounds' truncations: digits that
    every value in [lower, upper] shares."""
    a, b = truncate(lower, digits), truncate(upper, digits)
    common = 0
    while common < len(a) and a[common] == b[common]:
        common += 1
    return a[:common]


def density_series(k, digits):
    """D(1/k) = sum of c(n) / k**(2n), bracketed by the tail bound
    k**-N / (k-1) (each ratio c(n)/k**n lies in [0, 1])."""
    N = 16
    while Fraction(1, k ** N * (k - 1)) * 10 ** (digits + 10) > 1:
        N += 16
    c = no_pal_prefix_rec(k, N)
    numerator = 0
    for value in c:                      # Horner over the denominator k**(2N)
        numerator = numerator * k * k + value
    lower = Fraction(numerator, k ** (2 * N))
    return lower, lower + Fraction(1, k ** N * (k - 1))


def gamma_bounds(k, m):
    """gamma lies in [r(2m) - k**-m/(k-1), r(2m)] with r(j) = u(j)/k**j."""
    u = unbordered_rec(k, 2 * m)
    r = Fraction(u[-1], k ** (2 * m))
    return r - Fraction(1, k ** m * (k - 1)), r


def shuffle_order_by_cycles(n):
    """Order of the milk-shuffle permutation on n + 1 positions, by cycles."""
    size = n + 1
    half = size // 2
    positions = list(range(size))
    first, second = positions[:half], positions[size - half:][::-1]
    image = [p for pair in zip(first, second) for p in pair]
    if size % 2:
        image.append(positions[half])
    seen, order = [False] * size, 1
    for start in range(size):
        length, j = 0, start
        while not seen[j]:
            seen[j] = True
            j = image[j]
            length += 1
        if length:
            order = math.lcm(order, length)
    return order


# ---------------------------------------------------------------------------


def main() -> int:
    provenance = {}
    counts = {}
    brute = {k: brute_counts(k, n_max) for k, n_max in BRUTE_MAX.items()}
    for k, n_max in BRUTE_MAX.items():
        top = BINARY_MAX if k == 2 else n_max
        min_square = list(brute[k]["min-square"])
        if k == 2:
            min_square += brute_counts(
                2, BINARY_MIN_SQUARE_MAX, ("min-square",), n_min=n_max + 1
            )["min-square"]
        rec = recurrence_counts(k, top, min_square)
        for family, values in rec.items():
            if values[:n_max] != brute[k][family]:
                raise SystemExit(f"recurrence and brute force disagree: k={k} {family}")
        rec["min-square"] = min_square
        counts[str(k)] = rec
    provenance["counts"] = (
        "counts[k][family][n-1], from the recurrences in this file; every value "
        "with k**n <= 2**19 (k=2: n <= 19; k=3: n <= 12; k=4: n <= 9) was checked "
        "equal to a brute-force count over all k**n words before writing. "
        "min-square (no recurrence known) is brute force only, n <= 20 for k=2. "
        "Binary rows are the OEIS sequences A003000 (unbordered and no-even-pp), "
        "A308528 (no-odd-pp), A122536 (no-square-prefix), A121880 "
        "(has-square-prefix) and A216958 (min-square), computed here."
    )

    hashes = {}
    for name, func in (("unbordered", unbordered_rec), ("no-pal-prefix", no_pal_prefix_rec)):
        values = func(3, SERIES_N)
        if values[:12] != counts["3"][name][:12]:
            raise SystemExit(f"k=3 {name} recurrence disagrees with the brute force")
        hashes[name] = {"k": 3, "N": SERIES_N, "sha256": sequence_digest(values)}
    provenance["sequence_sha256"] = (
        "sha256 of the newline-joined hexadecimal values for n = 1..N, from the "
        "recurrences here; their first 12 terms equal the brute force."
    )

    profiles = {}
    for n in PROFILE_LENGTHS:
        dist = profile_distribution(2, n)
        if dist["borders"] != dist["even-pp"]:
            raise SystemExit(f"border and even-pp censuses differ at n={n}")
        if any(sum(t.values()) != 2 ** n for t in dist.values()):
            raise SystemExit(f"profile tallies do not sum to 2**{n}")
        profiles[str(n)] = dist
    provenance["profiles"] = (
        "profiles[n][kind][set] for k=2: brute-force tally over all 2**n words "
        "(sets written as comma-separated indices, empty for no structure)."
    )

    digits = {}
    for k in (2, 3, 4):
        lower, upper = density_series(k, DIGITS)
        digits[f"h{k}"] = agreed(lower, upper, DIGITS + 5)[: DIGITS + 2]
        if k == 2:
            # c(n) = 2 for n >= 2, so D(1/2) = 1/2 + 1/6 = 2/3 and rho is 0
            digits["rho2"] = "0." + "0" * DIGITS
        else:
            rho = agreed(2 - (k + 1) * upper, 2 - (k + 1) * lower, DIGITS + 5)
            digits[f"rho{k}"] = rho[: DIGITS + 2]
    if any(len(text) != DIGITS + 2 for text in digits.values()):
        raise SystemExit("a constant was not resolved to the full digit count")
    gamma = {}
    for k in (2, 3):
        certified = agreed(*gamma_bounds(k, 256), 80)
        u = unbordered_rec(k, 60)
        estimate = truncate(Fraction(u[-1], k ** 60), 40)
        known = 0
        while estimate[known] == certified[known]:
            known += 1
        gamma[str(k)] = {"certified": certified, "estimate_known": certified[:known]}
    provenance["digits"] = (
        "h{k} = D(1/k) and rho{k} = 2 - (k+1) D(1/k): digits shared by both "
        "bounds of an exact integer series enclosure (tail <= k**-N/(k-1)), "
        "truncated, never rounded."
    )
    provenance["gamma"] = (
        "certified: digits shared by the bound gamma in [r(2m) - k**-m/(k-1), "
        "r(2m)], m = 256, r(j) = u(j)/k**j. estimate_known: the digits that "
        "r(60), the ratio the estimate at n = 60 reports, shares with them."
    )

    square = {}
    for c in (18, 20):
        ms = counts["2"]["min-square"][:c]
        lower = sum(Fraction(v, 4 ** i) for i, v in enumerate(ms, 1))
        upper = lower + Fraction(1, 2 ** c)
        square[str(c)] = {
            "with_square": [str(lower), str(upper)],
            "square_free": [str(1 - upper), str(1 - lower)],
        }
    provenance["square_density"] = (
        "k=2 enclosures from the brute-force min-square counts 1..c: "
        "with-square in [sum ms(i)/4**i, that + 2**-c], square-free = 1 - it."
    )

    orders = [shuffle_order(n) for n in range(SHUFFLE_ORDERS)]
    for n in range(1, 400):
        if shuffle_order_by_cycles(n) != orders[n]:
            raise SystemExit(f"shuffle order routes disagree at offset {n}")
    provenance["A003558"] = (
        "A003558(n), n = 0..4999: least m with 2**m = +-1 mod 2n+1, by a power "
        "loop here; equal to the permutation-cycle order for n < 400. The milk "
        "shuffle of length n has order A003558(n-1)."
    )

    reference = {
        "provenance": provenance,
        "counts": counts,
        "sequence_sha256": hashes,
        "profiles": profiles,
        "digits": digits,
        "gamma": gamma,
        "square_density": square,
        "A003558": orders,
    }
    OUT.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
