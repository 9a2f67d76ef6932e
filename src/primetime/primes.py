"""Prime generation and the integer message codec.

A message is a single unbounded non-negative integer: the product of each
known identifier prime raised to its datum.  ``encode``/``decode`` are exact
inverses on valid pair sets; 1 encodes the empty set.
"""
from __future__ import annotations

import sys
from functools import lru_cache
from typing import Collection, Iterable

from .errors import CodecError, PrimeCapError

# Primes are searched through the ordered sequence p_1 = 2, p_2 = 3, ...
# The cap is an index into that sequence and bounds every search so that a
# corrupted message cannot send the factorizer off to infinity.
PRIME_CAP = 10_000

_primes: list[int] = [2, 3, 5, 7, 11, 13]


def _extend_primes(count: int) -> None:
    """Grow the cached prime list to at least `count` entries (trial division)."""
    candidate = _primes[-1]
    while len(_primes) < count:
        candidate += 2
        for p in _primes:
            if p * p > candidate:
                _primes.append(candidate)
                break
            if candidate % p == 0:
                break


def nth_prime(n: int) -> int:
    """Return the n-th prime (1-indexed: nth_prime(1) == 2).

    Raises PrimeCapError for n beyond PRIME_CAP, the largest index the
    package searches.
    """
    if n < 1:
        raise ValueError(f"prime index must be >= 1, got {n}")
    if n > PRIME_CAP:
        raise PrimeCapError(f"prime cap exceeded: index {n} > cap {PRIME_CAP}")
    if n > len(_primes):
        _extend_primes(n)
    return _primes[n - 1]


def first_primes(n: int) -> list[int]:
    """The first n primes in increasing order."""
    if n > len(_primes):
        _extend_primes(n)
    return _primes[:n]


def smallest_unused_prime(used: Collection[int]) -> int:
    """Smallest prime not contained in `used`, searched in increasing order."""
    taken = set(used)
    for i in range(1, PRIME_CAP + 1):
        p = nth_prime(i)
        if p not in taken:
            return p
    raise PrimeCapError(f"prime cap exceeded: all primes up to index {PRIME_CAP} in use")


def encode(pairs: Iterable[tuple[int, int]], max_exponent: int) -> int:
    """Encode (prime, value) pairs as the product of prime**value.

    `max_exponent` is the largest admissible value; protocol callers pass
    M + 1 so the leave sentinel survives the codec.  The empty set encodes
    to 1.

    Raises CodecError on a repeated prime or a value outside [1, max_exponent].
    """
    message = 1
    seen: set[int] = set()
    for prime, value in pairs:
        if prime in seen:
            raise CodecError(f"duplicate prime {prime} in pair set")
        seen.add(prime)
        if not 1 <= value <= max_exponent:
            raise CodecError(
                f"value out of range: {value} for prime {prime}, allowed [1, {max_exponent}]"
            )
        message *= prime**value
    return message


@lru_cache(maxsize=4096)
def _factorize(message: int) -> tuple[tuple[int, int], ...]:
    factors = []
    residue = message
    index = 1
    while residue > 1:
        if index > PRIME_CAP:
            # The residue itself can be too long to format as decimal.
            raise CodecError(
                f"unfactorable residue of {residue.bit_length()} bits: "
                f"no prime factor within cap index {PRIME_CAP}"
            )
        p = nth_prime(index)
        if residue % p == 0:
            exponent = 0
            while residue % p == 0:
                residue //= p
                exponent += 1
            factors.append((p, exponent))
        index += 1
    return tuple(factors)


def decode(message: int, max_exponent: int) -> dict[int, int]:
    """Recover the (prime, exponent) pairs of `message` by trial division.

    Primes are tried in increasing order up to the cap index, so corrupted
    input terminates with a CodecError instead of hanging.  decode(1) == {}.

    Raises CodecError if a residue > 1 survives all primes within the cap,
    or if any exponent exceeds `max_exponent`.
    """
    if message < 1:
        raise CodecError(f"message must be >= 1, got {message}")
    pairs = _factorize(message)
    for p, exponent in pairs:
        if exponent > max_exponent:
            raise CodecError(
                f"exponent out of range: {p}**{exponent} exceeds bound {max_exponent}"
            )
    return dict(pairs)


def decimal(message: int) -> str:
    """``str(message)`` for a non-negative int of any size.

    Python refuses to convert an int of more than
    ``sys.get_int_max_str_digits()`` digits with ``str``.  Longer integers
    are split by a power of ten into a high part and a zero-padded low part
    of about half the digits each, recursively, so every ``str`` call stays
    under the limit (Brent & Zimmermann, *Modern Computer Arithmetic*,
    section 1.7).
    """
    # Pythons before 3.10.7 have no limit and no way to read it.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        return str(message)
    return _decimal(message, limit)


def _decimal(n: int, limit: int) -> str:
    bits = n.bit_length()
    # Digit-count bounds from 2**(bits - 1) <= n < 2**bits, in integer
    # arithmetic (0.30102 < log10(2) < 0.30103).
    most = bits * 30103 // 100000 + 1
    if most <= limit:
        return str(n)
    least = (bits - 1) * 30102 // 100000 + 1
    # Split at k digits with least / 2 <= k < least, so the high part is
    # nonzero and both parts shrink; k is limit // 2 times a power of two,
    # which keeps the set of divisors small.
    k = limit // 2
    while 2 * k < least:
        k *= 2
    high, low = divmod(n, _power_of_ten(k))
    return _decimal(high, limit) + _decimal(low, limit).zfill(k)


@lru_cache(maxsize=None)
def _power_of_ten(k: int) -> int:
    return 10**k


def bit_length(message: int) -> int:
    """Number of bits in the binary representation of `message`; bit_length(1) == 1."""
    if message < 1:
        raise ValueError(f"message must be >= 1, got {message}")
    return message.bit_length()
