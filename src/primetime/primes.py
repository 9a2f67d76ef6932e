"""Prime generation and the integer message codec.

A message is a single unbounded non-negative integer: the product of each
known identifier prime raised to its datum.  ``encode``/``decode`` are exact
inverses on valid pair sets; 1 encodes the empty set.
"""
from __future__ import annotations

import sys
from functools import lru_cache
from itertools import compress
from math import gcd, isqrt, log, prod
from typing import Collection, Iterable

from .errors import CodecError, ExponentRangeError, PrimeCapError

# Primes are searched through the ordered sequence p_1 = 2, p_2 = 3, ...
# The cap is an index into that sequence and bounds every search so that a
# corrupted message cannot send the factorizer off to infinity.
PRIME_CAP = 10_000

_primes: list[int] = [2, 3, 5, 7, 11, 13]


def _extend_primes(count: int) -> None:
    """Grow the cached prime list to at least `count` entries.

    Sieves up to Rosser's bound p_n < n (ln n + ln ln n), n >= 6, on the
    n-th prime.  The list at least doubles each time, up to PRIME_CAP, so
    growing it block by block costs a constant number of sieves.
    """
    n = max(count, min(2 * len(_primes), PRIME_CAP))
    limit = int(n * (log(n) + log(log(n)))) + 1
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, isqrt(limit) + 1):
        if flags[i]:
            flags[i * i::i] = bytes(len(range(i * i, limit + 1, i)))
    _primes[:] = compress(range(limit + 1), flags)


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
    """The first n primes in increasing order.

    Raises ValueError for n < 0 and PrimeCapError for n beyond PRIME_CAP,
    as `nth_prime` does.
    """
    if n < 0:
        raise ValueError(f"prime count must be >= 0, got {n}")
    if n > PRIME_CAP:
        raise PrimeCapError(f"prime cap exceeded: count {n} > cap {PRIME_CAP}")
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


# The factorizer screens the residue a block of consecutive cap primes at a
# time: one gcd with the block's product says which of them divide it, so
# only those are tried (D. J. Bernstein, *How to find smooth parts of
# integers*, 2004).  A gcd that is itself one of the block's primes, a set
# lookup, is the only one they share, so that block needs no walk.  Blocks
# are built on first use.
_BLOCK = 64
_BLOCKS = -(-PRIME_CAP // _BLOCK)
# (product, primes, the same primes as a set), in prime order
_blocks: list[tuple[int, list[int], frozenset[int]]] = []


def _block(b: int) -> tuple[int, list[int], frozenset[int]]:
    """The b-th block of cap primes, their product and their set."""
    while len(_blocks) <= b:
        start = len(_blocks) * _BLOCK
        end = min(start + _BLOCK, PRIME_CAP)
        if end > len(_primes):
            _extend_primes(end)
        primes = _primes[start:end]
        _blocks.append((prod(primes), primes, frozenset(primes)))
    return _blocks[b]


# The primes a block shares with the residue are divided out by exponent
# level: level 1 is their product, and each next level is the part of the
# last one that still divides what is left.  That is one division and one gcd
# per level, not one division per prime power.  Valid messages carry small
# exponents; past this many levels, the primes still dividing go to `_strip`.
_ONE_AT_A_TIME = 16


def _strip(residue: int, p: int) -> tuple[int, int]:
    """(residue // p**e, e) for the largest e with p**e dividing `residue`.

    Divides by p, p**2, p**4, ... while the power divides, then by the same
    powers in reverse, so a hostile exponent costs O(log e) divisions, not
    e.  `_factorize` calls it only for a prime that divides all of the first
    _ONE_AT_A_TIME exponent levels.
    """
    exponent = 0
    powers = []
    power = p
    while True:
        quotient, remainder = divmod(residue, power)
        if remainder:
            break
        residue = quotient
        exponent += 1 << len(powers)
        powers.append(power)
        power *= power
    for k in reversed(range(len(powers))):
        quotient, remainder = divmod(residue, powers[k])
        if not remainder:
            residue = quotient
            exponent += 1 << k
    return residue, exponent


class Factorization:
    """A message's (prime, exponent) pairs as two flat tuples in ascending
    prime order, `primes` and `exponents`.

    The decode cache keeps one per message and hands that object to every
    reader, so nothing may change it.  Two tuples cost two 8-byte slots a
    pair; a tuple of (prime, exponent) tuples costs a slot and a 56-byte
    pair tuple.  The merges read the two tuples; `len()` and `values()`, the
    exponent tuple itself, are kept for the benchmark's tracer, which counts
    the pairs and goodbyes of every merge decode.
    """
    __slots__ = ("primes", "exponents")

    def __init__(self, primes: tuple[int, ...], exponents: tuple[int, ...]):
        self.primes = primes
        self.exponents = exponents

    def __len__(self) -> int:
        return len(self.primes)

    def values(self) -> tuple[int, ...]:
        return self.exponents


@lru_cache(maxsize=4096)
def _factorize(message: int, max_exponent: int) -> Factorization:
    """The pairs of `message` as the decode cache's own read-only
    Factorization, its primes and their exponents gathered straight into
    two tuples in ascending prime order: every caller shares one object per
    message, and nothing is copied.

    Rejects the message from inside the cache, which keeps no rejected
    message: CodecError for a message below 1 or an unfactorable residue,
    else ExponentRangeError for the smallest prime whose exponent exceeds
    `max_exponent`.
    """
    if message < 1:
        raise CodecError(f"message must be >= 1, got {message}")
    found: list[int] = []
    exponents: list[int] = []
    residue = message
    for b in range(_BLOCKS):
        if residue == 1:
            break
        product, primes, members = _block(b)
        level = gcd(residue, product)
        if level == 1:
            continue
        # levels[k] is the product of the block's primes of exponent > k.
        levels = []
        while level > 1 and len(levels) < _ONE_AT_A_TIME:
            levels.append(level)
            residue //= level
            level = gcd(residue, level)
        shared = levels[0]
        if shared in members:  # a single hit: every level is that prime
            exponent = len(levels)
            if level > 1:
                residue, rest = _strip(residue, shared)
                exponent += rest
            found.append(shared)
            exponents.append(exponent)
            continue
        for p in primes:
            if shared % p:
                continue
            exponent = 1
            while exponent < len(levels) and levels[exponent] % p == 0:
                exponent += 1
            if level % p == 0:
                residue, rest = _strip(residue, p)
                exponent += rest
            found.append(p)
            exponents.append(exponent)
            if shared == p:
                break
            shared //= p
    if residue > 1:
        # The residue itself can be too long to format as decimal.
        raise CodecError(
            f"unfactorable residue of {residue.bit_length()} bits: "
            f"no prime factor within cap index {PRIME_CAP}"
        )
    if exponents and max(exponents) > max_exponent:
        p, exponent = next((p, e) for p, e in zip(found, exponents) if e > max_exponent)
        raise ExponentRangeError(
            f"exponent out of range: {p}**{exponent} exceeds bound {max_exponent}"
        )
    return Factorization(tuple(found), tuple(exponents))


# The decode cache under its public name; the protocol's merges call it.
# Pass both arguments by position: the cache keys a keyword call apart.
factorization = _factorize


def decode(message: int, max_exponent: int) -> dict[int, int]:
    """Recover the (prime, exponent) pairs of `message` as a new dict, the
    caller's own: changing it changes no cached factorization.

    The message is screened against blocks of the first PRIME_CAP primes by
    gcd, and only the primes of a block that shares a factor are divided
    out, so the cost follows the message, not the largest prime index, and
    corrupted input terminates with a CodecError instead of hanging.
    decode(1) == {}.  The protocol reads the cached `factorization` in
    place instead.

    Raises CodecError for a message below 1 or if a residue > 1 survives
    all primes within the cap, or ExponentRangeError, a CodecError, for the
    smallest prime whose exponent exceeds `max_exponent`.
    """
    pairs = factorization(message, max_exponent)
    return dict(zip(pairs.primes, pairs.exponents))


def prime_count(message: int, max_exponent: int) -> int:
    """``len(decode(message, max_exponent))``, checked and raised alike, but
    factored outside the decode cache, so counting many messages evicts none
    of the factorizations the protocol reuses."""
    return len(_factorize.__wrapped__(message, max_exponent))


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
