import math
import random
import re
import sys
import tracemalloc
from time import perf_counter
from unittest import mock

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from primetime import primes
from primetime.errors import CodecError, ExponentRangeError, PrimeCapError
from primetime.primes import (PRIME_CAP, decimal, decode, encode, first_primes,
                              nth_prime, prime_count, smallest_unused_prime)


def sieve_of_eratosthenes(limit):
    """Independent oracle for the prime sequence."""
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i::i] = bytearray(len(flags[i * i::i]))
    return [i for i, f in enumerate(flags) if f]


def test_nth_prime_first_values():
    assert nth_prime(1) == 2
    assert nth_prime(4) == 7
    assert nth_prime(25) == 97  # sieve oracle up to 100: 25 primes, last is 97


def test_nth_prime_agrees_with_sieve_oracle():
    oracle = sieve_of_eratosthenes(104_729)  # value of the 10,000th prime
    assert len(oracle) == 10_000
    assert first_primes(10_000) == oracle
    assert nth_prime(10_000) == 104_729


def test_nth_prime_past_the_cap():
    with pytest.raises(PrimeCapError, match="prime cap exceeded"):
        nth_prime(PRIME_CAP + 1)
    with pytest.raises(ValueError):
        nth_prime(0)


def test_first_primes_outside_its_range():
    assert first_primes(0) == []
    assert len(first_primes(PRIME_CAP)) == PRIME_CAP
    with pytest.raises(PrimeCapError, match="prime cap exceeded"):
        first_primes(PRIME_CAP + 5)
    with pytest.raises(ValueError, match="prime count must be >= 0"):
        first_primes(-1)


def test_smallest_unused_prime():
    assert smallest_unused_prime(set()) == 2
    assert smallest_unused_prime({2, 3, 5, 7}) == 11
    assert smallest_unused_prime({2, 5, 7}) == 3


def test_encode_examples():
    assert encode([], max_exponent=5) == 1
    assert encode([(5, 4)], max_exponent=5) == 625
    assert encode([(2, 3), (3, 2), (5, 4)], max_exponent=5) == 45000  # 8*9*625


def test_encode_rejects_duplicate_prime():
    with pytest.raises(CodecError, match="duplicate prime"):
        encode([(2, 1), (2, 2)], max_exponent=5)


def test_encode_rejects_out_of_range_values():
    with pytest.raises(CodecError, match="value out of range"):
        encode([(2, 0)], max_exponent=5)
    with pytest.raises(CodecError, match="value out of range"):
        encode([(2, 6)], max_exponent=5)


def test_decode_examples():
    assert decode(1, max_exponent=5) == {}
    assert decode(45000, max_exponent=5) == {2: 3, 3: 2, 5: 4}
    assert decode(625, max_exponent=5) == {5: 4}


def test_decode_unfactorable_residue():
    # 1,000,003 is a prime beyond the PRIME_CAP-th prime, 104,729
    with pytest.raises(CodecError, match="unfactorable residue"):
        decode(1_000_003, max_exponent=5)
    # a residue too long to print in decimal is reported by its size
    hostile = 1_000_003**1000
    with pytest.raises(CodecError, match=f"unfactorable residue of {hostile.bit_length()} bits"):
        decode(hostile, max_exponent=9)


def test_decode_exponent_out_of_range():
    with pytest.raises(CodecError, match="exponent out of range"):
        decode(2**6, max_exponent=5)


def test_decode_rejects_nonpositive():
    with pytest.raises(CodecError):
        decode(0, max_exponent=5)


@st.composite
def pair_sets(draw, max_pairs=64):
    m = draw(st.integers(min_value=1, max_value=32))
    indices = draw(st.sets(st.integers(min_value=1, max_value=64), max_size=max_pairs))
    pairs = {nth_prime(i): draw(st.integers(min_value=1, max_value=m + 1))
             for i in sorted(indices)}
    return pairs, m


@given(pair_sets())
def test_roundtrip(case):
    pairs, m = case
    assert decode(encode(pairs.items(), max_exponent=m + 1), max_exponent=m + 1) == pairs


@given(pair_sets())
@settings(max_examples=50)
def test_multiplicativity_over_disjoint_split(case):
    pairs, m = case
    left = {p: x for i, (p, x) in enumerate(sorted(pairs.items())) if i % 2 == 0}
    right = {p: x for p, x in pairs.items() if p not in left}
    product = encode(left.items(), max_exponent=m + 1) * encode(right.items(), max_exponent=m + 1)
    assert product == encode(pairs.items(), max_exponent=m + 1)


@given(pair_sets())
@settings(max_examples=50)
def test_decode_total_on_valid_inputs(case):
    # any integer built from capped primes with in-range exponents decodes
    pairs, m = case
    message = 1
    for p, x in pairs.items():
        message *= p**x
    decode(message, max_exponent=m + 1)  # must not raise


@st.composite
def messages(draw):
    """Products of capped prime powers, some multiplied by an arbitrary cofactor."""
    powers = draw(st.dictionaries(st.integers(1, PRIME_CAP), st.integers(1, 8), max_size=5))
    message = math.prod(nth_prime(i)**x for i, x in powers.items())
    return message * draw(st.just(1) | st.integers(1, 10**12))


@given(messages())
@settings(max_examples=200, deadline=None)
def test_decode_matches_sympy_factorint(message):
    sympy = pytest.importorskip("sympy")
    factors = sympy.factorint(message)
    if max(factors, default=2) > nth_prime(PRIME_CAP):
        with pytest.raises(CodecError, match="unfactorable residue"):
            decode(message, max_exponent=64)
    else:
        assert decode(message, max_exponent=64) == factors


def test_decimal_matches_str_past_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    # the digit counts around the limit and around the splits below it
    sizes = [1, 9, 10, 639, 640, 641, 4299, 4300, 4301, 8600, 8601, 30_000]
    cases = [0, 1, 2**14_000 - 1, 7**40_000]
    cases += [10**d + offset for d in sizes for offset in (-1, 0, 1)]
    cases += [10**d * 123_456 for d in sizes]
    sys.set_int_max_str_digits(0)
    try:
        expected = [str(n) for n in cases]
    finally:
        sys.set_int_max_str_digits(limit)
    assert [decimal(n) for n in cases] == expected


def trial_division_decode(message, max_exponent):
    """Reference codec: trial division by every cap prime in index order,
    one division per unit of exponent."""
    factors = []
    residue = message
    index = 1
    while residue > 1:
        if index > PRIME_CAP:
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
    for p, exponent in factors:
        if exponent > max_exponent:
            raise CodecError(
                f"exponent out of range: {p}**{exponent} exceeds bound {max_exponent}"
            )
    return dict(factors)


def codec_outcome(fn, message, max_exponent):
    try:
        return fn(message, max_exponent), None
    except CodecError as exc:
        return None, str(exc)


# The first and last primes of the first screening blocks, and the last cap prime.
BLOCK_EDGES = [1, 64, 65, 128, 129, PRIME_CAP]
# 104,743 is the first prime past the cap; 2**89 - 1 is a Mersenne prime.
NON_SMOOTH = [104_743, 1_000_003, 104_743 * 1_000_003, 2**89 - 1]


@st.composite
def protocol_messages(draw):
    """A message over cap primes with exponents up to one past the receive
    bound 2M + 1, sometimes far past it, times a residue that may not be
    cap-smooth; and the bound."""
    m = draw(st.integers(1, 16))
    indices = draw(st.sets(st.sampled_from(BLOCK_EDGES) | st.integers(1, PRIME_CAP),
                           max_size=6))
    exponents = st.integers(1, 2 * m + 2) | st.integers(2 * m + 2, 2000)
    message = math.prod(nth_prime(i)**draw(exponents) for i in indices)
    residue = draw(st.just(1) | st.sampled_from(NON_SMOOTH) | st.integers(2, 10**30))
    return message * residue, 2 * m + 1


@given(protocol_messages())
@settings(max_examples=200, deadline=None)
# Exponents around the 16 levels factored before the rest is stripped.
@example((2**15 * 3**16 * 5**17 * 7**32 * 11**33, 33))
@example((2**15 * 3**16 * 5**17, 16))
@example((2**33 * 3**17 * 5**16 * 7 * 104_729**32, 33))
# Several primes of one block at different exponents, some past the bound.
@example((2 * 3**2 * 5**3 * 7**4 * 13**9 * 307**10 * 311**5, 9))
@example((3**2 * 5**9 * 17**4 * 19**12, 9))
# Primes 64 (311) and 65 (313), on either side of a block boundary.
@example((311**17 * 313**16, 33))
@example((311**33 * 313**15 * 317**2, 33))
@example((311**3 * 313**33 * 1_000_003, 9))
def test_decode_matches_trial_division(case):
    message, bound = case
    expected = codec_outcome(trial_division_decode, message, bound)
    primes._factorize.cache_clear()
    with mock.patch.object(primes, "nth_prime",
                           side_effect=AssertionError("nth_prime called by decode")):
        assert codec_outcome(decode, message, bound) == expected


def test_decode_tables_grow_only_as_far_as_the_message_needs(monkeypatch):
    monkeypatch.setattr(primes, "_primes", [2, 3, 5, 7, 11, 13])
    monkeypatch.setattr(primes, "_blocks", [])
    primes._factorize.cache_clear()
    assert decode(2 * 311, max_exponent=1) == {2: 1, 311: 1}  # primes 1 and 64
    assert len(primes._blocks) == 1
    assert len(primes._primes) < 2 * 64
    assert decode(313, max_exponent=1) == {313: 1}  # prime 65
    assert len(primes._blocks) == 2
    with pytest.raises(CodecError, match="unfactorable residue of 17 bits"):
        decode(104_743, max_exponent=1)
    assert primes._primes[:PRIME_CAP] == sieve_of_eratosthenes(104_729)
    primes._factorize.cache_clear()


@pytest.mark.parametrize("prime, exponent, cofactor", [
    (2, 100_000, 1), (3, 60_000, 5), (104_729, 10_000, 7),
])
def test_decode_huge_exponent_costs_few_divisions(prime, exponent, cofactor):
    # one division per unit of exponent took 3 s on 2**100_000
    message = prime**exponent * cofactor
    primes._factorize.cache_clear()
    start = perf_counter()
    with pytest.raises(CodecError) as raised:
        decode(message, max_exponent=9)
    assert perf_counter() - start < 0.5
    assert str(raised.value) == f"exponent out of range: {prime}**{exponent} exceeds bound 9"


def test_rejected_messages_leave_nothing_in_the_decode_cache():
    # one peer could otherwise pin up to 4096 huge rejected messages
    primes._factorize.cache_clear()
    for k in range(200):
        with pytest.raises(ExponentRangeError) as raised:
            decode(2**100_000 * 3**k, max_exponent=9)
        assert str(raised.value) == "exponent out of range: 2**100000 exceeds bound 9"
    with pytest.raises(CodecError, match="unfactorable residue"):
        decode(1_000_003 * 4, max_exponent=9)
    assert primes._factorize.cache_info().currsize == 0
    assert decode(2**9 * 3, max_exponent=9) == {2: 9, 3: 1}
    assert primes._factorize.cache_info().currsize == 1
    primes._factorize.cache_clear()


@pytest.mark.parametrize("message", [1, 2**9 * 3, 5**4 * 7 * 104_729**2, 2**10, 0, -3,
                                     1_000_003 * 4])
def test_prime_count_is_len_decode_outside_the_cache(message):
    primes._factorize.cache_clear()
    try:
        expected = len(decode(message, max_exponent=9))
    except CodecError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            prime_count(message, max_exponent=9)
    else:
        primes._factorize.cache_clear()
        assert prime_count(message, max_exponent=9) == expected
        assert primes._factorize.cache_info().currsize == 0


def test_decode_cache_holds_a_pair_in_under_32_bytes():
    # at about 55 bytes a pair, a cached tuple of (prime, exponent) tuples fails this
    rng = random.Random(0)
    pool = first_primes(400)
    messages = [encode(zip(sorted(rng.sample(pool, 40)), (rng.randint(1, 4) for _ in range(40))),
                       max_exponent=4)
                for _ in range(200)]
    for message in messages:  # build the prime blocks before measuring
        decode(message, max_exponent=9)
    primes._factorize.cache_clear()
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        for message in messages:
            decode(message, max_exponent=9)
        grown = tracemalloc.get_traced_memory()[0] - held
    finally:
        tracemalloc.stop()
        primes._factorize.cache_clear()
    assert grown < 32 * 200 * 40
