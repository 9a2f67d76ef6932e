import math
import sys

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from primetime.errors import CodecError, PrimeCapError
from primetime.primes import (PRIME_CAP, bit_length, decimal, decode, encode,
                              first_primes, nth_prime, smallest_unused_prime)


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


def test_bit_length():
    assert bit_length(1) == 1
    assert bit_length(625) == 10  # 512 <= 625 < 1024
    assert bit_length(45000) == 16  # 32768 <= 45000 < 65536
    with pytest.raises(ValueError):
        bit_length(0)


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
