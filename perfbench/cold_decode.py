"""Cold-codec pass: decode each distinct message of a traced run once.

Usage: cold_decode.py MESSAGES_FILE

MESSAGES_FILE holds one "max_exponent hex_message" line per distinct decode
the traced run made.  In this fresh process the codec's caches start empty
and every message is new, so the time printed (seconds, on stdout) is the
real factorization cost that a warm LRU cache hides.
"""
import sys
from time import perf_counter

from primetime.primes import decode


def main(argv: list[str]) -> int:
    with open(argv[0], encoding="ascii") as fh:
        work = [(int(m, 16), int(e)) for e, m in (line.split() for line in fh)]
    start = perf_counter()
    for message, max_exponent in work:
        decode(message, max_exponent)
    print(repr(perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
