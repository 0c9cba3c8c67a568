import math
import random
import tracemalloc

import pytest
from hypothesis import strategies as st

from goldbach3 import sieve_primes


@pytest.fixture(scope="session")
def table_small():
    return sieve_primes(3000)


@pytest.fixture(scope="session")
def table_10k():
    return sieve_primes(21000)


@pytest.fixture(scope="session")
def table_1e5():
    return sieve_primes(110000)


@pytest.fixture(scope="session")
def table_big():
    return sieve_primes(1_000_100)


def traced_peak(f) -> int:
    """Peak bytes that tracemalloc sees allocated during f()."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_progression(rng: random.Random, k_max: int):
    k = rng.randrange(1, k_max + 1)
    l = rng.choice([l for l in range(k) if math.gcd(k, l) == 1])
    return k, l


def random_instance(rng: random.Random, n_lo: int, n_hi: int, k_max: int, odd=False):
    from goldbach3 import triple

    N = rng.randrange(n_lo, n_hi + 1)
    if odd and N % 2 == 0:
        N += 1
    progs = [random_progression(rng, k_max) for _ in range(3)]
    return triple(N, *[x for pair in progs for x in pair])


def progressions(k_max: int):
    """Hypothesis strategy for a primitive progression (k, l) with k <= k_max."""
    return st.integers(1, k_max).flatmap(
        lambda k: st.sampled_from([(k, l) for l in range(k) if math.gcd(k, l) == 1])
    )
