"""Prime sieving, elementary multiplicative functions, and problem instances.

Everything downstream (representation counts, singular series, exponential
sums, sweeps and the grid) reads the sorted primes of one table, built by
one byte sieve.  All logarithms are natural logs in double precision.  A
problem instance (``TripleInstance``, or ``triple`` from raw integers) is a
target N with three progressions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exceptions import TableTooSmallError

__all__ = [
    "Progression",
    "TripleInstance",
    "triple",
    "PrimeTable",
    "sieve_primes",
    "factorize",
    "padic_valuation",
    "is_prime",
    "euler_phi",
    "divisor_tau",
    "divisor_tau_array",
    "moebius",
    "chebyshev_theta",
]


# The sieve holds one byte per integer and keeps 8 bytes per prime, about
# 3 GB at this limit; larger requests are refused before anything is
# allocated, so they end in a validation error, not an out-of-memory kill.
MAX_SIEVE_LIMIT = 2**31 - 1

# largest modulus k: phi(k) factors k by trial division, 0.05 s near here
MAX_MODULUS = 10**12


@dataclass(frozen=True)
class Progression:
    """A residue class l (mod k) with gcd(k, l) = 1.

    The residue is stored reduced mod k, so (1, 0) is the canonical
    "no constraint" progression rather than a special case.
    """

    k: int
    l: int = 0

    def __post_init__(self):
        if not 1 <= self.k <= MAX_MODULUS:
            raise ValueError(f"modulus must be an integer in 1..{MAX_MODULUS}, got k={self.k}")
        object.__setattr__(self, "l", self.l % self.k)
        if math.gcd(self.k, self.l) != 1:
            raise ValueError(
                f"progression ({self.k}, {self.l}) is not primitive: "
                f"gcd(k, l) = {math.gcd(self.k, self.l)}"
            )

    def contains(self, n: int) -> bool:
        return n % self.k == self.l


@dataclass(frozen=True)
class TripleInstance:
    """A target N together with the three progression constraints."""

    N: int
    progs: tuple[Progression, Progression, Progression]

    def __post_init__(self):
        if len(self.progs) != 3:
            raise ValueError("a TripleInstance needs exactly three progressions")
        object.__setattr__(self, "progs", tuple(self.progs))
        if self.N < 6:
            raise ValueError(f"N must be >= 6 (smallest three-prime sum), got {self.N}")

    @property
    def moduli(self) -> tuple[int, int, int]:
        return tuple(p.k for p in self.progs)

    @property
    def residues(self) -> tuple[int, int, int]:
        return tuple(p.l for p in self.progs)


def triple(N: int, k1: int, l1: int, k2: int, l2: int, k3: int, l3: int) -> TripleInstance:
    """Shorthand constructor from raw moduli and residues."""
    return TripleInstance(N, (Progression(k1, l1), Progression(k2, l2), Progression(k3, l3)))


@dataclass(frozen=True)
class PrimeTable:
    """The primes up to ``limit``, as a sorted read-only int64 array.

    Instances are immutable after construction and safe to share across
    threads.
    """

    limit: int
    primes: np.ndarray

    def check_covers(self, n: int) -> None:
        if n > self.limit:
            raise TableTooSmallError(
                f"need primes up to {n} but table only covers {self.limit}"
            )

    def primes_in_progression(self, limit: int, prog: Progression) -> np.ndarray:
        """Primes p <= limit with p in the given progression."""
        self.check_covers(limit)
        p = self.primes
        p = p[: np.searchsorted(p, limit, side="right")]
        if prog.k == 1:
            return p
        return p[p % prog.k == prog.l]


def sieve_primes(limit: int) -> PrimeTable:
    """The primes up to ``limit`` by the sieve of Eratosthenes on a byte table.

    Cost is O(limit log log limit): one pass per prime p <= sqrt(limit),
    striking out its multiples from p^2 on.  Limits past
    ``MAX_SIEVE_LIMIT`` are refused before anything is allocated.
    """
    if limit < 2:
        raise ValueError(f"sieve limit must be >= 2, got {limit}")
    if limit > MAX_SIEVE_LIMIT:
        raise ValueError(
            f"sieve limit {limit} exceeds the largest supported {MAX_SIEVE_LIMIT} "
            f"(a table of limit bytes plus 8 bytes per prime)"
        )
    sieve = np.zeros(limit + 1, dtype=bool)
    sieve[2:] = True
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    primes = np.flatnonzero(sieve)
    primes.setflags(write=False)
    return PrimeTable(limit=limit, primes=primes)


def factorize(n: int) -> list[tuple[int, int]]:
    """Factor a positive integer by trial division.

    Fine for the modulus-sized arguments (k, q <= a few thousand) this
    package feeds it.
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: list[tuple[int, int]] = []
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    d = 5
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 2 if d % 6 == 5 else 4
    if n > 1:
        out.append((n, 1))
    return out


def padic_valuation(n: int, p: int) -> int:
    """Exponent of the prime p in n (n >= 1)."""
    if n < 1:
        raise ValueError(f"valuation undefined for {n}")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def is_prime(n: int) -> bool:
    """Trial-division primality check for small n: ``factorize``'s loop."""
    return n >= 2 and factorize(n) == [(n, 1)]


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    """Euler's totient: the number of 1 <= m <= n coprime to n."""
    if n < 1:
        raise ValueError(f"euler_phi needs n >= 1, got {n}")
    phi = 1
    for p, e in factorize(n):
        phi *= (p - 1) * p ** (e - 1)
    return phi


def divisor_tau(n: int) -> int:
    """Number of positive divisors of n."""
    if n < 1:
        raise ValueError(f"divisor_tau needs n >= 1, got {n}")
    tau = 1
    for _, e in factorize(n):
        tau *= e + 1
    return tau


def divisor_tau_array(limit: int) -> np.ndarray:
    """Divisor counts for 0..limit by a divisor sieve (tau[0] = 0)."""
    if limit < 1:
        raise ValueError(f"divisor_tau_array needs limit >= 1, got {limit}")
    tau = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, limit + 1):
        tau[d::d] += 1
    return tau


def moebius(n: int) -> int:
    """Moebius function: 0 on squarefull n, else (-1)^(number of prime factors)."""
    if n < 1:
        raise ValueError(f"moebius needs n >= 1, got {n}")
    mu = 1
    for _, e in factorize(n):
        if e > 1:
            return 0
        mu = -mu
    return mu


def chebyshev_theta(limit: int, prog: Progression, table: PrimeTable) -> float:
    """Sum of log p over primes p <= limit with p in the progression."""
    p = table.primes_in_progression(limit, prog)
    return float(np.log(p.astype(np.float64)).sum()) if p.size else 0.0
