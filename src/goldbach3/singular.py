"""The singular series and main term, built twice and cross-checked.

Two independent constructions of the arithmetic factor S in the main term

    M(N) = N^2 * S / (2 * phi(k1) * phi(k2) * phi(k3))

are provided.  The q-sum route sums, over moduli q up to a truncation,
restricted Gauss sums

    G(a, q; k, l) = sum of e(ab/q) over b mod q, gcd(b, q) = 1,
                    b = l mod gcd(k, q),

while the product route multiplies exact p-adic solution densities
sigma_p, with no analysis involved.  The two must agree; neither is
trusted alone.

Both routes are assembled from prime-local pieces.  The product route
takes every sigma_p in closed form (``local_density``), from N mod p^v
and the classes l_i mod p^{v_p(k_i)} of the progressions that p divides;
at a prime dividing no modulus this is the textbook 1 + 1/(p-1)^3, or
1 - 1/(p-1)^2 when p | N.  ``local_density_factor`` counts the same
density from residues, in integer arithmetic: it is the oracle the tests
and the selftest hold the closed forms to.  The q-sum route uses the
closed form B(p) = -c_p(N)/(p-1)^3 at a prime dividing no modulus, and
Gauss sums at prime powers q = p^e of the other primes; its normalized
term B(q) is multiplicative in q.  One product engine,
``SingularSeriesCache``, serves single instances and whole sweeps.

Conventions: S reduces to the classical ternary singular series when all
moduli are 1, and the q-sum carries the prefactor phi(k1)phi(k2)phi(k3)
so both routes share that normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arith import (TripleInstance, euler_phi, factorize, is_prime, moebius, padic_valuation,
                    sieve_primes)
from .exceptions import ConsistencyError, rounded_counts

__all__ = [
    "SingularSeriesValue",
    "gauss_sum_G",
    "singular_series_qsum",
    "local_density",
    "local_density_factor",
    "singular_series_product",
    "classical_ternary_series",
    "classical_ternary_qsum",
    "main_term",
    "SingularSeriesCache",
    "DEFAULT_TRUNCATION",
    "check_truncation",
]

# shared default for both truncations (q_max and p_max), and the largest
# either may take, checked before anything is allocated (at 10^6 the q-sum
# takes about 0.6 s and the product about 3 s on 2 CPUs)
DEFAULT_TRUNCATION = 2000
MAX_TRUNCATION = 10**6


def check_truncation(q_max: int | None = None, p_max: int | None = None) -> None:
    """Refuse a q-sum truncation outside [1, MAX_TRUNCATION] or a product
    truncation outside [2, MAX_TRUNCATION]; None skips a check."""
    for name, value, least in (("p_max", p_max, 2), ("q_max", q_max, 1)):
        if value is not None and not least <= value <= MAX_TRUNCATION:
            raise ValueError(f"{name} must be in [{least}, {MAX_TRUNCATION}], got {value}")


# magnitude allowed for the accumulated imaginary part of the q-sum,
# which is real by conjugate symmetry of the a-sum
IMAG_GUARD = 1e-9


@dataclass(frozen=True)
class SingularSeriesValue:
    """A truncated singular-series evaluation.

    ``q_truncation`` is the truncation parameter of whichever route
    produced the value (max modulus for the q-sum, max prime for the
    product).  ``tail_estimate`` is the summed magnitude of the last
    decade of terms (q-sum) or of |sigma_p - 1| over the last decade of
    primes (product): a crude but honest view of truncation quality.
    """

    value: float
    q_truncation: int
    tail_estimate: float


def gauss_sum_G(a: int, q: int, prog) -> complex:
    """Restricted Gauss sum G(a, q; k, l) by direct summation over units."""
    if math.gcd(a, q) != 1:
        raise ValueError(f"need gcd(a, q) = 1, got a={a}, q={q}")
    g = math.gcd(prog.k, q)
    b = np.arange(q, dtype=np.int64)
    mask = (np.gcd(b, q) == 1) & (b % g == prog.l % g)
    if not mask.any():
        return 0j
    return complex(np.exp((2j * np.pi * (a % q) / q) * b[mask]).sum())


def _gauss_row(q: int, k: int, l: int) -> np.ndarray:
    """G(a, q; k, l) for every a mod q at once, via one length-q DFT."""
    g = math.gcd(k, q)
    b = np.arange(q, dtype=np.int64)
    v = ((np.gcd(b, q) == 1) & (b % g == l % g)).astype(np.float64)
    # numpy's FFT uses e(-ab/q); conjugating gives the e(+ab/q) convention
    return np.conj(np.fft.fft(v))


def _prime_power_term(q: int, p: int, inst: TripleInstance) -> complex:
    """The normalized q-sum term B(q) at a prime power q = p^e.

    B(q) = sum_{a mod q, (a,q)=1} e(-aN/q) prod_i G(a, q; k_i, l_i)
           / prod_i (phi(lcm(k_i, q)) / phi(k_i)).

    A Gauss row depends on (k, l) only through gcd(k, q) and l mod that
    gcd, so each distinct class is transformed once.
    """
    rows: dict[tuple[int, int], np.ndarray] = {}
    prod = None
    ratio = 1
    for k, l in zip(inst.moduli, inst.residues):
        g = math.gcd(k, q)
        key = (g, l % g)
        if key not in rows:
            rows[key] = _gauss_row(q, k, l)
        prod = rows[key] if prod is None else prod * rows[key]
        ratio *= euler_phi(math.lcm(k, q)) // euler_phi(k)  # an integer
    a = np.arange(q, dtype=np.int64)
    unit = a % p != 0
    phases = np.exp((-2j * np.pi * (inst.N % q) / q) * a[unit])
    return complex((phases * prod[unit]).sum()) / ratio


def _smallest_prime_factors(n: int) -> list[int]:
    """spf[q] for 2 <= q <= n: the least prime factor of q (q at primes)."""
    primes = sieve_primes(n).primes
    spf = np.arange(n + 1)
    for p in primes[primes * primes <= n][::-1].tolist():
        spf[p * p :: p] = p  # a composite q is p^2 + jp for its least p, written last
    return spf.tolist()


def singular_series_qsum(
    inst: TripleInstance, q_max: int = DEFAULT_TRUNCATION
) -> SingularSeriesValue:
    """Singular series as a truncated sum over moduli q of Gauss-sum products.

    value = phi(k1)phi(k2)phi(k3) *
            sum_{q <= q_max} sum_{a mod q, (a,q)=1} e(-aN/q) *
            prod_i G(a, q; k_i, l_i) / phi(lcm(k_i, q))

    The summand B(q) is multiplicative in q.  At a prime p dividing no
    modulus it is the closed form B(p) = -c_p(N) / (p-1)^3, with the
    Ramanujan sum c_p(N) = p-1 if p | N and -1 otherwise, and B(p^e) = 0
    for e >= 2.  At a prime p | lcm(k1, k2, k3), one dividing some modulus,
    B(p) is a Gauss-row sum, and so is B(p^e), e >= 2, when p^e divides
    gcd(k1, k2, k3); otherwise G(a, p^e; k, l) vanishes for every unit a at
    a modulus with v_p(k) < e, and so does B(p^e).
    Every other B(q) is B(p^e) * B(q / p^e) for the power p^e of the
    smallest prime factor of q, derived from the primes up to q_max.  The
    accumulated sum is real by conjugate symmetry; its imaginary part is
    checked against ``IMAG_GUARD`` and then discarded.
    """
    check_truncation(q_max=q_max)
    terms = np.zeros(q_max + 1, dtype=np.complex128)
    terms[1] = 1.0
    lcm, gcd = math.lcm(*inst.moduli), math.gcd(*inst.moduli)
    if q_max >= 2:
        spf = _smallest_prime_factors(q_max)
        # power[q]: the largest power of spf[q] dividing q
        power = [0, 1] + [0] * (q_max - 1)
        for q in range(2, q_max + 1):
            p = spf[q]
            rest = q // p
            pe = power[rest] * p if rest % p == 0 else p
            power[q] = pe
            if pe != q:
                terms[q] = terms[pe] * terms[q // pe]
            elif lcm % p:
                if q == p:  # B(p) = -c_p(N) / (p-1)^3; B(p^e) = 0 for e >= 2
                    terms[q] = (1 - p if inst.N % p == 0 else 1) / (p - 1) ** 3
            elif q == p or gcd % q == 0:
                terms[q] = _prime_power_term(q, p, inst)

    total = complex(terms[1:].sum())
    tail = float(np.abs(terms[q_max // 10 + 1 :]).sum())
    if abs(total.imag) > IMAG_GUARD:
        raise ConsistencyError(
            f"q-sum imaginary residue {total.imag:.3e} exceeds {IMAG_GUARD}"
        )
    return SingularSeriesValue(value=total.real, q_truncation=q_max, tail_estimate=tail)


def local_density_factor(inst: TripleInstance, p: int, t: int) -> Fraction:
    """Exact p-adic solution density sigma_p(t), as a rational number.

    Counts triples (x1, x2, x3) mod p^t with x1 + x2 + x3 = N (mod p^t),
    each x_i a unit lying in its progression's class mod p^{v_p(k_i)},
    normalized so the density is 1 on average:

        sigma_p(t) = count * p^t / (|U1| * |U2| * |U3|).

    This is the counting oracle for the closed forms of ``local_density``,
    which the product engine uses; the tests and the selftest compare the
    two.

    The pair counts #{(x1, x2): x1 + x2 = s mod p^t} come from a linear
    FFT convolution of the two 0/1 indicators, folded onto the circle and
    rounded to integers by ``rounded_counts``, a ``ConsistencyError``
    past ``ROUNDING_GUARD``.  The forced third residue is then looked up
    in integer arithmetic, so the result stays exact.  ``t`` must be at
    least max_i v_p(k_i) + 1, past which sigma_p(t) is constant.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    vs = [padic_valuation(prog.k, p) for prog in inst.progs]
    t_min = max(vs) + 1
    if t < t_min:
        raise ValueError(
            f"t={t} below stabilization threshold {t_min} for p={p}"
        )
    M = p**t
    x = np.arange(M, dtype=np.int64)
    units = x % p != 0
    us = []
    for prog, v in zip(inst.progs, vs):
        m = units.copy()
        if v:
            pv = p**v
            m &= x % pv == prog.l % pv
        us.append(m)
    u1, u2, u3 = us

    n = 1 << (2 * M - 2).bit_length()  # a power of two >= 2M - 1
    s1 = np.fft.rfft(u1, n)
    s2 = s1 if np.array_equal(u1, u2) else np.fft.rfft(u2, n)
    lin = np.fft.irfft(s1 * s2, n)
    pair = lin[:M].copy()
    pair[: M - 1] += lin[M : 2 * M - 1]
    counts = rounded_counts(pair, f"density pair count at p={p}, t={t}")
    count = int(counts.astype(np.int64)[u3[(inst.N - x) % M]].sum())
    sizes = [int(u.sum()) for u in us]
    return Fraction(count * M, sizes[0] * sizes[1] * sizes[2])


def _stabilized_threshold(inst: TripleInstance, p: int) -> int:
    return max(padic_valuation(prog.k, p) for prog in inst.progs) + 1


def local_density(N: int, p: int, constraints=()) -> tuple[int, int]:
    """sigma_p in closed form, as an unreduced (numerator, denominator).

    ``constraints`` holds a pair (v, l) for each variable whose modulus p
    divides: v = v_p(k) >= 1, and l the progression's residue, a unit read
    mod p^v.  The density does not depend on the threshold t at which it
    is counted.  With r = N minus the sum of the constrained l:

      * none constrained: 1 + 1/(p-1)^3, or 1 - 1/(p-1)^2 when p | N;
      * one: p(p-2)/(p-1)^2, or p/(p-1) when p | r;
      * two: p/(p-1), or 0 when p | r;
      * three: p^v, v the least valuation, when p^v | r, and 0 otherwise.

    The tests check every case against ``local_density_factor``.
    """
    if not constraints:
        if N % p == 0:
            return p * (p - 2), (p - 1) ** 2
        return (p - 1) ** 3 + 1, (p - 1) ** 3
    r = N - sum(l for _, l in constraints)
    if len(constraints) == 1:
        return (p, p - 1) if r % p == 0 else (p * (p - 2), (p - 1) ** 2)
    if len(constraints) == 2:
        return (p, p - 1) if r % p else (0, 1)
    q = p ** min(v for v, _ in constraints)
    return (q, 1) if r % q == 0 else (0, 1)


def singular_series_product(
    inst: TripleInstance, p_max: int = DEFAULT_TRUNCATION
) -> SingularSeriesValue:
    """Singular series as a truncated Euler product of exact local densities.

    Multiplies the closed-form sigma_p (``local_density``) over all
    p <= p_max, exactly in rational arithmetic, reporting the result as a
    float.  A vanishing local density makes the value exactly zero.  This
    is a one-cell call of ``SingularSeriesCache``, the one product engine.
    """
    return SingularSeriesCache(inst.N, p_max).series(inst)


def classical_ternary_series(N: int, p_max: int = DEFAULT_TRUNCATION) -> float:
    """Textbook unconstrained ternary singular series, truncated at p_max.

    prod_{p | N} (1 - 1/(p-1)^2) * prod_{p not | N} (1 + 1/(p-1)^3),
    over p <= p_max.  Used as an independent reference for the modulus-free
    case; note the p = 2 factor kills even N.
    """
    value = 1.0
    for p in sieve_primes(p_max).primes.tolist() if p_max >= 2 else ():
        if N % p == 0:
            value *= 1.0 - 1.0 / (p - 1) ** 2
        else:
            value *= 1.0 + 1.0 / (p - 1) ** 3
    return value


def classical_ternary_qsum(N: int, q_max: int = DEFAULT_TRUNCATION) -> float:
    """Partial sum of the classical series form of the same object.

    sum_{q <= q_max} mu(q) c_q(N) / phi(q)^3 with the Ramanujan sum
    evaluated by its closed form c_q(N) = mu(q/g) phi(q) / phi(q/g),
    g = gcd(q, N).  This shares no code with the Gauss-sum route, so it is
    the truncation-matched oracle for singular_series_qsum at unit moduli.
    Beware that a series partial sum and the Euler product truncated at the
    same parameter differ by the omitted composite moduli (up to about
    1/phi(d)^2 when N has a divisor d just past q_max).
    """
    total = 0.0
    for q in range(1, q_max + 1):
        mu = moebius(q)
        if mu == 0:
            continue
        g = math.gcd(q, N)
        mu_cofactor = moebius(q // g)
        if mu_cofactor == 0:
            continue
        c_q = mu_cofactor * euler_phi(q) / euler_phi(q // g)
        total += mu * c_q / euler_phi(q) ** 3
    return total


def main_term(inst: TripleInstance, s: SingularSeriesValue) -> float:
    """Main term N^2 * S / (2 * phi(k1) phi(k2) phi(k3))."""
    ks = inst.moduli
    denom = 2 * euler_phi(ks[0]) * euler_phi(ks[1]) * euler_phi(ks[2])
    return inst.N**2 * s.value / denom


def _product(factors: list[int]) -> int:
    """The product of the integers, multiplied pairwise up a balanced tree.

    A running product (``math.prod``) multiplies each factor into an ever
    larger integer, which is quadratic in the size of the result.
    """
    while len(factors) > 1:
        factors = [math.prod(factors[i : i + 2]) for i in range(0, len(factors), 2)]
    return factors[0] if factors else 1


@lru_cache(maxsize=4)
def _truncation(p_max: int) -> tuple:
    """What the product engine needs of a truncation, for any target N.

    (primes, num, den, tail): the primes p <= p_max; the product num / den
    of sigma_p = 1 + 1/(p-1)^3, the density at a prime dividing neither N
    nor a modulus, as unreduced integers; and (p, |that sigma_p - 1|) for
    each p > p_max // 10.
    """
    primes = sieve_primes(p_max).primes.tolist()
    free = [local_density(1, p) for p in primes]  # no p divides N = 1
    tail = tuple((p, abs(n / d - 1.0)) for p, (n, d) in zip(primes, free) if p > p_max // 10)
    return primes, _product([n for n, _ in free]), _product([d for _, d in free]), tail


class SingularSeriesCache:
    """The product engine: the truncated Euler product for every cell of one target.

    The product of the free densities (``local_density`` with no
    constraint) over all p <= p_max is an unreduced integer pair
    (num, den).  Its form for a target coprime to every p <= p_max is
    built once per p_max and shared by all targets; a target N swaps in
    1 - 1/(p-1)^2 at the few primes dividing N, by exact integer division
    and multiplication.  A cell changes sigma_p only at the primes
    dividing k1 k2 k3; their ratios sigma_p / free sigma_p, all in closed
    form, multiply into a small exact rational A / B, and S is the
    correctly rounded quotient (num * A) / (den * B): the float nearest the
    exact rational product.  That quotient is memoized on the reduced
    (A, B), which takes few values across a sweep, so the large integers
    are divided once per distinct value.

    ``local(k, l)`` is what a progression contributes: the triples
    (p, v_p(k), l mod p^v_p(k)) for the primes p <= p_max dividing k.  A
    sweep builds it once per progression and calls ``value`` per cell.
    The object lives for one sweep (``singular_series_product`` is a
    one-cell use).
    """

    def __init__(self, N: int, p_max: int = DEFAULT_TRUNCATION):
        check_truncation(p_max=p_max)
        self.N = N
        self.p_max = p_max
        primes, num, den, _ = _truncation(p_max)
        for p in primes:
            if N % p == 0:
                (n, d), (fn, fd) = local_density(N, p), local_density(1, p)
                num = num // fn * n
                den = den // fd * d
        self._num = num
        self._den = den
        self._values: dict[tuple[int, int], float] = {}

    def local(self, k: int, l: int) -> tuple:
        """(p, v_p(k), l mod p^v_p(k)) for each prime p <= p_max dividing k."""
        return tuple((p, v, l % p**v) for p, v in factorize(k) if p <= self.p_max)

    def _densities(self, locals_) -> list | None:
        """(p, n, d) with sigma_p = n / d for each prime of ``locals_``, in
        increasing p; None when some sigma_p vanishes."""
        if self._num == 0:
            # only possible at p = 2 with N even, where every constrained
            # density vanishes as well: three units mod 2 sum to an odd class
            return None
        constraints: dict[int, list] = {}
        for loc in locals_:
            for p, v, l in loc:
                constraints.setdefault(p, []).append((v, l))
        out = []
        for p in sorted(constraints):
            n, d = local_density(self.N, p, constraints[p])
            if n == 0:
                return None
            out.append((p, n, d))
        return out

    def _value(self, densities) -> float:
        a = b = 1
        for p, n, d in densities:
            fn, fd = local_density(self.N, p)
            a *= n * fd
            b *= d * fn
        g = math.gcd(a, b)
        key = (a // g, b // g)
        s = self._values.get(key)
        if s is None:
            s = self._values[key] = self._num * key[0] / (self._den * key[1])
        return s

    def value(self, *locals_) -> float:
        """S for the cell whose three progressions have these ``local`` tables."""
        densities = self._densities(locals_)
        return 0.0 if densities is None else self._value(densities)

    def series(self, inst: TripleInstance) -> SingularSeriesValue:
        """S for one cell, with the tail: |sigma_p - 1| summed over p > p_max // 10."""
        if inst.N != self.N:
            raise ValueError(f"cache built for N={self.N}, got N={inst.N}")
        densities = self._densities([self.local(prog.k, prog.l) for prog in inst.progs])
        if densities is None:
            return SingularSeriesValue(0.0, self.p_max, 0.0)
        tail = 0.0
        for p, term in _truncation(self.p_max)[3]:
            if self.N % p == 0:
                n, d = local_density(self.N, p)
                term = abs(n / d - 1.0)
            tail += term
        for p, n, d in densities:
            if p > self.p_max // 10:
                fn, fd = local_density(self.N, p)
                tail += abs(n / d - 1.0) - abs(fn / fd - 1.0)
        return SingularSeriesValue(self._value(densities), self.p_max, tail)
