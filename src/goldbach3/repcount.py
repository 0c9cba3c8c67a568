"""Weighted counts of three-prime representations.

The central object is

    R(N) = sum over ordered prime triples p1 + p2 + p3 = N,
           with p_i restricted to its progression,
           of log(p1) * log(p2) * log(p3),

computed two independent ways: a direct triple enumeration (the oracle,
capped at small N because of its cost) and an FFT convolution path that
scales to N around 10^6 and beyond.  Both also produce the unweighted
ordered-triple count; the convolution recovers it by rounding and loudly
refuses if the rounded values drift.

Pair convolutions run on the wheel of modulus 6: a prime p = 6u +- 1
sits at index u (``wheel_index``) of one of two arrays, by p mod 6, of
length ``wheel_length(N)``, the first fast size from N // 3 + 2 on, and
each class that holds a prime gets one ``spectrum``.
Two indices sum to at most N // 3 + 1, so a pair product never wraps,
and each pair of classes lands on one residue mod 6: (1, 1) on 6s + 2,
(1, 5) and (5, 1) on 6s, (5, 5) on 6s - 2.  A gather at N reads the
residue of N - p3, so an odd N needs only the residues of N - 1 and
N - 5 (``wheel_plan``): four rffts and two irffts of a third of the
length that one pair product of odd primes needs.  ``PairCounts`` adds
the pairs with a 2 or a 3 directly, in O(pi(N)); a residue that no
prime p3 >= 5 reads is not transformed, and p3 = 2 or 3 reads it by one
direct sum.  ``pair_engine`` transforms each progression once and pairs
any two: counts, ``delta`` lists and the sweeps that gather use it.

``spectrum`` is the one place that scatters weighted primes and calls
rfft.  Besides the wheel it serves the odd layout (odd p at (p - 1)/2,
length ``half_length(N)``), which belongs to the spectral contraction of
odd-N sweeps (``sweeps``), and the whole circle at ``fft_length(N)``
(the first fast size from 2N+1 on, where arrays on [0, N] never wrap):
the grid samples of S(alpha) and K(alpha) (``expsum``).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .arith import PrimeTable, Progression, TripleInstance
from .exceptions import rounded_counts

__all__ = [
    "WeightedCount",
    "count_direct",
    "count_convolution",
    "count_convolution_targets",
    "DIRECT_CAP",
]

# Direct enumeration is for oracle duty only; anything bigger goes through
# the convolution path.  Callers may raise the cap deliberately.
DIRECT_CAP = 3000


@dataclass(frozen=True)
class WeightedCount:
    """A log-weighted representation count plus the raw solution count."""

    value: float
    solutions: int


def prime_logs(N: int, prog: Progression, table: PrimeTable):
    """Primes p <= N in the progression, and their natural logs."""
    p = table.primes_in_progression(N, prog)
    return p, np.log(p.astype(np.float64))


def _five_smooth(limit: int) -> list[int]:
    """The sorted numbers 2^a 3^b 5^c <= limit."""
    out = []
    p2 = 1
    while p2 <= limit:
        p3 = p2
        while p3 <= limit:
            p5 = p3
            while p5 <= limit:
                out.append(p5)
                p5 *= 5
            p3 *= 3
        p2 *= 2
    return sorted(out)


# the fast transform lengths, no prime factor above 5; 2^33 passes
# fft_length(MAX_SIEVE_LIMIT), the longest length any accepted input asks for
_FAST_LENGTHS = _five_smooth(2**33)


def _fast_length(n: int) -> int:
    """The least 5-smooth number >= n, for n >= 1."""
    i = bisect_left(_FAST_LENGTHS, n)
    if i == len(_FAST_LENGTHS):
        raise ValueError(f"transform length {n} exceeds the largest supported {_FAST_LENGTHS[-1]}")
    return _FAST_LENGTHS[i]


def fft_length(N: int) -> int:
    """Fast real-FFT length >= 2N+1: no cyclic wrap for supports in [0, N]."""
    return _fast_length(2 * N + 1)


def spectrum(p: np.ndarray, values, L: int) -> np.ndarray:
    """rfft of the length-L array carrying ``values`` at the indices ``p`` < L.

    Entry t is conj(sum_p values_p e(p t / L)) for t = 0..L//2; the input
    is real, so the other half of the circle is the conjugate mirror.  The
    scatter covers the support alone, and rfft pads it with zeros to L.
    """
    a = np.zeros(int(p.max()) + 1 if p.size else 1)
    a[p] = values
    return np.fft.rfft(a, L)


def half_length(N: int) -> int:
    """Fast real-FFT length >= N: no cyclic wrap for odd primes <= N."""
    return _fast_length(N)


def wheel_length(N: int) -> int:
    """Transform length of the wheel for primes <= N.

    No index passes (N + 2) // 6, so two indices sum to at most
    N // 3 + 1 and a pair product of length >= N // 3 + 2 never wraps.
    """
    return _fast_length(N // 3 + 2)


def wheel_index(p):
    """Index of the primes p = 6u +- 1 on the wheel: u."""
    return (p + 2) // 6


def _weight_at(p: np.ndarray, values: np.ndarray, n: int) -> float:
    """The weight of n among the sorted primes ``p``; 0.0 when n is absent."""
    i = int(p.searchsorted(n))
    return float(values[i]) if i < p.size and p[i] == n else 0.0


def by_residue(p: np.ndarray, values: np.ndarray) -> dict:
    """The sorted primes ``p`` and their weights by residue mod 6.

    Residues run in increasing order, and empty ones are left out.  The
    residues 2 and 3 hold the primes 2 and 3 alone.
    """
    rem = (p % 6).astype(np.int8)
    # a stable sort keeps each residue's primes in order; on int8 keys it
    # is a radix sort, several times faster than boolean masks
    order = np.argsort(rem, kind="stable")
    p, values = p[order], values[order]
    out = {}
    start = 0
    for r, end in enumerate(np.cumsum(np.bincount(rem, minlength=6)).tolist()):
        if end > start:
            out[r] = (p[start:end], values[start:end])
        start = end
    return out


def _weight_in(parts: dict, n: int) -> float:
    """The weight of n in a ``by_residue`` split; 0.0 when n is absent."""
    part = parts.get(n % 6)
    return 0.0 if part is None else _weight_at(*part, n)


# The wheel-6 class pairs whose sums fall in each even residue mod 6:
# primes 6u + 1 and 6v + 1 sum to 6(u + v) + 2, 6u + 1 and 6v - 1 to
# 6(u + v), and 6u - 1 and 6v - 1 to 6(u + v) - 2.
PAIR_CLASSES = {0: ((1, 5), (5, 1)), 2: ((1, 1),), 4: ((5, 5),)}


def wheel_plan(targets, columns) -> tuple[set, list]:
    """The residues mod 6 whose pair counts are kept, and the classes they transform.

    ``columns`` are ``by_residue`` splits of third-variable weights.  A
    gather at N reads the residue of N - c for the primes of residue c;
    each residue that a class 1 or 5 reads is kept.  The primes 2 and 3
    read a kept residue or a direct sum (``PairCounts.at``).
    """
    residues = {(N - c) % 6 for N in targets for column in columns
                for c, (q, _) in column.items() if c in (1, 5) and q[0] <= N}
    classes = sorted({r for rho in residues for pair in PAIR_CLASSES.get(rho, ()) for r in pair})
    return residues, classes


class PairCounts:
    """Pair counts P(n) = sum over p1 + p2 = n of x(p1) y(p2) on wheel 6, n <= N.

    For each residue rho kept, ``rows[rho][n // 6]`` is P(n) at the
    n = rho (mod 6).  An even residue is one irfft of the sum of its class
    products (``PAIR_CLASSES``); the (5, 5) row starts one index in, since
    those sums are 6s - 2.  An odd residue starts from zeros.  The pairs
    with a 2 or a 3 are then scattered in, one class at a time: (s, q)
    for s = 2, 3 of x and every prime q of y, and (q, s) for s = 2, 3 of
    y and the primes q >= 5 of x, so each such pair once.  The products
    are formed in the order of the arguments; sx and sy are the class spectra.
    """

    def __init__(self, x: dict, sx: dict, y: dict, sy: dict, N: int, residues):
        self.x, self.y = x, y
        # the weights of the primes 2 and 3 in x and in y
        self.small = [(s, _weight_in(self.x, s), _weight_in(self.y, s)) for s in (2, 3)]
        self.rows = {}
        self._direct = {}
        L = wheel_length(N)
        for rho in sorted(residues):
            product = None
            for r1, r2 in PAIR_CLASSES.get(rho, ()):
                if r1 in sx and r2 in sy:
                    if product is None:
                        product = sx[r1] * sy[r2]
                    else:
                        product += sx[r1] * sy[r2]
            if product is None:
                self.rows[rho] = np.zeros(N // 6 + 1)
            else:
                row = np.fft.irfft(product, L)
                del product
                self.rows[rho] = row[1:] if rho == 4 else row
        for s, xs, ys in self.small:
            for ws, parts, classes in ((xs, self.y, (1, 2, 3, 5)), (ys, self.x, (1, 5))):
                for c in classes if ws else ():
                    row = self.rows.get((s + c) % 6)
                    if row is not None and c in parts:
                        q, w = parts[c]
                        e = int(q.searchsorted(N - s, side="right"))
                        row[(s + q[:e]) // 6] += ws * w[:e]

    def at(self, target: int, q: np.ndarray) -> np.ndarray:
        """P(target - q) for the primes q <= target of one residue mod 6.

        A class 1 or 5 reads a kept row.  The prime 2 or 3 reads one too
        when its residue is kept, and otherwise the direct sum.
        """
        row = self.rows.get((target - int(q[0])) % 6)
        if row is not None:
            return row[(target - q) // 6]
        return np.array([self.direct(target - int(v)) for v in q.tolist()])

    def direct(self, n: int) -> float:
        """P(n) from the pairs of ``PairCounts`` summed directly, O(pi(n)).

        The pairs of primes >= 5 look each n - p up among y's sorted
        primes of its class (``searchsorted``), with weight 0.0 where
        n - p is absent.
        """
        if n not in self._direct:
            x, y = self.x, self.y
            total = 0.0
            for s, xs, ys in self.small:
                if xs:
                    total += xs * _weight_in(y, n - s)
                if ys and (n - s) % 6 in (1, 5):
                    total += ys * _weight_in(x, n - s)
            for c in (1, 5):
                r = (n - c) % 6
                if c in x and r in (1, 5) and r in y:
                    p, v = x[c]
                    q, w = y[r]
                    e = int(p.searchsorted(n - 5, side="right"))
                    m = n - p[:e]
                    i = np.minimum(q.searchsorted(m), q.size - 1)
                    total += float(np.einsum("i,i->", v[:e], np.where(q[i] == m, w[i], 0.0)))
            self._direct[n] = total
        return self._direct[n]

    def gather(self, target: int, column: dict):
        """(weights, P(target - p3)) per residue of a ``by_residue`` column, for p3 <= target."""
        for q, w in column.values():
            e = int(q.searchsorted(target, side="right"))
            if e:
                yield w[:e], self.at(target, q[:e])

    def dot(self, target: int, column: dict) -> float:
        """The sum over primes p3 <= target of a column of w(p3) P(target - p3).

        einsum sums each residue in numpy's own fixed order; a BLAS dot
        product's rounding can change with the number of BLAS threads.
        """
        return sum(float(np.einsum("i,i->", w, P)) for w, P in self.gather(target, column))


def pair_engine(weights: dict, targets, columns, run=map):
    """``pair(a, b)``: the ``PairCounts`` at max(targets) of two keys of ``weights``.

    ``weights`` and ``columns`` are ``by_residue`` splits of weighted
    primes; each key is transformed once, through ``run``, in the classes
    that ``wheel_plan`` keeps for the columns.  The spectra live as long
    as ``pair``.
    """
    N = max(targets)
    residues, classes = wheel_plan(targets, columns)
    L = wheel_length(N)

    def transform(key):
        return {r: spectrum(wheel_index(q), w, L) for r, (q, w) in weights[key].items()
                if r in classes}

    keys = list(weights)
    spectra = dict(zip(keys, run(transform, keys)))
    return lambda a, b: PairCounts(weights[a], spectra[a], weights[b], spectra[b], N, residues)


def count_direct(inst: TripleInstance, table: PrimeTable, cap: int = DIRECT_CAP) -> WeightedCount:
    """Exact R by enumerating prime pairs (p1, p2) and testing p3 = N - p1 - p2.

    The enumeration is quadratic in pi(N); the default cap keeps it in
    oracle territory.  Raise ``cap`` explicitly when a larger brute-force
    reference is wanted.
    """
    N = inst.N
    table.check_covers(N)
    if N > cap:
        raise ValueError(
            f"count_direct is capped at N <= {cap} (got N={N}); "
            f"use count_convolution for large targets"
        )
    prog1, prog2, prog3 = inst.progs
    p1s, log1s = prime_logs(N, prog1, table)
    p2s, log2s = prime_logs(N, prog2, table)
    is_p3 = np.zeros(N + 1, dtype=bool)
    is_p3[table.primes_in_progression(N, prog3)] = True

    value = 0.0
    solutions = 0
    for p1, logp1 in zip(p1s.tolist(), log1s.tolist()):
        p3 = N - p1 - p2s
        ok = p3 >= 2
        if not ok.any():
            continue
        cand = p3[ok]
        good = is_p3[cand]
        if not good.any():
            continue
        sel = cand[good]
        solutions += sel.size
        value += logp1 * float(np.einsum("i,i->", log2s[ok][good], np.log(sel.astype(np.float64))))
    return WeightedCount(value=value, solutions=solutions)


def count_convolution(inst: TripleInstance, table: PrimeTable) -> WeightedCount:
    """R via real-input FFT convolution of the first two weighted indicators.

    A one-target call of ``count_convolution_targets``.
    """
    return count_convolution_targets([inst.N], inst.progs, table)[0]


def count_convolution_targets(targets, progs, table: PrimeTable) -> list[WeightedCount]:
    """R for each target N in ``targets`` (any order, repeats allowed).

    One weighted and one unit pass of wheel-6 pair counts of variables 1
    and 2 at the largest target serve every target: R(N) gathers
    P(N - p3) over the primes p3 <= N of the third progression, class by
    class (``PairCounts.gather``); each pass is one ``pair_engine``, so a
    repeated progression is transformed once.  Matches count_direct up to
    floating error (about 1e-12 relative at desk scale).  The unweighted
    count rounds each gathered entry of the unit pass (``rounded_counts``,
    a hard error past ``ROUNDING_GUARD``).  The
    spectra are multiplied in (k, l) order, so swapping progressions 1 and
    2 gives bit-identical results, as the sweeps' shared pairs need.
    """
    Ns = [TripleInstance(int(N), progs).N for N in targets]
    if not Ns:
        raise ValueError("count_convolution_targets needs at least one target")
    top = max(Ns)
    table.check_covers(top)
    prog1, prog2, prog3 = progs
    if (prog2.k, prog2.l) < (prog1.k, prog1.l):
        prog1, prog2 = prog2, prog1
    parts = {prog: by_residue(*prime_logs(top, prog, table)) for prog in dict.fromkeys(progs)}
    third = parts[prog3]
    counts = pair_engine({prog: parts[prog] for prog in (prog1, prog2)}, Ns, [third])(prog1, prog2)
    values = [counts.dot(N, third) for N in Ns]
    del counts  # the weighted rows go before the unit pass transforms
    unit = {prog: {r: (q, np.ones(q.size)) for r, (q, _) in parts[prog].items()}
            for prog in (prog1, prog2)}
    counts = pair_engine(unit, Ns, [third])(prog1, prog2)

    out = []
    for N, value in zip(Ns, values):
        solutions = 0
        raw = [P for _, P in counts.gather(N, third)]
        if raw:
            raw = np.concatenate(raw)
            solutions = int(rounded_counts(raw, f"convolution count at N={N}").sum())
        if solutions == 0:
            value = 0.0  # empty sum; the float residue is pure FFT noise
        out.append(WeightedCount(value=value, solutions=solutions))
    return out

