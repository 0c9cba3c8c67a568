"""Weighted counts of three-prime representations and prime pair correlations.

The central object is

    R(N) = sum over ordered prime triples p1 + p2 + p3 = N,
           with p_i restricted to its progression,
           of log(p1) * log(p2) * log(p3),

computed two independent ways: a direct triple enumeration (the oracle,
capped at small N because of its cost) and an FFT convolution path that
scales to N around 10^6 and beyond.  Both also produce the unweighted
ordered-triple count; the convolution recovers it by rounding and loudly
refuses if the rounded values drift.

Counts and sweeps convolve in the odd layout.  Every prime but 2 is odd,
so an odd prime p <= N sits at index (p - 1) / 2 of an array of length
``half_length(N)`` (the first size from N on with no prime factor above
5).  Two such indices sum to at most N - 1, so the cyclic product never
wraps, and its value at s is the pair count at 2s + 2.  The terms with
p = 2 are added directly, in O(pi(N)), by ``pair_convolution``.  The
circle method's samples of S(alpha) on the whole circle (``expsum``) and
``pair_correlation`` use ``spectrum`` at ``fft_length(N)`` (the first fast
size from 2N+1 on), where spectra of arrays on [0, N] never wrap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import fft

from .arith import PrimeTable, Progression, TripleInstance
from .exceptions import ROUNDING_GUARD, ConsistencyError

__all__ = [
    "WeightedCount",
    "count_direct",
    "count_convolution",
    "count_convolution_targets",
    "pair_correlation",
    "DIRECT_CAP",
]

# Direct enumeration is for oracle duty only; anything bigger goes through
# the convolution path.  Callers may raise the cap deliberately.
DIRECT_CAP = 3000


@dataclass(frozen=True)
class WeightedCount:
    """A log-weighted representation count plus the raw solution count.

    ``even_target`` flags targets N of even parity: the count is still
    well defined, but three odd primes can never reach an even N, so the
    value is dominated by degenerate triples involving p = 2.
    """

    value: float
    solutions: int
    even_target: bool = False


def prime_logs(N: int, prog: Progression, table: PrimeTable):
    """Primes p <= N in the progression, and their natural logs."""
    p = table.primes_in_progression(N, prog)
    return p, np.log(p.astype(np.float64))


def fft_length(N: int) -> int:
    """Fast real-FFT length >= 2N+1: no cyclic wrap for supports in [0, N]."""
    return fft.next_fast_len(2 * N + 1, real=True)


def spectrum(p: np.ndarray, values, L: int) -> np.ndarray:
    """rfft of the length-L array carrying ``values`` at the indices ``p``.

    Entry t is conj(sum_p values_p e(p t / L)) for t = 0..L//2; the input
    is real, so the other half of the circle is the conjugate mirror.
    """
    a = np.zeros(L)
    a[p] = values
    return fft.rfft(a, overwrite_x=True)


def half_length(N: int) -> int:
    """Fast real-FFT length >= N: no cyclic wrap for odd primes <= N."""
    return fft.next_fast_len(N, real=True)


class OddSpectrum(NamedTuple):
    """Weighted primes p <= N, split for the odd layout.

    ``two`` is the weight of the prime 2 (0.0 when it is absent); ``odd``
    and ``values`` are the odd primes and their weights; ``spec`` is the
    rfft, at ``half_length(N)``, of the array carrying the weight of each
    odd p at (p - 1) / 2.
    """

    two: float
    odd: np.ndarray
    values: np.ndarray
    spec: np.ndarray


def odd_spectrum(p: np.ndarray, values: np.ndarray, N: int) -> OddSpectrum:
    """The odd-layout transform of the weights ``values`` at the sorted primes ``p``."""
    k = int(p.size > 0 and p[0] == 2)
    a = np.zeros(half_length(N))
    a[p[k:] >> 1] = values[k:]
    return OddSpectrum(float(values[0]) if k else 0.0, p[k:], values[k:],
                       fft.rfft(a, overwrite_x=True))


def pair_convolution(x: OddSpectrum, y: OddSpectrum, N: int, product=None) -> np.ndarray:
    """c[m] = sum over p1 + p2 = m of x(p1) * y(p2), for m in [0, N].

    Pairs of odd primes come from one irfft of the product of the
    spectra; pairs with p1 = 2 or p2 = 2 are added directly.  Not
    bit-symmetric in its arguments: complex products may round
    differently with the factors swapped (fused multiply-adds).
    ``product`` is x.spec * y.spec when the caller has formed it already,
    in place when neither spectrum is needed again; the irfft may
    overwrite it.
    """
    if product is None:
        product = x.spec * y.spec
    h = fft.irfft(product, half_length(N), overwrite_x=True)
    del product
    c = np.zeros(N + 1)  # after the irfft, which may free the product first
    c[2::2] = h[: N // 2]
    c[4] += x.two * y.two
    for a, b in ((x, y), (y, x)):
        if a.two:
            e = int(np.searchsorted(b.odd, N - 2, side="right"))
            c[b.odd[:e] + 2] += a.two * b.values[:e]
    return c


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
    is_p = table.is_prime_mask
    k3, l3 = prog3.k, prog3.l

    value = 0.0
    solutions = 0
    for p1, logp1 in zip(p1s.tolist(), log1s.tolist()):
        p3 = N - p1 - p2s
        ok = p3 >= 2
        if not ok.any():
            continue
        cand = p3[ok]
        good = is_p[cand] & (cand % k3 == l3)
        if not good.any():
            continue
        sel = cand[good]
        solutions += sel.size
        value += logp1 * float(np.dot(log2s[ok][good], np.log(sel.astype(np.float64))))
    return WeightedCount(value=value, solutions=solutions, even_target=N % 2 == 0)


def count_convolution(inst: TripleInstance, table: PrimeTable) -> WeightedCount:
    """R via real-input FFT convolution of the first two weighted indicators.

    A one-target call of ``count_convolution_targets``.
    """
    return count_convolution_targets([inst.N], inst.progs, table)[0]


def count_convolution_targets(targets, progs, table: PrimeTable) -> list[WeightedCount]:
    """R for each target N in ``targets`` (any order, repeats allowed).

    One weighted and one unit convolution of variables 1 and 2 at the
    largest target serve every target: ``c12[N - p3]`` for primes p3 <= N
    in the third progression.  Matches count_direct up to floating error
    (about 1e-12 relative at desk scale).  The unweighted count rounds
    each consumed entry of the unit convolution, with a hard error if
    anything is further than ``ROUNDING_GUARD`` from an integer.  The
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
    p1, log1 = prime_logs(top, prog1, table)
    p2, log2 = prime_logs(top, prog2, table)
    p3s, log3s = prime_logs(top, prog3, table)
    ends = np.searchsorted(p3s, Ns, side="right").tolist()

    def conv(v1, v2):
        x, y = odd_spectrum(p1, v1, top), odd_spectrum(p2, v2, top)
        # each spectrum is used once: multiply in place and keep neither,
        # so only the product is live while the irfft allocates its output
        product = x.spec
        product *= y.spec
        x, y = x._replace(spec=None), y._replace(spec=None)
        return pair_convolution(x, y, top, product)

    c12 = conv(log1, log2)
    # einsum sums in numpy's own fixed order; a BLAS dot product's rounding
    # can change with the number of BLAS threads
    values = [float(np.einsum("i,i->", log3s[:e], c12[N - p3s[:e]])) for N, e in zip(Ns, ends)]
    del c12
    cu = conv(np.ones_like(log1), np.ones_like(log2))

    out = []
    for N, e, value in zip(Ns, ends, values):
        solutions = 0
        if e:
            raw = cu[N - p3s[:e]]
            rounded = np.rint(raw)
            drift = float(np.max(np.abs(raw - rounded)))
            if drift >= ROUNDING_GUARD:
                raise ConsistencyError(
                    f"convolution count drifted {drift:.3e} from integrality at N={N}"
                )
            solutions = int(rounded.sum())
        if solutions == 0:
            value = 0.0  # empty sum; the float residue is pure FFT noise
        out.append(WeightedCount(value=value, solutions=solutions, even_target=N % 2 == 0))
    return out


def pair_correlation(
    N: int,
    prog: Progression,
    n_lo: int,
    n_hi: int,
    table: PrimeTable,
    method: str = "conv",
    cap: int = DIRECT_CAP,
) -> dict[int, float]:
    """Log-weighted counts w(n) of prime pairs p1 - p2 = n with p1 constrained.

    w(n) = sum over p1, p2 <= N, p1 - p2 = n, p1 in the progression,
    of log(p1) * log(p2).  ``method="conv"`` cross-correlates the weighted
    indicators with one FFT; ``method="direct"`` is the quadratic oracle
    and obeys the same cap as count_direct.
    """
    table.check_covers(N)
    if n_lo > n_hi:
        raise ValueError(f"empty range: n_lo={n_lo} > n_hi={n_hi}")
    if abs(n_lo) > N or abs(n_hi) > N:
        raise ValueError(f"pair differences live in [-{N}, {N}], got [{n_lo}, {n_hi}]")

    if method == "direct":
        if N > cap:
            raise ValueError(f"direct pair correlation capped at N <= {cap}")
        p1s, log1s = prime_logs(N, prog, table)
        p2s, log2s = prime_logs(N, Progression(1, 0), table)
        out = {n: 0.0 for n in range(n_lo, n_hi + 1)}
        for p1, logp1 in zip(p1s.tolist(), log1s.tolist()):
            d = p1 - p2s
            ok = (d >= n_lo) & (d <= n_hi)
            for n, lg in zip(d[ok].tolist(), log2s[ok].tolist()):
                out[n] += logp1 * lg
        return out
    if method != "conv":
        raise ValueError(f"unknown method {method!r}")

    L = fft_length(N)
    p1, log1 = prime_logs(N, prog, table)
    p2, log2 = prime_logs(N, Progression(1, 0), table)
    corr = fft.irfft(spectrum(p1, log1, L) * np.conj(spectrum(p2, log2, L)), L)
    # corr[m] = sum_j a1[j] a2[j - m mod L]; negative differences sit at L + n
    ns = np.arange(n_lo, n_hi + 1)
    return {int(n): float(corr[n % L]) for n in ns}
