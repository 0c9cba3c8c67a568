"""Exponential sums over primes, grid extraction, and kernel integrals.

The basic sum is S(alpha) = sum over primes p <= N in a progression of
log(p) * e(alpha * p), with e(x) = exp(2 pi i x).  The weighted variant

    K(alpha) = sum over k <= k_max, gcd(k, l3) = 1,
               of lambda(k) * S_{k, l3 mod k}(alpha)

collapses to a single pass over primes once each prime carries the
coefficient c_p = log(p) * sum of lambda(k) over the k it satisfies.

Sampling at T >= 2N+1 equally spaced points turns every integral of a
product of these sums into an exact finite identity, because the
integrands are trigonometric polynomials of degree at most 2N (or 3N with
an alias-free coefficient pickup).  The kernel min(H, 1/||gamma||) has
no such discretization: its Fourier coefficients c(h) have a closed form
through the cosine integral, and the companion integral J(n, k) is taken
by a fixed Gauss-Legendre rule, so the two check each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from typing import Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from .arith import PrimeTable, Progression, TripleInstance
from .exceptions import rounded_counts
from .repcount import (
    WeightedCount,
    fft_length,
    prime_logs,
    spectrum,
)

__all__ = [
    "WeightSpec",
    "KernelCoefficients",
    "eval_S",
    "eval_S_grid",
    "weight_coefficients",
    "eval_K",
    "eval_K_grid",
    "coefficient_extract",
    "coefficient_extract_count",
    "grid_count",
    "grid_length",
    "kernel_coefficients",
    "J_integral",
]

# largest h_max of ``kernel_coefficients`` and node count of ``J_integral``,
# checked before anything is allocated: at these sizes `expsum --mode
# kernel` (one output row per h) and `--mode J` each peak below 150 MB
MAX_KERNEL_H = 10**5
MAX_J_NODES = 10**6
# 20-point Gauss-Legendre rule on [-1/2, 1/2]
GAUSS_NODES, GAUSS_WEIGHTS = (a / 2.0 for a in leggauss(20))
# largest grid length whose phase products (m mod T) * t stay below 2**63
MAX_GRID = 3_037_000_499
# largest k_max of a ``WeightSpec``: k_max + 1 weights take 80 MB here
MAX_KMAX = 10**7


def _e(x):
    return np.exp(2j * np.pi * x)


def _grid_phases(m: int, T: int, size: int) -> np.ndarray:
    """e(m t / T) for t = 0..size-1, with m t reduced mod T in exact integers.

    Forming m * t / T in floating point carries an absolute error near
    |m| * 2**-53 in the phase, which the callers multiply by sums of size
    up to N**3; reducing first keeps every phase argument in [0, 1).
    """
    t = np.arange(size, dtype=np.int64)
    return _e((m % T) * t % T / T)


def _half_circle_phases(m: int, T: int) -> np.ndarray:
    """e(m t / T) for t = 0..T//2, doubled (exactly) where t stands for t and T - t.

    With f(T - t) = conj(f(t)), the sum of Re(f(t) e(m t / T)) over the circle is the sum
    of Re(f(t) times these): t = 0 and the Nyquist point of even T are their own mirrors.
    """
    phases = _grid_phases(m, T, T // 2 + 1)
    phases[1 : (T + 1) // 2] *= 2.0
    return phases


def _grid_values(p: np.ndarray, values, T: int) -> np.ndarray:
    """sum_p values_p e(p t / T) at all t = 0..T-1, mirrored from one rfft."""
    half = spectrum(p, values, T)
    out = np.empty(T, dtype=np.complex128)
    np.conjugate(half, out=out[: half.size])
    out[half.size :] = half[1 : T - half.size + 1][::-1]
    return out


def _zero_weights(k_max: int) -> np.ndarray:
    if k_max > MAX_KMAX:  # refused before anything is allocated
        raise ValueError(f"k_max={k_max} exceeds the largest supported {MAX_KMAX}")
    return np.zeros(k_max + 1)


@dataclass(frozen=True)
class WeightSpec:
    """Real coefficients lambda(k), |lambda(k)| <= 1, tied to a residue l3.

    Entries at k with gcd(k, l3) != 1 are forced to zero on construction,
    since no primitive progression exists there.  ``lam[k]`` holds the
    coefficient for modulus k; ``lam[0]`` is unused.
    """

    l3: int
    lam: np.ndarray

    def __post_init__(self):
        if self.l3 < 0:
            raise ValueError(f"residue l3 must be nonnegative, got {self.l3}")
        lam = np.asarray(self.lam, dtype=np.float64).copy()
        if lam.ndim != 1 or lam.size < 2:
            raise ValueError("lam must be a 1-d array indexed by modulus k >= 1")
        if not np.all(np.abs(lam) <= 1.0 + 1e-12):  # NaN fails this too
            raise ValueError("weights must be finite and satisfy |lambda(k)| <= 1")
        ks = np.arange(lam.size)
        if self.l3 > np.iinfo(np.int64).max:  # np.gcd takes such an l3 elementwise
            ks = ks.astype(object)
        lam[np.gcd(ks, self.l3) != 1] = 0.0
        lam[0] = 0.0
        lam.setflags(write=False)
        object.__setattr__(self, "lam", lam)

    @property
    def k_max(self) -> int:
        return self.lam.size - 1

    def active_moduli(self) -> list[int]:
        return np.flatnonzero(self.lam).tolist()

    @classmethod
    def from_map(cls, l3: int, mapping: dict[int, float]) -> "WeightSpec":
        k_max = max(mapping) if mapping else 1
        lam = _zero_weights(k_max)
        for k, v in mapping.items():
            if k < 1:
                raise ValueError(f"moduli must be positive, got {k}")
            lam[k] = v
        return cls(l3=l3, lam=lam)

    @classmethod
    def from_preset(cls, name: str, k_max: int, l3: int) -> "WeightSpec":
        """Named coefficient families: zero, unit, alternating, single:<k>."""
        if k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {k_max}")
        lam = _zero_weights(k_max)
        if name == "zero":
            pass
        elif name == "unit":
            lam[1:] = 1.0
        elif name == "alternating":
            ks = np.arange(k_max + 1)
            lam = np.where(ks % 2 == 0, 1.0, -1.0).astype(np.float64)
        elif name.startswith("single:"):
            k = int(name.split(":", 1)[1])
            if not 1 <= k <= k_max:
                raise ValueError(f"single:{k} outside 1..{k_max}")
            lam[k] = 1.0
        else:
            raise ValueError(f"unknown weight preset {name!r}")
        return cls(l3=l3, lam=lam)

    @classmethod
    def from_file(cls, path, l3: int) -> "WeightSpec":
        """Load `k value` lines; blank lines and #-comments are skipped."""
        mapping: dict[int, float] = {}
        with open(path, "r", encoding="utf-8") as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                parts = line.split()
                if len(parts) != 2:
                    raise ValueError(f"expected 'k value' per line, got {raw!r}")
                mapping[int(parts[0])] = float(parts[1])
        if not mapping:
            raise ValueError(f"no weights found in {path}")
        return cls.from_map(l3, mapping)


def _check_alpha(alpha: float) -> None:
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")


def _point_sum(alpha: float, p: np.ndarray, values: np.ndarray) -> complex:
    """sum of values_p e(alpha p).  fmod drops alpha's integer part exactly, so each
    phase rounds once, in a product below p, before its reduction to [0, 1]; einsum
    sums in numpy's fixed order, whatever the number of BLAS threads."""
    _check_alpha(alpha)
    x = math.fmod(alpha, 1.0) * p
    x -= np.floor(x)
    return complex(np.einsum("i,i->", values, _e(x)))


def eval_S(alpha: float, N: int, prog: Progression, table: PrimeTable) -> complex:
    """S(alpha) = sum of log(p) e(alpha p) over primes p <= N in the progression,
    each phase reduced exactly and the terms summed in a fixed order (``_point_sum``)."""
    return _point_sum(alpha, *prime_logs(N, prog, table))


def eval_S_grid(N: int, prog: Progression, table: PrimeTable, T: int) -> np.ndarray:
    """S at all grid points t/T, t = 0..T-1, via one length-T real FFT."""
    if T < N + 1:
        raise ValueError(f"grid too short: T={T} must exceed N={N}")
    return _grid_values(*prime_logs(N, prog, table), T)


def weight_coefficients(N: int, w: WeightSpec, table: PrimeTable):
    """Per-prime coefficients c_p = log(p) * sum of lambda(k) over k | (p - l3).

    The k-sum for all p <= N at once is a progression sieve: each active
    modulus k adds lambda(k) along the class l3 mod k, costing
    sum_k N/k = O(N log k_max) vectorized slice updates in total.
    Returns (primes, c_p) as aligned arrays.
    """
    table.check_covers(N)
    acc = np.zeros(N + 1)
    for k in w.active_moduli():
        acc[w.l3 % k :: k] += w.lam[k]
    p, c = prime_logs(N, Progression(1, 0), table)
    c *= acc[p]  # in place: a new array here raised the grid_arcs peak RSS by 18 MB
    return p, c


def eval_K(alpha: float, N: int, w: WeightSpec, table: PrimeTable) -> complex:
    """K(alpha) in one ``_point_sum`` over primes with precomputed coefficients."""
    return _point_sum(alpha, *weight_coefficients(N, w, table))


def eval_K_grid(N: int, w: WeightSpec, table: PrimeTable, T: int) -> np.ndarray:
    """K at all grid points t/T via one real FFT of the coefficient array."""
    if T < N + 1:
        raise ValueError(f"grid too short: T={T} must exceed N={N}")
    p, c = weight_coefficients(N, w, table)
    return _grid_values(p, c, T)


def grid_length(N: int, T: Optional[int] = None) -> int:
    """Grid size T for the exact identities at target N, or its default.

    Every grid identity holds for any T >= 2N+1, so the default is the
    first length from there on that real FFTs handle fast (no prime
    factor above 5); 2N+1 itself often has a large prime factor.
    """
    if T is None:
        T = fft_length(N)
    if T <= 2 * N:
        raise ValueError(f"T={T} aliases the coefficient at N; need T >= 2N+1")
    if T > MAX_GRID:
        raise ValueError(f"T={T} exceeds the largest supported grid {MAX_GRID}")
    return T


def _extractions(N: int, inst: TripleInstance, table: PrimeTable, T, unit_weights):
    """The grid extraction for each flag in ``unit_weights`` (True: unit weights, the
    count; False: ``coefficient_extract``), one set of prime arrays.

    Each pass multiplies the spectra into ``_half_circle_phases``, which carry
    the weights of the conjugate pairs, and sums the real parts.
    """
    if inst.N != N:
        raise ValueError(f"instance target {inst.N} does not match N={N}")
    T = grid_length(N, T)
    table.check_covers(N)
    # equal neighbours share a transform; (A, B, A) keeps three: reordering moves bits
    runs = [(prime_logs(N, prog, table), len(list(group))) for prog, group in groupby(inst.progs)]
    for unit in unit_weights:
        # an rfft gives conj(S_i), so this forms the conjugate of each
        # summand; only the real part is kept.  Each pass rebuilds the
        # phases (30 ms at N = 10^6): a phase array kept beside the product
        # raised the peak RSS of a process running grid counts by 45 MB.
        prod = _half_circle_phases(N, T)
        for (p, lg), repeats in runs:
            spec = spectrum(p, 1.0 if unit else lg, T)
            for _ in range(repeats):
                prod *= spec
            del spec  # one length-T spectrum at a time
        # np.sum adds pairwise: a plain dot product loses several more ulps
        # of the largest summand, about |S1 S2 S3| at t = 0
        value = float(np.sum(prod.real)) / T
        del prod  # free before the next pass allocates
        yield value


def coefficient_extract(N: int, inst: TripleInstance, table: PrimeTable,
                        T: Optional[int] = None) -> float:
    """R as the N-th Fourier coefficient of S1*S2*S3 on a T-point grid.

    (1/T) sum_t S1 S2 S3 e(-N t/T) is exact for T >= 2N+1: the product is
    a trigonometric polynomial supported on [6, 3N], and the aliases of N
    (N +- T, ...) fall outside that support.  The summand at T - t is the
    conjugate of the one at t, so only t = 0..T//2 is formed, with weight
    2 on the points that stand for a conjugate pair.
    """
    return next(_extractions(N, inst, table, T, (False,)))


def coefficient_extract_count(
    N: int, inst: TripleInstance, table: PrimeTable, T: Optional[int] = None
) -> int:
    """Unweighted ordered-triple count via unit-weight extraction, rounded."""
    return int(rounded_counts(next(_extractions(N, inst, table, T, (True,))), "grid count"))


def grid_count(inst: TripleInstance, table: PrimeTable, T: Optional[int] = None) -> WeightedCount:
    """Both grid counts from one call and one set of prime arrays.

    ``solutions`` is ``coefficient_extract_count`` and ``value`` is
    ``coefficient_extract``, bit for bit; an empty count (no solutions)
    reports the value 0.0 without the weighted pass, whose float keeps a
    rounding floor.
    """
    values = _extractions(inst.N, inst, table, T, (True, False))
    solutions = int(rounded_counts(next(values), "grid count"))
    value = next(values) if solutions else 0.0
    return WeightedCount(value=value, solutions=solutions)


@dataclass(frozen=True)
class KernelCoefficients:
    """Fourier coefficients c(h) of the sawtooth cap min(H, 1/||gamma||).

    The kernel is even, so c(h) = c(-h) and only h >= 0 is stored;
    ``coeff`` handles the mirroring.
    """

    H: float
    h_max: int
    values: np.ndarray  # values[h] = c(h) for h = 0..h_max

    def coeff(self, h: int) -> float:
        if abs(h) > self.h_max:
            raise ValueError(f"|h|={abs(h)} beyond computed range {self.h_max}")
        return float(self.values[abs(h)])

    @cached_property
    def envelope_ok(self) -> bool:
        """|c(h)| <= 4*min(log H, H^2/h^2) for every computed h."""
        h = np.arange(self.h_max + 1, dtype=np.float64)
        bound = np.full_like(h, 4.0 * math.log(self.H))
        nz = h > 0
        bound[nz] = np.minimum(bound[nz], 4.0 * self.H**2 / h[nz] ** 2)
        return bool(np.all(np.abs(self.values) <= bound))


def _kernel_cut(H: float) -> float:
    """Where min(H, 1/||gamma||) stops being flat: 1/H, or 1/2 once H <= 2."""
    if not 1 < H < math.inf:
        raise ValueError(f"kernel height H must be finite and exceed 1, got {H}")
    return min(1.0 / H, 0.5)


def _cosine_integral(x: np.ndarray) -> np.ndarray:
    """Ci(x) = -integral from x to infinity of cos(t) / t dt, for x > 0.

    Below x = 2 the power series gamma + log x + sum over k >= 1 of
    (-x^2)^k / (2k (2k)!), stopped at k = 17, where a term is below
    1e-29.  From x = 2 on, Ci(x) = -Re E1(ix), with E1(z) = e^{-z} /
    (z + 1 - 1/(z + 3 - 4/(z + 5 - ...))): the continued fraction is
    evaluated backward from depth 100.
    """
    out = np.empty_like(x)
    small = x < 2.0
    s = x[small]
    y = -s * s
    term = np.ones_like(s)
    series = np.zeros_like(s)
    for k in range(1, 18):
        term = term * y / ((2 * k - 1) * (2 * k))
        series += term / (2 * k)
    out[small] = np.euler_gamma + np.log(s) + series
    big = x[~small]
    z = 1j * big
    t = z + 201.0
    for k in range(100, 0, -1):
        t = z + (2 * k - 1) - k * k / t
    out[~small] = -((np.cos(big) - 1j * np.sin(big)) / t).real
    return out


def kernel_coefficients(H: float, h_max: Optional[int] = None) -> KernelCoefficients:
    """Compute c(h) = integral over [0,1] of min(H, 1/||gamma||) e(-h gamma).

    The kernel is flat at height H on ||gamma|| <= cut = min(1/H, 1/2) and
    1/||gamma|| beyond, so by evenness c(h) = 2 * (flat + reciprocal) over
    [0, 1/2].  Both pieces have closed forms, the reciprocal one through the
    cosine integral Ci:

        c(h) = 2 [H sin(2 pi h cut) / (2 pi h) + Ci(pi h) - Ci(2 pi h cut)],
        c(0) = 2 [H cut + log(1 / (2 cut))].

    Ci comes from ``_cosine_integral``: a power series below 2 and the
    continued fraction of E1(ix) above, within 2e-15 absolute of
    scipy.special.sici, the tests' oracle.
    """
    cut = _kernel_cut(H)
    if h_max is None:
        if 10 * H > MAX_KERNEL_H:
            raise ValueError(f"default h_max = ceil(10 H) exceeds {MAX_KERNEL_H} at H={H}")
        h_max = math.ceil(10 * H)
    if not 0 <= h_max <= MAX_KERNEL_H:
        raise ValueError(f"h_max must lie in 0..{MAX_KERNEL_H}, got {h_max}")

    values = np.empty(h_max + 1)
    values[0] = 2.0 * (H * cut + math.log(0.5 / cut))
    w = 2.0 * np.pi * np.arange(1, h_max + 1)
    values[1:] = 2.0 * (H * np.sin(w * cut) / w + _cosine_integral(w / 2.0)
                        - _cosine_integral(w * cut))
    return KernelCoefficients(H=float(H), h_max=h_max, values=values)


def J_integral(n: int, k: int, H: float) -> float:
    """J(n, k) = integral over [0,1] of e(n gamma) min(H, 1/||gamma k||).

    A fixed Gauss-Legendre rule.  The kernel has period 1/k and is even
    in each period [j/k, (j+1)/k], so the rule runs over the distance d in
    [0, 1/2] from the period's ends, and each node d stands for the two
    points j + d and j + 1 - d of period j.  The panels end at the corner
    d = cut; the reciprocal piece is split geometrically into panels
    [a, 2a] or narrower, on which 1/d is smooth to the rule's order; and
    no panel spans more than half a wavelength of cos(2 pi n gamma) in
    either half of the period.  The nodes are distances themselves, so
    d keeps its full relative precision however small cut is.  The
    imaginary part vanishes by the kernel's evenness, so only the cosine
    integral is computed.  Analytically this collapses to c(-n/k) when k
    divides n and to 0 otherwise; the cosine is evaluated at each gamma
    so that the collapse stays a cross-check for the tests.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    cut = _kernel_cut(H)
    geometric = max(0, math.ceil(math.log2(0.5 / cut)))  # panels from cut to 1/2
    waves = -(-2 * abs(n) // k)  # half wavelengths of cos(2 pi n gamma) per period
    if GAUSS_NODES.size * k * (waves + 2 + 2 * geometric) > MAX_J_NODES:
        raise ValueError(f"J({n}, {k}) at H={H} needs more than {MAX_J_NODES} quadrature nodes")
    # panel edges in d: the corner, the geometric panels, and the half
    # wavelengths of z = k gamma - j, folded onto d = min(z, 1 - z)
    z = np.linspace(0.0, 1.0, waves + 1)
    edges = np.union1d(np.concatenate(([0.0], np.geomspace(cut, 0.5, geometric + 1))),
                       np.minimum(z, 1.0 - z))
    step = np.diff(edges)
    d = ((edges[:-1] + step / 2)[:, None] + step[:, None] * GAUSS_NODES).ravel()
    kernel = np.minimum(H, 1.0 / np.maximum(d, cut)) * (step[:, None] * GAUSS_WEIGHTS).ravel()

    j = np.arange(k)[:, None]
    cosines = np.cos(2.0 * np.pi * n * ((j + d) / k)) + np.cos(2.0 * np.pi * n * ((j + 1 - d) / k))
    return float(np.sum(cosines * kernel)) / k
