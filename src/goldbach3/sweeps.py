"""Error terms: single-instance deltas and the averaged sweep aggregates.

delta = R - M compares the convolution count against the main term built
from the exact local-density product; a list of targets sharing their
progressions costs one convolution.  The two sweep modes aggregate it:

  * E-mode: sum over moduli triples (k1, k2, k3) up to the caps of the
    exact maximum of |delta| over all coprime residue triples;
  * Estar-mode: sum over (k1, k2) of the maximum over (l1, l2) of the
    absolute value of the signed inner sum over k3 of lambda(k3) * delta,
    taken with a fixed residue l3; cancellation inside the inner sum is
    preserved by summing before the absolute value.

Both modes run on one engine.  Each unordered pair {(k1, l1), (k2, l2)}
of progressions gets one value of R per column, shared by both orders.
A column is the weighted primes of the third variable: one per
progression (k3, l3) in E mode, and in Estar mode the single column of
K(alpha), the primes weighted by log(p) times the sum of lambda(k3) over
k3 <= H3 dividing p - l3, since the inner k3-sum of R is linear in the
third variable.  Pairs are transformed in one of two layouts:

  * At odd N a pair's R is the coefficient at N of S1 S2 S3.  Every
    progression gets one spectrum of the odd layout, which only this
    contraction uses (odd primes p at (p - 1)/2, length
    ``half_length(N)`` >= N), and R is a dot product of the pair's
    spectrum product with each column's spectrum, plus the triples
    (2, 2, N - 4), which are added directly.  No inverse transform is
    needed.  Three wheel-6 indices sum to about N/2, so class triples
    would take more frequencies per cell.
  * Otherwise ``repcount.pair_engine`` gives every progression its
    wheel-6 class spectra (primes 6u +- 1 at u, a third of the length).
    A pair's counts come from one irfft per even residue mod 6 that the
    columns read, plus the pairs with a 2 or a 3, added directly
    (``PairCounts``), and R is gathered at N - p3.  An even N reads only
    odd residues, which hold only pairs with a 2, and direct sums, so it
    transforms nothing.

Odd N contracts unless the columns with no spectrum yet (progressions of
variable 3 that are not one of variables 1 and 2) outnumber the unordered
pairs, whose irffts the contraction saves; so even N, and E sweeps with
a large H3 against small H1, H2 (caps 3,3,30, where the contraction's
spectra would also outgrow memory), gather.  A work budget on the number of
(k, l)-cells refuses oversized requests instead of sampling.

Either path returns R as one array, a row per unordered pair and an entry
per column.  A pool of ``threads`` workers runs the transforms, the
contraction's frequency blocks and the gathered pairs.  After it closes,
the calling thread forms S and M on the same rows, since both are
symmetric in variables 1 and 2 (Estar adds M only over the k3 whose
lambda is not 0), and one index lays R and M out on (pair of variable
1, pair of variable 2, column).  The residue maxima are exhaustive: the
first maximum of |R - M| in key order within each k-block.  Every sum
runs in a fixed order, so reruns (and any thread count) give
bit-identical reports.
"""

from __future__ import annotations

import bisect
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .arith import PrimeTable, Progression, TripleInstance, euler_phi
from .exceptions import BudgetExceededError
from .expsum import WeightSpec, _half_circle_phases, weight_coefficients
from .repcount import (
    _weight_at,
    by_residue,
    count_convolution_targets,
    half_length,
    pair_engine,
    prime_logs,
    spectrum,
)
from .singular import (
    DEFAULT_TRUNCATION,
    SingularSeriesCache,
    SingularSeriesValue,
    check_truncation,
    main_term,
    singular_series_product,
    singular_series_qsum,
)

__all__ = [
    "DEFAULT_BUDGET",
    "DeltaResult",
    "delta",
    "delta_targets",
    "SweepConfig",
    "SweepRow",
    "EstarRow",
    "SweepReport",
    "estimate_cells",
    "sweep_E",
    "sweep_Estar",
]

DEFAULT_BUDGET = 10**6

# The most workers a sweep's pool gets, whatever ``threads`` asks for (the
# standard library's own default ceiling): a pool starts a thread per task.
MAX_THREADS = 32


@dataclass(frozen=True)
class DeltaResult:
    """R - M for one instance, with both sides kept for reporting."""

    instance: TripleInstance
    R: float
    solutions: int
    M: float
    series: SingularSeriesValue
    delta: float
    qsum: SingularSeriesValue

    @property
    def abs_difference(self) -> float:
        """|q-sum S - product S|: the cross-check of the two routes."""
        return abs(self.qsum.value - self.series.value)

    @property
    def relative(self) -> float:
        """|delta| / M, infinite when the main term vanishes but R does not."""
        if self.M != 0.0:
            return abs(self.delta) / self.M
        return 0.0 if self.delta == 0.0 else math.inf


def delta(
    inst: TripleInstance,
    table: PrimeTable,
    q_max: int = DEFAULT_TRUNCATION,
    p_max: int = DEFAULT_TRUNCATION,
) -> DeltaResult:
    """Single-instance error term: convolution R minus product-route M.

    A one-target call of ``delta_targets``.
    """
    return delta_targets([inst.N], inst.progs, table, q_max, p_max)[0]


def delta_targets(
    targets,
    progs,
    table: PrimeTable,
    q_max: int = DEFAULT_TRUNCATION,
    p_max: int = DEFAULT_TRUNCATION,
) -> list[DeltaResult]:
    """Error terms for several targets sharing one triple of progressions.

    The counts come from one ``count_convolution_targets`` call.  The main
    term uses the exact local-density product truncated at ``p_max``; the
    q-sum truncated at ``q_max`` is kept beside it as a cross-check.
    Both truncations are checked before the count.
    """
    check_truncation(q_max=q_max, p_max=p_max)
    out = []
    for N, wc in zip(targets, count_convolution_targets(targets, progs, table)):
        inst = TripleInstance(int(N), progs)
        s = singular_series_product(inst, p_max)
        m = main_term(inst, s)
        out.append(DeltaResult(
            instance=inst,
            R=wc.value,
            solutions=wc.solutions,
            M=m,
            series=s,
            delta=wc.value - m,
            qsum=singular_series_qsum(inst, q_max),
        ))
    return out


@dataclass(frozen=True)
class SweepConfig:
    """Parameters of a sweep: target, caps, weights, truncation, budget."""

    N: int
    H1: int
    H2: int
    H3: int
    mode: str = "E"
    lam: Optional[WeightSpec] = None
    p_max: int = DEFAULT_TRUNCATION
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        if self.mode not in ("E", "Estar"):
            raise ValueError(f"mode must be 'E' or 'Estar', got {self.mode!r}")
        if min(self.H1, self.H2, self.H3) < 1:
            raise ValueError("all caps must be >= 1")
        if self.N < 6:
            raise ValueError(f"N must be >= 6, got {self.N}")
        if self.mode == "Estar" and self.lam is None:
            raise ValueError("Estar mode needs a WeightSpec")
        check_truncation(p_max=self.p_max)

    @property
    def l3(self) -> Optional[int]:
        """The fixed third residue: the WeightSpec's, None without one."""
        return None if self.lam is None else self.lam.l3


class SweepRow(NamedTuple):
    """One E-mode row: the residue triple maximizing |delta| for a k-triple."""

    k1: int
    k2: int
    k3: int
    l1: int
    l2: int
    l3: int
    R: float
    M: float
    delta: float
    delta_scaled: float


class EstarRow(NamedTuple):
    """One Estar-mode row: the (l1, l2) maximizing the signed inner k3-sum."""

    k1: int
    k2: int
    l1: int
    l2: int
    R_sum: float
    M_sum: float
    delta_sum: float
    delta_scaled: float


@dataclass
class SweepReport:
    mode: str
    N: int
    caps: tuple[int, int, int]
    rows: list
    aggregate: float
    metadata: dict = field(default_factory=dict)

    def recompute_aggregate(self) -> float:
        """Fold the rows again; must equal ``aggregate`` exactly."""
        total = 0.0
        for row in self.rows:
            total += abs(row.delta if self.mode == "E" else row.delta_sum)
        return total


def _coprime_pairs(H: int) -> list[tuple[int, int]]:
    return [(k, l) for k in range(1, H + 1) for l in range(k) if math.gcd(k, l) == 1]


def _count_cells(mode: str, caps, l3: Optional[int], budget: int) -> int:
    """The number of (k, l)-cells of a sweep, counted no further than ``budget``.

    Exact whenever it is at most ``budget``; otherwise some number above
    it.  Counting stops as soon as the running product passes the budget,
    so the time it takes is bounded by the budget, not by the caps.
    """
    H1, H2, H3 = caps
    third = (map(euler_phi, range(1, H3 + 1)) if mode == "E"
             else (1 for k in range(1, H3 + 1) if math.gcd(k, l3) == 1))
    cells = 1
    for terms in (map(euler_phi, range(1, H1 + 1)), map(euler_phi, range(1, H2 + 1)), third):
        total = 0
        for term in terms:
            total += term
            if cells * total > budget:
                break
        cells *= total
        if not 0 < cells <= budget:
            break
    return cells


def estimate_cells(cfg: SweepConfig) -> int:
    """Number of (k, l)-cells the sweep will evaluate, or, when that passes
    ``cfg.budget``, some number above the budget (see ``_count_cells``)."""
    return _count_cells(cfg.mode, (cfg.H1, cfg.H2, cfg.H3), cfg.l3, cfg.budget)


# A contraction works on blocks of this many frequencies and, within a
# block, on chunks of this many pairs: the chunk's pair products are the
# only arrays it allocates (0.5 MB), and no (frequencies x columns) array
# is formed.  Both sizes are fixed, so the rounding does not depend on the
# number of threads.
CONTRACTION_BLOCK = 1 << 9
PAIR_CHUNK = 64


def _gather(N: int, weights: dict, columns: dict, pairs: list, run):
    """R for every pair from its wheel-6 pair counts, gathered at N - p3.

    Every progression is transformed once by ``pair_engine``, which gives
    the ``PairCounts`` of any two.  Entry (i, j) of R is the sum of column
    j's weights times pair i's counts at N minus its primes
    (``PairCounts.dot``); each pair is one task of ``run``.
    """
    columns = [by_residue(p, v) for p, v in columns.values()]
    pair = pair_engine({key: by_residue(*w) for key, w in weights.items()}, [N], columns, run)

    def dots(ab):
        counts = pair(*ab)
        return [counts.dot(N, column) for column in columns]

    return np.array(list(run(dots, pairs)))


def _contraction(N: int, weights: dict, columns: dict, pairs: list, run):
    """R for every pair from the triple product of odd-layout spectra (odd N).

    With m = (N - 3) / 2, L = ``half_length(N)`` and X the rfft spectra,
    the triples of odd primes give

        (1/L) Re sum_{t <= L/2} w_t Xa(t) Xb(t) Xc(t) e(t m / L),

    w = 1, 2, ..., 2 (1 at the Nyquist point of even L), the weights that
    ``expsum._half_circle_phases`` folds into its phases.  The indices
    (p - 1)/2 of three odd primes <= N sum to at most 3(N - 1)/2 = m + N,
    so the cyclic sum could only wrap at L = N with p1 = p2 = p3 = N; but
    ``half_length(N)`` equals N only for 5-smooth N, and no such N >= 6 is
    prime.  The only other triples at odd N are the permutations of
    (2, 2, N - 4), added directly.

    The weight w_t e(t m / L) is folded into the pair products Xa Xb.  Per
    frequency block, the products of all pairs are contracted against all
    columns in one einsum, block by block in parallel, and the block sums
    are added in a fixed order.  Frequencies are stored in descending
    order, so the largest terms, near t = 0, enter every running sum last:
    at N = 100003 with caps 5,5,5, summing from t = 0 up made the largest
    rounding error of a cell 2.8 times larger.
    """
    L = half_length(N)
    size = L // 2 + 1
    # the columns first; a progression of variable 1 or 2 that is also a
    # column shares its spectrum
    spectra = {**columns, **weights}
    values = list(spectra.values())
    row = {key: i for i, key in enumerate(spectra)}
    spec = np.empty((len(values), size), dtype=np.complex128)

    def transform(i):
        p, v = values[i]
        odd = p > 2
        spec[i] = spectrum((p[odd] - 1) // 2, v[odd], L)[::-1]

    list(run(transform, range(len(values))))
    phase = _half_circle_phases((N - 3) // 2, L)[::-1].copy()
    n = len(columns)
    a = np.array([row[pair[0]] for pair in pairs])
    b = np.array([row[pair[1]] for pair in pairs])

    def block(t0):
        t1 = t0 + CONTRACTION_BLOCK
        cols = spec[:n, t0:t1].view(np.float64)
        out = np.empty((len(pairs), n))
        for c0 in range(0, len(pairs), PAIR_CHUNK):
            c1 = c0 + PAIR_CHUNK
            f = spec[a[c0:c1], t0:t1] * spec[b[c0:c1], t0:t1]
            f *= phase[t0:t1]
            # Re(x f) = x.real f.real - x.imag f.imag: a real product of
            # conj(f) with the interleaved columns.  einsum sums in numpy's
            # own fixed order; a BLAS product's rounding can change with
            # the number of BLAS threads.
            f = np.conjugate(f, out=f).view(np.float64)
            out[c0:c1] = np.einsum("pk,ck->pc", f, cols)
        return out

    r = np.zeros((len(pairs), n))
    for part in run(block, range(0, size, CONTRACTION_BLOCK)):
        r += part
    r /= L
    two = np.array([_weight_at(*w, 2) for w in values])
    top = np.array([_weight_at(*w, N - 4) for w in values])
    r += np.outer(two[a] * two[b], top[:n]) + np.outer(two[a] * top[b] + top[a] * two[b], two[:n])
    return r


def _sweep_cells(cfg: SweepConfig, table: PrimeTable, threads: int):
    """Every cell of a sweep as arrays (axes, R, M), R and M of one shape.

    ``axes`` lists the progressions (k, l) along each axis, each sorted by
    (k, l): variables 1 and 2 and, in E mode, the columns, one per
    progression of variable 3.  An Estar cell is the lambda-weighted sum
    over k3 for one (k1, k2, l1, l2); R is linear in the third variable,
    so its one column is the coefficients of K(alpha) with lambda cut at
    H3, and M adds the main terms over the k3 with lambda(k3) != 0.

    A column is the weighted primes (p, values) of the third variable.
    Entry j of the row of a pair (a, b) of progressions of variables 1
    and 2 is the sum over p1 + p2 + p3 = N of log(p1) log(p2) times the
    weight of p3 in column j.  R, S and M = N^2 S / (2 phi(k1) phi(k2)
    phi(k3)) are symmetric in a and b, so each is formed once per
    unordered pair, in (k, l) order: R by ``_contraction`` or ``_gather``
    on a pool of ``threads`` workers (at most ``MAX_THREADS``), then S,
    one ``SingularSeriesCache.value`` call per pair and column, in the
    calling thread.  One index lays R and M out on the cells.
    """
    N = cfg.N
    cache = SingularSeriesCache(N, cfg.p_max)
    lam = cfg.lam
    if cfg.mode == "E":
        pairs3 = _coprime_pairs(cfg.H3)
        columns = {pair: prime_logs(N, Progression(*pair), table) for pair in pairs3}
    else:
        cut = WeightSpec(lam.l3, lam.lam[: cfg.H3 + 1])
        # the k3 whose lambda is 0 are left out: their terms, +-0.0 times a
        # finite M >= 0, would leave every sum's bits unchanged
        pairs3 = [(k, cfg.l3 % k) for k in cut.active_moduli()]
        columns = {"K": weight_coefficients(N, cut, table)}
    pairs1, pairs2 = _coprime_pairs(cfg.H1), _coprime_pairs(cfg.H2)
    # each unordered pair once, in the order first seen over pairs1 x pairs2;
    # the contraction's PAIR_CHUNK chunks follow this order
    pairs = list(dict.fromkeys((min(a, b), max(a, b)) for a in pairs1 for b in pairs2))
    row = {pair: i for i, pair in enumerate(pairs)}
    progs = sorted(set(pairs1) | set(pairs2))
    weights = {pair: columns.get(pair) or prime_logs(N, Progression(*pair), table)
               for pair in progs}

    pool = ThreadPoolExecutor(max_workers=min(threads, MAX_THREADS)) if threads > 1 else None
    run = pool.map if pool else map
    try:
        # the path rule (module docstring) compares counts, not times, so the
        # path, and with it the rounding of every cell, follows from N and
        # the caps alone
        contracts = N % 2 == 1 and len(columns.keys() - weights.keys()) <= len(pairs)
        R = (_contraction if contracts else _gather)(N, weights, columns, pairs, run)
    finally:
        if pool:
            pool.shutdown()

    loc = {pair: cache.local(*pair) for pair in progs + pairs3}
    S = np.array([[cache.value(loc[a], loc[b], loc[c]) for c in pairs3] for a, b in pairs])
    phi12 = [euler_phi(a[0]) * euler_phi(b[0]) for a, b in pairs]
    phi3 = [euler_phi(k) for k, _ in pairs3]
    # N^2 S / (phi12 phi3) in the order of one cell's Python arithmetic:
    # the exact integer denominators convert to float once, like N^2
    M = float(N**2) * S / (2 * np.multiply.outer(phi12, phi3))
    at = [[row[min(a, b), max(a, b)] for b in pairs2] for a in pairs1]
    if cfg.mode == "E":
        return (pairs1, pairs2, pairs3), R[at], M[at]
    m_sum = np.zeros(len(pairs))
    for j, (k3, _) in enumerate(pairs3):
        m_sum += float(lam.lam[k3]) * M[:, j]
    return (pairs1, pairs2), R[at, 0], m_sum[at]


def _k_blocks(pairs: list) -> list:
    """(k, slice) for each modulus of ``pairs``, sorted by (k, l): its run."""
    return [(k, slice(bisect.bisect_left(pairs, (k,)), bisect.bisect_left(pairs, (k + 1,))))
            for k in dict.fromkeys(k for k, _ in pairs)]


def _sweep(cfg: SweepConfig, table: PrimeTable, threads: int) -> SweepReport:
    """Both modes: arrays from ``_sweep_cells``, then residue maxima per k-block.

    The progressions of each axis are sorted by (k, l), so the cells of one
    k-tuple form a block of contiguous slices, in key order in C order.  A
    row keeps the cell with the largest |delta| in its block, the first
    maximum in key order within the k-block on ties (``argmax``).
    """
    table.check_covers(cfg.N)
    est = estimate_cells(cfg)
    if est > cfg.budget:
        raise BudgetExceededError(est, cfg.budget)
    N = cfg.N
    row_type = SweepRow if cfg.mode == "E" else EstarRow
    axes, R, M = _sweep_cells(cfg, table, threads)
    D = R - M
    magnitude = np.abs(D)
    rows = []
    aggregate = 0.0
    for block in itertools.product(*map(_k_blocks, axes)):
        ks, slices = zip(*block)
        part = magnitude[slices]
        at = np.unravel_index(np.argmax(part), part.shape)
        cell = tuple(s.start + int(i) for s, i in zip(slices, at))
        ls = [axis[i][1] for axis, i in zip(axes, cell)]
        d = float(D[cell])
        # 2 phi(k1) phi(k2) ... / N^2; the integer product is exact in float
        scale = 2.0 * math.prod(map(euler_phi, ks)) / N**2
        rows.append(row_type(*ks, *ls, float(R[cell]), float(M[cell]), d, d * scale))
        aggregate += abs(d)

    meta = {
        "N": N,
        "mode": cfg.mode,
        "caps": [cfg.H1, cfg.H2, cfg.H3],
        "p_max": cfg.p_max,
        "budget": cfg.budget,
        "estimated_cells": est,
    }
    if cfg.mode == "Estar":
        meta["l3"] = cfg.l3
    return SweepReport(
        mode=cfg.mode, N=N, caps=(cfg.H1, cfg.H2, cfg.H3), rows=rows,
        aggregate=aggregate, metadata=meta,
    )


def sweep_E(cfg: SweepConfig, table: PrimeTable, threads: int = 1) -> SweepReport:
    """E-mode sweep: sum over k-triples of the exact residue maximum of |delta|.

    Each unordered pair of progressions of variables 1 and 2 is transformed
    once and serves every k3 cell, by a spectral dot product per cell at
    odd N or by one irfft and a gather over p3 per cell (see the module
    docstring for the choice).
    """
    if cfg.mode != "E":
        raise ValueError("sweep_E needs an E-mode config")
    return _sweep(cfg, table, threads)


def sweep_Estar(cfg: SweepConfig, table: PrimeTable, threads: int = 1) -> SweepReport:
    """Estar-mode sweep: residue maxima of the signed lambda-weighted k3-sum."""
    if cfg.mode != "Estar":
        raise ValueError("sweep_Estar needs an Estar-mode config")
    return _sweep(cfg, table, threads)
