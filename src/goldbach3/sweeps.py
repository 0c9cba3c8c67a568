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

Both modes run on one engine: each progression gets one odd-layout
spectrum (odd primes p at (p - 1) / 2, length ``half_length(N)`` >= N),
each unordered pair {(k1, l1), (k2, l2)} of progressions gets one irfft
of their product, shared by both orders, plus the direct terms with
p = 2, and a per-mode reducer turns the pair counts into cells by
gathering over p3.  The residue maxima are always exhaustive; a work
budget on the number of (k, l)-cells refuses oversized requests instead
of sampling.  Reports are deterministic: cells are computed
independently, merged in sorted key order, and reduced with a fixed float
summation order, so reruns (and any thread count) give bit-identical
output.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .arith import PrimeTable, Progression, euler_phi
from .exceptions import BudgetExceededError
from .expsum import WeightSpec
from .repcount import (
    TripleInstance,
    count_convolution_targets,
    odd_spectrum,
    pair_convolution,
    prime_logs,
    triple,
)
from .singular import (
    DEFAULT_TRUNCATION,
    SingularSeriesCache,
    SingularSeriesValue,
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
    "PresetCaps",
    "preset_caps",
]

DEFAULT_BUDGET = 10**6


@dataclass(frozen=True)
class DeltaResult:
    """R - M for one instance, with both sides kept for reporting."""

    instance: TripleInstance
    R: float
    solutions: int
    M: float
    series: SingularSeriesValue
    delta: float
    q_max: int
    p_max: int
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
    """
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
            q_max=q_max,
            p_max=p_max,
            qsum=singular_series_qsum(inst, q_max),
        ))
    return out


@dataclass(frozen=True)
class SweepConfig:
    """Parameters of a sweep: target, caps, weights, truncations, budget."""

    N: int
    H1: int
    H2: int
    H3: int
    mode: str = "E"
    lam: Optional[WeightSpec] = None
    l3: Optional[int] = None
    q_max: int = DEFAULT_TRUNCATION
    p_max: int = DEFAULT_TRUNCATION
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        if self.mode not in ("E", "Estar"):
            raise ValueError(f"mode must be 'E' or 'Estar', got {self.mode!r}")
        if min(self.H1, self.H2, self.H3) < 1:
            raise ValueError("all caps must be >= 1")
        if self.N < 6:
            raise ValueError(f"N must be >= 6, got {self.N}")
        if self.mode == "Estar":
            if self.lam is None:
                raise ValueError("Estar mode needs a WeightSpec")
            if self.l3 is not None and self.l3 != self.lam.l3:
                raise ValueError(
                    f"l3={self.l3} disagrees with the WeightSpec residue {self.lam.l3}"
                )
            object.__setattr__(self, "l3", self.lam.l3)


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


def _phi_total(H: int) -> int:
    return sum(euler_phi(k) for k in range(1, H + 1))


def estimate_cells(cfg: SweepConfig) -> int:
    """Number of (k, l)-cells the sweep will evaluate."""
    base = _phi_total(cfg.H1) * _phi_total(cfg.H2)
    if cfg.mode == "E":
        return base * _phi_total(cfg.H3)
    k3_count = sum(1 for k in range(1, cfg.H3 + 1) if math.gcd(k, cfg.l3) == 1)
    return base * k3_count


def _pair_cells(cfg: SweepConfig, table: PrimeTable, threads: int, cells_for):
    """Every cell of a sweep, sorted by key, from one irfft per unordered pair.

    ``cells_for(pair1, pair2, c12)`` turns the pair counts ``c12`` on
    [0, N] of the weighted primes of progressions 1 and 2 into that
    pair's cells.  Each progression has one odd-layout spectrum at
    ``half_length(N)``; ``pair_convolution`` multiplies two of them, runs
    the irfft and adds the terms with p = 2.  The pairs (a, b) and (b, a)
    share their counts, formed with the spectra in (k, l) order as
    count_convolution forms them.  Unordered pairs are spread over
    ``threads`` workers; the cell order does not depend on them.
    """
    N = cfg.N
    pairs1 = _coprime_pairs(cfg.H1)
    pairs2 = _coprime_pairs(cfg.H2)
    orders: dict[tuple, list] = {}
    for a in pairs1:
        for b in pairs2:
            orders.setdefault(tuple(sorted((a, b))), []).append((a, b))

    def transform(pair):
        return odd_spectrum(*prime_logs(N, Progression(*pair), table), N)

    def worker(item):
        (a, b), ordered = item
        c12 = pair_convolution(spectra[a], spectra[b], N)
        return [cell for pair1, pair2 in ordered for cell in cells_for(pair1, pair2, c12)]

    progs = sorted(set(pairs1) | set(pairs2))
    pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
    run = pool.map if pool else map
    try:
        spectra = dict(zip(progs, run(transform, progs)))
        blocks = list(run(worker, orders.items()))
    finally:
        if pool:
            pool.shutdown()
    cells = [cell for block in blocks for cell in block]
    cells.sort(key=lambda c: c[0])
    return cells


def _sweep(cfg: SweepConfig, table: PrimeTable, threads: int) -> SweepReport:
    """Both modes: cells from ``_pair_cells``, then residue maxima per k-key.

    An E cell is one (k, l)-triple; an Estar cell is the lambda-weighted
    sum over k3 for one (k1, k2, l1, l2).  Either way a key is k-values
    followed by as many l-values, and a row keeps the cell with the
    largest |delta| for its k-values, the first in key order on ties.
    """
    t0 = time.perf_counter()
    table.check_covers(cfg.N)
    est = estimate_cells(cfg)
    if est > cfg.budget:
        raise BudgetExceededError(est, cfg.budget)
    N = cfg.N
    cache = SingularSeriesCache(N, cfg.p_max)
    lam = cfg.lam
    if cfg.mode == "E":
        pairs3 = _coprime_pairs(cfg.H3)
    else:
        pairs3 = [
            (k, cfg.l3 % k) for k in range(1, cfg.H3 + 1)
            if math.gcd(k, cfg.l3) == 1 and k <= lam.k_max
        ]
    third = {pair: prime_logs(N, Progression(*pair), table) for pair in pairs3}

    def cells_for(pair1, pair2, c12):
        (k1, l1), (k2, l2) = pair1, pair2
        cells = []
        r_sum = m_sum = d_sum = 0.0
        for (k3, l3) in pairs3:
            p3, lg3 = third[(k3, l3)]
            r = float(np.dot(lg3, c12[N - p3]))
            inst = triple(N, k1, l1, k2, l2, k3, l3)
            m = main_term(inst, cache.series(inst))
            if cfg.mode == "E":
                cells.append(((k1, k2, k3, l1, l2, l3), r, m, r - m))
            else:
                lam_k = float(lam.lam[k3])
                r_sum += lam_k * r
                m_sum += lam_k * m
                d_sum += lam_k * (r - m)
        if cfg.mode == "E":
            return cells
        return [((k1, k2, l1, l2), r_sum, m_sum, d_sum)]

    best: dict[tuple, tuple] = {}
    for key, *values in _pair_cells(cfg, table, threads, cells_for):
        kkey, lkey = key[: len(key) // 2], key[len(key) // 2 :]
        cur = best.get(kkey)
        if cur is None or abs(values[-1]) > abs(cur[1][-1]):
            best[kkey] = (lkey, values)

    row_type = SweepRow if cfg.mode == "E" else EstarRow
    rows = []
    aggregate = 0.0
    for kkey in sorted(best):
        lkey, values = best[kkey]
        scale = 2.0
        for k in kkey:
            scale *= euler_phi(k)
        scale /= N**2
        rows.append(row_type(*kkey, *lkey, *values, values[-1] * scale))
        aggregate += abs(values[-1])

    meta = {
        "N": N,
        "mode": cfg.mode,
        "caps": [cfg.H1, cfg.H2, cfg.H3],
        "q_max": cfg.q_max,
        "p_max": cfg.p_max,
        "budget": cfg.budget,
        "estimated_cells": est,
        "threads": threads,
        "timing_seconds": time.perf_counter() - t0,  # excluded from serialized reports
    }
    if cfg.mode == "Estar":
        meta["l3"] = cfg.l3
    return SweepReport(
        mode=cfg.mode, N=N, caps=(cfg.H1, cfg.H2, cfg.H3), rows=rows,
        aggregate=aggregate, metadata=meta,
    )


def sweep_E(cfg: SweepConfig, table: PrimeTable, threads: int = 1) -> SweepReport:
    """E-mode sweep: sum over k-triples of the exact residue maximum of |delta|.

    One convolution of variables 1 and 2 is shared across every k3 cell,
    which is where nearly all the time goes otherwise.
    """
    if cfg.mode != "E":
        raise ValueError("sweep_E needs an E-mode config")
    return _sweep(cfg, table, threads)


def sweep_Estar(cfg: SweepConfig, table: PrimeTable, threads: int = 1) -> SweepReport:
    """Estar-mode sweep: residue maxima of the signed lambda-weighted k3-sum."""
    if cfg.mode != "Estar":
        raise ValueError("sweep_Estar needs an Estar-mode config")
    return _sweep(cfg, table, threads)


class PresetCaps(NamedTuple):
    H1: int
    H2: int
    H3: int
    clamped: bool
    requested: tuple[float, float, float]


def preset_caps(
    N: int, A: float, B: Optional[float] = None, budget: int = DEFAULT_BUDGET
) -> PresetCaps:
    """Cap preset sqrt(N) L^-B, sqrt(N) L^-B, N^(1/3) L^-B with L = log N.

    B defaults to 10^4 * A.  At desk scale the nominal caps collapse to
    zero (honest B) or explode past any budget (tiny B), so the result is
    clamped into [1, budget] and flagged; ``requested`` preserves the
    unclamped real values.
    """
    if N < 6:
        raise ValueError(f"N must be >= 6, got {N}")
    if B is None:
        B = 1e4 * A
    logL = math.log(math.log(N))
    h12 = math.exp(min(700.0, 0.5 * math.log(N) - B * logL))
    h3 = math.exp(min(700.0, math.log(N) / 3.0 - B * logL))
    requested = (h12, h12, h3)
    caps = [max(1, math.floor(h12)), max(1, math.floor(h12)), max(1, math.floor(h3))]
    clamped = any(math.floor(r) < 1 for r in requested)

    def cells(c):
        return _phi_total(c[0]) * _phi_total(c[1]) * _phi_total(c[2])

    while cells(caps) > budget:
        i = max(range(3), key=lambda j: caps[j])
        if caps[i] == 1:
            break
        caps[i] -= 1
        clamped = True
    return PresetCaps(caps[0], caps[1], caps[2], clamped, requested)
