"""Farey dissection of the circle into major and minor arcs.

The major arcs are closed intervals of radius 1/(q*tau) around the Farey
fractions a/q with q <= Q, inside the period [-1/tau, 1 - 1/tau); the
minor set is the complement.  The precondition tau > 2Q^2 guarantees the
arcs are pairwise disjoint and never wrap around the period boundary,
which keeps classification a plain nearest-center lookup.  The grid
statistics of K and the minor-arc integral of S * K read their samples
from ``expsum``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple, Optional

import numpy as np

from .arith import PrimeTable, Progression, euler_phi
from .exceptions import ArcOverlapError, ConsistencyError
from .expsum import (WeightSpec, _grid_phases, _grid_values, eval_K_grid, eval_S_grid,
                     grid_length, weight_coefficients)

__all__ = [
    "Arc",
    "ArcPartition",
    "build_partition",
    "classify",
    "classify_grid",
    "major_measure",
    "analytic_major_measure",
    "MinorStats",
    "minor_statistics",
    "MinorIntegral",
    "I_integral",
    "preset_arc_params",
]

# At most this many arcs, sum_{q <= Q} phi(q) (10^6 build and sum their
# measure in 0.3 s and 90 MB on 2 CPUs); presets, with Q <= (N/2)^(1/3),
# stay below it for N <= 10^10.
MAX_ARCS = 10**6


class Arc(NamedTuple):
    a: int
    q: int
    center: float
    radius: float


@dataclass(frozen=True, eq=False)
class ArcPartition:
    """A built dissection: its arcs as read-only arrays sorted by centre,
    plus the (N, Q, tau) that made it."""

    N: int
    Q: int
    tau: float
    a: np.ndarray
    q: np.ndarray
    centers: np.ndarray
    radii: np.ndarray

    def arc(self, i: int) -> Arc:
        return Arc(int(self.a[i]), int(self.q[i]), float(self.centers[i]), float(self.radii[i]))

    @cached_property
    def arcs(self) -> tuple[Arc, ...]:
        return tuple(map(Arc, self.a.tolist(), self.q.tolist(), self.centers.tolist(),
                         self.radii.tolist()))

    @property
    def period_start(self) -> float:
        return -1.0 / self.tau

    def check_target(self, N: int) -> None:
        """Refuse a reader at a target other than the one the arcs were built for."""
        if self.N != N:
            raise ValueError(f"partition built for N={self.N}, not N={N}")


def build_partition(N: int, Q: int, tau: float) -> ArcPartition:
    """Enumerate the Farey arcs for q <= Q at radius 1/(q*tau).

    Refuses tau <= 2Q^2 outright: merging overlapping arcs would silently
    change the dissection's meaning.  Refuses Q past ``MAX_ARCS`` arcs
    before building any, counting no further than the bound.
    """
    if Q < 1:
        raise ValueError(f"Q must be >= 1, got {Q}")
    if not math.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau}")
    if tau <= 2 * Q * Q:
        raise ArcOverlapError(
            f"tau={tau} <= 2*Q^2={2 * Q * Q}: arcs would overlap, refusing"
        )
    if any(count > MAX_ARCS for count in accumulate(map(euler_phi, range(1, Q + 1)))):
        raise ValueError(f"Q={Q} gives more than MAX_ARCS={MAX_ARCS} arcs, refusing")
    tau = float(tau)
    # per q, the numerators 0 <= a < q prime to q (a = 0 only for q = 1)
    a = [np.flatnonzero(np.gcd(np.arange(q), q) == 1) for q in range(1, Q + 1)]
    q = np.repeat(np.arange(1, Q + 1), [row.size for row in a])
    a = np.concatenate(a)
    order = np.argsort(a / q, kind="stable")
    a, q = a[order], q[order]
    fields = {"a": a, "q": q, "centers": a / q, "radii": 1.0 / (q * tau)}
    for array in fields.values():
        array.setflags(write=False)
    return ArcPartition(N=N, Q=Q, tau=tau, **fields)


def _reduce_to_period(alpha: np.ndarray | float, partition: ArcPartition):
    start = partition.period_start
    return alpha - np.floor(alpha - start)


def classify(alpha: float, partition: ArcPartition) -> Optional[Arc]:
    """Return the containing major Arc, or None when alpha is minor.

    alpha is reduced mod 1 into the period first; boundary points (distance
    exactly the radius) count as major, i.e. the arcs are closed.
    """
    a = float(_reduce_to_period(alpha, partition))
    centers = partition.centers
    i = int(np.searchsorted(centers, a))
    for j in (i - 1, i):
        if 0 <= j < centers.size and abs(a - centers[j]) <= partition.radii[j]:
            return partition.arc(j)
    return None


def classify_grid(partition: ArcPartition, T: int) -> np.ndarray:
    """Classify all grid points t/T, t = 0..T-1, arc by arc.

    Returns an int array: the index into ``partition.arcs`` for major
    points, -1 for minor points.  Each arc tests only the grid points
    whose index lies within one of [(c - r)T, (c + r)T], taken mod T so
    that the arc around 0/1 wraps; the test itself is the one ``classify``
    applies, |reduce(t/T) - c| <= r, so boundary points land as they do
    there.  The cost is O(arcs + major points) beyond filling the output.
    """
    if T < 1:
        raise ValueError(f"grid size must be positive, got {T}")
    centers = partition.centers
    radii = partition.radii
    lo = np.ceil((centers - radii) * T).astype(np.int64) - 1
    hi = np.floor((centers + radii) * T).astype(np.int64) + 1
    sizes = hi - lo + 1
    arc = np.repeat(np.arange(centers.size), sizes)
    # candidate k of arc j is lo[j] + k: one arange shifted per arc
    starts = np.cumsum(sizes) - sizes
    t = (np.arange(arc.size) + np.repeat(lo - starts, sizes)) % T
    alpha = _reduce_to_period(t / T, partition)
    hit = np.abs(alpha - centers[arc]) <= radii[arc]
    out = np.full(T, -1, dtype=np.int64)
    out[t[hit]] = arc[hit]
    return out


def major_measure(partition: ArcPartition) -> float:
    """Total length of the major arcs, summed in order of their centres."""
    return float(sum((2.0 * partition.radii).tolist()))


def analytic_major_measure(Q: int, tau: float) -> float:
    """The closed-form major measure sum_{q <= Q} phi(q) * 2/(q*tau)."""
    return sum(euler_phi(q) * 2.0 / (q * tau) for q in range(1, Q + 1))


class MinorStats(NamedTuple):
    sup_minor: float
    l2_full: float
    l2_minor: float


def minor_statistics(
    N: int, w: WeightSpec, partition: ArcPartition, T: int, table: PrimeTable
) -> MinorStats:
    """Empirical sup and L2 statistics of the weighted sum K on the grid.

    sup_minor maximizes |K(t/T)| over minor-classified grid points;
    l2_full and l2_minor are the grid quadratures (1/T) sum |K|^2 over all
    points and over the minor points.  For T >= 2N+1 the full-circle L2 is
    an exact trigonometric identity against the coefficient side, which is
    verified here and enforced to 1e-8 relative.
    """
    partition.check_target(N)
    T = grid_length(N, T)
    primes, coeffs = weight_coefficients(N, w, table)
    kvals = _grid_values(primes, coeffs, T)  # eval_K_grid on the same coefficients
    power = kvals.real**2 + kvals.imag**2
    l2_full = float(power.sum()) / T

    coeff_side = float(np.einsum("i,i->", coeffs, coeffs))
    scale = max(coeff_side, l2_full)
    if scale > 0 and abs(l2_full - coeff_side) > 1e-8 * scale:
        raise ConsistencyError(
            f"grid L2 {l2_full!r} disagrees with coefficient sum {coeff_side!r}"
        )

    minor = classify_grid(partition, T) < 0
    if minor.any():
        minor_power = power[minor]
        sup_minor = math.sqrt(float(minor_power.max()))
        l2_minor = float(minor_power.sum()) / T
    else:
        sup_minor = 0.0
        l2_minor = 0.0
    return MinorStats(sup_minor=sup_minor, l2_full=l2_full, l2_minor=l2_minor)


class MinorIntegral(NamedTuple):
    value: complex
    boundary_fraction: float


def I_integral(r: int, N: int, prog: Progression, w: WeightSpec,
               partition: Optional[ArcPartition], T: Optional[int],
               table: PrimeTable) -> MinorIntegral:
    """Diagnostic minor-arc integral of S * K * e((r - N) alpha) on the grid.

    Sums (1/T) S(t/T) K(t/T) e((r-N) t/T) over minor-classified grid
    points (over all points when ``partition`` is None).  The minor set is
    not grid-aligned, so the value is approximate; ``boundary_fraction``
    reports how many grid cells straddle an arc boundary, over T.
    """
    T = grid_length(N, T)
    if partition is not None:
        partition.check_target(N)
    svals = eval_S_grid(N, prog, table, T)
    kvals = eval_K_grid(N, w, table, T)
    terms = svals * kvals * _grid_phases(r - N, T, T)
    if partition is None:
        return MinorIntegral(value=complex(terms.sum() / T), boundary_fraction=0.0)
    labels = classify_grid(partition, T)
    minor = labels < 0
    crossings = int(np.count_nonzero(labels != np.roll(labels, -1)))
    value = complex(terms[minor].sum() / T) if minor.any() else 0j
    return MinorIntegral(value=value, boundary_fraction=crossings / T)


def preset_arc_params(N: int, A: float) -> tuple[int, float, bool]:
    """Dissection preset Q = (log N)^(20A), tau = N/Q, clamped to feasibility.

    The nominal Q explodes for any honest A, so it is clamped into
    [1, Q_max] with Q_max the largest Q satisfying tau > 2Q^2.  Returns
    (Q, tau, clamped).
    """
    if N < 3:
        raise ValueError("N too small for a dissection preset")
    q_cap = 1  # largest Q with 2Q^3 < N, so tau = N/Q always clears 2Q^2
    while 2 * (q_cap + 1) ** 3 < N:
        q_cap += 1
    log_q = 20.0 * A * math.log(math.log(N))
    clamped = False
    if log_q > math.log(q_cap):
        q = q_cap
        clamped = True
    else:
        q = max(1, int(math.exp(log_q)))
    return q, N / q, clamped
