import math
import random
from fractions import Fraction

import numpy as np
import pytest

from goldbach3 import (
    Arc,
    ArcOverlapError,
    Progression,
    WeightSpec,
    analytic_major_measure,
    build_partition,
    classify,
    classify_grid,
    eval_K_grid,
    grid_length,
    major_measure,
    minor_statistics,
    weight_coefficients,
)
from goldbach3.arcs import MAX_ARCS, _reduce_to_period
from goldbach3.arith import euler_phi
from goldbach3.expsum import _grid_power
from conftest import traced_peak

GOLDEN_FRAC = 0.6180339887498949


class TestBuildPartition:
    def test_q1_single_arc(self):
        part = build_partition(100, 1, 100.0)
        assert len(part.arcs) == 1
        assert part.arcs[0].center == 0.0
        assert major_measure(part) == pytest.approx(0.02)

    def test_q3_farey_fractions(self):
        part = build_partition(100, 3, 100.0)
        assert [(a.a, a.q) for a in part.arcs] == [(0, 1), (1, 3), (1, 2), (2, 3)]
        assert major_measure(part) == pytest.approx((2 / 100) * (1 + 0.5 + 2 / 3))

    def test_arrays_match_a_plain_farey_enumeration(self):
        for Q in range(1, 61):
            tau = 2 * Q * Q + 0.5
            part = build_partition(100, Q, tau)
            farey = sorted({Fraction(a, q) for q in range(1, Q + 1) for a in range(q)})
            a = [f.numerator for f in farey]
            q = [f.denominator for f in farey]
            assert part.a.tolist() == a and part.q.tolist() == q
            assert part.centers.tolist() == [x / y for x, y in zip(a, q)]
            assert part.radii.tolist() == [1.0 / (y * tau) for y in q]
            assert part.arcs == tuple(Arc(x, y, x / y, 1.0 / (y * tau)) for x, y in zip(a, q))
            for array in (part.a, part.q, part.centers, part.radii):
                assert not array.flags.writeable

    @pytest.mark.parametrize("tau", [math.nan, math.inf])
    def test_non_finite_tau_refused(self, tau):
        with pytest.raises(ValueError, match="finite"):
            build_partition(100, 3, tau)

    def test_overlap_refused(self):
        with pytest.raises(ArcOverlapError):
            build_partition(100, 5, 49.0)

    def test_largest_q_at_the_arc_bound_builds(self):
        totals = np.cumsum([euler_phi(q) for q in range(1, 2000)])
        Q = int(np.searchsorted(totals, MAX_ARCS, side="right"))  # totals[Q - 1] <= MAX_ARCS
        assert len(build_partition(10, Q, 2 * Q * Q + 1).arcs) == totals[Q - 1]
        with pytest.raises(ValueError, match="MAX_ARCS"):
            build_partition(10, Q + 1, 2 * (Q + 1) ** 2 + 1)

    def test_every_preset_below_the_arc_bound(self):
        # any Q <= (N/2)^(1/3) clears MAX_ARCS; N = 10^10 is far past the largest sieve
        N, Q = 10**10, 1
        while 2 * (Q + 1) ** 3 < N:  # the largest Q with 2Q^3 < N, so N/Q clears 2Q^2
            Q += 1
        assert sum(euler_phi(q) for q in range(1, Q + 1)) <= MAX_ARCS
        assert N / Q > 2 * Q * Q

    def test_arcs_disjoint_and_inside_period(self):
        rng = random.Random(40)
        for _ in range(20):
            Q = rng.randrange(1, 40)
            tau = 2 * Q * Q * rng.uniform(1.001, 10.0)
            part = build_partition(10**4, Q, tau)
            ends = [(a.center - a.radius, a.center + a.radius) for a in part.arcs]
            for (lo1, hi1), (lo2, hi2) in zip(ends, ends[1:]):
                assert hi1 < lo2  # sorted sweep: strictly separated
            assert ends[0][0] >= part.period_start
            assert ends[-1][1] < part.period_start + 1.0


class TestMeasure:
    def test_matches_analytic_formula(self):
        rng = random.Random(41)
        for _ in range(20):
            Q = rng.randrange(1, 60)
            tau = 2 * Q * Q * rng.uniform(1.001, 5.0)
            part = build_partition(1000, Q, tau)
            assert abs(major_measure(part) - analytic_major_measure(Q, tau)) <= 1e-12

    def test_hand_enumeration(self):
        part = build_partition(100, 3, 1000.0)
        assert major_measure(part) == pytest.approx(13 / 3000, rel=1e-12)

    def test_less_than_full_circle(self):
        rng = random.Random(42)
        for _ in range(10):
            Q = rng.randrange(1, 50)
            part = build_partition(1000, Q, 2 * Q * Q + 1.0)
            assert major_measure(part) < 1.0

    def test_monotone_in_Q(self):
        tau = 10**6
        measures = [major_measure(build_partition(1000, Q, tau)) for Q in range(1, 30)]
        assert all(b >= a for a, b in zip(measures, measures[1:]))


class TestClassify:
    def test_arc_centers(self):
        part = build_partition(1000, 6, 10**4)
        for arc in part.arcs:
            assert classify(arc.center, part) == arc

    def test_examples(self):
        part = build_partition(1000, 2, 10**5)
        hit = classify(0.5, part)
        assert (hit.a, hit.q) == (1, 2)
        assert classify(0.5 + 2 / 10**5, part) is None  # outside radius 1/(2 tau)

    def test_golden_ratio_is_minor(self):
        part = build_partition(1000, 10, 10**4)
        assert classify(GOLDEN_FRAC, part) is None
        # distance to every Farey fraction with q <= 10 exceeds every radius
        for arc in part.arcs:
            assert abs(GOLDEN_FRAC - arc.center) > arc.radius

    def test_boundary_is_major(self):
        # dyadic tau makes center + radius exactly representable
        part = build_partition(1000, 2, 1024.0)
        arc = next(a for a in part.arcs if a.q == 2)
        assert classify(arc.center + arc.radius, part) == arc
        assert classify(arc.center - arc.radius, part) == arc
        assert classify(arc.center + arc.radius * 1.01, part) is None

    def test_period_reduction(self):
        part = build_partition(1000, 3, 1000.0)
        assert classify(1.0 - 1e-4, part) == classify(-1e-4, part)
        assert classify(5.25, part) == classify(0.25, part)

    def test_grid_partition_counts(self):
        part = build_partition(500, 7, 10**4)
        for T in (101, 1001, 4001):
            labels = classify_grid(part, T)
            major = int((labels >= 0).sum())
            minor = int((labels < 0).sum())
            assert major + minor == T
            # vectorized labels agree with scalar classification
            idx = {arc: i for i, arc in enumerate(part.arcs)}
            for t in range(0, T, max(1, T // 37)):
                hit = classify(t / T, part)
                assert labels[t] == (idx[hit] if hit is not None else -1)


def classify_grid_oracle(partition, T):
    """The earlier classify_grid: two searchsorted passes over all T points."""
    alpha = _reduce_to_period(np.arange(T) / T, partition)
    centers = partition.centers
    radii = partition.radii
    out = np.full(T, -1, dtype=np.int64)
    idx = np.searchsorted(centers, alpha)
    for shift in (-1, 0):
        j = idx + shift
        ok = (j >= 0) & (j < len(centers))
        jj = np.where(ok, j, 0)
        hit = ok & (np.abs(alpha - centers[jj]) <= radii[jj])
        out[hit] = jj[hit]
    return out


class TestClassifyGridOracle:
    def test_random_grids(self):
        rng = random.Random(1300)
        for _ in range(200):
            Q = rng.randrange(1, 10)
            part = build_partition(1000, Q, 2 * Q * Q + rng.uniform(0.01, 60.0))
            T = rng.randrange(1, 30000)
            assert np.array_equal(classify_grid(part, T), classify_grid_oracle(part, T))

    def test_points_on_arc_ends(self):
        # with integer tau and T a multiple of lcm(1..Q) * tau, every arc end
        # (a/q +- 1/(q tau)) is a grid point
        for Q in range(1, 7):
            L = math.lcm(*range(1, Q + 1))
            for tau in (2 * Q * Q + 1, 2 * Q * Q + 6, 1024):
                part = build_partition(1000, Q, float(tau))
                for m in (1, 3):
                    T = L * tau * m
                    labels = classify_grid(part, T)
                    assert np.array_equal(labels, classify_grid_oracle(part, T))
                    # the end 1/tau of the arc around 0/1 is major, the next point not
                    assert labels[L * m] == 0 and labels[L * m + 1] == -1

    def test_large_grid(self):
        part = build_partition(10**6, 79, 10**6 / 79)
        T = 2 * 10**6 + 1
        assert np.array_equal(classify_grid(part, T), classify_grid_oracle(part, T))


class TestMinorStatistics:
    def test_zero_weights(self, table_small):
        part = build_partition(600, 3, 10**4)
        w = WeightSpec.from_preset("zero", 8, 1)
        stats = minor_statistics(600, w, part, 1201, table_small)
        assert stats == (0.0, 0.0, 0.0)

    def test_l2_ordering_and_parseval(self, table_small):
        part = build_partition(600, 4, 10**4)
        w = WeightSpec.from_preset("alternating", 10, 1)
        stats = minor_statistics(600, w, part, 1201, table_small)
        _, c = weight_coefficients(600, w, table_small)
        assert stats.l2_full == pytest.approx(float(np.dot(c, c)), rel=1e-8)
        assert stats.l2_minor <= stats.l2_full
        assert stats.sup_minor > 0.0

    def test_single_modulus_coefficient_sum(self, table_small):
        part = build_partition(500, 2, 10**4)
        w = WeightSpec.from_preset("single:3", 5, l3=2)
        stats = minor_statistics(500, w, part, 1001, table_small)
        p = table_small.primes_in_progression(500, Progression(3, 2))
        expect = float(np.sum(np.log(p.astype(float)) ** 2))
        assert stats.l2_full == pytest.approx(expect, rel=1e-8)

    def test_grid_size_guard(self, table_small):
        part = build_partition(600, 2, 10**4)
        w = WeightSpec.from_preset("unit", 4, 1)
        with pytest.raises(ValueError):
            minor_statistics(600, w, part, 600, table_small)

    def test_partition_target_mismatch(self, table_10k):
        # the same refusal as I_integral's, before any grid is formed
        part = build_partition(1000, 3, 10**4)
        w = WeightSpec.from_preset("unit", 4, 1)
        with pytest.raises(ValueError, match="partition built for N=1000, not N=5000"):
            minor_statistics(5000, w, part, None, table_10k)

    @pytest.mark.parametrize("T", [None, 40003, 40006])
    @pytest.mark.parametrize("preset", ["unit", "alternating", "single:3"])
    def test_bits_of_the_full_circle_route(self, table_10k, preset, T):
        # the oracle forms K on the whole circle and classifies every point
        N = 20001
        part = build_partition(N, 5, N / 5)
        w = WeightSpec.from_preset(preset, 12, 1)
        stats = minor_statistics(N, w, part, T, table_10k)
        T = grid_length(N, T)
        kvals = eval_K_grid(N, w, table_10k, T)
        power = kvals.real**2 + kvals.imag**2
        minor = classify_grid(part, T) < 0
        assert minor.any()
        assert stats.l2_full == float(power.sum()) / T
        assert stats.sup_minor == math.sqrt(float(power[minor].max()))
        assert stats.l2_minor == float(power[minor].sum()) / T
        assert np.array_equal(_grid_power(*weight_coefficients(N, w, table_10k), T), power)

    def test_memory(self, table_big):
        # |K|^2 from the half spectrum and a bool minor mask: 2.58 x 8T bytes at
        # this N; a complex grid and an int64 label array took 4.21 x 8T
        N = 200003
        T = grid_length(N)
        part = build_partition(N, 20, N / 20)
        w = WeightSpec.from_preset("unit", 12, 1)
        assert traced_peak(lambda: minor_statistics(N, w, part, None, table_big)) <= 3.0 * 8 * T
