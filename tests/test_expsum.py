import math
import random

import numpy as np
import pytest
from scipy.special import sici

from goldbach3 import (
    ConsistencyError,
    I_integral,
    J_integral,
    Progression,
    WeightSpec,
    build_partition,
    chebyshev_theta,
    coefficient_extract,
    coefficient_extract_count,
    count_convolution,
    count_direct,
    eval_K,
    eval_K_grid,
    eval_S,
    eval_S_grid,
    grid_count,
    grid_length,
    kernel_coefficients,
    triple,
    weight_coefficients,
)
from goldbach3 import expsum
from conftest import random_instance

LOG2 = math.log(2)


class TestEvalS:
    def test_alpha_zero_is_theta(self, table_small):
        for k, l in ((1, 0), (4, 3), (7, 2)):
            prog = Progression(k, l)
            s = eval_S(0.0, 1000, prog, table_small)
            assert s == pytest.approx(chebyshev_theta(1000, prog, table_small))

    def test_alpha_half_parity(self, table_small):
        # phases are +1 at p=2 and -1 at every odd prime
        theta = chebyshev_theta(1000, Progression(1, 0), table_small)
        s = eval_S(0.5, 1000, Progression(1, 0), table_small)
        assert s.real == pytest.approx(2 * LOG2 - theta, rel=1e-10)
        assert abs(s.imag) < 1e-9

    def test_integer_periodicity(self, table_small):
        rng = random.Random(5)
        prog = Progression(3, 1)
        for _ in range(10):
            alpha = rng.uniform(-2, 2)
            a = eval_S(alpha, 2000, prog, table_small)
            b = eval_S(alpha + 1.0, 2000, prog, table_small)
            assert abs(a - b) < 1e-6

    def test_bitwise_integer_periodicity(self, table_small):
        # fmod and the floor reduction are exact, so dyadic alpha shift bit for bit
        prog = Progression(3, 1)
        w = WeightSpec.from_preset("alternating", 12, 1)
        for j in range(8):
            a = j / 8
            s0, k0 = eval_S(a, 2000, prog, table_small), eval_K(a, 2000, w, table_small)
            for m in (1, -3, 2**40, -(2**40)):
                assert eval_S(a + m, 2000, prog, table_small) == s0, (j, m)
                assert eval_K(a + m, 2000, w, table_small) == k0, (j, m)

    @pytest.mark.parametrize("alpha", [1e308, -1e308])
    def test_huge_alpha_is_an_integer(self, table_small, alpha):
        # every double this large is an integer: S(alpha) = S(0), with no overflow warning
        prog = Progression(1, 0)
        assert eval_S(alpha, 100, prog, table_small) == eval_S(0.0, 100, prog, table_small)
        w = WeightSpec.from_preset("unit", 10, 1)
        assert eval_K(alpha, 100, w, table_small) == eval_K(0.0, 100, w, table_small)

    def test_triangle_inequality(self, table_small):
        rng = random.Random(6)
        prog = Progression(5, 2)
        theta = chebyshev_theta(2000, prog, table_small)
        for _ in range(100):
            assert abs(eval_S(rng.random(), 2000, prog, table_small)) <= theta + 1e-9

    def test_grid_matches_pointwise(self, table_small):
        N, T = 500, 1001
        prog = Progression(4, 1)
        grid = eval_S_grid(N, prog, table_small, T)
        for t in (0, 17, 500, 1000):
            assert grid[t] == pytest.approx(eval_S(t / T, N, prog, table_small), abs=1e-8)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_alpha_refused(self, table_small, alpha):
        with pytest.raises(ValueError, match="finite"):
            eval_S(alpha, 100, Progression(1, 0), table_small)
        with pytest.raises(ValueError, match="finite"):
            eval_K(alpha, 100, WeightSpec.from_preset("unit", 4, 1), table_small)


@pytest.mark.parametrize("T", [1001, 1002, 1024, 1215])
def test_mirrored_grids_match_pointwise(table_small, T):
    # even and odd T: the upper half of each grid is mirrored from the rfft
    N = 500
    prog = Progression(4, 1)
    w = WeightSpec.from_preset("alternating", 9, 1)
    s_grid = eval_S_grid(N, prog, table_small, T)
    k_grid = eval_K_grid(N, w, table_small, T)
    assert s_grid.shape == k_grid.shape == (T,)
    for t in (0, 1, 17, T // 2 - 1, T // 2, T // 2 + 1, T - 2, T - 1):
        assert s_grid[t] == pytest.approx(eval_S(t / T, N, prog, table_small), abs=1e-8)
        assert k_grid[t] == pytest.approx(eval_K(t / T, N, w, table_small), abs=1e-8)


class TestWeightSpec:
    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            WeightSpec.from_map(1, {2: 1.5})

    def test_non_finite_weights_refused(self, tmp_path):
        path = tmp_path / "lam.txt"
        path.write_text("1 1.0\n3 nan\n")
        with pytest.raises(ValueError, match="finite"):
            WeightSpec.from_file(path, 1)
        with pytest.raises(ValueError, match="finite"):
            WeightSpec.from_map(1, {2: math.inf})

    def test_imprimitive_moduli_zeroed(self):
        w = WeightSpec.from_preset("unit", 10, l3=6)
        assert w.lam[2] == 0.0 and w.lam[3] == 0.0 and w.lam[6] == 0.0
        assert w.lam[5] == 1.0 and w.lam[7] == 1.0

    @pytest.mark.parametrize("seed", range(4))
    def test_zeroing_and_active_moduli_match_gcd_loop(self, seed):
        rng = random.Random(seed)
        for _ in range(25):
            k_max = rng.randrange(1, 60)
            l3 = rng.choice([0, 1, rng.randrange(2, 400), rng.randrange(2, 400) * 2**70])
            lam = np.array([rng.choice([0.0, -1.0, 0.5, rng.uniform(-1, 1)])
                            for _ in range(k_max + 1)])
            w = WeightSpec(l3=l3, lam=lam)
            want = [0.0] + [lam[k] if math.gcd(k, l3) == 1 else 0.0 for k in range(1, k_max + 1)]
            assert w.lam.tolist() == want
            assert w.active_moduli() == [k for k in range(1, k_max + 1) if want[k] != 0.0]

    def test_presets(self):
        w = WeightSpec.from_preset("alternating", 6, 1)
        assert w.lam[1] == -1.0 and w.lam[2] == 1.0 and w.lam[5] == -1.0
        assert WeightSpec.from_preset("zero", 4, 1).active_moduli() == []
        single = WeightSpec.from_preset("single:3", 8, 1)
        assert single.active_moduli() == [3]

    def test_from_file(self, tmp_path):
        path = tmp_path / "lam.txt"
        path.write_text("# weights\n1 1.0\n3 -0.5\n\n4 0.25\n")
        w = WeightSpec.from_file(path, 1)
        assert w.lam[1] == 1.0 and w.lam[3] == -0.5 and w.lam[4] == 0.25


class TestEvalK:
    def test_zero_weights(self, table_small):
        w = WeightSpec.from_preset("zero", 10, 1)
        assert eval_K(0.37, 1000, w, table_small) == 0j

    def test_single_modulus_reduces_to_S(self, table_small):
        w = WeightSpec.from_preset("single:5", 10, l3=2)
        a = eval_K(0.21, 1500, w, table_small)
        b = eval_S(0.21, 1500, Progression(5, 2), table_small)
        assert a == pytest.approx(b, rel=1e-12)

    def test_single_pass_equals_modulus_loop(self, table_10k):
        rng = random.Random(88)
        for _ in range(10):
            k_max = rng.randrange(2, 51)
            l3 = rng.randrange(1, 20)
            lam = {k: rng.uniform(-1, 1) for k in range(1, k_max + 1)}
            w = WeightSpec.from_map(l3, lam)
            N = rng.randrange(500, 10**4)
            alpha = rng.uniform(0, 1)
            fast = eval_K(alpha, N, w, table_10k)
            slow = sum(
                w.lam[k] * eval_S(alpha, N, Progression(k, l3 % k), table_10k)
                for k in range(1, k_max + 1)
                if math.gcd(k, l3) == 1
            )
            assert abs(fast - slow) <= 1e-9 * max(abs(slow), 1.0)

    def test_grid_parseval(self, table_10k):
        N = 10**4
        w = WeightSpec.from_preset("alternating", 30, 1)
        T = 2 * N + 1
        grid = eval_K_grid(N, w, table_10k, T)
        l2 = float(np.sum(np.abs(grid) ** 2)) / T
        _, c = weight_coefficients(N, w, table_10k)
        assert l2 == pytest.approx(float(np.dot(c, c)), rel=1e-8)


class TestCoefficientExtract:
    def test_matches_direct_oracle(self, table_small):
        rng = random.Random(3000)
        for _ in range(20):
            inst = random_instance(rng, 50, 2000, 12)
            d = count_direct(inst, table_small)
            v = coefficient_extract(inst.N, inst, table_small)
            assert abs(v - d.value) <= 1e-6 * max(abs(d.value), 1.0)
            assert coefficient_extract_count(inst.N, inst, table_small) == d.solutions

    def test_n9_value(self, table_small):
        v = coefficient_extract(9, triple(9, 1, 0, 1, 0, 1, 0), table_small)
        assert v == pytest.approx(math.log(3) ** 3 + 3 * LOG2**2 * math.log(5), rel=1e-9)

    def test_empty_progression_gives_zero(self, table_small):
        # no prime <= 10 is 1 mod 25
        v = coefficient_extract(10, triple(10, 25, 1, 1, 0, 1, 0), table_small)
        assert v == pytest.approx(0.0, abs=1e-12)

    def test_alias_guard(self, table_small):
        with pytest.raises(ValueError):
            coefficient_extract(100, triple(100, 1, 0, 1, 0, 1, 0), table_small, T=200)

    def test_default_grid_is_fast_length(self):
        assert grid_length(1000) == 2025  # 3^4 5^2, the first 5-smooth length >= 2001
        assert grid_length(1000, 2001) == 2001
        assert grid_length(1012) == 2025
        with pytest.raises(ValueError):
            grid_length(1000, 2000)

    @pytest.mark.parametrize("extra", [0, 1, 2, 57])
    def test_both_grid_parities(self, table_small, extra):
        # half-spectrum weights 1, 2, ..., 2 and a lone Nyquist point at even T
        rng = random.Random(4100 + extra)
        for _ in range(5):
            inst = random_instance(rng, 50, 1500, 8)
            T = 2 * inst.N + 1 + extra
            d = count_direct(inst, table_small)
            v = coefficient_extract(inst.N, inst, table_small, T=T)
            assert abs(v - d.value) <= 1e-9 * max(abs(d.value), 1.0)
            assert coefficient_extract_count(inst.N, inst, table_small, T=T) == d.solutions

    def test_weighted_value_near_2e5(self, table_big):
        # a float phase N t / T was off by 0.6 here
        inst = triple(170000, 2, 1, 2, 1, 1, 0)
        ref = count_convolution(inst, table_big).value
        assert coefficient_extract(inst.N, inst, table_big) == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("extra", [None, 0, 1])
    def test_grid_count_is_both_extractions(self, table_small, extra):
        # one call for both weightings, bit for bit the two separate calls
        rng = random.Random(4200)
        for _ in range(8):
            inst = random_instance(rng, 50, 1500, 8)
            T = None if extra is None else 2 * inst.N + 1 + extra
            wc = grid_count(inst, table_small, T=T)
            solutions = coefficient_extract_count(inst.N, inst, table_small, T=T)
            assert wc.solutions == solutions
            if solutions:
                assert wc.value == coefficient_extract(inst.N, inst, table_small, T=T)
            else:
                assert wc.value == 0.0

    def test_grid_count_keeps_rounding_guard(self, table_small, monkeypatch):
        inst = triple(1001, 3, 2, 1, 0, 1, 0)
        solutions = grid_count(inst, table_small).solutions
        phases = expsum._grid_phases
        # scale every summand so the unit extraction lands half-way between integers
        monkeypatch.setattr(
            expsum, "_grid_phases", lambda *args: phases(*args) * (1 + 0.5 / solutions)
        )
        with pytest.raises(ConsistencyError, match="drifted"):
            grid_count(inst, table_small)

    def test_obstructed_instance_vanishes(self, table_1e5):
        # three odd primes never sum to an even target; a float phase gave 2e-3
        inst = triple(30000, 2, 1, 2, 1, 2, 1)
        assert abs(coefficient_extract(inst.N, inst, table_1e5)) < 1e-6
        assert coefficient_extract_count(inst.N, inst, table_1e5) == 0


def c_closed_form(H: float, h: int) -> float:
    # flat piece elementary, reciprocal piece via the cosine integral
    if h == 0:
        return 2.0 + 2.0 * math.log(H / 2.0)
    w = 2.0 * math.pi * h
    return 2.0 * (H * math.sin(w / H) / w + sici(math.pi * h)[1] - sici(w / H)[1])


class TestCosineIntegral:
    def test_matches_sici_on_a_log_grid(self):
        x = np.geomspace(1e-8, 1e7, 220001)
        assert np.max(np.abs(expsum._cosine_integral(x) - sici(x)[1])) <= 2e-15

    def test_continuous_across_the_branch_point(self):
        # the power series ends and the continued fraction starts at x = 2
        x = np.array([np.nextafter(2.0, 0.0), 2.0])
        below, at = expsum._cosine_integral(x)
        assert abs(below - at) <= 1e-15
        assert np.max(np.abs(np.array([below, at]) - sici(x)[1])) <= 2e-15


class TestKernelCoefficients:
    def test_c0_closed_form(self):
        kc = kernel_coefficients(50.0, h_max=5)
        assert abs(kc.coeff(0) - (2.0 + 2.0 * math.log(25.0))) < 1e-9

    def test_even_symmetry(self):
        kc = kernel_coefficients(20.0, h_max=30)
        for h in range(31):
            assert kc.coeff(h) == kc.coeff(-h)

    def test_quadrature_matches_cosine_integral(self):
        kc = kernel_coefficients(37.0, h_max=200)
        for h in (0, 1, 2, 7, 50, 199):
            assert abs(kc.coeff(h) - c_closed_form(37.0, h)) < 1e-9

    def test_envelope_wide_range(self):
        kc = kernel_coefficients(100.0, h_max=10**4)
        assert kc.envelope_ok
        h = np.arange(1, 10**4 + 1, dtype=np.float64)
        bound = 4.0 * np.minimum(math.log(100.0), 100.0**2 / h**2)
        assert np.all(np.abs(kc.values[1:]) <= bound)

    @pytest.mark.parametrize("H", [3.0, 37.0, 1000.0])
    def test_coefficients_match_J_quadrature(self, H):
        # J(-h, 1) integrates the kernel pointwise, with no closed form inside
        kc = kernel_coefficients(H, h_max=max(100, math.ceil(10 * H)))
        for h in (0, 1, 2, 7, 50, kc.h_max // 2, kc.h_max):
            assert abs(kc.values[h] - J_integral(-h, 1, H)) < 1e-11

    @pytest.mark.parametrize("H", [1.25, 1.5, 1.99, 2.0, 2.5])
    def test_low_heights(self, H):
        # for H <= 2 the cap never bites, since ||gamma|| <= 1/2 <= 1/H
        kc = kernel_coefficients(H, h_max=20)
        for h in range(21):
            assert abs(kc.coeff(h) - J_integral(-h, 1, H)) < 1e-11
            if H <= 2.0:
                assert abs(kc.coeff(h) - (H if h == 0 else 0.0)) < 1e-14

    def test_oversized_requests_refused(self):
        # each would allocate terabytes if the limits were checked late
        with pytest.raises(ValueError, match="h_max"):
            kernel_coefficients(50.0, h_max=10**12)
        with pytest.raises(ValueError, match="h_max"):
            kernel_coefficients(1e12)
        for n, k in ((10**12, 1), (1, 10**12), (-(10**12), 7)):
            with pytest.raises(ValueError, match="nodes"):
                J_integral(n, k, 50.0)

    def test_height_validation(self):
        with pytest.raises(ValueError):
            kernel_coefficients(1.0)
        for H in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                kernel_coefficients(H)
            with pytest.raises(ValueError, match="finite"):
                J_integral(6, 3, H)


class TestJIntegral:
    def test_divisible_hits_kernel_coefficient(self):
        kc = kernel_coefficients(50.0, h_max=45)
        for n in range(-40, 41):
            for k in range(1, 9):
                if n % k == 0:
                    assert abs(J_integral(n, k, 50.0) - kc.coeff(-n // k)) < 1e-6

    def test_nondivisible_vanishes(self):
        for n, k in ((7, 3), (-11, 4), (5, 2), (13, 8)):
            assert abs(J_integral(n, k, 50.0)) < 1e-6

    def test_n0_k1_is_c0(self):
        assert abs(J_integral(0, 1, 50.0) - (2.0 + 2.0 * math.log(25.0))) < 1e-6

    def test_fast_phase_hits_kernel_coefficient(self):
        # panels are cut to half a wavelength, so a large n costs nodes, not accuracy
        kc = kernel_coefficients(200.0, h_max=1000)
        assert abs(J_integral(3000, 3, 200.0) - kc.coeff(1000)) < 1e-11

    @pytest.mark.parametrize("H", [1e14, 1e20])
    def test_huge_heights_collapse(self, H):
        # the cut 1/H is far below the spacing of floats near a period's
        # end, so the nodes must be distances, not points of [0, 1]
        kc = kernel_coefficients(H, h_max=3)
        for n, k in ((0, 1), (3, 3), (0, 5), (-6, 3), (5, 2), (7, 3)):
            J = J_integral(n, k, H)
            if n % k == 0:
                assert abs(J - kc.coeff(-n // k)) <= 1e-9 * kc.coeff(-n // k)
            else:
                assert abs(J) <= 1e-9 * kc.coeff(0)


class TestIIntegral:
    def test_zero_weights_vanish(self, table_small):
        w = WeightSpec.from_preset("zero", 8, 1)
        part = build_partition(400, 3, 1000.0)
        res = I_integral(400, 400, Progression(3, 1), w, part, None, table_small)
        assert res.value == 0j

    def test_all_major_grid_is_empty_minor(self, table_small):
        # one fat arc swallows every grid point of a coarse grid
        part = build_partition(6, 1, 2.05)
        w = WeightSpec.from_preset("unit", 3, 1)
        res = I_integral(6, 6, Progression(1, 0), w, part, 13, table_small)
        assert res.value == 0j

    def test_full_circle_conjugate_identity(self, table_10k):
        # (1/T) sum S * conj(K) picks out the diagonal sum of log(p) c_p
        N, T = 4000, 8001
        prog = Progression(5, 3)
        w = WeightSpec.from_preset("alternating", 12, 1)
        svals = eval_S_grid(N, prog, table_10k, T)
        kvals = eval_K_grid(N, w, table_10k, T)
        lhs = complex(np.sum(svals * np.conj(kvals))) / T
        p, c = weight_coefficients(N, w, table_10k)
        mask = p % prog.k == prog.l
        rhs = float(np.dot(np.log(p[mask].astype(float)), c[mask]))
        assert abs(lhs - rhs) <= 1e-6 * max(abs(rhs), 1.0)

    def test_full_circle_pair_sum(self, table_1e5):
        # with no partition the grid sum is exactly sum over p + p' = N - r of
        # log(p) c_p'; a float phase (r - N) t / T was off by 1e-11 relative
        N, r = 100000, 1000
        prog = Progression(3, 2)
        w = WeightSpec.from_preset("alternating", 10, 1)
        res = I_integral(r, N, prog, w, None, None, table_1e5)
        p, c = weight_coefficients(N, w, table_1e5)
        cp = np.zeros(N + 1)
        cp[p] = c
        q = table_1e5.primes_in_progression(N - r - 1, prog)
        exact = float(np.dot(np.log(q.astype(float)), cp[N - r - q]))
        assert abs(res.value - exact) <= 1e-13 * abs(exact)

    def test_full_circle_value_aliases_out(self, table_small):
        # with r = N the phase is flat and no frequency p + p' can hit 0 mod T
        N = 1000
        w = WeightSpec.from_preset("unit", 5, 1)
        res = I_integral(N, N, Progression(1, 0), w, None, None, table_small)
        assert abs(res.value) < 1e-6

    def test_boundary_fraction_reported(self, table_small):
        part = build_partition(500, 4, 500.0)
        w = WeightSpec.from_preset("unit", 5, 1)
        res = I_integral(500, 500, Progression(1, 0), w, part, None, table_small)
        assert 0.0 < res.boundary_fraction < 1.0

    def test_partition_target_mismatch(self, table_small):
        part = build_partition(400, 2, 100.0)
        w = WeightSpec.from_preset("unit", 5, 1)
        with pytest.raises(ValueError):
            I_integral(500, 500, Progression(1, 0), w, part, None, table_small)
