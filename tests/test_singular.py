import itertools
import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldbach3 import (
    ConsistencyError,
    Progression,
    SingularSeriesCache,
    classical_ternary_qsum,
    classical_ternary_series,
    count_convolution,
    euler_phi,
    gauss_sum_G,
    local_density,
    local_density_factor,
    main_term,
    moebius,
    sieve_primes,
    singular_series_product,
    singular_series_qsum,
    triple,
)
from goldbach3 import singular
from goldbach3.singular import (
    _gauss_row,
    _prime_power_term,
    _stabilized_threshold,
    _term_can_survive,
)
from conftest import progressions, random_instance


def qsum_per_q(inst, q_max):
    """Reference q-sum: every surviving q evaluated directly, one term at a time."""
    ks, ls = inst.moduli, inst.residues
    prefactor = euler_phi(ks[0]) * euler_phi(ks[1]) * euler_phi(ks[2])
    total = 0j
    tail = 0.0
    for q in range(1, q_max + 1):
        if q > 1 and not _term_can_survive(q, ks):
            continue
        rows = [_gauss_row(q, k, l) for k, l in zip(ks, ls)]
        denom = 1
        for k in ks:
            denom *= euler_phi(math.lcm(k, q))
        a = np.arange(q, dtype=np.int64)
        unit = np.gcd(a, q) == 1
        phases = np.exp((-2j * np.pi * (inst.N % q) / q) * a[unit])
        term = complex((phases * rows[0][unit] * rows[1][unit] * rows[2][unit]).sum()) / denom
        total += term
        if q > q_max // 10:
            tail += abs(term)
    return total.real * prefactor, tail * prefactor


def density_by_convolve(inst, p, t):
    """Reference sigma_p(t): the pair count as an int64 np.convolve, folded mod p^t."""
    M = p**t
    x = np.arange(M, dtype=np.int64)
    us = []
    for prog in inst.progs:
        v = _vp(prog.k, p)
        m = x % p != 0
        if v:
            m &= x % p**v == prog.l % p**v
        us.append(m.astype(np.int64))
    lin = np.convolve(us[0], us[1])
    pair = lin[:M].copy()
    pair[: M - 1] += lin[M:]
    count = int(pair @ us[2][(inst.N - x) % M])
    sizes = [int(u.sum()) for u in us]
    return Fraction(count * M, sizes[0] * sizes[1] * sizes[2])


def product_by_densities(inst, p_max):
    """Reference product: the counted sigma_p at every prime, one Fraction at a time."""
    value = Fraction(1)
    tail = 0.0
    for p in sieve_primes(p_max).primes.tolist():
        s = local_density_factor(inst, p, _stabilized_threshold(inst, p))
        if s == 0:
            return 0.0, 0.0
        value *= s
        if p > p_max // 10:
            tail += abs(float(s) - 1.0)
    return float(value), tail


def exact_series(cache, inst):
    """The truncated product for ``inst`` as an exact Fraction, one closed-form
    sigma_p at a time; the engine's series value must be this rational,
    correctly rounded."""
    value = math.prod(
        Fraction(*local_density(inst.N, p, [(v, prog.l % p**v) for prog in inst.progs
                                            if (v := _vp(prog.k, p))]))
        for p in sieve_primes(cache.p_max).primes.tolist()
    )
    assert cache.series(inst).value == float(value)
    return value


def closed_form_density(N, p):
    """The textbook sigma_p at a prime dividing no modulus."""
    if N % p == 0:
        return 1 - Fraction(1, (p - 1) ** 2)
    return 1 + Fraction(1, (p - 1) ** 3)


def closed_form_term(N, p):
    """The textbook B(p) = -c_p(N) / (p-1)^3 at a prime dividing no modulus."""
    c = p - 1 if N % p == 0 else -1
    return -c / (p - 1) ** 3


# odd, even, divisible by 3, 7, 11, 13 and 37, and 1 mod every prime up to 13
CLOSED_FORM_TARGETS = (1000003, 10**6, 999999, 2 * 3 * 5 * 7 * 11 * 13 * 33 + 1)


def _free_primes(inst, p_max=2000):
    return [p for p in sieve_primes(p_max).primes.tolist() if all(k % p for k in inst.moduli)]


def _units(k):
    return [l for l in range(k) if math.gcd(k, l) == 1]


# moduli triples whose prime powers p^e, e >= 2, survive in the q-sum (every
# modulus divisible by p^e), mixed with non-coprime and coprime triples
HIGH_POWER_MODULI = [
    (8, 16, 24), (9, 27, 18), (16, 16, 8), (25, 50, 25), (27, 9, 54),
    (12, 18, 6), (8, 9, 25), (16, 27, 25), (4, 12, 20),
]


def _high_power_instances(seed):
    rng = random.Random(seed)
    out = []
    for ks in HIGH_POWER_MODULI:
        N = rng.randrange(10**4, 10**6) | 1
        ls = [rng.choice(_units(k)) for k in ks]
        out.append(triple(N, ks[0], ls[0], ks[1], ls[1], ks[2], ls[2]))
    return out


class TestGaussSum:
    def test_q1_is_one(self):
        assert gauss_sum_G(1, 1, Progression(1, 0)) == pytest.approx(1.0)

    def test_one_term_sum(self):
        # q=4, k=4, l=1: only b=1 qualifies, giving e(1/4) = i
        assert gauss_sum_G(1, 4, Progression(4, 1)) == pytest.approx(1j)

    def test_ramanujan_reduction(self):
        # with no progression constraint the sum over units is mu(q)
        for q in range(1, 201):
            for a in range(1, q + 1):
                if math.gcd(a, q) == 1:
                    g = gauss_sum_G(a, q, Progression(1, 0))
                    assert abs(g - moebius(q)) < 1e-10

    def test_rejects_noncoprime(self):
        with pytest.raises(ValueError):
            gauss_sum_G(2, 4, Progression(1, 0))

    def test_fft_batch_matches_direct_sum(self):
        # the q-sum engine evaluates all residues a at once via one DFT;
        # the direct unit-by-unit sum is its oracle
        from goldbach3.singular import _gauss_row

        for q in (1, 2, 7, 12, 16, 45):
            for k, l in ((1, 0), (4, 1), (6, 5), (9, 4)):
                row = _gauss_row(q, k, l)
                for a in range(q):
                    if math.gcd(a, q) == 1:
                        direct = gauss_sum_G(a, q, Progression(k, l))
                        assert abs(row[a] - direct) < 1e-10


class TestLocalDensity:
    def test_generic_prime(self):
        inst = triple(9, 1, 0, 1, 0, 1, 0)
        assert local_density_factor(inst, 5, 1) == Fraction(1) + Fraction(1, 4**3)
        assert local_density_factor(inst, 3, 1) == Fraction(3, 4)  # 3 | 9

    def test_parity_obstruction(self):
        inst = triple(10**4, 1, 0, 1, 0, 1, 0)
        assert local_density_factor(inst, 2, 1) == 0

    def test_stabilization_random_suite(self):
        rng = random.Random(55)
        primes = [p for p in range(2, 51) if all(p % d for d in range(2, p))]
        for _ in range(20):
            inst = random_instance(rng, 100, 10**5, 20)
            for p in primes:
                t = max(_vp(prog.k, p) for prog in inst.progs) + 1
                assert local_density_factor(inst, p, t) == local_density_factor(inst, p, t + 1)

    def test_fft_count_matches_convolve_oracle(self):
        rng = random.Random(60)
        insts = _high_power_instances(61)
        insts += [random_instance(rng, 100, 10**5, 30) for _ in range(4)]
        primes = [p for p in range(2, 61) if all(p % d for d in range(2, p))]
        for inst in insts:
            for p in primes:
                t0 = _stabilized_threshold(inst, p)
                for t in (t0, t0 + 1):
                    assert local_density_factor(inst, p, t) == density_by_convolve(inst, p, t)

    def test_drift_guard_raises(self, monkeypatch):
        irfft = np.fft.irfft

        def drifting_irfft(*args, **kwargs):
            return irfft(*args, **kwargs) + 0.25

        monkeypatch.setattr(np.fft, "irfft", drifting_irfft)
        with pytest.raises(ConsistencyError, match="drifted"):
            local_density_factor(triple(101, 1, 0, 1, 0, 1, 0), 7, 1)

    def test_threshold_validation(self):
        inst = triple(100, 4, 1, 1, 0, 1, 0)
        with pytest.raises(ValueError):
            local_density_factor(inst, 2, 2)  # needs t >= v_2(4) + 1 = 3
        with pytest.raises(ValueError):
            local_density_factor(inst, 4, 1)  # not prime


def _vp(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class TestQSum:
    def test_truncation_one(self):
        s = singular_series_qsum(triple(101, 3, 1, 4, 3, 5, 2), 1)
        assert s.value == pytest.approx(1.0, abs=1e-12)

    def test_matches_classical_series_partial_sum(self):
        # truncation-matched oracle: Ramanujan sums by closed form; the
        # truncations are prime squares, where q_max's own factor matters
        for N in (101, 9973, 10**4, 11025, 82713, 100003):
            for q_max in (4, 9, 25, 49, 121, 2000):
                qs = singular_series_qsum(triple(N, 1, 0, 1, 0, 1, 0), q_max)
                assert qs.value == pytest.approx(classical_ternary_qsum(N, q_max), abs=1e-12)

    def test_partial_sums_approach_classical_product(self):
        for N in (101, 9973, 100003):
            qs = singular_series_qsum(triple(N, 1, 0, 1, 0, 1, 0), 2000)
            assert qs.value == pytest.approx(classical_ternary_series(N, 2000), abs=2e-6)

    def test_even_target_collapses(self):
        qs = singular_series_qsum(triple(10**4, 1, 0, 1, 0, 1, 0), 2000)
        assert abs(qs.value) < 1e-3
        # the q = 2 term cancels the q = 1 term exactly
        qs2 = singular_series_qsum(triple(10**4, 1, 0, 1, 0, 1, 0), 2)
        assert qs2.value == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("q_max", [1, 2, 50, 300])
    def test_multiplicative_assembly_matches_per_q_oracle(self, q_max):
        rng = random.Random(300 + q_max)
        insts = _high_power_instances(q_max)
        insts += [random_instance(rng, 100, 10**5, 30) for _ in range(6)]
        if q_max >= 50:
            # the suite does reach prime powers above p^1
            assert any(_term_can_survive(q, inst.moduli) for inst in insts for q in (4, 8, 9, 25, 27))
        for inst in insts:
            value, tail = qsum_per_q(inst, q_max)
            got = singular_series_qsum(inst, q_max)
            assert got.value == pytest.approx(value, abs=1e-12)
            assert got.tail_estimate == pytest.approx(tail, abs=1e-12)

    def test_tail_reported(self):
        s = singular_series_qsum(triple(101, 1, 0, 1, 0, 1, 0), 500)
        assert s.tail_estimate >= 0.0
        assert s.q_truncation == 500


class TestClosedForms:
    """The closed forms the engine uses at free primes, against the generic code."""

    @pytest.mark.parametrize("N", CLOSED_FORM_TARGETS)
    def test_counted_density_equals_closed_form(self, N):
        for inst in (triple(N, 1, 0, 1, 0, 1, 0), triple(N, 3, 1, 5, 2, 7, 3)):
            for p in _free_primes(inst):
                assert local_density_factor(inst, p, 1) == closed_form_density(N, p)

    @pytest.mark.parametrize("N", CLOSED_FORM_TARGETS)
    def test_gauss_row_term_equals_closed_form(self, N):
        for inst in (triple(N, 1, 0, 1, 0, 1, 0), triple(N, 3, 1, 5, 2, 7, 3)):
            for p in _free_primes(inst):
                assert abs(_prime_power_term(p, p, inst) - closed_form_term(N, p)) < 1e-12

    def test_qsum_matches_per_q_oracle_at_full_truncation(self):
        # moduli that leave all but a few primes below 2000 free
        for inst in (triple(999999, 3, 1, 5, 2, 7, 3), triple(100003, 1, 0, 1, 0, 1, 0),
                     triple(10**6 + 1, 4, 1, 9, 2, 25, 3)):
            value, tail = qsum_per_q(inst, 2000)
            got = singular_series_qsum(inst, 2000)
            assert got.value == pytest.approx(value, abs=1e-12)
            assert got.tail_estimate == pytest.approx(tail, abs=1e-12)

    def test_product_matches_counted_product_bit_for_bit(self):
        rng = random.Random(2000)
        cases = [
            (random_instance(rng, 10**4, 10**6, 40), p_max)
            for p_max in (300, 2000)
            for _ in range(6)
        ]
        # moduli with a prime factor in the tail decade, and an even target
        cases += [(triple(100003, 211, 5, 1, 0, 1999, 7), 2000),
                  (triple(999999, 401, 3, 6, 1, 9, 2), 2000),
                  (triple(10**5, 3, 1, 1, 0, 1, 0), 300)]
        for inst, p_max in cases:
            value, tail = product_by_densities(inst, p_max)
            got = singular_series_product(inst, p_max)
            assert got.value == value
            assert got.tail_estimate == pytest.approx(tail, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_constrained_density_equals_counted_density_exhaustively(self, p):
        """Every valuation pattern in {0, 1, 2, 3}^3, every unit residue, every N.

        The counted density is unchanged when a variable is translated by a
        multiple c of p (its class l moves by c, and N with it), and when
        every x_i and N are multiplied by one unit.  So the constrained
        residues run over 1..p-1 with the first fixed at 1, and N over one
        period p^w, w the least of max(v_i, 1): together these reach every
        unit class l_i mod p^v_i and every N mod p^t.
        """
        for vs in itertools.product(range(4), repeat=3):
            con = [i for i in range(3) if vs[i]]
            ks = [p**v for v in vs]
            period = p ** min(max(v, 1) for v in vs)
            for rest in itertools.product(range(1, p), repeat=max(len(con) - 1, 0)):
                ls = [0, 0, 0]
                for i, l in zip(con, (1,) + rest):
                    ls[i] = l % ks[i]
                constraints = [(vs[i], ls[i]) for i in con]
                for N in range(6, 6 + period):
                    inst = triple(N, ks[0], ls[0], ks[1], ls[1], ks[2], ls[2])
                    counted = local_density_factor(inst, p, _stabilized_threshold(inst, p))
                    assert Fraction(*local_density(N, p, constraints)) == counted, (
                        vs, ls, N)

    @settings(max_examples=40, deadline=None)
    @given(N=st.integers(500, 5 * 10**5).map(lambda n: 2 * n + 1), a=progressions(30),
           b=progressions(30), k3=st.integers(1, 30), p_max=st.sampled_from([29, 100, 2000]))
    def test_residue_classes_of_k3_partition_the_series(self, N, a, b, k3, p_max):
        # sigma_p averages to the unconstrained density over the classes of
        # a variable, so summing S over l3 mod k3 gives phi(k3) S at k3 = 1
        # exactly, as long as every prime of k3 is in the product
        cache = SingularSeriesCache(N, p_max)
        total = sum(exact_series(cache, triple(N, *a, *b, k3, l3)) for l3 in _units(k3))
        assert total == euler_phi(k3) * exact_series(cache, triple(N, *a, *b, 1, 0))

    @settings(max_examples=150, deadline=None)
    @given(N=st.integers(6, 10**6), a=progressions(40), b=progressions(40),
           c=progressions(40), p_max=st.sampled_from([13, 300, 2000]),
           q_max=st.sampled_from([50, 300, 2000]))
    def test_permuting_progressions(self, N, a, b, c, p_max, q_max):
        # S is symmetric in its three progressions: the product (value and
        # tail) exactly, the q-sum to 1e-12 and M to 1e-12 relative
        perms = [triple(N, *x, *y, *z) for x, y, z in itertools.permutations((a, b, c))]
        products = [singular_series_product(inst, p_max) for inst in perms]
        assert len(set(products)) == 1
        qs = [singular_series_qsum(inst, q_max).value for inst in perms]
        assert max(qs) - min(qs) <= 1e-12
        ms = [main_term(inst, s) for inst, s in zip(perms, products)]
        assert max(ms) - min(ms) <= 1e-12 * max(map(abs, ms))


class TestProduct:
    def test_small_prefix(self):
        # N=9: (1 + 1) at p=2 times (1 - 1/4) at p=3
        inst = triple(9, 1, 0, 1, 0, 1, 0)
        s2 = local_density_factor(inst, 2, 1)
        s3 = local_density_factor(inst, 3, 1)
        assert s2 * s3 == Fraction(3, 2)

    def test_matches_classical(self):
        for N in (101, 9973):
            pr = singular_series_product(triple(N, 1, 0, 1, 0, 1, 0), 2000)
            assert pr.value == pytest.approx(classical_ternary_series(N, 2000), rel=1e-12)

    def test_vanishing_factor_zeroes_value(self):
        pr = singular_series_product(triple(10**4, 1, 0, 1, 0, 1, 0), 100)
        assert pr.value == 0.0

    def test_positive_when_all_factors_positive(self):
        rng = random.Random(77)
        for _ in range(10):
            inst = random_instance(rng, 51, 10**4, 10, odd=True)
            pr = singular_series_product(inst, 200)
            if pr.value != 0.0:
                assert pr.value > 0.0


class TestCrossRoute:
    def test_agreement_random_suite(self):
        rng = random.Random(4242)
        for _ in range(10):
            inst = random_instance(rng, 1001, 10**5, 20, odd=True)
            qs = singular_series_qsum(inst, 500)
            pr = singular_series_product(inst, 500)
            assert abs(qs.value - pr.value) <= 2e-3 * max(pr.value, 1.0)

    def test_conjugate_symmetry_never_trips(self):
        # the imaginary-part guard stays silent across a spread of instances
        rng = random.Random(11)
        for _ in range(10):
            inst = random_instance(rng, 100, 5000, 12)
            singular_series_qsum(inst, 300)


class TestMainTerm:
    def test_zero_series(self):
        inst = triple(10**4, 1, 0, 1, 0, 1, 0)
        assert main_term(inst, singular_series_product(inst, 100)) == 0.0

    def test_unit_moduli_shape(self):
        inst = triple(10001, 1, 0, 1, 0, 1, 0)
        s = singular_series_product(inst, 300)
        assert main_term(inst, s) == pytest.approx(10001**2 * s.value / 2)

    def test_ratio_band_constrained(self, table_1e5):
        inst = triple(10**5 + 3, 3, 1, 4, 1, 1, 0)
        m = main_term(inst, singular_series_product(inst, 2000))
        r = count_convolution(inst, table_1e5).value
        assert 0.8 <= r / m <= 1.2


class TestCache:
    def test_matches_direct_product_exactly(self):
        rng = random.Random(909)
        cache = SingularSeriesCache(10001, 300)
        for _ in range(8):
            inst = random_instance(rng, 10001, 10001, 15)
            direct = singular_series_product(inst, 300)
            via_cache = cache.series(inst)
            assert via_cache.value == direct.value  # bit-identical rationals

    def test_memo_matches_product_on_full_cell_grid(self, monkeypatch):
        # every cell of the H = 6 grid, from more threads than cores with a
        # short switch interval: the memo gives every cell its own product,
        # and no density is counted
        N, p_max = 10007, 30
        pairs = [(k, l) for k in range(1, 7) for l in _units(k)]
        cells = [triple(N, *a, *b, *c) for a in pairs for b in pairs for c in pairs]
        cache = SingularSeriesCache(N, p_max)
        calls = []

        def counted(*args):
            calls.append(args[1])
            return local_density_factor(*args)

        monkeypatch.setattr(singular, "local_density_factor", counted)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                via_cache = list(pool.map(cache.series, cells, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        monkeypatch.undo()
        assert calls == []
        for inst, got in zip(cells, via_cache):
            assert got.value == singular_series_product(inst, p_max).value

    def test_cells_match_counted_product(self):
        N, p_max = 10007, 50
        pairs = [(k, l) for k in range(1, 6) for l in _units(k)]
        cache = SingularSeriesCache(N, p_max)
        for a, b, c in itertools.product(pairs, repeat=3):
            inst = triple(N, *a, *b, *c)
            assert cache.series(inst).value == product_by_densities(inst, p_max)[0]

    @pytest.mark.parametrize("p_max", [2, 3, 2000])
    def test_targets_sharing_a_truncation_stay_apart(self, p_max):
        # targets with one p_max share its product of free densities, and
        # each swaps in its own densities at the primes dividing it; taken
        # in alternating order, no target may see another one's swap
        rng = random.Random(p_max)
        targets = [1000003, 10**6, 30030 * 33, 15015 * 67, 999999, 2 * 30030 * 7 + 1]
        for N in targets + targets[::-1] + targets:
            cache = SingularSeriesCache(N, p_max)
            exact_series(cache, triple(N, 1, 0, 1, 0, 1, 0))
            for _ in range(4):
                progs = [x for _ in range(3) for k in [rng.randrange(1, 40)]
                         for x in (k, rng.choice(_units(k)))]
                exact_series(cache, triple(N, *progs))

    @pytest.mark.parametrize("p_max", [2, 3, 2000, 30011])
    def test_free_product_equals_running_product(self, p_max):
        primes, num, den, _ = singular._truncation(p_max)
        free = [local_density(1, p) for p in primes]
        assert num == math.prod(n for n, _ in free)
        assert den == math.prod(d for _, d in free)

    def test_even_target_short_circuits(self):
        cache = SingularSeriesCache(10**4, 300)
        assert cache.series(triple(10**4, 3, 1, 1, 0, 1, 0)).value == 0.0

    def test_rejects_other_target(self):
        cache = SingularSeriesCache(1001, 100)
        with pytest.raises(ValueError):
            cache.series(triple(1003, 1, 0, 1, 0, 1, 0))
