import itertools
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import fft as scipy_fft

from goldbach3 import (
    ConsistencyError,
    Progression,
    count_convolution,
    count_convolution_targets,
    count_direct,
    euler_phi,
    factorize,
    triple,
)
from goldbach3 import expsum, repcount
from goldbach3.arith import MAX_SIEVE_LIMIT
from goldbach3.exceptions import rounded_counts
from goldbach3.expsum import grid_count
from goldbach3.repcount import DIRECT_CAP, fft_length, half_length, spectrum, wheel_length
from conftest import progressions, random_instance

LOG2, LOG3, LOG5 = (math.log(n) for n in (2, 3, 5))


def count_convolution_pow2(inst, table):
    """Oracle: numpy FFTs at a power-of-two length, one target per call."""
    N = inst.N
    M = 1 << (2 * N + 1).bit_length()

    def indicator(prog, weighted):
        p = table.primes_in_progression(N, prog)
        a = np.zeros(N + 1)
        a[p] = np.log(p.astype(np.float64)) if weighted else 1.0
        return a

    def conv(weighted):
        a1, a2 = (indicator(prog, weighted) for prog in inst.progs[:2])
        return np.fft.irfft(np.fft.rfft(a1, M) * np.fft.rfft(a2, M), M)

    p3 = table.primes_in_progression(N, inst.progs[2])
    value = float(np.dot(np.log(p3.astype(np.float64)), conv(True)[N - p3]))
    solutions = int(np.rint(conv(False)[N - p3]).sum())
    return value, solutions


def count_scale(inst):
    """N^2 / (2 phi(k1) phi(k2) phi(k3)): the size of R without S."""
    k1, k2, k3 = inst.moduli
    return inst.N**2 / (2 * euler_phi(k1) * euler_phi(k2) * euler_phi(k3))


class TestRoundedCounts:
    @pytest.mark.parametrize("raw", [np.array([1.0, np.nan]), np.array([1.0, np.inf]), np.nan])
    def test_not_finite_raises(self, raw):
        with np.errstate(invalid="ignore"), pytest.raises(ConsistencyError, match="drifted"):
            rounded_counts(raw, "x")

    def test_infinite_entry_raises_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConsistencyError, match="drifted") as err:
                rounded_counts(np.array([1.0, np.inf]), "x")
        assert "nan" not in str(err.value)


class TestCountDirect:
    def test_n9_unconstrained(self, table_small):
        # ordered solutions: (3,3,3) and the 3 arrangements of {2,2,5}
        wc = count_direct(triple(9, 1, 0, 1, 0, 1, 0), table_small)
        assert wc.solutions == 4
        assert wc.value == pytest.approx(LOG3**3 + 3 * LOG2**2 * LOG5, rel=1e-12)

    def test_n7_unconstrained(self, table_small):
        wc = count_direct(triple(7, 1, 0, 1, 0, 1, 0), table_small)
        assert wc.solutions == 3
        assert wc.value == pytest.approx(3 * LOG2**2 * LOG3, rel=1e-12)

    def test_congruence_obstruction(self, table_small):
        # 11 is not 1+1+1 mod 3, so no triple of primes = 1 (mod 3) can work
        wc = count_direct(triple(11, 3, 1, 3, 1, 3, 1), table_small)
        assert wc.value == 0.0 and wc.solutions == 0

    def test_cap_refusal_mentions_convolution(self, table_10k):
        with pytest.raises(ValueError, match="count_convolution"):
            count_direct(triple(5001, 1, 0, 1, 0, 1, 0), table_10k)
        # explicit override is allowed
        wc = count_direct(triple(5001, 1, 0, 1, 0, 1, 0), table_10k, cap=5001)
        assert wc.solutions > 0

    def test_even_target_flagged(self, table_small):
        wc = count_direct(triple(10, 1, 0, 1, 0, 1, 0), table_small)
        # 2+3+5, 2+5+3, 3+2+5, 5+2+3, 3+5+2, 5+3+2 and no others
        assert wc.solutions == 6


class TestConvolutionAgreement:
    def test_oracle_suite(self, table_small):
        rng = random.Random(2024)
        for _ in range(30):
            inst = random_instance(rng, 50, 2000, 12)
            d = count_direct(inst, table_small)
            c = count_convolution(inst, table_small)
            assert c.solutions == d.solutions
            assert abs(c.value - d.value) <= 1e-6 * max(abs(d.value), 1.0)

    def test_n9_matches_direct(self, table_small):
        c = count_convolution(triple(9, 1, 0, 1, 0, 1, 0), table_small)
        assert c.solutions == 4
        assert c.value == pytest.approx(LOG3**3 + 3 * LOG2**2 * LOG5, rel=1e-9)

    def test_permutation_symmetry(self, table_small):
        rng = random.Random(7)
        for _ in range(5):
            inst = random_instance(rng, 100, 1500, 9)
            (k1, l1), (k2, l2), (k3, l3) = [(p.k, p.l) for p in inst.progs]
            perm = triple(inst.N, k3, l3, k1, l1, k2, l2)
            for fn in (count_direct, count_convolution):
                a, b = fn(inst, table_small), fn(perm, table_small)
                assert a.solutions == b.solutions
                assert a.value == pytest.approx(b.value, rel=1e-9, abs=1e-9)

    def test_asymptotic_sanity_band(self, table_big):
        # R / (N^2/2 * S) should be near 1 for large unconstrained N
        from goldbach3 import singular_series_product

        N = 10**6 + 3
        inst = triple(N, 1, 0, 1, 0, 1, 0)
        r = count_convolution(inst, table_big).value
        s = singular_series_product(inst, 2000).value
        assert 0.9 <= r / (N**2 / 2 * s) <= 1.1


class TestFastLengthConvolution:
    def test_matches_power_of_two_oracle(self, table_1e5):
        rng = random.Random(55)
        for _ in range(6):
            inst = random_instance(rng, 90000, 100000, 12)
            value, solutions = count_convolution_pow2(inst, table_1e5)
            c = count_convolution(inst, table_1e5)
            assert c.solutions == solutions
            scale = max(abs(value), count_scale(inst))
            assert abs(c.value - value) <= 1e-12 * scale

    def test_drift_guard_raises(self, table_small, monkeypatch):
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda *args, **kw: irfft(*args, **kw) + 0.25)
        with pytest.raises(ConsistencyError, match="drifted"):
            count_convolution_targets([101], triple(101, 1, 0, 1, 0, 1, 0).progs, table_small)

    def test_target_list_matches_one_target_calls(self, table_1e5):
        # unsorted, repeated, even and below the smallest prime of the
        # third progression (29 is the least prime = 6 mod 23)
        progs = triple(6, 3, 2, 4, 1, 23, 6).progs
        targets = [100003, 6, 77777, 100003, 50000, 28, 99990]
        wcs = count_convolution_targets(targets, progs, table_1e5)
        assert len(wcs) == len(targets)
        for N, wc in zip(targets, wcs):
            inst = triple(N, 3, 2, 4, 1, 23, 6)
            one = count_convolution(inst, table_1e5)
            assert wc.solutions == one.solutions
            assert abs(wc.value - one.value) <= 1e-12 * max(abs(one.value), count_scale(inst))
        assert wcs[1].solutions == wcs[5].solutions == 0
        assert wcs[1].value == wcs[5].value == 0.0
        assert wcs[0] == wcs[3]

    def test_target_list_validation(self, table_small):
        progs = triple(9, 1, 0, 1, 0, 1, 0).progs
        with pytest.raises(ValueError):
            count_convolution_targets([], progs, table_small)
        with pytest.raises(ValueError):
            count_convolution_targets([9, 5], progs, table_small)

    @settings(max_examples=40, deadline=None)
    @given(N=st.integers(6, 3000), a=progressions(12), b=progressions(12), c=progressions(12))
    def test_swapping_first_two_is_bit_identical(self, table_small, N, a, b, c):
        # the sweeps share one convolution between (a, b) and (b, a)
        ab = count_convolution(triple(N, *a, *b, *c), table_small)
        ba = count_convolution(triple(N, *b, *a, *c), table_small)
        assert ab == ba

    @settings(max_examples=40, deadline=None)
    @given(N=st.integers(6, 3000), a=progressions(12), b=progressions(12), c=progressions(12))
    def test_all_six_orders_agree(self, table_small, N, a, b, c):
        # the gather treats variable 3 apart from 1 and 2, so a class or
        # offset error in one slot shows up as a change under permutation
        ref = count_convolution(triple(N, *a, *b, *c), table_small)
        scale = max(abs(ref.value), count_scale(triple(N, *a, *b, *c)))
        for x, y, z in itertools.permutations((a, b, c)):
            wc = count_convolution(triple(N, *x, *y, *z), table_small)
            assert wc.solutions == ref.solutions
            assert abs(wc.value - ref.value) <= 1e-12 * scale


class TestTransformHelpers:
    """The length table and the short-support scatter against scipy's and a full array's."""

    def test_lengths_match_next_fast_len(self):
        for n in range(1, 2 * 10**5 + 1):
            assert half_length(n) == scipy_fft.next_fast_len(n, real=True), n
        rng = np.random.default_rng(21)
        for n in rng.integers(1, 2 * MAX_SIEVE_LIMIT + 2, size=10**4).tolist():
            assert half_length(n) == scipy_fft.next_fast_len(n, real=True), n
        N = MAX_SIEVE_LIMIT
        assert fft_length(N) == scipy_fft.next_fast_len(2 * N + 1, real=True)
        assert wheel_length(N) == scipy_fft.next_fast_len(N // 3 + 2, real=True)

    def test_length_past_the_table_refused(self):
        with pytest.raises(ValueError, match="largest supported"):
            half_length(2**33 + 1)

    @pytest.mark.parametrize("L", [1024, 2025, 101250])
    @pytest.mark.parametrize("support", ["empty", "one prime", "to L - 1"])
    def test_short_support_spectrum_is_bit_equal(self, L, support):
        rng = np.random.default_rng(L)
        if support == "empty":
            p = np.zeros(0, dtype=np.int64)
        elif support == "one prime":
            p = np.array([7])
        else:
            p = np.union1d(rng.choice(L - 1, size=L // 10, replace=False), [L - 1])
        values = np.log(p + 2.0)
        full = np.zeros(L)
        full[p] = values
        got = spectrum(p, values, L)
        assert np.array_equal(got, np.fft.rfft(full))
        assert np.array_equal(got, scipy_fft.rfft(full))


# progressions that contain the prime 2, and two that do not
WITH_2 = [(1, 0), (3, 2), (5, 2), (7, 2)]
WITHOUT_2 = [(2, 1), (4, 3)]
# progressions that contain the prime 3, and three that do not; (3, 1),
# (3, 2) and (6, 5) hold one wheel-6 class each
WITH_3 = [(1, 0), (4, 3), (5, 3), (7, 3)]
WITHOUT_3 = [(3, 1), (3, 2), (6, 5)]


def prime_two_triples(with_q=WITH_2, without_q=WITHOUT_2):
    """Eight triples: each with/without-q pattern once, each progression in each slot.

    Slot j takes its progression from the bits of the other two slots, so
    the four patterns with q in slot j meet all of ``with_q`` there and the
    four without meet every entry of ``without_q`` (two or three).
    """
    out = []
    for bits in itertools.product((0, 1), repeat=3):
        progs = []
        for j in range(3):
            i = 2 * bits[(j + 1) % 3] + bits[(j + 2) % 3]
            progs.append(with_q[i] if bits[j] else without_q[i * len(without_q) // 4])
        out.append(tuple(x for prog in progs for x in prog))
    return out


def prime_three_triples():
    """The eight triples of ``prime_two_triples`` for the prime 3."""
    return prime_two_triples(WITH_3, WITHOUT_3)


def assert_matches_direct(wc, inst, table):
    d = count_direct(inst, table)
    assert wc.solutions == d.solutions, inst
    assert abs(wc.value - d.value) <= 1e-12 * max(abs(d.value), count_scale(inst)), inst


class TestPrimeTwoTerms:
    """Wheel 6 leaves the primes 2 and 3 to direct terms; check them against count_direct."""

    def test_every_small_target(self, table_small):
        for ks in prime_two_triples() + prime_three_triples():
            for N in range(6, 301):
                inst = triple(N, *ks)
                assert_matches_direct(count_convolution(inst, table_small), inst, table_small)

    @pytest.mark.parametrize("N", [2000, 2025, 3000])
    def test_transform_length_at_its_lower_bound(self, table_small, N):
        assert half_length(N) == N
        for ks in prime_two_triples():
            inst = triple(N, *ks)
            assert_matches_direct(count_convolution(inst, table_small), inst, table_small)

    @pytest.mark.parametrize("N", [2910, 2911, 2994, 2995, 10119, 10120, 10121])
    def test_wheel_length_at_its_lower_bound(self, table_10k, N):
        # two wheel-6 indices sum to at most N // 3 + 1, one below the length
        assert wheel_length(N) == N // 3 + 2
        for ks in prime_two_triples() + prime_three_triples():
            inst = triple(N, *ks)
            wc = count_convolution(inst, table_10k)
            if N <= DIRECT_CAP:
                assert_matches_direct(wc, inst, table_10k)
            else:
                value, solutions = count_convolution_pow2(inst, table_10k)
                assert wc.solutions == solutions, inst
                assert abs(wc.value - value) <= 1e-12 * max(abs(value), count_scale(inst)), inst

    def test_target_list_with_even_maximum(self, table_small):
        # odd targets in all three odd classes mod 6 keep every class
        # product; the even ones read p3 = 3 by a direct sum
        targets = [2999, 3000, 7, 2025, 6, 1000]
        assert {N % 6 for N in targets if N % 2} == {1, 3, 5}
        for ks in prime_two_triples() + prime_three_triples():
            progs = triple(6, *ks).progs
            for N, wc in zip(targets, count_convolution_targets(targets, progs, table_small)):
                assert_matches_direct(wc, triple(N, *ks), table_small)

    @settings(max_examples=60, deadline=None)
    @given(N=st.integers(6, 20000), a=progressions(12), b=progressions(12),
           k3=st.integers(1, 30))
    def test_class_partition_is_exact(self, table_10k, N, a, b, k3):
        # the coprime classes of p3 mod k3, plus the primes p3 | k3, are every p3
        total = sum(
            count_convolution(triple(N, *a, *b, k3, l3), table_10k).solutions
            for l3 in range(k3) if math.gcd(k3, l3) == 1
        )
        p1 = table_10k.primes_in_progression(N, Progression(*a))
        for q, _ in factorize(k3):
            p2 = N - q - p1
            p2 = p2[p2 >= 2]
            total += int(np.count_nonzero(np.isin(p2, table_10k.primes) & (p2 % b[0] == b[1])))
        assert total == count_convolution(triple(N, *a, *b, 1, 0), table_10k).solutions


class TestPairCountsDirect:
    """``PairCounts.direct`` against the pair sum taken one prime at a time.

    Integer weights keep both sums exact.  (1, 0) holds the primes 2 and 3,
    (3, 2) only 2, (4, 3) only 3, and (6, 5) neither.
    """

    @pytest.mark.parametrize("a", [(1, 0), (3, 2), (4, 3), (6, 5)])
    @pytest.mark.parametrize("b", [(1, 0), (3, 2), (4, 3), (6, 5)])
    def test_matches_brute_force(self, table_small, a, b):
        N = 300
        rng = np.random.default_rng(1)
        x, y = ({int(p): float(rng.integers(1, 10))
                 for p in table_small.primes_in_progression(N, Progression(*prog))}
                for prog in (a, b))

        def split(weights):
            return repcount.by_residue(np.array(list(weights), dtype=np.int64),
                                       np.array(list(weights.values())))

        counts = repcount.PairCounts(split(x), {}, split(y), {}, N, ())
        for n in range(N + 1):
            assert counts.direct(n) == sum(w * y.get(n - p, 0.0) for p, w in x.items()), n


class TestTransformsPerProgression:
    """A progression that repeats is transformed once per pass."""

    @pytest.fixture
    def spectra(self, monkeypatch):
        calls = []

        def counted(p, values, L, _spectrum=repcount.spectrum):
            calls.append(L)
            return _spectrum(p, values, L)

        monkeypatch.setattr(repcount, "spectrum", counted)
        monkeypatch.setattr(expsum, "spectrum", counted)
        return calls

    @pytest.mark.parametrize("method, ks, transforms", [
        # two passes, each of the two wheel classes of one progression
        (count_convolution, (1, 0, 1, 0, 1, 0), 4),
        (count_convolution, (1, 0, 5, 2, 1, 0), 8),
        # two passes of one run of three equal progressions
        (grid_count, (1, 0, 1, 0, 1, 0), 2),
        # (A, B, A) keeps its order; an obstructed count skips the weighted pass
        (grid_count, (3, 1, 5, 2, 3, 1), 3),
    ])
    def test_spectrum_calls(self, table_10k, spectra, method, ks, transforms):
        method(triple(10001, *ks), table_10k)
        assert len(spectra) == transforms
