import math
import random

import numpy as np
import pytest

from goldbach3 import (
    Progression,
    chebyshev_theta,
    divisor_tau,
    divisor_tau_array,
    euler_phi,
    factorize,
    is_prime,
    moebius,
    sieve_primes,
)
from goldbach3.singular import _smallest_prime_factors


def trial_division_primes(limit):
    out = []
    for n in range(2, limit + 1):
        if all(n % d for d in range(2, int(math.isqrt(n)) + 1)):
            out.append(n)
    return out


class TestSieve:
    def test_small_cases(self):
        t = sieve_primes(10)
        assert t.primes.tolist() == [2, 3, 5, 7]
        assert sieve_primes(2).primes.tolist() == [2]

    def test_against_trial_division(self):
        t = sieve_primes(100)
        assert t.primes.size == 25
        assert t.primes.tolist() == trial_division_primes(100)

    def test_matches_trial_division_at_edge_limits(self):
        # prime squares, one below them, and a few small limits
        for limit in (2, 3, 4, 8, 9, 24, 25, 48, 49, 120, 121):
            assert sieve_primes(limit).primes.tolist() == trial_division_primes(limit), limit

    def test_matches_plain_reference(self):
        limit = 10**5
        flags = [True] * (limit + 1)
        ref = []
        for n in range(2, limit + 1):
            if flags[n]:
                ref.append(n)
                for m in range(n * n, limit + 1, n):
                    flags[m] = False
        assert sieve_primes(limit).primes.tolist() == ref

    def test_prefix_consistency(self):
        big = sieve_primes(2500)
        small = sieve_primes(700)
        assert np.array_equal(big.primes[: small.primes.size], small.primes)
        assert big.primes[small.primes.size] > 700

    def test_rejects_tiny_limit(self):
        with pytest.raises(ValueError):
            sieve_primes(1)

    def test_is_prime_agrees_with_the_sieve(self):
        primes = set(sieve_primes(10**4).primes.tolist())
        assert [n for n in range(10**4 + 1) if is_prime(n)] == sorted(primes)
        assert not any(map(is_prime, (1, 0, -7)))

    def test_primes_are_int64_and_read_only(self):
        t = sieve_primes(10**4)
        assert t.primes.dtype == np.int64
        assert not t.primes.flags.writeable
        with pytest.raises(ValueError):
            t.primes[0] = 4

    def test_qsum_smallest_prime_factors_match_factorize(self):
        spf = _smallest_prime_factors(10**4)
        assert spf[2:] == [factorize(q)[0][0] for q in range(2, 10**4 + 1)]

    @pytest.mark.parametrize("limit", [2**31, 2**31 + 1, 10**12])
    def test_refuses_limit_past_int32_before_allocating(self, monkeypatch, capsys, limit):
        from goldbach3 import arith, cli

        def no_table(*args, **kwargs):
            raise AssertionError("sieve_primes allocated before refusing")

        monkeypatch.setattr(arith.np, "zeros", no_table)
        with pytest.raises(ValueError, match="largest supported"):
            sieve_primes(limit)
        assert cli.main(["sieve", "--limit", str(limit)]) == 2
        assert "largest supported" in capsys.readouterr().err


class TestProgression:
    def test_reduces_residue(self):
        assert Progression(4, 9).l == 1
        assert Progression(1, 7).l == 0

    def test_rejects_imprimitive(self):
        with pytest.raises(ValueError):
            Progression(2, 0)
        with pytest.raises(ValueError):
            Progression(6, 3)

    def test_unconstrained_is_valid(self):
        p = Progression(1, 0)
        assert p.contains(17)


class TestMultiplicativeFunctions:
    @pytest.mark.parametrize("n,expected", [(1, 1), (12, 4), (97, 96)])
    def test_phi_values(self, n, expected):
        assert euler_phi(n) == expected

    @pytest.mark.parametrize("n,expected", [(1, 1), (12, 6), (36, 9)])
    def test_tau_values(self, n, expected):
        assert divisor_tau(n) == expected

    @pytest.mark.parametrize("n,expected", [(1, 1), (6, 1), (12, 0), (30, -1)])
    def test_moebius_values(self, n, expected):
        assert moebius(n) == expected

    def test_zero_rejected(self):
        for fn in (euler_phi, divisor_tau, moebius, factorize):
            with pytest.raises(ValueError):
                fn(0)

    def test_multiplicativity_on_random_coprime_pairs(self):
        rng = random.Random(101)
        done = 0
        while done < 200:
            m = rng.randrange(1, 10**4)
            n = rng.randrange(1, 10**4)
            if math.gcd(m, n) != 1:
                continue
            assert euler_phi(m * n) == euler_phi(m) * euler_phi(n)
            assert divisor_tau(m * n) == divisor_tau(m) * divisor_tau(n)
            done += 1

    def test_phi_divisor_sum_identity(self):
        # sum of phi(d) over d | n equals n
        limit = 10**4
        acc = np.zeros(limit + 1, dtype=np.int64)
        for d in range(1, limit + 1):
            acc[d::d] += euler_phi(d)
        assert np.array_equal(acc[1:], np.arange(1, limit + 1))

    def test_tau_fourth_moment_ratio(self):
        # sum tau^4(n) grows no faster than X log^15 X, and at desk scale the
        # normalized ratio is still dropping as X grows
        tau = divisor_tau_array(10**6).astype(np.float64)
        t4 = tau**4
        ratios = []
        for X in (10**4, 10**5, 10**6):
            ratios.append(float(t4[1 : X + 1].sum()) / (X * math.log(X) ** 15))
        assert ratios[0] > ratios[1] > ratios[2]
        assert ratios[0] < 1.0


class TestChebyshevTheta:
    def test_unconstrained(self, table_small):
        expect = math.log(2) + math.log(3) + math.log(5) + math.log(7)
        assert chebyshev_theta(10, Progression(1, 0), table_small) == pytest.approx(expect)

    def test_progressions_mod_4(self, table_small):
        assert chebyshev_theta(10, Progression(4, 1), table_small) == pytest.approx(math.log(5))
        assert chebyshev_theta(10, Progression(4, 3), table_small) == pytest.approx(
            math.log(3) + math.log(7)
        )

    def test_table_too_small(self, table_small):
        from goldbach3 import TableTooSmallError

        with pytest.raises(TableTooSmallError):
            chebyshev_theta(5000, Progression(1, 0), table_small)
