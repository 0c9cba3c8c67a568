import itertools
import math
import threading
import time

import numpy as np
import pytest

from goldbach3 import (
    BudgetExceededError,
    Progression,
    SingularSeriesCache,
    SweepConfig,
    WeightSpec,
    count_direct,
    delta,
    estimate_cells,
    euler_phi,
    main_term,
    singular_series_product,
    singular_series_qsum,
    sweep_E,
    sweep_Estar,
    triple,
)
from goldbach3 import sweeps
from goldbach3.reports import serialize_sweep_report
from goldbach3.sweeps import _sweep, _sweep_cells


def brute_force_E(N, caps, p_max, table):
    """Independent recomputation of the E aggregate from count_direct."""
    total = 0.0
    for k1 in range(1, caps[0] + 1):
        for k2 in range(1, caps[1] + 1):
            for k3 in range(1, caps[2] + 1):
                best = 0.0
                for l1 in _units(k1):
                    for l2 in _units(k2):
                        for l3 in _units(k3):
                            inst = triple(N, k1, l1, k2, l2, k3, l3)
                            r = count_direct(inst, table, cap=N).value
                            m = main_term(inst, singular_series_product(inst, p_max))
                            best = max(best, abs(r - m))
                total += best
    return total


def brute_force_Estar(N, caps, lam, p_max, table):
    total = 0.0
    for k1 in range(1, caps[0] + 1):
        for k2 in range(1, caps[1] + 1):
            best = 0.0
            for l1 in _units(k1):
                for l2 in _units(k2):
                    inner = 0.0
                    for k3 in range(1, caps[2] + 1):
                        if k3 > lam.k_max or math.gcd(k3, lam.l3) != 1 or lam.lam[k3] == 0.0:
                            continue
                        inst = triple(N, k1, l1, k2, l2, k3, lam.l3 % k3)
                        r = count_direct(inst, table, cap=N).value
                        m = main_term(inst, singular_series_product(inst, p_max))
                        inner += float(lam.lam[k3]) * (r - m)
                    best = max(best, abs(inner))
            total += best
    return total


def _units(k):
    return [l for l in range(k) if math.gcd(k, l) == 1]


def _pairs(H):
    return [(k, l) for k in range(1, H + 1) for l in _units(k)]


def gather_cells(cfg, pairs3, table):
    """Oracle: (R, M) of every cell, from one numpy irfft per ordered pair.

    Works the way the sweeps did before sharing transforms: a power-of-two
    length, the first spectrum formed per progression of variable 1, and
    R gathered as sum over p3 of log(p3) * c12[N - p3].
    """
    N = cfg.N
    M = 1 << (2 * N + 1).bit_length()
    cache = SingularSeriesCache(N, cfg.p_max)

    def primes(pair):
        p = table.primes_in_progression(N, Progression(*pair))
        return p, np.log(p.astype(np.float64))

    def spec(pair):
        p, lg = primes(pair)
        a = np.zeros(N + 1)
        a[p] = lg
        return np.fft.rfft(a, M)

    spectra2 = {pair: spec(pair) for pair in _pairs(cfg.H2)}
    third = {pair: primes(pair) for pair in pairs3}
    cells = {}
    for k1, l1 in _pairs(cfg.H1):
        s1 = spec((k1, l1))
        for (k2, l2), s2 in spectra2.items():
            c12 = np.fft.irfft(s1 * s2, M)
            for (k3, l3), (p3, lg3) in third.items():
                inst = triple(N, k1, l1, k2, l2, k3, l3)
                r = float(np.dot(lg3, c12[N - p3]))
                cells[(k1, k2, k3, l1, l2, l3)] = (r, main_term(inst, cache.series(inst)))
    return cells


def _spy_paths(monkeypatch):
    """Record which of the engine's two paths, gather or contraction, each sweep takes."""
    used = []
    for name in ("_gather", "_contraction"):
        def spy(*args, _name=name, _orig=getattr(sweeps, name)):
            used.append(_name)
            return _orig(*args)
        monkeypatch.setattr(sweeps, name, spy)
    return used


def cell_list(axes, R, M):
    """The arrays of ``_sweep_cells`` as (key, R, M, delta) tuples, sorted by key.

    A key is the k-values followed by as many l-values, as the sweep's
    rows give them.
    """
    cells = []
    for at in np.ndindex(R.shape):
        progs = [axis[i] for axis, i in zip(axes, at)]
        r, m = float(R[at]), float(M[at])
        cells.append((tuple(k for k, _ in progs) + tuple(l for _, l in progs), r, m, r - m))
    cells.sort(key=lambda c: c[0])
    return cells


def grouped_rows(cfg, table, threads):
    """Oracle for ``_sweep``'s rows and aggregate: the sorted cell list
    grouped by k-key, each group's first cell of largest |delta|.

    Also returns how many groups hold more than one such cell.
    """
    axes, R, M = _sweep_cells(cfg, table, threads)
    rows, aggregate, ties = [], 0.0, 0
    for kkey, group in itertools.groupby(cell_list(axes, R, M), key=lambda c: c[0][:len(axes)]):
        group = list(group)
        key, r, m, d = max(group, key=lambda c: abs(c[-1]))
        ties += sum(abs(c[-1]) == abs(d) for c in group) > 1
        scale = 2.0
        for k in kkey:
            scale *= euler_phi(k)
        scale /= cfg.N**2
        rows.append((*key, r, m, d, d * scale))
        aggregate += abs(d)
    return rows, aggregate, ties


def size_of_R(N, *ks):
    """N^2 / (2 prod phi(k)): R's size without the singular series."""
    return N**2 / (2 * math.prod(euler_phi(k) for k in ks))


class TestDelta:
    def test_obstructed_instance_is_exactly_zero(self, table_small):
        # N = 31 is 1 mod 3 while the residues force 0 mod 3
        d = delta(triple(31, 3, 1, 3, 1, 3, 1), table_small, p_max=100)
        assert d.R == 0.0 and d.M == 0.0 and d.delta == 0.0
        assert d.relative == 0.0

    def test_band_at_1e5(self, table_1e5):
        d = delta(triple(10**5 + 3, 1, 0, 1, 0, 1, 0), table_1e5)
        assert d.relative < 0.15
        assert d.M == pytest.approx(d.R - d.delta, rel=1e-12)

    def test_retains_both_sides(self, table_small):
        d = delta(triple(1001, 3, 2, 1, 0, 1, 0), table_small, p_max=300)
        assert d.series.q_truncation == 300
        assert d.solutions > 0

    def test_reports_qsum_cross_check(self, table_small):
        inst = triple(1001, 3, 2, 1, 0, 1, 0)
        for q_max in (50, 300):
            d = delta(inst, table_small, q_max=q_max, p_max=300)
            assert d.qsum == singular_series_qsum(inst, q_max)
            assert d.abs_difference == abs(d.qsum.value - d.series.value)
        assert d.abs_difference < 2e-3 * d.series.value

    @pytest.mark.parametrize("q_max, p_max", [(0, 300), (300, 1)])
    def test_truncations_refused_before_the_count(self, table_small, monkeypatch, q_max, p_max):
        def refuse(*args, **kwargs):
            raise AssertionError("count_convolution_targets ran before the truncation check")

        monkeypatch.setattr(sweeps, "count_convolution_targets", refuse)
        with pytest.raises(ValueError, match="q_max" if q_max == 0 else "p_max"):
            delta(triple(1001, 1, 0, 1, 0, 1, 0), table_small, q_max=q_max, p_max=p_max)


class TestSweepE:
    def test_trivial_caps_single_cell(self, table_small):
        rep = sweep_E(SweepConfig(N=1001, H1=1, H2=1, H3=1, p_max=200), table_small)
        d = delta(triple(1001, 1, 0, 1, 0, 1, 0), table_small, p_max=200)
        assert rep.aggregate == pytest.approx(abs(d.delta), rel=1e-12)
        assert len(rep.rows) == 1

    def test_monotone_in_caps(self, table_small):
        a = sweep_E(SweepConfig(N=1001, H1=1, H2=1, H3=1, p_max=100), table_small).aggregate
        b = sweep_E(SweepConfig(N=1001, H1=1, H2=1, H3=2, p_max=100), table_small).aggregate
        c = sweep_E(SweepConfig(N=1001, H1=2, H2=2, H3=2, p_max=100), table_small).aggregate
        assert a <= b <= c

    def test_matches_brute_force(self, table_small):
        cfg = SweepConfig(N=1001, H1=3, H2=3, H3=3, p_max=200)
        rep = sweep_E(cfg, table_small)
        bf = brute_force_E(1001, (3, 3, 3), 200, table_small)
        assert rep.aggregate == pytest.approx(bf, rel=1e-9)

    def test_rows_carry_maximizing_residues(self, table_small):
        cfg = SweepConfig(N=1001, H1=2, H2=2, H3=3, p_max=100)
        rep = sweep_E(cfg, table_small)
        for row in rep.rows:
            assert math.gcd(row.k1, row.l1) == 1
            assert math.gcd(row.k2, row.l2) == 1
            assert math.gcd(row.k3, row.l3) == 1
            assert row.delta == pytest.approx(row.R - row.M, rel=1e-12, abs=1e-9)
            scale = 2 * _phi(row.k1) * _phi(row.k2) * _phi(row.k3) / 1001**2
            assert row.delta_scaled == pytest.approx(row.delta * scale, rel=1e-12, abs=1e-15)

    def test_report_resummation(self, table_small):
        rep = sweep_E(SweepConfig(N=501, H1=3, H2=2, H3=2, p_max=100), table_small)
        assert rep.recompute_aggregate() == rep.aggregate

    def test_deterministic_across_threads(self, table_small):
        cfg = SweepConfig(N=1001, H1=3, H2=3, H3=2, p_max=100)
        blobs = {
            serialize_sweep_report(sweep_E(cfg, table_small, threads=t), "json")
            for t in (1, 1, 2)
        }
        assert len(blobs) == 1

    def test_pool_size_is_clamped(self, table_small, monkeypatch):
        # a pool starts a thread per task up to its size; this one starts none
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def map(self, fn, *iterables):
                return map(fn, *iterables)

            def shutdown(self):
                pass

        monkeypatch.setattr(sweeps, "ThreadPoolExecutor", RecordingPool)
        cfg = SweepConfig(N=1001, H1=3, H2=3, H3=2, p_max=100)
        clamped = sweep_E(cfg, table_small, threads=10**6)
        assert sizes == [sweeps.MAX_THREADS] == [32]
        assert clamped.rows == sweep_E(cfg, table_small, threads=1).rows
        assert sizes == [32]  # the serial path makes no pool

    def test_main_terms_count_no_density(self, table_small, monkeypatch):
        # every sigma_p of a sweep is a closed form; the counting oracle
        # is never reached
        from goldbach3 import singular

        def refuse(*args):
            raise AssertionError("local_density_factor called")

        monkeypatch.setattr(singular, "local_density_factor", refuse)
        lam = WeightSpec.from_preset("alternating", 6, 1)
        for cfg in (SweepConfig(N=1001, H1=6, H2=6, H3=6, p_max=50),
                    SweepConfig(N=1001, H1=6, H2=6, H3=6, mode="Estar", lam=lam, p_max=50)):
            assert _sweep(cfg, table_small, 2).rows

    def test_budget_refusal(self, table_small):
        cfg = SweepConfig(N=1001, H1=50, H2=50, H3=50, budget=100)
        with pytest.raises(BudgetExceededError) as err:
            sweep_E(cfg, table_small)
        assert err.value.estimated_cells == estimate_cells(cfg)

    def test_estimate_stops_at_the_budget(self):
        # exact up to the budget; past it, a count above the budget, in time
        # bounded by the budget rather than by the caps
        small = SweepConfig(N=1001, H1=7, H2=5, H3=6, budget=10**6)
        assert estimate_cells(small) == 18 * 10 * 12
        t0 = time.perf_counter()
        for cfg in (SweepConfig(N=1001, H1=10**8, H2=1, H3=1),
                    SweepConfig(N=1001, H1=1, H2=10**8, H3=10**8),
                    SweepConfig(N=1001, H1=1, H2=1, H3=10**8, mode="Estar",
                                lam=WeightSpec.from_preset("unit", 2, 1))):
            assert cfg.budget < estimate_cells(cfg) <= 2 * cfg.budget
        assert time.perf_counter() - t0 < 2.0

    @pytest.mark.parametrize("mode, cells, rows", [("E", 2160, 210), ("Estar", 1080, 35)])
    def test_budget_boundary(self, mode, cells, rows, table_small):
        # caps 7,5,6: 18 * 10 * 12 cells in E mode, 18 * 10 * 6 in Estar
        # mode with l3 = 1; a budget of exactly the cell count runs, one
        # less is refused with the exact count
        lam = WeightSpec.from_preset("alternating", 6, 1) if mode == "Estar" else None
        run = sweep_E if mode == "E" else sweep_Estar

        def cfg(budget):
            return SweepConfig(N=1001, H1=7, H2=5, H3=6, mode=mode, lam=lam, budget=budget)

        assert estimate_cells(cfg(cells)) == cells
        assert len(run(cfg(cells), table_small).rows) == rows
        with pytest.raises(BudgetExceededError) as err:
            run(cfg(cells - 1), table_small)
        assert err.value.estimated_cells == cells


def _phi(k):
    from goldbach3 import euler_phi

    return euler_phi(k)


class TestSweepEstar:
    def test_zero_weights(self, table_small):
        w = WeightSpec.from_preset("zero", 3, 1)
        cfg = SweepConfig(N=1001, H1=2, H2=2, H3=3, mode="Estar", lam=w, p_max=100)
        rep = sweep_Estar(cfg, table_small)
        assert rep.aggregate == 0.0

    def test_single_inner_modulus(self, table_small):
        # lambda supported on k3 = 1 only: the inner sum is one delta
        w = WeightSpec.from_preset("single:1", 2, 1)
        cfg = SweepConfig(N=1001, H1=2, H2=2, H3=2, mode="Estar", lam=w, p_max=100)
        rep = sweep_Estar(cfg, table_small)
        e_cfg = SweepConfig(N=1001, H1=2, H2=2, H3=1, p_max=100)
        e_rep = sweep_E(e_cfg, table_small)
        assert rep.aggregate == pytest.approx(e_rep.aggregate, rel=1e-12)

    def test_matches_brute_force(self, table_small):
        w = WeightSpec.from_preset("alternating", 3, 1)
        cfg = SweepConfig(N=1001, H1=3, H2=3, H3=3, mode="Estar", lam=w, p_max=200)
        rep = sweep_Estar(cfg, table_small)
        bf = brute_force_Estar(1001, (3, 3, 3), w, 200, table_small)
        assert rep.aggregate == pytest.approx(bf, rel=1e-9)

    def test_dominated_by_E_rowwise(self, table_small):
        w = WeightSpec.from_preset("alternating", 4, 1)
        star = sweep_Estar(
            SweepConfig(N=1001, H1=3, H2=3, H3=4, mode="Estar", lam=w, p_max=100),
            table_small,
        )
        full = sweep_E(SweepConfig(N=1001, H1=3, H2=3, H3=4, p_max=100), table_small)
        e_by_pair = {}
        for row in full.rows:
            e_by_pair[(row.k1, row.k2)] = e_by_pair.get((row.k1, row.k2), 0.0) + abs(row.delta)
        for row in star.rows:
            assert abs(row.delta_sum) <= e_by_pair[(row.k1, row.k2)] + 1e-9

    @pytest.mark.parametrize("N", [1001, 1000])
    def test_weights_shorter_than_H3(self, table_small, N):
        # lambda ends at k = 2 < H3 = 5: the moduli 3 to 5 have no weight
        w = WeightSpec.from_map(1, {1: 1.0, 2: -1.0})
        cfg = SweepConfig(N=N, H1=2, H2=2, H3=5, mode="Estar", lam=w, p_max=200)
        rep = sweep_Estar(cfg, table_small)
        bf = brute_force_Estar(N, (2, 2, 5), w, 200, table_small)
        assert rep.aggregate == pytest.approx(bf, rel=1e-9)

    @pytest.mark.parametrize("N", [1001, 1002])
    def test_weights_beyond_H3_are_cut(self, table_small, N):
        # lambda(k) for k > H3 must not reach the K(alpha) column
        reps = [
            sweep_Estar(SweepConfig(N=N, H1=2, H2=2, H3=3, mode="Estar", p_max=100,
                                    lam=WeightSpec.from_preset("alternating", k_max, 1)),
                        table_small)
            for k_max in (3, 6)
        ]
        assert reps[0].rows == reps[1].rows

    def test_config_requires_weights(self):
        with pytest.raises(ValueError):
            SweepConfig(N=1001, H1=1, H2=1, H3=1, mode="Estar")


class TestSweepOracles:
    """Both modes against the per-pair gather oracle at N near 1e5, caps 5,5,5.

    The rows are checked against the oracle's residue maxima, and every
    cell against the oracle's cell.  This target and these caps take the
    contraction path.
    """

    N = 100003
    CAPS = (5, 5, 5)
    PATHS = {"E": "_contraction", "Estar": "_contraction"}

    def _cfg(self, mode="E"):
        H1, H2, H3 = self.CAPS
        lam = WeightSpec.from_preset("alternating", H3, 1) if mode == "Estar" else None
        return SweepConfig(N=self.N, H1=H1, H2=H2, H3=H3, mode=mode, lam=lam)

    def _k3s(self, lam):
        return [k for k in range(1, self.CAPS[2] + 1) if lam.lam[k] != 0.0]

    @pytest.fixture(scope="class")
    def E_oracle(self, table_1e5):
        cfg = self._cfg()
        return gather_cells(cfg, _pairs(cfg.H3), table_1e5)

    @pytest.fixture(scope="class")
    def Estar_oracle(self, table_1e5):
        """(R_sum, delta_sum) per (k1, k2, l1, l2), summed from the oracle's cells."""
        cfg = self._cfg("Estar")
        lam = cfg.lam
        cells = gather_cells(cfg, [(k, 1 % k) for k in self._k3s(lam)], table_1e5)
        sums = {}
        for (k1, k2, k3, l1, l2, _), (r, m) in cells.items():
            lam_k = float(lam.lam[k3])
            r_sum, d_sum = sums.get((k1, k2, l1, l2), (0.0, 0.0))
            sums[(k1, k2, l1, l2)] = (r_sum + lam_k * r, d_sum + lam_k * (r - m))
        return sums

    def _Estar_size(self, lam, k1, k2):
        return sum(abs(float(lam.lam[k3])) * size_of_R(self.N, k1, k2, k3)
                   for k3 in self._k3s(lam))

    def test_E_matches_gather_oracle(self, table_1e5, E_oracle):
        rep = sweep_E(self._cfg(), table_1e5, threads=2)
        best = {}
        for (k1, k2, k3, *_), (r, m) in E_oracle.items():
            best[(k1, k2, k3)] = max(best.get((k1, k2, k3), 0.0), abs(r - m))
        assert len(rep.rows) == len(best) == math.prod(self.CAPS)
        for row in rep.rows:
            ks = (row.k1, row.k2, row.k3)
            r_ref, _ = E_oracle[(*ks, row.l1, row.l2, row.l3)]
            scale = max(abs(row.R), size_of_R(self.N, *ks))
            assert abs(abs(row.delta) - best[ks]) <= 1e-12 * scale
            assert abs(row.R - r_ref) <= 1e-12 * scale

    def test_Estar_matches_gather_oracle(self, table_1e5, Estar_oracle):
        cfg = self._cfg("Estar")
        rep = sweep_Estar(cfg, table_1e5, threads=2)
        best = {}
        for (k1, k2, _, _), (_, d_sum) in Estar_oracle.items():
            best[(k1, k2)] = max(best.get((k1, k2), 0.0), abs(d_sum))
        assert len(rep.rows) == len(best) == self.CAPS[0] * self.CAPS[1]
        for row in rep.rows:
            r_ref, _ = Estar_oracle[(row.k1, row.k2, row.l1, row.l2)]
            scale = max(abs(row.R_sum), self._Estar_size(cfg.lam, row.k1, row.k2))
            assert abs(abs(row.delta_sum) - best[(row.k1, row.k2)]) <= 1e-12 * scale
            assert abs(row.R_sum - r_ref) <= 1e-12 * scale

    def test_E_cells_match_gather_oracle(self, table_1e5, E_oracle, monkeypatch):
        paths = _spy_paths(monkeypatch)
        cells = cell_list(*_sweep_cells(self._cfg(), table_1e5, 2))
        assert paths == [self.PATHS["E"]]
        assert [key for key, *_ in cells] == sorted(E_oracle)
        for key, r, m, d in cells:
            r_ref, m_ref = E_oracle[key]
            scale = max(abs(r), size_of_R(self.N, *key[:3]))
            assert abs(r - r_ref) <= 1e-12 * scale
            assert m == m_ref and d == r - m

    def test_Estar_cells_match_gather_oracle(self, table_1e5, Estar_oracle, monkeypatch):
        cfg = self._cfg("Estar")
        paths = _spy_paths(monkeypatch)
        cells = cell_list(*_sweep_cells(cfg, table_1e5, 2))
        assert paths == [self.PATHS["Estar"]]
        assert [key for key, *_ in cells] == sorted(Estar_oracle)
        for key, r_sum, _, d_sum in cells:
            r_ref, d_ref = Estar_oracle[key]
            scale = max(abs(r_sum), self._Estar_size(cfg.lam, *key[:2]))
            assert abs(r_sum - r_ref) <= 1e-12 * scale
            assert abs(d_sum - d_ref) <= 1e-12 * scale


class TestSweepOraclesEvenTarget(TestSweepOracles):
    """Both modes at an even N, caps 3,3,3, on the gather path.

    One prime of every triple is 2 here: either p3 = 2, or N - p3 is odd
    and its pair count comes only from the direct p = 2 terms.
    """

    N = 100004
    CAPS = (3, 3, 3)
    PATHS = {"E": "_gather", "Estar": "_gather"}


class TestSweepOraclesManyColumns(TestSweepOracles):
    """Caps 2,2,12 at odd N.  An E sweep would need 44 more rffts than the
    3 irffts a contraction saves, so it gathers; Estar has one column and
    contracts."""

    N = 100003
    CAPS = (2, 2, 12)
    PATHS = {"E": "_gather", "Estar": "_contraction"}


class TestContractionSmallTargets:
    """Every cell at every odd N from 7 to 301, caps 3,3,3, against count_direct.

    (1, 0) and (3, 2) contain 2, so the cells with two of them in their
    first two or all three slots carry the (2, 2, N - 4) terms.
    """

    def test_cells_match_count_direct(self, table_small, monkeypatch):
        paths = _spy_paths(monkeypatch)
        lam = WeightSpec.from_preset("alternating", 3, 1)
        for N in range(7, 302, 2):
            direct = {}
            for key, r, _, _ in cell_list(*_sweep_cells(
                SweepConfig(N=N, H1=3, H2=3, H3=3, p_max=50), table_small, 1
            )):
                ks, ls = key[:3], key[3:]
                inst = triple(N, *[x for kl in zip(ks, ls) for x in kl])
                direct[key] = count_direct(inst, table_small).value
                assert abs(r - direct[key]) <= 1e-12 * max(abs(r), size_of_R(N, *ks)), key
            cfg = SweepConfig(N=N, H1=3, H2=3, H3=3, mode="Estar", lam=lam, p_max=50)
            for (k1, k2, l1, l2), r_sum, _, _ in cell_list(*_sweep_cells(cfg, table_small, 1)):
                ref = size = 0.0
                for k3 in (1, 2, 3):
                    ref += float(lam.lam[k3]) * direct[(k1, k2, k3, l1, l2, 1 % k3)]
                    size += size_of_R(N, k1, k2, k3)
                assert abs(r_sum - ref) <= 1e-12 * max(abs(r_sum), size), (N, k1, k2, l1, l2)
        assert set(paths) == {"_contraction"}


class TestExactIdentitiesOfR:
    """Two identities that R satisfies exactly at any N, on either path, so
    that what a path returns there is its rounding error.

    * Structural zeros: with g = gcd(k1, k2, k3), no prime triple lies in a
      cell with l1 + l2 + l3 != N (mod g), so R and the main term are 0.
    * Refinement sums: the odd primes are those = 1 or 3 (mod 4), so the
      columns (4, 1) and (4, 3) add up to the column (2, 1).
    """

    @pytest.mark.parametrize("N, caps, path, zeros", [
        (100003, (5, 5, 5), "_contraction", 60),
        (100004, (3, 3, 3), "_gather", 6),
    ])
    def test_structural_zeros(self, N, caps, path, zeros, table_1e5, monkeypatch):
        paths = _spy_paths(monkeypatch)
        axes, R, M = _sweep_cells(SweepConfig(N=N, H1=caps[0], H2=caps[1], H3=caps[2]),
                                  table_1e5, 1)
        assert paths == [path]
        zero = np.array([[[(l1 + l2 + l3 - N) % math.gcd(k1, k2, k3) != 0
                           for k3, l3 in axes[2]] for k2, l2 in axes[1]] for k1, l1 in axes[0]])
        assert zero.sum() == zeros
        assert np.all(M[zero] == 0.0)
        assert np.abs(R[zero]).max() <= 1e-14 * np.abs(R).max()

    @pytest.mark.parametrize("caps, path", [((5, 5, 5), "_contraction"), ((2, 2, 12), "_gather")])
    def test_refinement_sums(self, caps, path, table_1e5, monkeypatch):
        paths = _spy_paths(monkeypatch)
        axes, R, _ = _sweep_cells(SweepConfig(N=100003, H1=caps[0], H2=caps[1], H3=caps[2]),
                                  table_1e5, 1)
        assert paths == [path]
        column = axes[2].index
        residual = R[:, :, column((4, 1))] + R[:, :, column((4, 3))] - R[:, :, column((2, 1))]
        assert np.abs(residual).max() <= 1e-14 * np.abs(R).max()


class TestContractionRegrouping:
    """The contraction's R is bit-equal however its pairs are grouped.

    On numpy 2.4.6 an einsum entry's bits do not depend on how many rows or
    columns share the call, so neither the number of workers nor the pairs
    per chunk may move R.  Caps 8,8,8 make 253 unordered pairs, several
    chunks at every ``PAIR_CHUNK`` tried.  ``CONTRACTION_BLOCK`` is not
    varied: each entry adds one sum per frequency block, so another block
    size (256) changes the bits.  A numpy whose einsum breaks the
    assumption fails here.
    """

    def test_bits_do_not_depend_on_threads_or_chunks(self, table_1e5, monkeypatch):
        cfg = SweepConfig(N=100003, H1=8, H2=8, H3=8)
        paths = _spy_paths(monkeypatch)
        runs = {}
        for threads, chunk in [(1, 64), (2, 64), (3, 64), (1, 16), (1, 7)]:
            monkeypatch.setattr(sweeps, "PAIR_CHUNK", chunk)
            runs[threads, chunk] = _sweep_cells(cfg, table_1e5, threads)[1]
        assert paths == ["_contraction"] * len(runs)
        base = runs[1, 64]
        assert [key for key, R in runs.items() if not np.array_equal(R, base)] == []


class TestResidueMaxima:
    """``_sweep``'s block maxima against sorting and grouping the cell list.

    At caps 3,3,3 every block with k1 = k2 holds the swapped cells of its
    pairs, whose R and M are bit-equal, so |delta| ties wherever such a
    cell is the maximum, and the first in key order must win.  Estar takes
    lambda = 1 at k3 = 2 alone, whose blocks tie at both targets.
    """

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("N, path", [(1001, "_contraction"), (1000, "_gather")])
    @pytest.mark.parametrize("mode", ["E", "Estar"])
    def test_rows_match_grouped_cells(self, mode, N, path, threads, table_small, monkeypatch):
        lam = WeightSpec.from_preset("single:2", 3, 1) if mode == "Estar" else None
        cfg = SweepConfig(N=N, H1=3, H2=3, H3=3, mode=mode, lam=lam, p_max=100)
        paths = _spy_paths(monkeypatch)
        rows, aggregate, ties = grouped_rows(cfg, table_small, threads)
        rep = _sweep(cfg, table_small, threads)
        assert paths == [path, path]
        assert ties > 0
        assert [tuple(row) for row in rep.rows] == rows
        assert rep.aggregate == aggregate


class TestMainTermsInCallingThread:
    """The pool builds R; every main term is formed afterwards by the caller."""

    @pytest.mark.parametrize("N, path", [(1001, "_contraction"), (1000, "_gather")])
    def test_value_runs_in_calling_thread(self, N, path, table_small, monkeypatch):
        idents = set()
        value = SingularSeriesCache.value

        def recorded(self, *locals_):
            idents.add(threading.get_ident())
            return value(self, *locals_)

        monkeypatch.setattr(SingularSeriesCache, "value", recorded)
        paths = _spy_paths(monkeypatch)
        lam = WeightSpec.from_preset("alternating", 3, 1)
        sweep_E(SweepConfig(N=N, H1=3, H2=3, H3=3, p_max=100), table_small, threads=2)
        sweep_Estar(SweepConfig(N=N, H1=3, H2=3, H3=3, mode="Estar", lam=lam, p_max=100),
                    table_small, threads=2)
        assert paths == [path, path]
        assert idents == {threading.get_ident()}


class TestMainTermsPerUnorderedPair:
    """S, and so M, is formed once per unordered pair of variables 1 and 2
    and per column; Estar's columns are the k3 <= H3 with lambda(k3) != 0.

    Caps 3,3,3 have 4 progressions per variable, so 10 unordered pairs,
    and 4 progressions of variable 3.
    """

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("N, path", [(1001, "_contraction"), (1000, "_gather")])
    @pytest.mark.parametrize("mode, preset, columns", [
        ("E", None, 4), ("Estar", "alternating", 3), ("Estar", "single:2", 1),
        ("Estar", "zero", 0),
    ])
    def test_value_calls(self, mode, preset, columns, N, path, threads, table_small,
                         monkeypatch):
        calls = []
        value = SingularSeriesCache.value

        def counted(self, *locals_):
            calls.append(locals_)
            return value(self, *locals_)

        monkeypatch.setattr(SingularSeriesCache, "value", counted)
        paths = _spy_paths(monkeypatch)
        lam = WeightSpec.from_preset(preset, 3, 1) if preset else None
        cfg = SweepConfig(N=N, H1=3, H2=3, H3=3, mode=mode, lam=lam, p_max=100)
        if lam is not None:
            assert len([k for k in range(1, 4) if lam.lam[k] != 0.0]) == columns
        _sweep(cfg, table_small, threads)
        assert paths == [path]
        assert len(calls) == 10 * columns
