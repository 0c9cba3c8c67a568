"""Built-in oracle checks behind the `selftest` CLI subcommand.

Each check pits an implementation path against an independent reference
at small scale and reports one pass/fail line.  The random draws are
seeded so a given seed reproduces exactly.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from .arcs import analytic_major_measure, build_partition, major_measure
from .arith import Progression, TripleInstance, moebius, sieve_primes, triple
from .expsum import J_integral, coefficient_extract, eval_S_grid, kernel_coefficients
from .repcount import count_convolution, count_direct
from .reports import serialize_sweep_report
from .singular import (
    _stabilized_threshold,
    gauss_sum_G,
    local_density,
    local_density_factor,
    singular_series_product,
    singular_series_qsum,
)
from .sweeps import SweepConfig, sweep_E

__all__ = ["run_selftest"]


def _random_instance(rng: random.Random, n_max: int, k_max: int):
    N = rng.randrange(20, n_max)
    progs = []
    for _ in range(3):
        k = rng.randrange(1, k_max + 1)
        l = rng.choice([l for l in range(k) if math.gcd(k, l) == 1])
        progs.append(Progression(k, l))
    return TripleInstance(N, tuple(progs))


def run_selftest(seed: int = 0) -> list[tuple[str, bool, str]]:
    rng = random.Random(seed)
    table = sieve_primes(4000)
    results = []

    worst = 0.0
    ok = True
    for _ in range(5):
        inst = _random_instance(rng, 600, 8)
        d = count_direct(inst, table)
        c = count_convolution(inst, table)
        g = coefficient_extract(inst.N, inst, table)
        err = max(abs(c.value - d.value), abs(g - d.value)) / max(abs(d.value), 1.0)
        worst = max(worst, err)
        ok &= err < 1e-6 and c.solutions == d.solutions
    results.append(("count-paths-agree", ok, f"max rel err {worst:.2e}"))

    worst = 0.0
    for _ in range(2):
        inst = _random_instance(rng, 2000, 6)
        if inst.N % 2 == 0:
            inst = TripleInstance(inst.N + 1, inst.progs)
        qs = singular_series_qsum(inst, 300)
        pr = singular_series_product(inst, 300)
        worst = max(worst, abs(qs.value - pr.value) / max(pr.value, 1.0))
    results.append(("singular-cross-check", worst < 1e-3, f"max diff {worst:.2e}"))

    worst = 0.0
    for q in range(1, 41):
        a = rng.choice([a for a in range(1, q + 1) if math.gcd(a, q) == 1])
        worst = max(worst, abs(gauss_sum_G(a, q, Progression(1, 0)) - moebius(q)))
    results.append(("ramanujan-reduction", worst < 1e-10, f"max |G - mu| {worst:.2e}"))

    worst = 0.0
    for _ in range(5):
        Q = rng.randrange(1, 9)
        tau = 2 * Q * Q + rng.uniform(1.0, 50.0)
        part = build_partition(1000, Q, tau)
        worst = max(worst, abs(major_measure(part) - analytic_major_measure(Q, tau)))
    results.append(("arc-measure", worst < 1e-12, f"max |diff| {worst:.2e}"))

    N = 1500
    prog = Progression(3, 2)
    grid = eval_S_grid(N, prog, table, 2 * N + 1)
    l2 = float(np.sum(np.abs(grid) ** 2)) / (2 * N + 1)
    p = table.primes_in_progression(N, prog)
    coeff = float(np.sum(np.log(p.astype(np.float64)) ** 2))
    err = abs(l2 - coeff) / coeff
    results.append(("grid-parseval", err < 1e-9, f"rel err {err:.2e}"))

    kc = kernel_coefficients(25.0, h_max=12)
    c0_err = abs(kc.coeff(0) - (2.0 + 2.0 * math.log(12.5)))
    c_err = max(abs(kc.coeff(h) - J_integral(-h, 1, 25.0)) for h in range(13))
    j_hit = abs(J_integral(-6, 3, 25.0) - kc.coeff(2))
    j_miss = abs(J_integral(7, 3, 25.0))
    ok = c0_err < 1e-9 and c_err < 1e-11 and j_hit < 1e-6 and j_miss < 1e-6
    detail = f"c0 {c0_err:.1e}, c vs J {c_err:.1e}, J hit {j_hit:.1e}, J miss {j_miss:.1e}"
    results.append(("kernel-identities", ok, detail))

    cfg = SweepConfig(N=501, H1=2, H2=2, H3=2)
    r1 = serialize_sweep_report(sweep_E(cfg, table), "json")
    r2 = serialize_sweep_report(sweep_E(cfg, table), "json")
    results.append(("sweep-determinism", r1 == r2, f"{len(r1)} bytes"))

    bad = 0
    for _ in range(40):
        p = rng.choice((2, 3, 5, 7))
        vs = [rng.randrange(3) for _ in range(3)]
        ls = [rng.choice([l for l in range(1, p**v) if l % p]) if v else 0 for v in vs]
        N = rng.randrange(6, 6 + p**3)
        inst = triple(N, *[x for v, l in zip(vs, ls) for x in (p**v, l)])
        closed = Fraction(*local_density(N, p, [(v, l) for v, l in zip(vs, ls) if v]))
        bad += closed != local_density_factor(inst, p, _stabilized_threshold(inst, p))
    results.append(("local-density-closed-forms", bad == 0, f"{bad} of 40 differ"))

    return results
