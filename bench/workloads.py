"""Seeded operation lists for the two benchmark workloads.

A workload is one round of CLI operations, built from ``--seed`` alone and
repeated whole for as long as a pass runs.  Every operation is a dict:

  argv         subcommand and arguments for ``goldbach3.cli.main``; the
               runner appends ``--format``, ``--threads`` and ``--out``
  items        work units the operation completes, counted here from its
               inputs and never read back from the program's output
  expect_fail  True only for the fixed grid count near N = 10**6, which
               fails today with a ConsistencyError on every seed
  params       the decoded inputs, for the correctness checks

This module imports neither numpy nor goldbach3, so generating inputs costs
nothing next to the imports it is timed with.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("instances", "grid_arcs")

LAMBDA_PRESETS = ("unit", "alternating", "single")

# Exceeds the 1e-3 integrality guard of the unit-weight grid count (drift
# 7.1e-2 at T = 2N+1 = 3^5 5^4 13), so it fails on every run; it does not
# depend on the seed.  The smooth length keeps its FFTs to about 1.5 s.
FAILING_GRID_COUNT = (987187, (1, 0, 1, 0, 1, 0))


def phi(n: int) -> int:
    out = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p
        p += 1
    if m > 1:
        out -= out // m
    return out


def phi_total(H: int) -> int:
    return sum(phi(k) for k in range(1, H + 1))


def sweep_cells(mode: str, caps, l3: int = 1) -> int:
    """(k, l)-cells of a sweep, from its caps and phi-sums."""
    H1, H2, H3 = caps
    base = phi_total(H1) * phi_total(H2)
    if mode == "E":
        return base * phi_total(H3)
    return base * sum(1 for k in range(1, H3 + 1) if math.gcd(k, l3) == 1)


def _progression(rng: random.Random, k_max: int) -> tuple[int, int]:
    k = rng.randrange(1, k_max + 1)
    return k, rng.choice([l for l in range(k) if math.gcd(k, l) == 1])


def _progressions(rng: random.Random, k_max: int) -> list[int]:
    return [x for _ in range(3) for x in _progression(rng, k_max)]


def _coprime_progressions(rng: random.Random, k_max: int) -> list[int]:
    # With pairwise coprime moduli no prime divides two of them, and units
    # then reach every residue of an odd N, so the singular series is never
    # 0.  The product route stops early at a zero local factor, so without
    # this an operation's cost would hinge on the seed.
    while True:
        progs = _progressions(rng, k_max)
        k1, k2, k3 = progs[0::2]
        if math.gcd(k1, k2) == math.gcd(k1, k3) == math.gcd(k2, k3) == 1:
            return progs


def _odd(rng: random.Random, lo: int, hi: int) -> int:
    return rng.randrange(lo, hi) | 1


def _lambda(rng: random.Random, k_max: int, l3: int) -> str:
    name = rng.choice(LAMBDA_PRESETS)
    if name != "single":
        return name
    return f"single:{rng.choice([k for k in range(1, k_max + 1) if math.gcd(k, l3) == 1])}"


def _q_cap(N: int) -> int:
    # largest Q with 2Q^3 < N, so the default tau = N/Q clears 2Q^2
    q = 1
    while 2 * (q + 1) ** 3 < N:
        q += 1
    return q


def _delta_op(rng: random.Random) -> dict:
    # targets stay below 2**20 so count_convolution's FFT length is 2**21
    targets = sorted(_odd(rng, 990000, 1010000) for _ in range(2))
    progs = _coprime_progressions(rng, 12)
    return {
        "argv": ["delta", ",".join(map(str, targets)), *map(str, progs)],
        "items": len(targets),
        "params": {"targets": targets, "progs": progs, "qmax": 2000, "pmax": 2000},
    }


def _singular_op(N: int, progs: list[int]) -> dict:
    return {
        "argv": ["singular", str(N), *map(str, progs), "--qmax", "2000", "--pmax", "2000"],
        "items": 1,
        "params": {"N": N, "progs": progs, "qmax": 2000, "pmax": 2000},
    }


def _sweep_op(N: int, mode: str, caps, lam=None, l3=1) -> dict:
    argv = ["sweep", "--mode", mode, "--N", str(N),
            "--H1", str(caps[0]), "--H2", str(caps[1]), "--H3", str(caps[2])]
    if mode == "Estar":
        argv += ["--lambda", lam, "--l3", str(l3)]
    return {
        "argv": argv,
        "items": sweep_cells(mode, caps, l3),
        "out": True,
        "params": {"N": N, "mode": mode, "caps": list(caps), "lambda": lam, "l3": l3},
    }


def _instances(rng: random.Random) -> list[dict]:
    # One delta operation on two targets near 10^6; three singular
    # operations with pairwise coprime moduli up to 20 and one with unit
    # moduli, at odd N in [1001, 10^5]; an E sweep and an Estar sweep
    # sharing N and caps near 10^5, so the Estar rows are bounded by the E
    # rows.  l3 is drawn from values coprime to every k3 up to 5, which
    # keeps the Estar cell count fixed across seeds.  Seven operations: the
    # median latency is that of the middle one.
    ops = [_delta_op(rng)]
    for progs in [_coprime_progressions(rng, 20) for _ in range(3)] + [[1, 0, 1, 0, 1, 0]]:
        ops.append(_singular_op(_odd(rng, 1001, 10**5), progs))
    N = _odd(rng, 95000, 105000)
    l3 = rng.choice((1, 7, 11, 13))
    ops += [
        _sweep_op(N, "E", (5, 5, 5)),
        _sweep_op(N, "Estar", (5, 5, 5), _lambda(rng, 5, l3), l3),
    ]
    return ops


def _largest_prime_factor(n: int) -> int:
    p, last = 2, 1
    while p * p <= n:
        while n % p == 0:
            n //= p
            last = p
        p += 1
    return max(last, n)


def _grid_target(rng: random.Random, lo: int, hi: int, smooth: bool) -> int:
    # The FFT cost of a length-(2N+1) grid depends on how 2N+1 factors:
    # lengths with a prime factor above 1000 (about 70% near 10^6) take
    # 4-8 times longer than lengths with no prime factor above 50.  Each
    # round has a fixed mix of the two, so seeds differ in N but not in
    # how many lengths fall on each side.
    while True:
        N = _odd(rng, lo, hi)
        q = _largest_prime_factor(2 * N + 1)
        if (q <= 50) if smooth else (q > 1000):
            return N


def _grid_arcs(rng: random.Random) -> list[dict]:
    # eight arcs targets in consecutive strata of [2e5, 1e6] and three grid
    # counts in narrow strata of [1e5, 2e5): the strata fix the sizes.  The
    # eleven operations that succeed are an odd number, so the median
    # latency is that of the middle operation, not a mean of two
    # neighbours whose gap would move it from seed to seed.
    ops = []
    for j in range(8):
        base = 200000 + 113000 * j
        N = _grid_target(rng, base, base + 9000, smooth=j in (2, 5))
        Q = _q_cap(N) - rng.randrange(3)
        l3 = rng.choice((1, 2, 3, 5, 7))
        kmax = rng.randrange(6, 17)
        lam = _lambda(rng, kmax, l3)
        ops.append({
            "argv": ["arcs", str(N), "--Q", str(Q), "--stats", "--lambda", lam,
                     "--kmax", str(kmax), "--l3", str(l3)],
            "items": 2 * N + 1,
            "params": {"N": N, "Q": Q, "lambda": lam, "kmax": kmax, "l3": l3},
        })
    for j in range(3):
        base = 100000 + 33000 * j
        N = _grid_target(rng, base, base + 9000, smooth=j == 0)
        ops.append(_grid_count(N, _progressions(rng, 12)))
    N, progs = FAILING_GRID_COUNT
    ops.append(dict(_grid_count(N, list(progs)), expect_fail=True))
    return ops


def _grid_count(N: int, progs: list[int]) -> dict:
    return {
        "argv": ["count", str(N), *map(str, progs), "--method", "grid"],
        "items": 2 * N + 1,
        "params": {"N": N, "progs": progs},
    }


_BUILDERS = {
    "instances": _instances,
    "grid_arcs": _grid_arcs,
}


def make_round(workload: str, seed: int) -> list[dict]:
    """The seeded operation list that one round of ``workload`` runs."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    ops = _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
    for op in ops:
        op.setdefault("out", False)
        op.setdefault("expect_fail", False)
    return ops
