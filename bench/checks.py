"""Correctness checks on the outputs of one benchmark run.

Each check compares an output with a computation made here, apart from the
program (a numpy sieve and FFT convolution, closed forms for the singular
series and arc measures), or with a property the method must have.  The
program's own routines are used only as the second route of a two-route
check: singular_series_qsum against the product behind ``delta``, and
singular_series_product for the main term of spot-checked sweep cells.
Copies of earlier output are never used.

These run in run.py, after the measured process has exited, so they sit
outside the timed region and outside the process whose peak RSS is
reported.  Every check returns a list of problems; empty means correct.
"""

from __future__ import annotations

import csv
import io
import math
import os
import random
import sys

import numpy as np

from workloads import phi, sweep_cells

E_COLUMNS = ["k1", "k2", "k3", "l1", "l2", "l3", "R", "M", "delta", "delta_scaled"]
ESTAR_COLUMNS = ["k1", "k2", "l1", "l2", "R_sum", "M_sum", "delta_sum", "delta_scaled"]


def _program():
    """The goldbach3 package, for the second route of two-route checks."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import goldbach3

    return goldbach3


# ---------------------------------------------------------------- references


def prime_mask(limit: int) -> np.ndarray:
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return mask


def _primes_in(mask: np.ndarray, N: int, k: int, l: int) -> np.ndarray:
    p = np.flatnonzero(mask[: N + 1])
    return p[p % k == l % k]


def conv_count(N: int, progs, mask: np.ndarray) -> tuple[float, int]:
    """(R, number of ordered triples) by FFT convolution of prime indicators."""
    size = 1 << (2 * N + 1).bit_length()
    ps = [_primes_in(mask, N, progs[2 * i], progs[2 * i + 1]) for i in range(3)]
    logs = [np.log(p.astype(np.float64)) for p in ps]
    weighted = [np.zeros(N + 1), np.zeros(N + 1)]
    unit = [np.zeros(N + 1), np.zeros(N + 1)]
    for i in range(2):
        weighted[i][ps[i]] = logs[i]
        unit[i][ps[i]] = 1.0

    def pair(a, b):
        return np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)

    idx = N - ps[2]
    R = float(np.dot(logs[2], pair(*weighted)[idx]))
    raw = pair(*unit)[idx]
    rounded = np.rint(raw)
    if raw.size and np.max(np.abs(raw - rounded)) > 0.25:
        raise ArithmeticError(f"reference convolution lost integrality at N={N}")
    return R, int(rounded.sum())


def _mobius_phi(limit: int):
    mu = [1] * (limit + 1)
    ph = list(range(limit + 1))
    is_comp = [False] * (limit + 1)
    for p in range(2, limit + 1):
        if is_comp[p]:
            continue
        for m in range(p, limit + 1, p):
            if m > p:
                is_comp[m] = True
            mu[m] = -mu[m]
            ph[m] -= ph[m] // p
        for m in range(p * p, limit + 1, p * p):
            mu[m] = 0
    return mu, ph


def euler_product(N: int, p_max: int) -> float:
    """Classical ternary series as an Euler product over p <= p_max."""
    value = 1.0
    for p in np.flatnonzero(prime_mask(p_max)).tolist():
        value *= 1.0 - 1.0 / (p - 1) ** 2 if N % p == 0 else 1.0 + 1.0 / (p - 1) ** 3
    return value


def ramanujan_partial_sum(N: int, q_max: int) -> float:
    """sum_{q <= q_max} mu(q) c_q(N) / phi(q)^3, with c_q(N) in closed form."""
    mu, ph = _mobius_phi(q_max)
    total = 0.0
    for q in range(1, q_max + 1):
        if mu[q] == 0:
            continue
        g = math.gcd(q, N)
        c_q = mu[q // g] * ph[q] / ph[q // g]
        total += mu[q] * c_q / ph[q] ** 3
    return total


def lambda_weights(spec: str, k_max: int, l3: int) -> np.ndarray:
    """lambda(k) for k = 0..k_max, as the CLI presets define them."""
    lam = np.zeros(k_max + 1)
    if spec == "unit":
        lam[1:] = 1.0
    elif spec == "alternating":
        lam[1:] = [1.0 if k % 2 == 0 else -1.0 for k in range(1, k_max + 1)]
    elif spec.startswith("single:"):
        lam[int(spec.split(":")[1])] = 1.0
    elif spec != "zero":
        raise ValueError(f"unknown lambda preset {spec!r}")
    for k in range(1, k_max + 1):
        if math.gcd(k, l3) != 1:
            lam[k] = 0.0
    lam[0] = 0.0
    return lam


def weight_coefficients(N: int, lam: np.ndarray, l3: int, mask: np.ndarray) -> np.ndarray:
    """c_p = log p * sum of lambda(k) over k with p = l3 (mod k), for p <= N."""
    p = np.flatnonzero(mask[: N + 1])
    acc = np.zeros(p.size)
    for k in range(1, lam.size):
        if lam[k] != 0.0:
            acc += np.where(p % k == l3 % k, lam[k], 0.0)
    return np.log(p.astype(np.float64)) * acc


def _close(a: float, b: float, rel: float, scale: float = 1.0) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), scale)


def _count_scale(N: int, progs) -> float:
    # R is compared relative to max(|R|, N^2 / (2 phi(k1) phi(k2) phi(k3))),
    # the main term's size without S.  A count that is empty or nearly so
    # sits far below it, and there the FFT routes' round-off (0.29 on
    # R = 2.5e5 from the grid route at N = 1.7e5) would dominate |R|.
    return N * N / (2 * _phi3(progs))


def _phi3(progs) -> int:
    return phi(progs[0]) * phi(progs[2]) * phi(progs[4])


# ------------------------------------------------------------------- checks


def check_delta(ops, first) -> list[str]:
    if not first:
        return []
    problems = []
    mask = prime_mask(max(t for i in first for t in ops[i]["params"]["targets"]))
    g3 = _program()
    for i, rec in first.items():
        params = ops[i]["params"]
        progs = params["progs"]
        out = rec["outputs"]
        rows = out["rows"] if "rows" in out else [out]
        if [row["N"] for row in rows] != params["targets"]:
            problems.append(f"op {i}: targets {[r['N'] for r in rows]} != {params['targets']}")
            continue
        for row in rows:
            N = row["N"]
            R_ref, _ = conv_count(N, progs, mask)
            if not _close(row["R"], R_ref, 1e-6, _count_scale(N, progs)):
                problems.append(f"op {i} N={N}: R {row['R']!r} vs reference {R_ref!r}")
            if not _close(row["delta"], row["R"] - row["M"], 1e-12):
                problems.append(f"op {i} N={N}: delta != R - M")
            s_product = row["M"] * 2 * _phi3(progs) / N**2
            s_qsum = g3.singular_series_qsum(g3.triple(N, *progs), params["qmax"]).value
            if abs(s_product - s_qsum) > 1e-3 * max(s_product, 1.0):
                problems.append(f"op {i} N={N}: product S {s_product!r} vs q-sum {s_qsum!r}")
    return problems


def check_singular(ops, first) -> list[str]:
    problems = []
    for i, rec in first.items():
        params = ops[i]["params"]
        N, progs = params["N"], params["progs"]
        out = rec["outputs"]
        qs, pr = out["qsum"], out["product"]
        if abs(qs - pr) > 1e-3 * max(pr, 1.0):
            problems.append(f"op {i}: q-sum {qs!r} vs product {pr!r}")
        if not _close(out["main_term"], N**2 * pr / (2 * _phi3(progs)), 1e-12):
            problems.append(f"op {i}: main term {out['main_term']!r} != N^2 S / 2phi^3")
        if progs == [1, 0, 1, 0, 1, 0]:
            ep = euler_product(N, params["pmax"])
            rs = ramanujan_partial_sum(N, params["qmax"])
            if abs(pr - ep) > 1e-6:
                problems.append(f"op {i}: product {pr!r} vs Euler product {ep!r}")
            if abs(qs - rs) > 1e-6:
                problems.append(f"op {i}: q-sum {qs!r} vs Ramanujan partial sum {rs!r}")
    return problems


def _sweep_rows(text: str, columns) -> list[dict]:
    reader = list(csv.reader(io.StringIO(text)))
    if not reader or reader[0] != columns:
        raise ValueError(f"header {reader[:1]} != {columns}")
    ints = {"k1", "k2", "k3", "l1", "l2", "l3"}
    return [{c: (int(v) if c in ints else float(v)) for c, v in zip(columns, row)}
            for row in reader[1:]]


def check_sweep(ops, first) -> list[str]:
    problems = []
    rows_by_op = {}
    for i, rec in first.items():
        params = ops[i]["params"]
        mode, (H1, H2, H3) = params["mode"], params["caps"]
        out = rec["outputs"]
        try:
            rows = _sweep_rows(rec["out_text"], E_COLUMNS if mode == "E" else ESTAR_COLUMNS)
        except (ValueError, KeyError) as exc:
            problems.append(f"op {i}: unreadable --out file: {exc}")
            continue
        rows_by_op[i] = rows
        expected_rows = H1 * H2 * H3 if mode == "E" else H1 * H2
        if len(rows) != expected_rows or int(out["rows_written"]) != len(rows):
            problems.append(f"op {i}: {len(rows)} rows, rows_written {out['rows_written']}, "
                            f"expected {expected_rows}")
        if int(out["cells"]) != sweep_cells(mode, params["caps"], params["l3"]):
            problems.append(f"op {i}: cells {out['cells']} != phi-sum count")
        key = "delta" if mode == "E" else "delta_sum"
        total = 0.0
        for row in rows:
            total += abs(row[key])
        if total != float(out["aggregate"]):
            problems.append(f"op {i}: aggregate {out['aggregate']} != folded rows {total!r}")
        if mode == "E" and any(row["delta"] != row["R"] - row["M"] for row in rows):
            problems.append(f"op {i}: a row's delta != R - M")
    problems += _check_estar_bound(ops, rows_by_op)
    problems += _check_spot_cells(ops, rows_by_op)
    return problems


def _check_estar_bound(ops, rows_by_op) -> list[str]:
    # |delta_sum| <= sum over k3 of |lambda(k3)| |delta| <= sum of E rows' |delta|
    problems = []
    for i, e_rows in rows_by_op.items():
        pe = ops[i]["params"]
        if pe["mode"] != "E":
            continue
        for j, s_rows in rows_by_op.items():
            ps = ops[j]["params"]
            if ps["mode"] != "Estar" or (ps["N"], ps["caps"]) != (pe["N"], pe["caps"]):
                continue
            bound = {}
            for row in e_rows:
                if math.gcd(row["k3"], ps["l3"]) == 1:
                    k12 = (row["k1"], row["k2"])
                    bound[k12] = bound.get(k12, 0.0) + abs(row["delta"])
            for row in s_rows:
                b = bound.get((row["k1"], row["k2"]), 0.0)
                if abs(row["delta_sum"]) > b * (1 + 1e-12) + 1e-9:
                    problems.append(f"op {j}: Estar row {row['k1'], row['k2']} "
                                    f"|delta_sum| {abs(row['delta_sum'])!r} > E bound {b!r}")
    return problems


def _check_spot_cells(ops, rows_by_op, per_op: int = 3) -> list[str]:
    problems = []
    g3 = _program()
    for i, rows in rows_by_op.items():
        params = ops[i]["params"]
        if params["mode"] != "E" or not rows:
            continue
        N = params["N"]
        mask = prime_mask(N)
        for row in random.Random(N).sample(rows, min(per_op, len(rows))):
            progs = [row["k1"], row["l1"], row["k2"], row["l2"], row["k3"], row["l3"]]
            R_ref, _ = conv_count(N, progs, mask)
            S = g3.singular_series_product(g3.triple(N, *progs), 2000).value
            M_ref = N**2 * S / (2 * _phi3(progs))
            if not (_close(row["R"], R_ref, 1e-6, _count_scale(N, progs))
                    and _close(row["M"], M_ref, 1e-6)):
                problems.append(f"op {i}: cell {progs}: R {row['R']!r} M {row['M']!r} vs "
                                f"reference R {R_ref!r} M {M_ref!r}")
    return problems


def check_grid_arcs(ops, first) -> list[str]:
    problems = []
    mask = prime_mask(max(op["params"]["N"] for op in ops))
    for i, rec in first.items():
        params = ops[i]["params"]
        out = rec["outputs"]
        N = params["N"]
        if ops[i]["argv"][0] == "count":
            R_ref, sol_ref = conv_count(N, params["progs"], mask)
            scale = _count_scale(N, params["progs"])
            if out["solutions"] != sol_ref or not _close(out["value"], R_ref, 1e-6, scale):
                problems.append(f"op {i}: grid count {out['solutions']}, R {out['value']!r} vs "
                                f"reference {sol_ref}, {R_ref!r}")
            continue
        Q = params["Q"]
        tau = N / Q
        measure_ref = sum(phi(q) * 2.0 / (q * tau) for q in range(1, Q + 1))
        if out["tau"] != tau or out["arc_count"] != sum(phi(q) for q in range(1, Q + 1)):
            problems.append(f"op {i}: tau {out['tau']!r} or arc count {out['arc_count']} wrong")
        if abs(out["measure"] - measure_ref) > 1e-12 * measure_ref:
            problems.append(f"op {i}: arc measure {out['measure']!r} vs {measure_ref!r}")
        lam = lambda_weights(params["lambda"], params["kmax"], params["l3"])
        c = weight_coefficients(N, lam, params["l3"], mask)
        l2_ref = float(np.dot(c, c))
        if abs(out["l2_full"] - l2_ref) > 1e-8 * max(l2_ref, 1e-300):
            problems.append(f"op {i}: l2_full {out['l2_full']!r} vs Parseval {l2_ref!r}")
        if out["l2_minor"] > out["l2_full"] * (1 + 1e-12):
            problems.append(f"op {i}: l2_minor {out['l2_minor']!r} > l2_full")
        if out["sup_minor"] > float(np.abs(c).sum()) * (1 + 1e-12):
            problems.append(f"op {i}: sup_minor {out['sup_minor']!r} > sum |c_p|")
    return problems


def check_instances(ops, first) -> list[str]:
    """Each subcommand's records go to the check for that subcommand."""
    by_command = {"delta": {}, "singular": {}, "sweep": {}}
    for i, rec in first.items():
        by_command[ops[i]["argv"][0]][i] = rec
    return (check_delta(ops, by_command["delta"])
            + check_singular(ops, by_command["singular"])
            + check_sweep(ops, by_command["sweep"]))


CHECKS = {
    "instances": check_instances,
    "grid_arcs": check_grid_arcs,
}


def _comparable(record: dict) -> tuple:
    outputs = {k: v for k, v in record["outputs"].items() if k != "out"}
    return outputs, record.get("out_sha256")


def check_run(workload: str, ops, records) -> list[str]:
    """Check every operation record of a run; ``records`` lists them all.

    The first successful execution of each operation is checked against
    the references; every other execution (later rounds, the 2-thread or
    traced pass) must give the same outputs and the same --out bytes.
    Only the operations marked ``expect_fail`` may fail.
    """
    problems = []
    first = {}
    for rec in records:
        i = rec["op"]
        if not rec["ok"]:
            if not ops[i]["expect_fail"]:
                problems.append(f"op {i} ({' '.join(ops[i]['argv'])}) failed: {rec['error']}")
            continue
        if i not in first:
            first[i] = rec
        elif _comparable(rec) != _comparable(first[i]):
            problems.append(f"op {i}: outputs differ between executions")
    return problems + CHECKS[workload](ops, first)
