"""Command-line surface wrapping the library operations.

Subcommands: sieve, count, singular, delta, sweep, arcs, expsum, selftest.
Exit codes are a stable contract: 0 success, 2 validation (also an input
too large for a float), 3 table bounds, 4 sweep budget, 5 arc overlap, 6
failed internal consistency check, 7 stdout closed by its reader before
the output was written.  With --format=json every subcommand prints one
JSON object {command, inputs, outputs, timing, versions}; --out writes a
deterministic payload file (rows for row-shaped commands), which never
contains timing so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import lru_cache

import numpy as np
import scipy

from . import __version__
from .arcs import analytic_major_measure, build_partition, major_measure, minor_statistics
from .arith import chebyshev_theta, sieve_primes, Progression, TripleInstance, triple
from .exceptions import ArcOverlapError, BudgetExceededError, ConsistencyError, TableTooSmallError
from .expsum import (J_integral, WeightSpec, _check_alpha, eval_K, eval_S, grid_count,
                     grid_length, kernel_coefficients)
from .repcount import DIRECT_CAP, count_convolution, count_direct
from .reports import rows_to_csv_bytes, serialize_sweep_report
from .selftest import run_selftest
from .singular import (DEFAULT_TRUNCATION, check_truncation, main_term, singular_series_product,
                       singular_series_qsum)
from .sweeps import (DEFAULT_BUDGET, MAX_THREADS, SweepConfig, _count_cells, delta_targets,
                     sweep_E, sweep_Estar)

# the reader of stdout closed it before the output was written
EXIT_STDOUT_CLOSED = 7

# exit code of each error main catches; subclasses come first
EXIT_CODES = {ConsistencyError: 6, ArcOverlapError: 5, BudgetExceededError: 4,
              TableTooSmallError: 3, ValueError: 2, OverflowError: 2, OSError: 2}

PRESET_NAMES = ("zero", "unit", "alternating")


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser; built once per process, since parsing leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("plain", "csv", "json"), default="plain",
                        help="stdout format (default plain)")
    common.add_argument("--out", default=None, help="write the payload to this file")
    common.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                        help=f"sweep workers, at most {MAX_THREADS} (--threads=1 is serial)")
    parser = argparse.ArgumentParser(
        prog="goldbach3",
        description="Circle-method computations for three-prime sums in progressions",
    )
    parser.add_argument("--version", action="version", version=f"goldbach3 {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sieve", parents=[common], help="build a prime table and summarize it")
    p.add_argument("--limit", type=int, required=True, help="sieve table limit")

    p = sub.add_parser("count", parents=[common], help="weighted three-prime representation count")
    p.add_argument("N", type=int)
    p.add_argument("progression", type=int, nargs=6, metavar=("K_L"),
                   help="k1 l1 k2 l2 k3 l3")
    p.add_argument("--method", choices=("direct", "fft", "grid"), default="fft")

    p = sub.add_parser("singular", parents=[common], help="singular series by both routes")
    p.add_argument("N", type=int)
    p.add_argument("progression", type=int, nargs=6, metavar=("K_L"))
    p.add_argument("--qmax", type=int, default=DEFAULT_TRUNCATION)
    p.add_argument("--pmax", type=int, default=DEFAULT_TRUNCATION)

    p = sub.add_parser("delta", parents=[common], help="error term R - M for one or more targets")
    p.add_argument("N", help="target, or comma-separated targets for a series")
    p.add_argument("progression", type=int, nargs=6, metavar=("K_L"))
    p.add_argument("--qmax", type=int, default=DEFAULT_TRUNCATION)
    p.add_argument("--pmax", type=int, default=DEFAULT_TRUNCATION)

    p = sub.add_parser("sweep", parents=[common], help="averaged error sums E / E*")
    p.add_argument("--mode", choices=("E", "Estar"), default="E")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--H1", type=int, required=True)
    p.add_argument("--H2", type=int, required=True)
    p.add_argument("--H3", type=int, required=True)
    p.add_argument("--lambda", dest="lam", default=None,
                   help="weights for Estar: preset name (zero, unit, alternating, "
                        "single:K) or a file of `k value` lines")
    p.add_argument("--l3", type=int, default=1, help="fixed third residue for Estar")
    p.add_argument("--pmax", type=int, default=DEFAULT_TRUNCATION)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="refuse sweeps beyond this many (k,l)-cells")

    p = sub.add_parser("arcs", parents=[common], help="Farey dissection and minor-arc statistics")
    p.add_argument("N", type=int)
    p.add_argument("--Q", type=int, required=True)
    p.add_argument("--tau", type=float, default=None, help="default N/Q")
    p.add_argument("--stats", action="store_true", help="also compute K statistics on the grid")
    p.add_argument("--lambda", dest="lam", default="unit")
    p.add_argument("--kmax", type=int, default=10)
    p.add_argument("--l3", type=int, default=1)
    p.add_argument("--T", type=int, default=None,
                   help="grid size (default: next fast length >= 2N+1)")

    p = sub.add_parser("expsum", parents=[common], help="exponential sums and kernel integrals")
    p.add_argument("N", type=int, nargs="?", default=None)
    p.add_argument("--mode", choices=("S", "K", "kernel", "J"), default="S")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--l", type=int, default=0)
    p.add_argument("--lambda", dest="lam", default="unit")
    p.add_argument("--kmax", type=int, default=10)
    p.add_argument("--l3", type=int, default=1)
    p.add_argument("--H", type=float, default=50.0, help="kernel height for kernel/J modes")
    p.add_argument("--hmax", type=int, default=None)
    p.add_argument("--n", type=int, default=0, help="frequency for J mode")

    p = sub.add_parser("selftest", parents=[common], help="run the built-in oracle checks")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized checks")

    return parser


def _weights(spec: str, k_max: int, l3: int) -> WeightSpec:
    if spec in PRESET_NAMES or spec.startswith("single:"):
        return WeightSpec.from_preset(spec, k_max, l3)
    return WeightSpec.from_file(spec, l3)


def _cmd_sieve(args):
    table = sieve_primes(args.limit)
    outputs = {
        "limit": args.limit,
        "prime_count": int(table.primes.size),
        "theta": chebyshev_theta(args.limit, Progression(1, 0), table),
        "largest_prime": int(table.primes[-1]),
    }
    return {"limit": args.limit}, outputs


def _cmd_count(args):
    N = args.N
    inst = triple(N, *args.progression)
    if args.method == "direct" and N > DIRECT_CAP:  # refused before the sieve
        raise ValueError(f"count --method direct is capped at N <= {DIRECT_CAP} (got N={N}); use fft")
    if args.method == "grid":
        grid_length(N)  # refuses 2N + 1 past MAX_GRID before the sieve
    table = sieve_primes(N)
    method = {"direct": count_direct, "fft": count_convolution, "grid": grid_count}
    wc = method[args.method](inst, table)
    outputs = {
        "value": wc.value,
        "solutions": wc.solutions,
        "method": args.method,
        "even_target": N % 2 == 0,
    }
    if wc.solutions == 0:
        outputs["note"] = "no representations (congruence obstruction or tiny target)"
    return {"N": N, "progressions": args.progression, "method": args.method}, outputs


def _cmd_singular(args):
    N = args.N
    inst = triple(N, *args.progression)
    qs = singular_series_qsum(inst, args.qmax)
    pr = singular_series_product(inst, args.pmax)
    outputs = {
        "qsum": qs.value,
        "product": pr.value,
        "abs_difference": abs(qs.value - pr.value),
        "qsum_tail": qs.tail_estimate,
        "product_tail": pr.tail_estimate,
        "main_term": main_term(inst, pr),
    }
    inputs = {"N": N, "progressions": args.progression,
              "qmax": args.qmax, "pmax": args.pmax}
    return inputs, outputs


def _cmd_delta(args):
    targets = [int(x) for x in str(args.N).split(",")]
    progs = [Progression(k, l) for k, l in zip(args.progression[::2], args.progression[1::2])]
    for N in targets:  # refused before the sieve
        TripleInstance(N, progs)
    check_truncation(q_max=args.qmax, p_max=args.pmax)
    table = sieve_primes(max(targets))
    # strict JSON has no Infinity: there a ratio to a vanishing main term is null
    null_ratio = args.format == "json"
    rows = [
        {"N": d.instance.N, "R": d.R, "M": d.M, "delta": d.delta,
         "abs_ratio": None if null_ratio and d.M == 0.0 else d.relative,
         "qsum": d.qsum.value, "abs_difference": d.abs_difference}
        for d in delta_targets(targets, progs, table, q_max=args.qmax, p_max=args.pmax)
    ]
    inputs = {"N": targets, "progressions": args.progression,
              "qmax": args.qmax, "pmax": args.pmax}
    if len(rows) == 1:
        return inputs, dict(rows[0])
    return inputs, {"rows": rows}


def _cmd_sweep(args):
    N = args.N
    if args.mode == "Estar" and args.lam is None:
        raise ValueError("Estar mode requires --lambda")
    # refuse an oversized sweep before the sieve and the H3 + 1 weights
    cells = _count_cells(args.mode, (args.H1, args.H2, args.H3), args.l3, args.budget)
    if cells > args.budget:
        raise BudgetExceededError(cells, args.budget)
    lam = _weights(args.lam, args.H3, args.l3) if args.mode == "Estar" else None
    cfg = SweepConfig(
        N=N, H1=args.H1, H2=args.H2, H3=args.H3, mode=args.mode,
        lam=lam, p_max=args.pmax, budget=args.budget,
    )
    table = sieve_primes(N)
    runner = sweep_E if args.mode == "E" else sweep_Estar
    report = runner(cfg, table, threads=max(1, args.threads))
    inputs = {"N": N, "mode": args.mode, "caps": [args.H1, args.H2, args.H3], "lambda": args.lam,
              "pmax": args.pmax, "budget": args.budget, "threads": args.threads}
    outputs = {
        "aggregate": report.aggregate,
        "rows_written": len(report.rows),
        "cells": report.metadata["estimated_cells"],
        "out": args.out,
    }
    if not args.out:
        return inputs, outputs
    # the --out payload is the report's rows, not these outputs
    payload_fmt = "json" if args.format == "json" else "csv"
    return inputs, outputs, serialize_sweep_report(report, payload_fmt)


def _cmd_arcs(args):
    N = args.N
    tau = args.tau if args.tau is not None else N / (args.Q or 1)  # build_partition refuses Q < 1
    partition = build_partition(N, args.Q, tau)
    outputs = {
        "arc_count": partition.centers.size,
        "measure": major_measure(partition),
        "measure_analytic": analytic_major_measure(args.Q, tau),
        "Q": args.Q,
        "tau": tau,
    }
    if args.stats:
        T = grid_length(N, args.T)
        w = _weights(args.lam, args.kmax, args.l3)
        table = sieve_primes(N)
        stats = minor_statistics(N, w, partition, T, table)
        outputs.update(
            T=T, sup_minor=stats.sup_minor, l2_full=stats.l2_full, l2_minor=stats.l2_minor
        )
    inputs = {"N": N, "Q": args.Q, "tau": tau, "stats": args.stats}
    return inputs, outputs


def _cmd_expsum(args):
    mode = args.mode
    if mode in ("S", "K"):  # refused before the sieve
        if args.N is None:
            raise ValueError(f"expsum mode {mode} needs a target N")
        _check_alpha(args.alpha)
    inputs = {"mode": mode}
    if mode == "S":
        prog = Progression(args.k, args.l)
        table = sieve_primes(args.N)
        val = eval_S(args.alpha, args.N, prog, table)
        inputs.update(N=args.N, alpha=args.alpha, k=args.k, l=args.l)
        outputs = {"real": val.real, "imag": val.imag, "abs": abs(val)}
    elif mode == "K":
        w = _weights(args.lam, args.kmax, args.l3)
        table = sieve_primes(args.N)
        val = eval_K(args.alpha, args.N, w, table)
        inputs.update(N=args.N, alpha=args.alpha, kmax=args.kmax, l3=args.l3)
        outputs = {"real": val.real, "imag": val.imag, "abs": abs(val)}
    elif mode == "kernel":
        kc = kernel_coefficients(args.H, args.hmax)
        inputs.update(H=args.H, hmax=kc.h_max)
        outputs = {
            "c0": kc.coeff(0),
            "envelope_ok": kc.envelope_ok,
            "rows": [{"h": h, "c": float(kc.values[h])} for h in range(kc.h_max + 1)],
        }
    else:  # J
        val = J_integral(args.n, args.k, args.H)
        kc = kernel_coefficients(args.H, max(1, abs(args.n) // args.k + 1))
        predicted = kc.coeff(-args.n // args.k) if args.n % args.k == 0 else 0.0
        inputs.update(n=args.n, k=args.k, H=args.H)
        outputs = {"J": val, "predicted": predicted, "abs_error": abs(val - predicted)}
    return inputs, outputs


def _cmd_selftest(args):
    results = run_selftest(seed=args.seed)
    ok = all(passed for _, passed, _ in results)
    outputs = {
        "passed": ok,
        "rows": [{"check": name, "ok": passed, "detail": detail}
                 for name, passed, detail in results],
    }
    return {"seed": args.seed}, outputs


DISPATCH = {
    "sieve": _cmd_sieve,
    "count": _cmd_count,
    "singular": _cmd_singular,
    "delta": _cmd_delta,
    "sweep": _cmd_sweep,
    "arcs": _cmd_arcs,
    "expsum": _cmd_expsum,
    "selftest": _cmd_selftest,
}


def _versions() -> dict:
    return {
        "goldbach3": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
    }


def _emit_plain(outputs: dict) -> None:
    rows = outputs.get("rows")
    for key, value in outputs.items():
        if key != "rows":
            print(f"{key}: {value}")
    if rows is not None:
        for row in rows:
            print("  " + "  ".join(f"{k}={v}" for k, v in row.items()))


def _emit_csv(outputs: dict) -> bytes:
    rows = outputs.get("rows")
    if rows:
        columns = list(rows[0].keys())
        data = [[row[c] for c in columns] for row in rows]
        return rows_to_csv_bytes(columns, data)
    scalars = {k: v for k, v in outputs.items() if k != "rows"}
    return rows_to_csv_bytes(list(scalars.keys()), [list(scalars.values())])


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        # a command returns (inputs, outputs) and, when it has its own
        # --out payload (sweep), those bytes; every other payload is the
        # outputs (rows when present) without timing or versions
        inputs, outputs, *payload = DISPATCH[args.command](args)
        elapsed = time.perf_counter() - t0
        if args.out:
            if not payload:
                payload = [(json.dumps(outputs, indent=2) + "\n").encode("utf-8")
                           if args.format == "json" else _emit_csv(outputs)]
            with open(args.out, "wb") as fh:
                fh.write(payload[0])
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))

    rc = 0
    try:
        if args.format == "json":
            report = {
                "command": args.command,
                "inputs": inputs,
                "outputs": outputs,
                "timing": {"seconds": elapsed},
                "versions": _versions(),
            }
            print(json.dumps(report, indent=2))
        elif args.format == "csv":
            sys.stdout.write(_emit_csv(outputs).decode("utf-8"))
        else:
            _emit_plain(outputs)
            print(f"(elapsed {elapsed:.3f}s)")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`| head`); point the descriptor
        # at devnull so the interpreter's flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        rc = EXIT_STDOUT_CLOSED

    if args.command == "selftest" and not outputs["passed"]:
        return 1
    return rc


if __name__ == "__main__":
    sys.exit(main())
