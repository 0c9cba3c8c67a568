"""The measured process: one workload, run in-process through goldbach3.cli.main.

Started by run.py, never by hand.  It imports the package and builds the
seeded inputs, prints READY (the parent times set-up up to that line),
then runs the round of operations back to back, one client in a closed
loop.  Two passes run the same rounds, operation by operation, until the
first pass has run ``--seconds`` of operation time: ``--threads 1`` and
``--threads 2`` in plain runs, untraced and traced ``--threads 1`` in
traced runs.  The last line of stdout is a JSON record of every operation.

This process does no reference computation, so its peak RSS is that of
the program's own operations (plus the interpreter and imports).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from goldbach3 import cli  # noqa: E402

from workloads import make_round  # noqa: E402


def _parse_stdout(text: str, argv: list[str]) -> dict:
    if argv[0] == "sweep":
        # csv stdout: one header row of output names, one row of values
        header, values = list(csv.reader(io.StringIO(text)))[:2]
        return dict(zip(header, values))
    return json.loads(text)["outputs"]


def run_op(op: dict, threads: int, out_path: str | None) -> dict:
    argv = list(op["argv"]) + ["--threads", str(threads)]
    # sweep's --out payload is CSV unless --format json; the other
    # commands report through the JSON envelope
    argv += ["--format", "csv" if op["argv"][0] == "sweep" else "json"]
    if out_path:
        argv += ["--out", out_path]
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as exc:  # an unmapped error is a failed operation
            rc, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    record = {"seconds": seconds, "ok": rc == 0}
    if rc == 0:
        record["outputs"] = _parse_stdout(stdout.getvalue(), op["argv"])
        if out_path:
            with open(out_path, "rb") as fh:
                record["out_sha256"] = hashlib.sha256(fh.read()).hexdigest()
    else:
        record["error"] = error or f"exit {rc}: {stderr.getvalue().strip()[-300:]}"
    return record


def run_passes(ops, passes, rundir, seconds) -> list[dict]:
    """Run whole rounds until the first pass has run ``seconds``.

    ``passes`` is a list of (tag, threads, setup) where ``setup`` is called
    before each of that pass's operations.  Every operation runs once in
    each pass before the next operation starts, and the order of the
    passes flips from one operation to the next.  The machine's speed
    drifts over tens of seconds, so this puts every pass through the same
    conditions instead of giving each its own stretch of time.
    """
    out = [{"tag": tag, "threads": threads, "rounds": 0, "busy_s": 0.0, "records": []}
           for tag, threads, _ in passes]
    turn = 0
    while out[0]["busy_s"] < seconds:
        for i, op in enumerate(ops):
            order = list(zip(out, passes))
            for p, (tag, threads, setup) in order[::-1] if turn % 2 else order:
                setup()
                out_path = os.path.join(rundir, f"op{i}-{tag}.csv") if op["out"] else None
                rec = run_op(op, threads, out_path)
                rec.update(op=i, round=p["rounds"])
                p["busy_s"] += rec["seconds"]
                p["records"].append(rec)
            turn += 1
        for p in out:
            p["rounds"] += 1
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--rundir", required=True)
    args = ap.parse_args(argv)

    ops = make_round(args.workload, args.seed)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    if args.mode == "run":
        result = {"passes": run_passes(
            ops, [("t1", 1, lambda: None), ("t2", 2, lambda: None)], args.rundir, args.seconds)}
    else:
        from tracing import Tracer

        tracer = Tracer()
        passes = [("t1", 1, tracer.uninstall), ("traced", 1, tracer.install)]
        result = {"passes": run_passes(ops, passes, args.rundir, args.seconds)}
        tracer.uninstall()
        untraced, traced = result["passes"]
        overhead = 100.0 * (traced["busy_s"] / untraced["busy_s"] - 1.0)
        result["layers"] = tracer.metrics(overhead)
        tracer.dump(os.path.join(args.rundir, "trace.json"))
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
