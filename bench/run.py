"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload instances --seed 1 --seconds 10 --trace 0

Run from the repository root.  With ``--trace 0`` it prints the end-to-end
metrics (setup_s, items_per_s, items_per_s_2t, op_p50_s, peak_rss_mb);
with ``--trace 1`` the per-module metrics of a traced pass.  See
bench/README.md for the workloads, the metrics and the checks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS, make_round  # noqa: E402

# spawn-to-READY samples per run: SETUP_PROBES extra processes, half
# before and half after the measured worker, plus the worker itself; the
# median of all of them is setup_s.  Spreading them over the run lets the
# machine's slow drift average out as it does for the other metrics.
SETUP_PROBES = 4
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "items/s",
    "items_per_s_2t": "items/s",
    "op_p50_s": "s",
    "peak_rss_mb": "MB",
}


def _worker_env() -> dict:
    env = dict(os.environ)
    # one BLAS thread, so the 2-thread pass runs no more threads than asked
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("GOLDBACH_TABLE_LIMIT", None)  # every command sieves to its own N
    return env


def _spawn(args, mode: str, rundir: str):
    """Start a worker and wait for READY; returns (seconds to READY, process)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--rundir", rundir]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=_worker_env())
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not start (mode {mode}): {line.strip()!r}")
    return ready, proc


def _finish(proc) -> str:
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker exceeded {WORKER_TIMEOUT_S}s")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return out


def _probe(args, rundir: str) -> float:
    """Seconds from spawn to READY of a worker that stops there."""
    ready, proc = _spawn(args, "setup", rundir)
    _finish(proc)
    return ready


def end_to_end(ops, result, setup_samples) -> dict:
    t1, t2 = result["passes"]

    def rate(p):
        items = sum(ops[r["op"]]["items"] for r in p["records"] if r["ok"])
        return items / p["busy_s"]

    values = {
        "setup_s": statistics.median(setup_samples),
        "items_per_s": rate(t1),
        "items_per_s_2t": rate(t2),
        "op_p50_s": statistics.median(r["seconds"] for r in t1["records"] if r["ok"]),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(result) -> dict:
    from tracing import layer_metric_names

    layers = result["layers"]
    return {name: {"value": layers[name], "unit": unit}
            for name, unit in layer_metric_names() if name in layers}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "goldbach3", "cli.py")):
        print(f"error: no goldbach3 sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    ops = make_round(args.workload, args.seed)
    scratch = os.path.join(ROOT, ".bench_run")
    rundir = os.path.join(scratch, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(rundir, exist_ok=True)
    try:
        probes = 0 if args.trace else SETUP_PROBES
        setup_samples = [_probe(args, rundir) for _ in range(probes // 2)]
        ready, proc = _spawn(args, "trace" if args.trace else "run", rundir)
        setup_samples.append(ready)
        result = json.loads(_finish(proc).strip().splitlines()[-1])
        setup_samples += [_probe(args, rundir) for _ in range(probes - probes // 2)]

        records = [rec for p in result["passes"] for rec in p["records"]]
        for rec in result["passes"][0]["records"]:
            if rec["ok"] and ops[rec["op"]]["out"]:
                with open(os.path.join(rundir, f"op{rec['op']}-t1.csv"), encoding="utf-8") as fh:
                    rec["out_text"] = fh.read()
        from checks import check_run

        problems = check_run(args.workload, ops, records)
        if args.trace:
            shutil.move(os.path.join(rundir, "trace.json"),
                        os.path.join(scratch, f"trace-{args.workload}-{args.seed}.json"))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    metrics = per_layer(result) if args.trace else end_to_end(ops, result, setup_samples)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    rounds = result["passes"][0]["rounds"]
    print(f"{args.workload} seed {args.seed}: {rounds} round(s) of {len(ops)} operations "
          f"per pass, {len(records)} attempted")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(records),
        "failed": sum(not rec["ok"] for rec in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
