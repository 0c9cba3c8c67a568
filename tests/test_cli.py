import hashlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldbach3 import (
    ConsistencyError,
    SingularSeriesCache,
    cli,
    count_convolution,
    singular,
    singular_series_product,
    singular_series_qsum,
    triple,
)
from goldbach3.arith import MAX_SIEVE_LIMIT
from goldbach3.reports import validate_cli_report
from goldbach3.singular import MAX_TRUNCATION


# SHA-256 of the sweep --out CSV at N = 100003 with caps 5,5,5 (Estar with
# --lambda alternating --l3 1), taken when odd-N sweeps moved to the
# spectral contraction.  The bytes follow numpy's and OpenBLAS's float
# kernels, so an upgrade of either may call for new hashes.
PINNED_SWEEP_SHA256 = {
    "E": "32828b2f329d811d6d3ce2362cae239ac959765a4aec1fafb0feab7aa1cff863",
    "Estar": "7e121d0f933f6a701a1b1ae38390c8debfe2c954d9f572054309ff6020dcf970",
}


def run_cli(*args, env=None, timeout=300):
    cmd = [sys.executable, "-m", "goldbach3", *[str(a) for a in args]]
    return subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=timeout)


def strict_json(text):
    """json.loads that refuses NaN, Infinity and -Infinity (RFC 8259)."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def main_captured(argv):
    """(exit code, stdout, stderr) of an in-process run; argparse refusals exit too."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def readme_commands():
    """The commands of the README's command-line block, without the program name."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.strip()]


class TestExitCodes:
    def test_success(self):
        assert run_cli("count", 9, 1, 0, 1, 0, 1, 0, "--method=direct").returncode == 0

    def test_validation_error(self):
        r = run_cli("count", 9, 2, 0, 1, 0, 1, 0)
        assert r.returncode == 2
        assert "not primitive" in r.stderr

    def test_limit_is_a_sieve_flag_only(self):
        r = run_cli("count", 5000, 1, 0, 1, 0, 1, 0, "--limit", 600)
        assert r.returncode == 2
        assert "unrecognized arguments: --limit 600" in r.stderr

    def test_table_limit_env_is_not_read(self):
        # every command sieves to the largest N it reads
        r = run_cli("count", 5000, 1, 0, 1, 0, 1, 0,
                    env=dict(os.environ, GOLDBACH_TABLE_LIMIT="100"))
        assert r.returncode == 0, r.stderr

    @pytest.mark.parametrize("args, code", [
        (("count", 2 * 10**8 + 1, 1, 0, 1, 0, 1, 0, "--method", "direct"), 2),
        (("sweep", "--N", 2 * 10**8 + 1, "--H1", 1000, "--H2", 1000, "--H3", 1000), 4),
    ])
    def test_refused_before_sieving(self, args, code):
        # sieving to 2 * 10^8 alone takes seconds
        t0 = time.perf_counter()
        r = run_cli(*args)
        assert r.returncode == code, r.stderr
        assert "Traceback" not in r.stderr
        assert time.perf_counter() - t0 < 2.0

    @pytest.mark.parametrize("args", [
        ("singular", 101, 1, 0, 1, 0, 10**40 + 1, 1),
        ("count", 101, 1, 0, 1, 0, 10**400, 1),
        ("delta", "101,103", 10**12 + 1, 1, 1, 0, 1, 0),
    ])
    def test_oversized_modulus_exits_2(self, args):
        # trial division of a 41-digit k would run for minutes
        t0 = time.perf_counter()
        r = run_cli(*args, timeout=60)
        assert r.returncode == 2, r.stderr
        assert "got k=" in r.stderr and "Traceback" not in r.stderr
        assert time.perf_counter() - t0 < 5.0

    @pytest.mark.parametrize("argv", [
        ["expsum", "100", "--mode", "K", "--kmax", str(10**12)],
        ["expsum", "100", "--mode", "K", "--kmax", str(10**400)],
        ["arcs", "1000", "--Q", "3", "--stats", "--kmax", str(10**12)],
    ])
    def test_oversized_kmax_exits_2(self, argv):
        rc, _, err = main_captured(argv)
        assert rc == 2 and "k_max" in err and "Traceback" not in err, err

    def test_budget_refusal(self):
        r = run_cli(
            "sweep", "--N", 501, "--H1", 50, "--H2", 50, "--H3", 50, "--budget", 10
        )
        assert r.returncode == 4
        assert "cells" in r.stderr

    @pytest.mark.parametrize("args", [
        ("--H1", 10**6, "--H2", 1, "--H3", 1),
        ("--mode", "Estar", "--H1", 1, "--H2", 1, "--H3", 10**7, "--lambda", "unit"),
    ])
    def test_budget_refused_in_time_bounded_by_the_budget(self, args):
        # counting stops at the budget, and no weights are built before
        t0 = time.perf_counter()
        r = run_cli("sweep", "--N", 1001, *args)
        assert r.returncode == 4, r.stderr
        assert time.perf_counter() - t0 < 2.0

    def test_arc_overlap(self):
        assert run_cli("arcs", 1000, "--Q", 5, "--tau", 49).returncode == 5

    def test_oversized_dissection_refused_before_building(self):
        # about 3 * 10^7 arcs pass tau > 2Q^2; building them would take minutes
        t0 = time.perf_counter()
        r = run_cli("arcs", 10, "--Q", 10000, "--tau", 200000001)
        assert r.returncode == 2, r.stderr
        assert "MAX_ARCS" in r.stderr and "Traceback" not in r.stderr
        assert time.perf_counter() - t0 < 2.0

    @pytest.mark.parametrize("Q", [0, -2])
    def test_arcs_q_below_one_exits_2(self, Q):
        # the default tau = N/Q used to divide by zero at Q = 0
        rc, _, err = main_captured(["arcs", "100", f"--Q={Q}"])
        assert rc == 2 and "Q must be >= 1" in err, err

    def test_consistency_error(self, monkeypatch, capsys):
        def drifted(*args, **kwargs):
            raise ConsistencyError("grid count drifted 1.0e-01 from integrality")

        monkeypatch.setattr(cli, "grid_count", drifted)
        assert cli.main(["count", "101", "1", "0", "1", "0", "1", "0", "--method", "grid"]) == 6
        err = capsys.readouterr().err
        assert "error: grid count drifted" in err
        assert "Traceback" not in err

    def test_convolution_drift_exits_6(self, monkeypatch):
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda *args, **kw: irfft(*args, **kw) + 0.25)
        rc, out, err = main_captured(["count", "101", "1", "0", "1", "0", "1", "0"])
        assert rc == 6 and out == "", out
        assert "error: convolution count at N=101 drifted" in err and "Traceback" not in err, err

    def test_memory_error_exits_4(self, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.45 GiB for an array")

        monkeypatch.setattr(cli, "count_convolution", exhausted)
        rc, out, err = main_captured(["count", "101", "1", "0", "1", "0", "1", "0"])
        assert rc == 4 and out == "", out
        assert "error: Unable to allocate" in err and "Traceback" not in err, err

    @pytest.mark.parametrize("argv", [
        ["sieve", "--limit", "100"],
        ["count", "101", "1", "0", "1", "0", "1", "0"],
        ["singular", "101", "1", "0", "1", "0", "1", "0", "--qmax", "10", "--pmax", "10"],
        ["delta", "101,103", "1", "0", "1", "0", "1", "0", "--qmax", "10", "--pmax", "10"],
        ["sweep", "--N", "501", "--H1", "2", "--H2", "2", "--H3", "2"],
        ["arcs", "1000", "--Q", "3"],
        ["expsum", "100"],
        ["selftest"],
    ])
    def test_unwritable_out_exits_2_before_stdout(self, argv, tmp_path):
        rc, out, err = main_captured([*argv, "--out", str(tmp_path / "missing" / "out.csv")])
        assert rc == 2 and out == "", out
        assert err.startswith("error:") and "Traceback" not in err, err

    @pytest.mark.parametrize("argv", [
        ["singular", str(10**200), "1", "0", "1", "0", "1", "0"],  # N^2 in the main term
        ["arcs", str(10**400), "--Q", "1"],  # the default tau = N/Q
    ])
    def test_too_large_for_a_float_exits_2(self, argv):
        rc, out, err = main_captured(argv)
        assert rc == 2 and out == "", out
        assert err.startswith("error:") and "Traceback" not in err, err

    @pytest.mark.parametrize("args", [
        ("arcs", 100, "--Q", 3, "--tau", "nan"),
        ("arcs", 100, "--Q", 3, "--tau", "inf"),
        ("expsum", 50, "--mode", "S", "--alpha", "inf"),
        ("expsum", 50, "--mode", "K", "--alpha", "nan"),
        ("expsum", "--mode", "kernel", "--H", "inf"),
        ("expsum", "--mode", "J", "--n", 6, "--k", 3, "--H", "nan"),
    ])
    def test_non_finite_floats(self, args):
        r = run_cli(*args)
        assert r.returncode == 2, r.stdout
        assert "finite" in r.stderr and "Traceback" not in r.stderr


KERNEL_HEIGHTS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -3.0, 1.0, 1.25, 1.5, 1.99, 2.0]),
    st.floats(1.0, 300.0),
)
KERNEL_INTS = st.one_of(st.sampled_from([0, -1, 10**12, -(10**12)]), st.integers(-60, 60))


FUZZ_TARGETS = st.one_of(st.integers(6, 12), st.integers(6, 3000), st.integers(-2, 5))
FUZZ_PROGRESSIONS = st.one_of(
    # with 2 | k, with 3 | k, and ones that contain the prime 2 or 3
    st.sampled_from([(1, 0), (2, 1), (4, 3), (3, 1), (3, 2), (6, 1), (6, 5), (9, 4),
                     (12, 7), (5, 2), (5, 3), (7, 3)]),
    # moduli past arith.MAX_MODULUS, refused with exit 2
    st.sampled_from([(10**12 + 1, 1), (10**400, 1)]),
    st.tuples(st.integers(1, 12), st.integers(-1, 12)),  # may not be primitive
)


class TestCountDeltaFuzz:
    @settings(max_examples=40, deadline=None)
    @given(command=st.sampled_from(["count", "delta"]),
           targets=st.lists(FUZZ_TARGETS, min_size=1, max_size=4),
           progs=st.lists(FUZZ_PROGRESSIONS, min_size=3, max_size=3))
    def test_fuzz_ends_in_finite_result_or_documented_exit(self, command, targets, progs):
        N = ",".join(map(str, targets)) if command == "delta" else str(targets[0])
        argv = [command, N, *[str(x) for prog in progs for x in prog], "--format=json"]
        if command == "delta":
            argv += ["--qmax", "50", "--pmax", "50"]
        rc, out, err = main_captured(argv)
        assert rc in (0, 2, 3, 6), err
        assert "Traceback" not in err
        if rc:
            return
        outputs = strict_json(out)["outputs"]
        for row in outputs.get("rows", [outputs]):
            for key, value in row.items():
                if key == "abs_ratio":
                    assert (value is None) == (row["M"] == 0.0), row
                elif isinstance(value, float):
                    assert math.isfinite(value), (key, row)


FUZZ_N = st.one_of(st.integers(6, 10**4), st.sampled_from([-5, 0, 5, 6, 7, 100, 101]))
# targets whose square, or whose quotient by Q, is too large for a float
HUGE_N = st.sampled_from([10**200, 10**400])
FUZZ_CAPS = st.tuples(*[st.integers(1, 4)] * 3)
FUZZ_LAMBDAS = st.sampled_from(["unit", "alternating", "zero", "single:1", "single:3"])
# each appended flag overrides the valid one drawn before it (argparse keeps the last)
SWEEP_FAULTS = st.sampled_from([
    "--H1=0", "--H2=-1", "--H3=-2", "--pmax=0", "--pmax=1", "--pmax=-1",
    "--l3=-1", "--l3=0", "--l3=6", "--lambda=single:0", "--lambda=single:99",
    "--lambda=single:x", "--lambda=no-such-file.txt", "--budget=0", "--budget=3",
])
ARCS_FAULTS = st.sampled_from([
    "--Q=0", "--Q=-2", "--tau=nan", "--tau=inf", "--tau=-inf", "--tau=-1", "--tau=0",
    "--kmax=0", "--kmax=-1", "--l3=-1", "--l3=0", "--l3=6", "--lambda=single:0",
    "--lambda=single:99", "--lambda=junk", "--T=-3", "--T=0", "--T=100",
])


def _assert_finite_strict(out):
    """The envelope parses strictly and every float in its outputs is finite."""
    def floats(value):
        if isinstance(value, float):
            yield value
        elif isinstance(value, dict):
            for item in value.values():
                yield from floats(item)
        elif isinstance(value, list):
            for item in value:
                yield from floats(item)

    outputs = strict_json(out)["outputs"]
    assert all(math.isfinite(x) for x in floats(outputs)), outputs


class TestSweepArcsFuzz:
    """Small valid sweeps and dissections, each with up to two faulty flags."""

    @settings(max_examples=40, deadline=None)
    @given(mode=st.sampled_from(["E", "Estar"]), N=FUZZ_N, caps=FUZZ_CAPS,
           lam=st.one_of(FUZZ_LAMBDAS, st.none()), l3=st.sampled_from([1, 2, 3, 5]),
           pmax=st.sampled_from([2, 13, 50, 300]), threads=st.sampled_from([1, 2]),
           faults=st.lists(SWEEP_FAULTS, max_size=2))
    def test_sweep_ends_in_finite_result_or_documented_exit(self, mode, N, caps, lam, l3, pmax,
                                                            threads, faults):
        argv = ["sweep", f"--mode={mode}", f"--N={N}",
                *[f"--H{i}={cap}" for i, cap in enumerate(caps, 1)], f"--l3={l3}",
                f"--pmax={pmax}", "--budget=1000", f"--threads={threads}", "--format=json"]
        argv += [] if lam is None else [f"--lambda={lam}"]
        rc, out, err = main_captured(argv + faults)
        assert rc in (0, 2, 3, 4, 5, 6), err
        assert "Traceback" not in err
        if rc == 0:
            _assert_finite_strict(out)

    @settings(max_examples=40, deadline=None)
    @given(N=st.one_of(FUZZ_N, HUGE_N), Q=st.integers(1, 30),
           tau=st.one_of(st.none(), st.floats(1, 10**5)), stats=st.booleans(),
           lam=FUZZ_LAMBDAS, kmax=st.integers(3, 4), l3=st.sampled_from([1, 2, 3]),
           T=st.one_of(st.none(), st.integers(2 * 10**4 + 1, 10**5)),
           faults=st.lists(ARCS_FAULTS, max_size=2))
    def test_arcs_ends_in_finite_result_or_documented_exit(self, N, Q, tau, stats, lam, kmax,
                                                           l3, T, faults):
        argv = ["arcs", str(N), f"--Q={Q}", f"--lambda={lam}", f"--kmax={kmax}", f"--l3={l3}",
                "--threads=2", "--format=json"]
        argv += [] if tau is None else [f"--tau={tau}"]
        argv += ["--stats"] if stats else []
        argv += [] if T is None else [f"--T={T}"]
        rc, out, err = main_captured(argv + faults)
        assert rc in (0, 2, 3, 4, 5, 6), err
        assert "Traceback" not in err
        if rc == 0:
            _assert_finite_strict(out)


TRUNCATIONS = st.one_of(
    st.sampled_from([-(10**12), -1, 0, 1, 2, MAX_TRUNCATION + 1, 10**9, 10**18]),
    st.integers(-3, 300),
)
# limits that run stay at or below 10^6; the others are refused before
# anything is allocated.  Never a limit from 10^7 up to MAX_SIEVE_LIMIT,
# which would build a table of one byte per integer for real.
SIEVE_LIMITS = st.one_of(
    st.integers(-10, 10**6),
    st.sampled_from([-(2**31), MAX_SIEVE_LIMIT + 1, 2**40, 10**19]),
)


class TestSingularSieveFuzz:
    @settings(max_examples=40, deadline=None)
    @given(N=st.one_of(FUZZ_TARGETS, HUGE_N),
           progs=st.lists(FUZZ_PROGRESSIONS, min_size=3, max_size=3),
           qmax=TRUNCATIONS, pmax=TRUNCATIONS)
    def test_singular_ends_in_finite_result_or_documented_exit(self, N, progs, qmax, pmax):
        argv = ["singular", str(N), *[str(x) for prog in progs for x in prog],
                f"--qmax={qmax}", f"--pmax={pmax}", "--format=json"]
        rc, out, err = main_captured(argv)
        assert rc in (0, 2, 3, 6), err
        assert "Traceback" not in err
        if rc == 0:
            outputs = strict_json(out)["outputs"]
            assert all(math.isfinite(value) for value in outputs.values()), outputs

    @settings(max_examples=40, deadline=None)
    @given(limit=SIEVE_LIMITS)
    def test_sieve_ends_in_result_or_exit_2(self, limit):
        rc, out, err = main_captured(["sieve", f"--limit={limit}", "--format=json"])
        assert rc in (0, 2), err
        assert "Traceback" not in err
        if rc == 0:
            assert strict_json(out)["outputs"]["limit"] == limit <= 10**6


class TestStrictJson:
    ARGS = ["delta", "10,12,9", "1", "0", "1", "0", "1", "0", "--qmax", "50", "--pmax", "50"]

    def test_ratio_to_vanishing_main_term_is_null(self, tmp_path):
        out = tmp_path / "delta.json"
        rc, stdout, err = main_captured([*self.ARGS, "--format", "json", "--out", str(out)])
        assert rc == 0, err
        rows = strict_json(stdout)["outputs"]["rows"]
        assert [row["abs_ratio"] is None for row in rows] == [True, True, False]
        assert strict_json(out.read_text())["rows"] == rows
        for fmt in ("plain", "csv"):  # these keep inf
            rc, stdout, err = main_captured([*self.ARGS, "--format", fmt])
            assert rc == 0 and stdout.count("inf") == 2, err

    @pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: " ".join(argv[:3]))
    def test_readme_commands(self, argv, tmp_path):
        argv, out = list(argv), None
        if "--out" in argv:
            i = argv.index("--out") + 1
            argv[i] = out = tmp_path / argv[i]
        rc, stdout, err = main_captured([*map(str, argv), "--format=json"])
        assert rc == 0, err
        validate_cli_report(strict_json(stdout))
        if out:
            strict_json(out.read_text())


class TestTruncationBound:
    @pytest.fixture
    def no_large_sieve(self, monkeypatch):
        sieve = singular.sieve_primes

        def guarded(limit):
            assert limit <= MAX_TRUNCATION, f"sieve_primes({limit}) was called"
            return sieve(limit)

        monkeypatch.setattr(singular, "sieve_primes", guarded)

    def test_refused_before_sieving(self, no_large_sieve):
        with pytest.raises(ValueError, match="q_max"):
            singular_series_qsum(triple(101, 1, 0, 1, 0, 1, 0), MAX_TRUNCATION + 1)
        with pytest.raises(ValueError, match="p_max"):
            SingularSeriesCache(101, MAX_TRUNCATION + 1)

    @pytest.mark.parametrize("argv", [
        ["singular", "101", "1", "0", "1", "0", "1", "0", "--qmax", "1000000000"],
        ["singular", "101", "1", "0", "1", "0", "1", "0", "--pmax", "1000000000"],
        ["delta", "101", "1", "0", "1", "0", "1", "0", "--qmax", "1000001"],
        ["delta", "101,103", "1", "0", "1", "0", "1", "0", "--pmax", "1000001"],
        ["sweep", "--N", "101", "--H1", "1", "--H2", "1", "--H3", "1", "--pmax", "1000001"],
    ])
    def test_cli_exits_2(self, argv, no_large_sieve):
        rc, _, err = main_captured(argv)
        assert rc == 2 and "must be in" in err, err


class TestRefusedBeforeSieve:
    """Each command checks its inputs before it sieves: the sieve is patched
    to fail the test if it is reached."""

    @pytest.fixture
    def no_sieve(self, monkeypatch):
        def refused(limit):
            raise AssertionError(f"sieve_primes({limit}) was called")

        monkeypatch.setattr(cli, "sieve_primes", refused)

    @pytest.mark.parametrize("argv, message", [
        (["10000001", "1", "0", "1", "0", "1", "0", "--pmax", "1"], "p_max must be in"),
        (["10000001", "1", "0", "1", "0", "1", "0", "--qmax", "0"], "q_max must be in"),
        (["5,10000001", "1", "0", "1", "0", "1", "0"], "N must be >= 6"),
    ])
    def test_delta(self, argv, message, no_sieve):
        rc, _, err = main_captured(["delta", *argv])
        assert rc == 2 and message in err, err

    def test_sweep(self, no_sieve):
        rc, _, err = main_captured(["sweep", "--N", "10000001", "--H1", "1", "--H2", "1",
                                    "--H3", "1", "--pmax", "1"])
        assert rc == 2 and "p_max must be in" in err, err

    @pytest.mark.parametrize("argv, message", [
        (["--mode", "S", "--alpha", "nan"], "alpha must be finite"),
        (["--mode", "S", "--k", "0"], "got k=0"),
        (["--mode", "K", "--alpha", "inf"], "alpha must be finite"),
    ])
    def test_expsum(self, argv, message, no_sieve):
        rc, _, err = main_captured(["expsum", "100000000", *argv])
        assert rc == 2 and message in err, err

    def test_count_grid(self, no_sieve):
        # 2N + 1 passes MAX_GRID while N stays below MAX_SIEVE_LIMIT
        N = 1_518_500_250
        assert N < MAX_SIEVE_LIMIT
        rc, _, err = main_captured(["count", str(N), "1", "0", "1", "0", "1", "0",
                                    "--method", "grid"])
        assert rc == 2 and "exceeds the largest supported grid" in err, err


class TestKernelModes:
    def test_low_height_J_matches_prediction(self, capsys):
        assert cli.main(["expsum", "--mode", "J", "--n", "0", "--k", "1", "--H", "1.5",
                         "--format=json"]) == 0
        assert json.loads(capsys.readouterr().out)["outputs"]["abs_error"] < 1e-12

    @pytest.mark.parametrize("H", ["1e14", "1e20"])
    def test_huge_height_J_matches_prediction(self, H, capsys):
        assert cli.main(["expsum", "--mode", "J", "--n", "0", "--k", "1", "--H", H,
                         "--format=json"]) == 0
        out = json.loads(capsys.readouterr().out)["outputs"]
        assert out["abs_error"] <= 1e-9 * out["predicted"]

    @pytest.mark.parametrize("args", [
        ("--mode", "kernel", "--hmax", 10**12),
        ("--mode", "kernel", "--H", 1e12),
        ("--mode", "J", "--n", 10**12),
        ("--mode", "J", "--k", 10**12),
    ])
    def test_oversized_requests_exit_2(self, args, capsys):
        assert cli.main(["expsum", *map(str, args)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @settings(max_examples=60, deadline=None)
    @given(mode=st.sampled_from(["kernel", "J"]), H=KERNEL_HEIGHTS,
           hmax=st.one_of(st.none(), KERNEL_INTS), n=KERNEL_INTS, k=KERNEL_INTS)
    def test_fuzz_ends_in_result_or_exit_2(self, mode, H, hmax, n, k):
        argv = ["expsum", f"--mode={mode}", f"--H={H}", f"--n={n}", f"--k={k}"]
        if hmax is not None:
            argv.append(f"--hmax={hmax}")
        rc, _, err = main_captured(argv)
        assert rc in (0, 2), err
        assert "Traceback" not in err


class TestParser:
    def test_built_once_and_reused_without_carry_over(self, capsys):
        assert cli.build_parser() is cli.build_parser()
        seen = []
        for extra in (["--qmax", "50", "--pmax", "60"], []):
            assert cli.main(["singular", "101", "1", "0", "1", "0", "1", "0",
                             "--format=json", *extra]) == 0
            inputs = json.loads(capsys.readouterr().out)["inputs"]
            seen.append((inputs["qmax"], inputs["pmax"]))
        assert seen == [(50, 60), (2000, 2000)]


class TestCount:
    def test_direct_example(self):
        r = run_cli("count", 9, 1, 0, 1, 0, 1, 0, "--method=direct", "--format=json")
        obj = json.loads(r.stdout)
        expected = math.log(3) ** 3 + 3 * math.log(2) ** 2 * math.log(5)
        assert obj["outputs"]["solutions"] == 4
        assert abs(obj["outputs"]["value"] - expected) < 1e-9

    def test_obstruction_noted(self):
        r = run_cli("count", 11, 3, 1, 3, 1, 3, 1)
        assert r.returncode == 0
        assert "no representations" in r.stdout

    def test_methods_agree(self):
        vals = {}
        for method in ("direct", "fft", "grid"):
            r = run_cli("count", 501, 3, 2, 4, 1, 1, 0, f"--method={method}", "--format=json")
            out = json.loads(r.stdout)["outputs"]
            vals[method] = (out["value"], out["solutions"])
        assert vals["direct"][1] == vals["fft"][1] == vals["grid"][1]
        assert vals["direct"][0] == pytest.approx(vals["fft"][0], rel=1e-9)
        assert vals["direct"][0] == pytest.approx(vals["grid"][0], rel=1e-9)


    def test_grid_count_near_1e6(self, table_big):
        # past 3e5 a float phase N t / T drifted the unit count past the guard
        r = run_cli("count", 987187, 1, 0, 1, 0, 1, 0, "--method", "grid", "--format=json")
        assert r.returncode == 0, r.stderr
        out = json.loads(r.stdout)["outputs"]
        ref = count_convolution(triple(987187, 1, 0, 1, 0, 1, 0), table_big)
        assert out["solutions"] == ref.solutions
        assert out["value"] == pytest.approx(ref.value, rel=1e-9)

    def test_empty_grid_count_is_exact_zero(self, capsys):
        # three odd primes never sum to an even target; the extracted float
        # alone has a rounding floor of a few 1e-6 at this size
        outs = {}
        for method in ("fft", "grid"):
            args = ["count", "170000", "2", "1", "2", "1", "2", "1", "--method", method,
                    "--format=json"]
            assert cli.main(args) == 0
            outs[method] = json.loads(capsys.readouterr().out)["outputs"]
        assert outs["grid"]["solutions"] == outs["fft"]["solutions"] == 0
        assert outs["grid"]["value"] == outs["fft"]["value"] == 0.0


class TestArcs:
    def test_stats_report_default_grid_length(self):
        r = run_cli("arcs", 1000, "--Q", 3, "--stats", "--format=json")
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout)["outputs"]["T"] == 2025  # first 5-smooth >= 2001

    def test_explicit_grid_length_honoured(self):
        r = run_cli("arcs", 1000, "--Q", 3, "--stats", "--T", 2001, "--format=json")
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout)["outputs"]["T"] == 2001
        assert run_cli("arcs", 1000, "--Q", 3, "--stats", "--T", 2000).returncode == 2


class TestSingular:
    def test_qmax_one(self):
        r = run_cli("singular", 100003, 1, 0, 1, 0, 1, 0, "--qmax", 1, "--pmax", 100,
                    "--format=json")
        out = json.loads(r.stdout)["outputs"]
        assert out["qsum"] == pytest.approx(1.0)

    def test_even_target_near_zero(self):
        r = run_cli("singular", 10000, 1, 0, 1, 0, 1, 0, "--qmax", 300, "--pmax", 300,
                    "--format=json")
        out = json.loads(r.stdout)["outputs"]
        assert abs(out["qsum"]) < 1e-3
        assert out["product"] == 0.0

    def test_routes_agree(self):
        r = run_cli("singular", 100003, 1, 0, 1, 0, 1, 0, "--qmax", 2000, "--pmax", 2000,
                    "--format=json")
        out = json.loads(r.stdout)["outputs"]
        assert out["abs_difference"] < 1e-3


class TestJsonSchema:
    @pytest.mark.parametrize(
        "args",
        [
            ("sieve", "--limit", 100),
            ("count", 101, 1, 0, 1, 0, 1, 0),
            ("singular", 101, 1, 0, 1, 0, 1, 0, "--qmax", 50, "--pmax", 50),
            ("delta", 101, 1, 0, 1, 0, 1, 0, "--qmax", 50, "--pmax", 50),
            ("sweep", "--N", 101, "--H1", 1, "--H2", 1, "--H3", 1, "--pmax", 50),
            ("arcs", 101, "--Q", 2),
            ("expsum", 101, "--mode", "S", "--alpha", 0.25),
            ("selftest",),
        ],
    )
    def test_every_subcommand_emits_valid_report(self, args):
        r = run_cli(*args, "--format=json")
        assert r.returncode == 0, r.stderr
        obj = json.loads(r.stdout)
        validate_cli_report(obj)
        assert obj["command"] == args[0]


class TestDelta:
    def test_rows_carry_qsum_cross_check(self):
        progs = (3, 1, 4, 3, 5, 2)
        qsums = []
        for qmax in (50, 2000):
            r = run_cli("delta", "100003,100005", *progs, "--qmax", qmax, "--format=json")
            assert r.returncode == 0, r.stderr
            rows = json.loads(r.stdout)["outputs"]["rows"]
            for row in rows:
                assert list(row) == ["N", "R", "M", "delta", "abs_ratio", "qsum",
                                     "abs_difference"]
                inst = triple(row["N"], *progs)
                qs = singular_series_qsum(inst, qmax).value
                assert row["qsum"] == qs
                assert row["abs_difference"] == abs(qs - singular_series_product(inst).value)
            qsums.append([row["qsum"] for row in rows])
        assert qsums[0] != qsums[1]  # --qmax is live


class TestCsv:
    def test_header_always_present(self):
        r = run_cli("delta", "101,103", 1, 0, 1, 0, 1, 0, "--qmax", 50, "--pmax", 50,
                    "--format=csv")
        lines = r.stdout.splitlines()
        assert lines[0] == "N,R,M,delta,abs_ratio,qsum,abs_difference"
        assert len(lines) == 3

    def test_quoting_is_rfc4180(self):
        cmd = [sys.executable, "-m", "goldbach3", "sieve", "--limit", "50", "--format=csv"]
        raw = subprocess.run(cmd, capture_output=True, timeout=60).stdout
        assert raw.split(b"\r\n")[0] == b"limit,prime_count,theta,largest_prime"
        assert b"\r\n" in raw


class TestSweepFiles:
    def test_rerun_is_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("sweep", "--N", 501, "--H1", 2, "--H2", 2, "--H3", 2, "--pmax", 100,
                "--threads", 1)
        assert run_cli(*args, "--out", out1).returncode == 0
        assert run_cli(*args, "--out", out2).returncode == 0
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_bytes().split(b"\r\n")[0].decode()
        assert header == "k1,k2,k3,l1,l2,l3,R,M,delta,delta_scaled"

    def test_json_report_file(self, tmp_path):
        out = tmp_path / "report.json"
        r = run_cli("sweep", "--N", 501, "--H1", 1, "--H2", 1, "--H3", 2, "--pmax", 100,
                    "--format=json", "--out", out)
        assert r.returncode == 0
        payload = json.loads(out.read_text())
        assert payload["mode"] == "E"
        assert payload["columns"] == ["k1", "k2", "k3", "l1", "l2", "l3",
                                      "R", "M", "delta", "delta_scaled"]
        assert payload["metadata"] == {"N": 501, "mode": "E", "caps": [1, 1, 2], "p_max": 100,
                                       "budget": 10**6, "estimated_cells": 2}
        stdout_obj = json.loads(r.stdout)
        assert stdout_obj["outputs"]["aggregate"] == payload["aggregate"]

    @pytest.mark.parametrize("mode", ["E", "Estar"])
    def test_out_bytes_identical_across_threads(self, tmp_path, mode):
        args = ["sweep", "--mode", mode, "--N", 100003, "--H1", 5, "--H2", 5, "--H3", 5]
        if mode == "Estar":
            args += ["--lambda", "alternating", "--l3", 1]
        blobs = []
        for threads in (1, 2):
            out = tmp_path / f"{mode}_{threads}.csv"
            r = run_cli(*args, "--threads", threads, "--out", out)
            assert r.returncode == 0, r.stderr
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
        assert blobs[0].count(b"\r\n") == 1 + (125 if mode == "E" else 25)

    @pytest.mark.parametrize("mode", ["E", "Estar"])
    def test_out_bytes_pinned(self, tmp_path, mode):
        out = tmp_path / f"{mode}.csv"
        args = ["sweep", "--mode", mode, "--N", 100003, "--H1", 5, "--H2", 5, "--H3", 5]
        if mode == "Estar":
            args += ["--lambda", "alternating", "--l3", 1]
        r = run_cli(*args, "--out", out)
        assert r.returncode == 0, r.stderr
        assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_SWEEP_SHA256[mode]

    def test_estar_with_lambda_file(self, tmp_path):
        lam = tmp_path / "lam.txt"
        lam.write_text("1 1.0\n2 -1.0\n3 0.5\n")
        out = tmp_path / "estar.csv"
        r = run_cli("sweep", "--mode", "Estar", "--N", 501, "--H1", 2, "--H2", 2,
                    "--H3", 3, "--lambda", lam, "--l3", 1, "--pmax", 100, "--out", out)
        assert r.returncode == 0, r.stderr
        header = out.read_bytes().split(b"\r\n")[0].decode()
        assert header == "k1,k2,l1,l2,R_sum,M_sum,delta_sum,delta_scaled"


class TestBlasThreads:
    def test_outputs_do_not_depend_on_blas_threads(self, tmp_path):
        # the count's gather over 78k primes and the even-N sweep's gather
        # sum long dot products, which a BLAS library may split over threads
        # point sums S(alpha) and K(alpha) over 26k primes likewise
        counts, sweeps, sums = [], [], []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            r = run_cli("count", 1000001, 1, 0, 1, 0, 1, 0, "--format=json", env=env)
            assert r.returncode == 0, r.stderr
            counts.append(json.loads(r.stdout)["outputs"])
            for mode in ("S", "K"):
                r = run_cli("expsum", 300000, "--mode", mode, "--alpha", 0.1234567,
                            "--format=json", env=env)
                assert r.returncode == 0, r.stderr
                sums.append(json.loads(r.stdout)["outputs"])
            out = tmp_path / f"E_{threads}.csv"
            r = run_cli("sweep", "--mode", "E", "--N", 300004, "--H1", 2, "--H2", 2,
                        "--H3", 2, "--threads", 1, "--out", out, env=env)
            assert r.returncode == 0, r.stderr
            sweeps.append(out.read_bytes())
        assert counts[0] == counts[1]
        assert sweeps[0] == sweeps[1]
        assert sums[:2] == sums[2:]


class TestClosedStdout:
    def test_closed_pipe_exits_with_code_and_no_traceback(self, tmp_path):
        out = tmp_path / "count.json"
        cmd = [sys.executable, "-m", "goldbach3", "count", "100003", "1", "0", "1", "0",
               "1", "0", "--format", "json", "--out", str(out)]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()  # the reader is gone before anything is written
        try:
            stderr = proc.communicate(timeout=300)[1].decode()
        finally:
            proc.kill()
        assert proc.returncode == cli.EXIT_STDOUT_CLOSED == 7
        assert "Traceback" not in stderr and "Exception ignored" not in stderr
        # the --out file is written all the same
        assert strict_json(out.read_text())["solutions"] > 0


class TestExpsumModes:
    def test_S_at_zero_is_theta(self):
        r = run_cli("expsum", 100, "--mode", "S", "--alpha", 0, "--format=json")
        out = json.loads(r.stdout)["outputs"]
        assert out["imag"] == pytest.approx(0.0, abs=1e-12)
        assert out["real"] > 0

    @pytest.mark.parametrize("mode", ["S", "K"])
    def test_huge_alpha_is_finite_strict_json(self, mode):
        # alpha = 1e308 is an integer: the sum is its value at 0, not NaN
        r = run_cli("expsum", 100, "--mode", mode, "--alpha", "1e308", "--format=json")
        assert r.returncode == 0, r.stderr
        out = strict_json(r.stdout)["outputs"]
        assert out["imag"] == 0.0 and out["abs"] == out["real"] > 0

    def test_kernel_rows(self):
        r = run_cli("expsum", "--mode", "kernel", "--H", 10, "--hmax", 5, "--format=json")
        out = json.loads(r.stdout)["outputs"]
        assert out["envelope_ok"] is True
        assert len(out["rows"]) == 6
        assert out["c0"] == pytest.approx(2 + 2 * math.log(5.0), abs=1e-9)

    def test_J_mode_reports_prediction(self):
        r = run_cli("expsum", "--mode", "J", "--n", 6, "--k", 3, "--H", 10, "--format=json")
        out = json.loads(r.stdout)["outputs"]
        assert out["abs_error"] < 1e-6

    def test_pairs_mode_is_gone(self):
        rc, _, err = main_captured(["expsum", "10", "--mode", "pairs"])
        assert rc == 2 and "invalid choice: 'pairs'" in err, err


class TestSelftest:
    def test_other_commands_refuse_seed(self):
        argv = ["sweep", "--N", "501", "--H1", "2", "--H2", "2", "--H3", "2", "--seed", "7"]
        rc, _, err = main_captured(argv)
        assert rc == 2 and "unrecognized arguments: --seed 7" in err, err

    def test_passes_and_exits_zero(self):
        r = run_cli("selftest", "--seed", 3)
        assert r.returncode == 0
        assert "count-paths-agree" in r.stdout
        assert "check=local-density-closed-forms  ok=True" in r.stdout
