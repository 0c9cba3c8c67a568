"""Report serialization: RFC-4180-style CSV, canonical JSON, schema checks.

Report files must be byte-identical across reruns of the same
configuration, so serialization here is fully deterministic: fixed key
order, shortest round-trip float formatting, and no volatile fields
(timing lives only in the stdout envelope, never in a payload).
"""

from __future__ import annotations

import csv
import io
import json
from typing import Sequence

from .sweeps import EstarRow, SweepRow

__all__ = [
    "E_CSV_COLUMNS",
    "ESTAR_CSV_COLUMNS",
    "rows_to_csv_bytes",
    "sweep_report_payload",
    "serialize_sweep_report",
    "validate_cli_report",
]

E_CSV_COLUMNS = SweepRow._fields
ESTAR_CSV_COLUMNS = EstarRow._fields


def _fmt(value) -> str:
    # repr() floats round-trip exactly and identically across runs
    return repr(value) if isinstance(value, float) else str(value)


def rows_to_csv_bytes(columns: Sequence[str], rows: Sequence[Sequence]) -> bytes:
    """CSV with a header row, minimal RFC-4180 quoting, CRLF line ends."""
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL)
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue().encode("utf-8")


def sweep_report_payload(report) -> dict:
    """The deterministic dict form of a SweepReport (no timing)."""
    return {
        "mode": report.mode,
        "N": report.N,
        "caps": list(report.caps),
        "aggregate": report.aggregate,
        "columns": list(E_CSV_COLUMNS if report.mode == "E" else ESTAR_CSV_COLUMNS),
        "rows": [list(row) for row in report.rows],
        "metadata": report.metadata,
    }


def serialize_sweep_report(report, fmt: str) -> bytes:
    """Bytes to write for --out: CSV rows or the JSON payload object."""
    payload = sweep_report_payload(report)
    if fmt == "csv":
        return rows_to_csv_bytes(payload["columns"], report.rows)
    if fmt == "json":
        return (json.dumps(payload, indent=2) + "\n").encode("utf-8")
    raise ValueError(f"unknown report format {fmt!r}")


REPORT_KEYS = {"command", "inputs", "outputs", "timing", "versions"}
VERSION_KEYS = {"goldbach3", "numpy", "python"}


def validate_cli_report(obj) -> None:
    """Structural check of a CLI JSON report; raises ValueError on violation."""
    if not isinstance(obj, dict):
        raise ValueError("report must be a JSON object")
    if set(obj) != REPORT_KEYS:
        raise ValueError(f"report keys {sorted(obj)} != {sorted(REPORT_KEYS)}")
    if not isinstance(obj["command"], str) or not obj["command"]:
        raise ValueError("command must be a nonempty string")
    for key in ("inputs", "outputs", "timing", "versions"):
        if not isinstance(obj[key], dict):
            raise ValueError(f"{key} must be an object")
    seconds = obj["timing"].get("seconds")
    if not isinstance(seconds, (int, float)) or seconds < 0:
        raise ValueError("timing.seconds must be a nonnegative number")
    faults = obj["timing"].get("minor_faults", 0)
    if type(faults) is not int or faults < 0:
        raise ValueError("timing.minor_faults must be a nonnegative integer")
    missing = VERSION_KEYS - set(obj["versions"])
    if missing:
        raise ValueError(f"versions missing {sorted(missing)}")
    for key in VERSION_KEYS:
        if not isinstance(obj["versions"][key], str):
            raise ValueError(f"versions.{key} must be a string")
