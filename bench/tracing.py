"""Per-module spans recorded from outside the program.

The traced pass replaces public functions of the goldbach3 modules with
timing wrappers.  A function is found by its module attribute and then
replaced under every name any goldbach3 module binds it to, so calls that
went through ``from .x import f`` are timed too.  Small helpers called for
every sweep cell (euler_phi, factorize, triple, main_term) stay
unwrapped: their wrappers would cost about as much as they do.

Self time is a span's duration minus the time its wrapped children cover.
A function a later change removes is skipped, and its metrics are absent.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

from workloads import sweep_cells

# (module, attribute) pairs; "Class.method" names wrap a method in place
TRACED = (
    ("arith", "sieve_primes"),
    ("repcount", "count_convolution"),
    ("singular", "singular_series_qsum"),
    ("singular", "singular_series_product"),
    ("singular", "local_density_factor"),
    ("singular", "SingularSeriesCache.__init__"),
    ("singular", "SingularSeriesCache.series"),
    ("expsum", "eval_K_grid"),
    ("expsum", "eval_S_grid"),
    ("expsum", "weight_coefficients"),
    ("expsum", "coefficient_extract"),
    ("expsum", "coefficient_extract_count"),
    ("arcs", "build_partition"),
    ("arcs", "classify_grid"),
    ("arcs", "minor_statistics"),
    ("sweeps", "delta"),
    ("sweeps", "sweep_E"),
    ("sweeps", "sweep_Estar"),
    ("reports", "serialize_sweep_report"),
    ("cli", "main"),
)


def span_name(module: str, attr: str) -> str:
    if module == "cli" and attr == "main":
        return "cli"
    return f"{module}.{attr.replace('.__init__', '.init')}"


def layer_metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in print order."""
    out = []
    for module, attr in TRACED:
        name = span_name(module, attr)
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [
        ("arith.spf_bytes", "B"),
        ("expsum.grid_points", "count"),
        ("sweeps.sweep_E.cells_per_s", "cells/s"),
        ("sweeps.sweep_Estar.cells_per_s", "cells/s"),
        ("reports.out_bytes", "B"),
        ("trace.overhead_pct", "%"),
    ]
    return out


class Tracer:
    """Span recorder; spans stay in memory until ``dump``.

    Traced passes run with ``--threads 1``, so every span nests on one
    stack in the calling thread.
    """

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self.installed: list[str] = []  # span names of the wrapped functions
        self._bindings = None
        self._stack: list[list] = []  # [time covered by children, span id]

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            sid = len(self.spans) + len(stack)  # spans started so far
            parent = stack[-1][1] if stack else None
            frame = [0.0, sid]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                self.spans.append((sid, parent, name, t0, t1))
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame[0]
                self.total_s[name] = self.total_s.get(name, 0.0) + dur
            if on_result is not None:
                try:
                    on_result(args, kwargs, result)
                except (AttributeError, TypeError, IndexError, KeyError):
                    pass  # a changed signature or result drops the counter only
            return result

        return traced

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def peak(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, 0.0), value)

    def install(self) -> None:
        """Put the wrappers in place; the first call builds them."""
        if self._bindings is None:
            self._bindings = self._bind()
        for holder, key, _, wrapper in self._bindings:
            setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, orig, _ in self._bindings or ():
            setattr(holder, key, orig)

    def _bind(self) -> list[tuple]:
        """(holder, attribute, original, wrapper) for every name to replace."""
        hooks = self._hooks()
        bindings = []
        for module, attr in TRACED:
            mod = importlib.import_module(f"goldbach3.{module}")
            owner, _, method = attr.rpartition(".")
            holder = getattr(mod, owner, None) if owner else mod
            orig = getattr(holder, method, None) if holder is not None else None
            if orig is None:
                continue
            name = span_name(module, attr)
            wrapper = self.wrap(name, orig, hooks.get(name))
            if owner:
                bindings.append((holder, method, orig, wrapper))
            else:
                bindings += [(m, key, orig, wrapper) for m, key in _names_bound_to(orig)]
            self.installed.append(name)
        return bindings

    def _hooks(self) -> dict:
        def sieve(args, kwargs, table):
            self.peak("arith.spf_bytes", table.spf.nbytes)

        def grid(args, kwargs, values):
            self.count("expsum.grid_points", len(values))

        def extract(args, kwargs, value):
            # the unit-weight route transforms three length-T indicators
            # inline; the weighted route's transforms are eval_S_grid calls
            if kwargs.get("unit_weights", False):
                T = kwargs.get("T") or 2 * args[0] + 1
                self.count("expsum.grid_points", 3 * T)

        def sweep(args, kwargs, report):
            cfg = args[0]
            self.count(f"cells.{cfg.mode}",
                       sweep_cells(cfg.mode, (cfg.H1, cfg.H2, cfg.H3), cfg.l3 or 1))

        def serialized(args, kwargs, data):
            self.count("reports.out_bytes", len(data))

        return {
            "arith.sieve_primes": sieve,
            "expsum.eval_K_grid": grid,
            "expsum.eval_S_grid": grid,
            "expsum.coefficient_extract": extract,
            "sweeps.sweep_E": sweep,
            "sweeps.sweep_Estar": sweep,
            "reports.serialize_sweep_report": serialized,
        }

    def metrics(self, overhead_pct: float) -> dict:
        out = {}
        installed = self.installed
        for name in installed:
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
        for key in ("arith.spf_bytes", "expsum.grid_points", "reports.out_bytes"):
            out[key] = self.counters.get(key, 0)
        for mode in ("E", "Estar"):
            name = f"sweeps.sweep_{mode}"
            if name in installed:
                busy = self.total_s.get(name, 0.0)
                cells = self.counters.get(f"cells.{mode}", 0)
                out[f"{name}.cells_per_s"] = cells / busy if busy else 0.0
        out["trace.overhead_pct"] = overhead_pct
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end"],
                       "spans": self.spans}, fh)


def _names_bound_to(obj) -> list[tuple]:
    """(module, name) pairs under which any goldbach3 module holds ``obj``."""
    out = []
    for modname, mod in list(sys.modules.items()):
        if modname == "goldbach3" or modname.startswith("goldbach3."):
            out += [(mod, key) for key, value in vars(mod).items() if value is obj]
    return out
