"""The package's import graph, read from the source with ``ast``.

Intra-package imports must form a DAG, every import must sit at module
level (so the graph read here is the whole graph), and a few layering
edges must stay absent.
"""

import argparse
import ast
import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest

from goldbach3 import cli
from goldbach3.arith import PrimeTable

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "goldbach3"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def _parse(name):
    return ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))


def _imported_modules(node):
    """Package modules an Import or ImportFrom node names ("__init__" for the package)."""
    if isinstance(node, ast.Import):
        return [alias.name.partition(".")[2].partition(".")[0] or "__init__"
                for alias in node.names if alias.name.partition(".")[0] == "goldbach3"]
    module = node.module or ""
    if not node.level:
        if module.partition(".")[0] != "goldbach3":
            return []
        module = module.partition(".")[2]
    if module:
        return [module.partition(".")[0]]
    # `from . import x`: a submodule when x is one, else a package attribute
    return [alias.name if alias.name in MODULES else "__init__" for alias in node.names]


def _edges(name):
    return {target for node in ast.walk(_parse(name))
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for target in _imported_modules(node) if target != name}


GRAPH = {name: _edges(name) for name in MODULES}


def test_imports_form_a_dag():
    state = {}  # name -> "open" while on the stack, "done" after

    def visit(name, path):
        if state.get(name) == "done":
            return
        assert state.get(name) != "open", "import cycle: " + " -> ".join(path + [name])
        state[name] = "open"
        for target in sorted(GRAPH[name]):
            visit(target, path + [name])
        state[name] = "done"

    for name in MODULES:
        visit(name, [])


@pytest.mark.parametrize("name", MODULES)
def test_no_import_inside_a_function(name):
    nested = [
        inner.lineno
        for node in ast.walk(_parse(name))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    ]
    assert nested == [], f"{name}.py imports inside a function at lines {nested}"


@pytest.mark.parametrize("name, forbidden", [
    ("expsum", {"arcs"}),
    ("singular", {"repcount", "sweeps"}),
    ("arith", set(MODULES) - {"arith", "exceptions"}),
])
def test_layering(name, forbidden):
    assert not GRAPH[name] & forbidden


def test_every_module_is_read():
    assert {"arith", "arcs", "cli", "expsum", "singular", "sweeps"} <= set(MODULES)
    assert GRAPH["arcs"] >= {"expsum"}


def test_cli_import_leaves_out_scipy_integrate():
    # scipy.integrate alone took most of the package's import time
    code = "import sys, goldbach3.cli; print('scipy.integrate' in sys.modules)"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"


def test_cli_import_leaves_out_scipy():
    # scipy.fft and scipy.special cost each process about 0.3 s of start-up
    code = ("import sys, goldbach3.cli; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def _imports_scipy(name):
    for node in ast.walk(_parse(name)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            continue
        if any(n == "scipy" or n.startswith("scipy.") for n in names):
            return True
    return False


def _rfft_calls(tree):
    return sum(isinstance(node, ast.Call) and (getattr(node.func, "attr", None) == "rfft"
                                               or getattr(node.func, "id", None) == "rfft")
               for node in ast.walk(tree))


def test_one_transform_helper():
    # numpy does every transform, and every prime spectrum is scattered
    # and transformed by repcount.spectrum
    assert [name for name in MODULES if _imports_scipy(name)] == []
    tree = _parse("repcount")
    spectrum = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "spectrum")
    assert _rfft_calls(tree) == _rfft_calls(spectrum) == 1


def _strikes_out_multiples(node):
    """An assignment of False or 0 to a stepped slice, `x[a::p] = False`."""
    return (isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
            and node.value.value in (False, 0)
            and any(isinstance(target, ast.Subscript) and isinstance(target.slice, ast.Slice)
                    and target.slice.step is not None for target in node.targets))


def test_one_prime_table():
    # the table holds the primes and nothing else, built by one sieve
    assert [field.name for field in dataclasses.fields(PrimeTable)] == ["limit", "primes"]
    for name in MODULES:
        tree = _parse(name)
        read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert not read & {"spf", "is_prime_mask"}, name
        sieves = [node.name for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and any(_strikes_out_multiples(inner) for inner in ast.walk(node))]
        assert sieves == (["sieve_primes"] if name == "arith" else []), name


def _names_defined_or_imported(tree):
    """Function and class names, import aliases and string constants (``__all__``)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_no_pair_correlation():
    # prime pair correlations are none of the paper's objects
    for name in MODULES:
        assert "pair_correlation" not in set(_names_defined_or_imported(_parse(name))), name


def _called_names(tree):
    return {getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            for node in ast.walk(tree) if isinstance(node, ast.Call)}


def test_one_pair_engine():
    # the wheel pipeline behind repcount.pair_engine serves counts and sweeps
    for name in MODULES:
        tree = _parse(name)
        if name != "repcount":
            assert not _called_names(tree) & {"PairCounts", "wheel_plan"}, name
        assert not {"ClassSpectra", "class_spectra"} & set(_names_defined_or_imported(tree)), name


def _read_names(tree):
    return {getattr(node, "id", None) or getattr(node, "attr", None) for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}


def _opens_to_write(node):
    """A call of the builtin open with a writing mode."""
    return (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open"
            and any(isinstance(mode, ast.Constant) and "w" in str(mode.value)
                    for mode in [*node.args[1:2], *(kw.value for kw in node.keywords)]))


def test_one_home_per_rule():
    for name in MODULES:
        tree = _parse(name)
        uses = _called_names(tree) | _read_names(tree) | set(_names_defined_or_imported(tree))
        # one integrality guard: exceptions.rounded_counts rounds every float count
        assert bool(uses & {"ROUNDING_GUARD", "rint", "round"}) == (name == "exceptions"), name
        # one truncation check: singular.check_truncation reads MAX_TRUNCATION
        assert ("MAX_TRUNCATION" in uses) == (name == "singular"), name
        # one file writer, the --out of cli.main
        writers = [node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                   and any(map(_opens_to_write, ast.walk(node)))]
        assert writers == (["main"] if name == "cli" else []), name
    # one half-circle pickup: the contraction takes expsum._half_circle_phases
    assert "_grid_phases" not in set(_names_defined_or_imported(_parse("sweeps")))


BLAS_CALLS = {"dot", "vdot", "inner", "matmul", "tensordot"}


def _blas_reductions(tree):
    """Calls np.dot and its kin, and uses of the @ operator, with their lines."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in BLAS_CALLS and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("np", "numpy")):
            yield node.lineno, f"np.{node.func.attr}"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node.lineno, "@"


@pytest.mark.parametrize("name", MODULES)
def test_no_blas_reduction(name):
    # every dot product runs in numpy's fixed order (einsum or np.sum),
    # so no result depends on the number of BLAS threads
    assert list(_blas_reductions(_parse(name))) == [], name


def test_blas_guard_reads_calls_not_method_names():
    tree = ast.parse("a = np.dot(x, y)\nb = x @ y\nc @= y\nd = numpy.tensordot(x, y)\n"
                     "e = counts.dot(other)\nf = np.einsum('i,i->', x, y)\n")
    assert sorted(_blas_reductions(tree)) == [(1, "np.dot"), (2, "@"), (3, "@"),
                                              (4, "np.tensordot")]


def _subparsers():
    parser = cli.build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_expsum_modes_are_the_papers_objects():
    expsum = _subparsers()["expsum"]
    mode = expsum._option_string_actions["--mode"]
    assert tuple(mode.choices) == ("S", "K", "kernel", "J")
    assert not {"--n-lo", "--n-hi"} & set(expsum._option_string_actions)


def test_seed_is_a_selftest_flag_only():
    with_seed = [name for name, sub in _subparsers().items()
                 if "--seed" in sub._option_string_actions]
    assert with_seed == ["selftest"]
