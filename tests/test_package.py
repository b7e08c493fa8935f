"""The package root exports its API lazily: each name is loaded from its
home module on first use."""
import ast
import contextlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import raag

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
SRC = Path(raag.__file__).resolve().parent

# the names the package root exports, by home module
EXPORTS = {
    "core": ["DefiningGraph", "InputError", "Letter", "PresentationError", "WordSyntaxError",
             "build_graph", "format_word", "load_presentation", "parse_presentation",
             "parse_word"],
    "piling": ["EmptyPiling", "ExtractionStuck", "NotCyclicallyReduced", "Piling",
               "PilingError", "PilingTooLarge", "cyclic_reduce", "pi_star", "pyramidalize",
               "sigma_star"],
    "conjugacy": ["CyclicNormalFactors", "conjugate_in_raag", "cyclic_normal_factors",
                  "normal_form"],
    "centralizer": ["CentralizerGens", "centralizer_generators"],
    "cubecomplex": ["BasedWord", "ComplexSyntaxError", "CubeComplexMap", "Edge",
                    "NotALoop", "ReplayFailure", "UntraceableWord", "ValidationReport",
                    "based_word", "groupoid_conjugate", "load_complex",
                    "parse_based_word", "parse_complex", "trace", "validate"],
    "oracle": ["BoundExceeded"],
}

# stage helpers and oracles that the package root does not export, by home
# module: the tests import them from there
UNEXPORTED = {
    "core": ["inverse_word"],
    "piling": ["is_cyclically_reduced"],
    "conjugacy": ["cyclic_equal"],
    "centralizer": ["minimal_root"],
    "cubecomplex": ["reach_by_centralizer"],
    "oracle": ["loop_class_key", "oracle_conjugate", "oracle_equal",
               "oracle_groupoid_conjugate", "reach_by_preferred_enumeration"],
}


def test_lazy_exports_match_their_home_modules():
    names = [name for names in EXPORTS.values() for name in names]
    assert len(names) == 42
    assert sorted(raag.__all__) == sorted(names)
    listed = dir(raag)
    for home, names in EXPORTS.items():
        module = importlib.import_module(f"raag.{home}")
        for name in names:
            assert getattr(raag, name) is getattr(module, name)
            assert name in listed
    with pytest.raises(AttributeError, match="'nope'"):
        raag.nope
    namespace = {}
    exec("from raag import *", namespace)
    assert {k: v for k, v in namespace.items() if k != "__builtins__"} == {
        name: getattr(raag, name) for name in raag.__all__}
    # every lower-level piece the README names is exported
    text = README.read_text(encoding="utf-8")
    pieces = re.findall(r"`(\w+)`", re.search(
        r"Lower-level pieces \((.*?)\) are exported", text, re.S).group(1))
    assert pieces and set(pieces) <= set(raag.__all__)
    # each unexported name is defined in its home module, not reached from the root
    for home, names in UNEXPORTED.items():
        module = importlib.import_module(f"raag.{home}")
        for name in names:
            assert getattr(module, name).__module__ == module.__name__
            with pytest.raises(AttributeError):
                getattr(raag, name)


def test_readme_library_snippet_prints_its_comments():
    """The README's Library use snippet runs, and each line it prints is
    the ``# ...`` comment of the ``print`` call that printed it."""
    text = README.read_text(encoding="utf-8")
    snippet = re.search(r"## Library use\n\n```python\n(.*?)```", text, re.S).group(1)
    want = [m.group(1) for m in re.finditer(r"^print\(.*\)\s+# (.*)$", snippet, re.M)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(snippet, {})
    assert want and out.getvalue().splitlines() == want


def test_every_export_is_used_or_documented():
    """The public API is what the CLI and the README use: each name in
    ``raag.__all__`` is a word of ``README.md`` or of ``src/raag/cli.py``."""
    known = {word for path in (README, SRC / "cli.py")
             for word in re.findall(r"\w+", path.read_text(encoding="utf-8"))}
    assert [name for name in raag.__all__ if name not in known] == []


IMPORT_CHECK = """
import sys
import raag
eager = sorted(name for name in sys.modules if name.startswith("raag."))
import raag.cli, raag.cubecomplex, raag.centralizer, raag.oracle
print(eager)
"""


def test_import_loads_no_submodule_and_warns_nothing():
    """``import raag`` alone loads no ``raag.*`` submodule, and importing
    every module warns nothing: the process turns each warning into an
    error."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", IMPORT_CHECK], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "[]\n")


def test_every_import_is_used():
    """Each name that a module of ``src/raag`` imports, ``__future__``
    aside, is used in that module.  The check reads the syntax tree with
    ``ast`` alone, so it needs no linter."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line}: {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []


def test_no_assert_statements():
    """Invariants are checked by exceptions, not by ``assert``, which
    ``python -O`` strips: no module of ``src/raag`` holds an ``assert``
    statement.  The check reads the syntax tree with ``ast`` alone."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_piling_kernel_reads_no_neighbour_sets():
    """The piling kernel works on packed fields: in ``piling.py`` only
    ``_layout``, which builds the field masks, reads a graph's
    ``noncommute`` sets, so no kernel loop steps through a tile's
    neighbours in Python.  The check reads the syntax tree with ``ast``
    alone."""
    tree = ast.parse((SRC / "piling.py").read_text(encoding="utf-8"))
    readers = sorted({f.name for f in ast.walk(tree)
                      if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                      for node in ast.walk(f)
                      if isinstance(node, ast.Attribute) and node.attr == "noncommute"})
    assert readers == ["_layout"]


def test_input_errors_share_one_type():
    """Every error the input causes is one ``InputError``; internal faults
    are not, and ``BoundExceeded`` stays a ``RuntimeError``."""
    for name in ("PresentationError", "WordSyntaxError", "ComplexSyntaxError",
                 "UntraceableWord", "NotALoop", "BoundExceeded"):
        assert issubclass(getattr(raag, name), raag.InputError), name
    assert issubclass(raag.InputError, ValueError)
    assert issubclass(raag.BoundExceeded, RuntimeError)
    from raag.centralizer import EmptyFactor
    for fault in (raag.PilingError, raag.PilingTooLarge, raag.ReplayFailure, EmptyFactor):
        assert not issubclass(fault, raag.InputError), fault


def test_installed_command_runs_the_cli_main():
    """Installing the package makes a ``raag`` command from the
    ``[project.scripts]`` entry of ``pyproject.toml``, which no other test
    runs: they call ``python -m raag.cli`` or ``main``.  The entry must
    name ``raag.cli.main``.  The file is read as text, since Python 3.10
    has no ``tomllib``."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = re.search(r"^\[project\.scripts\]$(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert scripts, "pyproject.toml has no [project.scripts] table"
    entry = re.search(r'^raag\s*=\s*"([\w.]+):([\w.]+)"\s*$', scripts.group(1), re.M)
    assert entry, scripts.group(1)
    module, attr = entry.groups()
    target = importlib.import_module(module)
    for name in attr.split("."):
        target = getattr(target, name)
    assert target is importlib.import_module("raag.cli").main


def test_bench_files_report_every_workload_and_metric():
    """Every committed ``BENCH_*.json`` holds, for each workload that
    ``BENCHMARK.json`` names, parent and change entries of at least three
    runs, all correct and none failed, with every end-to-end metric in
    its unit and min <= median <= max."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    files = sorted(ROOT.glob("BENCH_*.json"))
    assert files
    for path in files:
        workloads = json.loads(path.read_text(encoding="utf-8"))["workloads"]
        for wl in spec["workloads"]:
            for side in ("parent", "change"):
                entry = workloads[wl["name"]][side]
                where = (path.name, wl["name"], side)
                assert entry["run_count"] >= 3 and entry["all_correct"] is True, where
                assert entry["failed"] == 0, where
                for metric in spec["end_to_end"]:
                    m = entry["metrics"][metric["name"]]
                    assert m["unit"] == metric["unit"], (*where, metric["name"])
                    assert m["min"] <= m["median"] <= m["max"], (*where, metric["name"])
