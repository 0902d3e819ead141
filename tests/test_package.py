"""The package's public names, resolved on first access, and the modules
each CLI verb loads in a fresh interpreter."""

import ast
import functools
import importlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import lietriples


def test_every_exported_name_resolves_to_no_module():
    assert len(set(lietriples.__all__)) == len(lietriples.__all__)
    for name in lietriples.__all__:
        assert not isinstance(getattr(lietriples, name), types.ModuleType), name


def test_star_import_binds_the_exported_names_and_no_module():
    namespace: dict = {}
    exec("from lietriples import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(lietriples.__all__)
    assert not any(isinstance(v, types.ModuleType) for v in namespace.values())


# RatMatrix stores sparse rows and every caller reads them as they are: no
# module but ratlin converts between a dense and a sparse form
_CROSSING = re.compile(r"\b(sparse|dense)\(|\.entries\b|\.columns\(\)|\.row\(")


def test_no_module_but_ratlin_crosses_between_dense_and_sparse():
    modules = sorted(Path(lietriples.__file__).parent.glob("*.py"))
    assert "ratlin.py" in [m.name for m in modules]
    crossings = [
        f"{m.name}:{k}: {line.strip()}"
        for m in modules
        if m.name != "ratlin.py"
        for k, line in enumerate(m.read_text().splitlines(), 1)
        if _CROSSING.search(line)
    ]
    assert crossings == []


# Exact arithmetic in Python ints lives in ratlin alone: no other module
# takes a Fraction apart, scales to a common denominator or reaches for the
# private elimination
_INTEGER_ARITHMETIC = re.compile(
    r"\.(numerator|denominator)\b|\bmath\.lcm\b|\bimport\b.*\blcm\b|\b(_kernel|_rref|_primitive)\b"
)


def test_no_module_but_ratlin_does_integer_arithmetic():
    modules = sorted(Path(lietriples.__file__).parent.glob("*.py"))
    assert "parabolic.py" in [m.name for m in modules]
    found = [
        f"{m.name}:{k}: {line.strip()}"
        for m in modules
        if m.name != "ratlin.py"
        for k, line in enumerate(m.read_text().splitlines(), 1)
        if _INTEGER_ARITHMETIC.search(line)
    ]
    assert found == []


# env2 runs in Python ints from reading an element to writing the result:
# a Fraction is made only where a result leaves the ints (_over) and for
# the half of symmetrized_casimir, so the transfer cannot slide back into
# Fractions unseen
def test_env2_makes_fractions_only_in_over_and_the_symmetrized_half():
    source = (Path(lietriples.__file__).parent / "env2.py").read_text()
    functions = [
        (f.lineno, f.end_lineno, f.name)
        for f in ast.walk(ast.parse(source))
        if isinstance(f, ast.FunctionDef)
    ]
    found = [
        ([name for start, end, name in functions if start <= k <= end] or ["<module>"])[-1]
        + f": {line.strip()}"
        for k, line in enumerate(source.splitlines(), 1)
        if "Fraction(" in line
    ]
    assert [f for f in found if not f.startswith("_over: ")] == [
        "symmetrized_casimir: half = Fraction(1, 2)"
    ]
    assert len(found) == 3


# The structure constants are kept once, as LieAlgebra.int_table: no source
# or test file names a second, Fraction copy or a lazily built slot (the
# brackets spell the names so that this file does not match itself)
_SECOND_TABLE = re.compile(r"[.]_table\b|\b_int[_]table\b")


def test_no_file_names_a_second_structure_table():
    root = Path(__file__).resolve().parent.parent
    files = sorted(f for d in ("src", "tests") for f in (root / d).rglob("*.py"))
    assert Path(lietriples.__file__).resolve() in files and Path(__file__).resolve() in files
    found = [
        f"{f.relative_to(root)}:{k}: {line.strip()}"
        for f in files
        for k, line in enumerate(f.read_text().splitlines(), 1)
        if _SECOND_TABLE.search(line)
    ]
    assert found == []


def test_every_exported_name_is_the_object_of_its_defining_module():
    for name in lietriples.__all__:
        value = getattr(lietriples, name)
        assert value.__module__.startswith("lietriples."), name
        assert getattr(importlib.import_module(value.__module__), name) is value, name


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        lietriples.no_such_name
    assert not hasattr(lietriples, "no_such_name")


def test_from_import_still_binds_submodules():
    from lietriples import catalog, cli

    assert cli is sys.modules["lietriples.cli"]
    assert catalog is sys.modules["lietriples.catalog"]
    assert set(lietriples.__all__) <= set(dir(lietriples))


# Run in a fresh interpreter: the code given, then one line "@modules" and
# the names in sys.modules, one a line; the list reads only sys.
_LIST_MODULES = "sys.stdout.write('\\n@modules\\n' + '\\n'.join(sorted(sys.modules)) + '\\n')"


@functools.lru_cache(maxsize=None)
def _fresh_modules(code: str) -> frozenset:
    src = str(Path(lietriples.__file__).parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys\n{code}\n{_LIST_MODULES}"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return frozenset(proc.stdout.rsplit("\n@modules\n", 1)[1].split())


def _loaded_by(code: str) -> frozenset:
    """The modules a fresh interpreter holds after code, less those of a
    bare one."""
    return _fresh_modules(code) - _fresh_modules("pass")


VERBS = {
    "triples check": ["triples", "check", "group"],
    "spherical": ["spherical", "group"],
    "casimir embed": ["casimir", "embed", "group"],
    "spectrum": ["spectrum", "--n", "2", "--cutoff", "5"],
}


def _loaded_by_verb(verb: str) -> frozenset:
    argv = VERBS[verb]
    return _loaded_by(
        f"from lietriples import cli\ncode = cli.main({argv!r})\nassert code == 0, code"
    )


def test_a_plain_import_loads_no_submodule():
    loaded = _loaded_by("import lietriples")
    assert "lietriples" in loaded
    assert sorted(m for m in loaded if m.startswith("lietriples.")) == []
    # a module, or the module of a name, is imported on first access
    assert "lietriples.pairs" in _loaded_by("import lietriples\nlietriples.pairs")
    loaded = _loaded_by("import lietriples\nlietriples.is_spherical_triple")
    assert "lietriples.parabolic" in loaded


@pytest.mark.parametrize("verb", sorted(VERBS))
def test_no_verb_loads_dataclasses_or_inspect(verb):
    loaded = _loaded_by_verb(verb)
    assert "lietriples.cli" in loaded
    assert not {"dataclasses", "inspect"} & loaded


def test_only_spherical_loads_parabolic():
    assert "lietriples.parabolic" not in _loaded_by_verb("triples check")
    assert "lietriples.parabolic" not in _loaded_by_verb("casimir embed")
    assert "lietriples.parabolic" in _loaded_by_verb("spherical")


def _package_modules(loaded: frozenset) -> list:
    return sorted(m for m in loaded if m.startswith("lietriples."))


# what the front end loads, and what an entry verb adds: the algebra
FRONT_END = ["lietriples._exact", "lietriples.cli", "lietriples.spectra"]
ALGEBRA = [f"lietriples.{m}" for m in ("catalog", "env2", "liealg", "pairs", "ratlin")]


def test_the_front_end_and_spectrum_load_no_algebra():
    loaded = _loaded_by("import lietriples.cli")
    assert _package_modules(loaded) == FRONT_END
    assert "json" not in loaded
    assert _package_modules(_loaded_by_verb("spectrum")) == FRONT_END


@pytest.mark.parametrize("verb", ["triples check", "spherical", "casimir embed"])
def test_an_entry_verb_loads_the_algebra(verb):
    parabolic = ["lietriples.parabolic"] if verb == "spherical" else []
    assert _package_modules(_loaded_by_verb(verb)) == sorted(FRONT_END + ALGEBRA + parabolic)


def test_the_benchmark_tests_load_every_module_the_tracer_patches():
    """perfbench/test_perfbench.py lists the package's bindings after its
    own imports and before Tracer.install imports the eight modules it
    patches, so those imports alone must load all eight.  In this suite
    other test modules load them first, so only `pytest perfbench` run on
    its own would fail otherwise."""
    root = Path(__file__).resolve().parent.parent
    tree = ast.parse((root / "perfbench" / "test_perfbench.py").read_text())
    imports = [
        ast.unparse(node)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("lietriples")
    ]
    assert imports
    # the modules Tracer.install imports, in its order
    patched = ("cli", "catalog", "liealg", "pairs", "parabolic", "env2", "spectra", "ratlin")
    missing = {f"lietriples.{m}" for m in patched} - _loaded_by("\n".join(imports))
    assert not missing, (imports, sorted(missing))
