"""The package's public names: an explicit list of functions and classes."""

import re
import types
from pathlib import Path

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
