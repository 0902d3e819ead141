"""The package's public names: an explicit list of functions and classes."""

import types

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
