import json

import pytest

from lietriples import catalog
from lietriples.catalog import (
    CatalogError,
    builtin_entries,
    canonical_json,
    entry_from_json_dict,
    load_entries,
)
from lietriples.ratlin import signature, subspace_intersection
from lietriples.liealg import restrict_form


def test_builtin_names():
    assert set(builtin_entries()) == {
        "group",
        "group-compact",
        "lorentzian-2",
        "lorentzian-3",
        "g2",
    }


def test_entries_build_and_validate(built_catalog):
    for name, bt in built_catalog.items():
        assert bt.descriptor.name == name
        # validate() ran in the fixture; spot check core facts again
        assert bt.descriptor.l.dim == bt.descriptor.l_frame.cols


def test_expected_dimensions(built_catalog):
    expected = {
        "group": (6, 3, 3),
        "group-compact": (6, 3, 4),
        "lorentzian-2": (15, 10, 9),
        "lorentzian-3": (28, 21, 16),
        "g2": (21, 11, 14),
    }
    for name, bt in built_catalog.items():
        d = bt.descriptor
        assert (bt.g.dim, d.h.dim, d.l.dim) == expected[name], name


def test_compact_intersections(built_catalog):
    for name, bt in built_catalog.items():
        d = bt.descriptor
        lh = subspace_intersection(d.l, d.h)
        gram = restrict_form(bt.descriptor.killing, lh)
        if lh.dim:
            assert signature(gram) == (0, lh.dim, 0), name


def test_generator_subspace_dims(built_catalog):
    expected = {
        "group": (3, 1, 0),
        "group-compact": (4, 2, 0),
        "lorentzian-2": (9, 5, 0),
        "lorentzian-3": (16, 10, 0),
        "g2": (14, 6, 4),
    }
    for name, bt in built_catalog.items():
        dims = tuple(
            bt.generator_subspace(g).dim for g in catalog.GENERATOR_NAMES
        )
        assert dims == expected[name], name


def test_json_round_trip():
    for entry in builtin_entries().values():
        blob = canonical_json(entry.to_json_dict())
        parsed = entry_from_json_dict(json.loads(blob))
        assert parsed == entry
        assert canonical_json(parsed.to_json_dict()) == blob


def test_load_entries_file(tmp_path):
    entry = builtin_entries()["group"]
    single = tmp_path / "one.json"
    single.write_text(canonical_json(entry.to_json_dict()))
    loaded = load_entries(str(single))
    assert set(loaded) == {"group"} and loaded["group"] == entry

    multi = tmp_path / "many.json"
    payload = {
        "schema_version": catalog.SCHEMA_VERSION,
        "entries": [e.to_json_dict() for e in builtin_entries().values()],
    }
    multi.write_text(canonical_json(payload))
    loaded = load_entries(str(multi))
    assert set(loaded) == set(builtin_entries())


def test_load_entries_rejects_a_name_listed_twice(tmp_path):
    # two entries of one name would leave only the last one runnable
    dup = tmp_path / "dup.json"
    first = builtin_entries()["group"].to_json_dict()
    second = builtin_entries()["group-compact"].to_json_dict()
    second["name"] = "group"
    payload = {"schema_version": catalog.SCHEMA_VERSION, "entries": [first, second]}
    dup.write_text(canonical_json(payload))
    with pytest.raises(CatalogError) as err:
        load_entries(str(dup))
    assert str(err.value) == f"{dup}#entries[1]: name 'group' listed twice"


def test_load_entries_bad_json_has_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": \n!!')
    with pytest.raises(CatalogError) as err:
        load_entries(str(bad))
    assert ":2:" in str(err.value)


@pytest.mark.parametrize("version", [999, True, 1.0])
def test_load_entries_wrong_version(tmp_path, version):
    # true and 1.0 compare equal to 1 in Python, and are still no version
    bad = tmp_path / "version.json"
    entry = builtin_entries()["group"].to_json_dict()
    entry["schema_version"] = version
    bad.write_text(json.dumps(entry))
    with pytest.raises(CatalogError) as err:
        load_entries(str(bad))
    assert str(err.value).startswith(f"{bad}: ")
    assert "schema_version" in str(err.value)


def test_load_entries_missing_field(tmp_path):
    bad = tmp_path / "missing.json"
    entry = builtin_entries()["group"].to_json_dict()
    del entry["sigma"]
    bad.write_text(json.dumps(entry))
    with pytest.raises(CatalogError) as err:
        load_entries(str(bad))
    assert "sigma" in str(err.value)


def test_unknown_entry_name():
    with pytest.raises(CatalogError):
        catalog.get("does-not-exist")


def test_custom_entry_through_loader(tmp_path, built_catalog):
    # a rebuilt lorentzian-2 from disk behaves like the built-in one
    entry = builtin_entries()["lorentzian-2"]
    path = tmp_path / "lor.json"
    path.write_text(canonical_json(entry.to_json_dict()))
    loaded = load_entries(str(path))["lorentzian-2"]
    bt = catalog.build(loaded)
    # one build per file, apart from the built-in's, whose errors name no file
    assert catalog.build(load_entries(str(path))["lorentzian-2"]) is bt
    assert bt is not built_catalog["lorentzian-2"]
    builtin = built_catalog["lorentzian-2"].descriptor.triple_report
    assert bt.descriptor.triple_report == builtin


def test_embedding_reports(embeddings):
    expected = {
        "group": ["2", "0", "0"],
        "group-compact": ["2", "-1", "0"],
        "lorentzian-2": ["2", "-1", "0"],
        "lorentzian-3": ["2", "-1", "0"],
        "g2": ["3", "-3/2", "2"],
    }
    for name, report in embeddings.items():
        assert [str(c) for c in report["coefficients"]] == expected[name], name
        assert report["residual_zero"], name


def test_algebra_recipe_kinds():
    from lietriples.catalog import _build_algebra

    assert _build_algebra({"kind": "su", "p": 1, "q": 1}).dim == 3
    assert _build_algebra({"kind": "u", "p": 2, "q": 0}).dim == 4
    assert _build_algebra({"kind": "g2split"}).dim == 14
    assert _build_algebra({"kind": "sl", "n": 3}).dim == 8
    with pytest.raises(CatalogError):
        _build_algebra({"kind": "nonsense"})


def test_embedding_evidence_carries_canonical_image(built_catalog):
    ev = built_catalog["group"].embedding_evidence()
    assert ev["symmetrized_variant_equal"] is True
    # group case: iota(Omega_G) = 2 Omega_L over (H, E, F) coordinates
    assert ["H_1.H_1", "1/4"] in ev["canonical_image"]
    assert ["E_1.F_1", "1"] in ev["canonical_image"]
    assert ["H_1", "-1/2"] in ev["canonical_image"]
