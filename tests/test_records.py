"""The value records: immutable, with the equality each one documents."""

import pytest

from lietriples import catalog
from lietriples.catalog import CatalogEntry
from lietriples.pairs import TripleDescriptor, check_transitive_triple
from lietriples.parabolic import cartan_split_of_l, maximal_abelian_in_s, restricted_roots
from lietriples.spectra import lorentzian_spectrum_report

DESCRIPTOR_FIELDS = ("g", "sigma", "theta", "l_frame", "name", "l_labels")


def _records():
    """One instance of each of the six record classes, with its fields."""
    entry = catalog.builtin_entries()["lorentzian-2"]
    descriptor = catalog.BuiltTriple(entry).descriptor
    l_alg, _, _, s_l = cartan_split_of_l(descriptor)
    roots = restricted_roots(l_alg, maximal_abelian_in_s(l_alg, s_l))
    spectrum = lorentzian_spectrum_report(2, 5)
    return [
        (entry, entry._fields),
        (descriptor, DESCRIPTOR_FIELDS),
        (check_transitive_triple(descriptor), None),
        (roots, None),
        (spectrum.bands[0], None),
        (spectrum, None),
    ]


def test_no_record_field_can_be_assigned_or_deleted():
    records = _records()
    assert len({type(r) for r, _ in records}) == 6
    for record, fields in records:
        for field in fields or record._fields:
            value = getattr(record, field)
            with pytest.raises(AttributeError):
                setattr(record, field, value)
            with pytest.raises(AttributeError):
                delattr(record, field)
            assert getattr(record, field) is value
        with pytest.raises(AttributeError):
            record.extra = 1


def test_a_descriptor_cache_cannot_be_overwritten():
    descriptor = catalog.BuiltTriple(catalog.builtin_entries()["group"]).descriptor
    killing = descriptor.killing
    with pytest.raises(AttributeError):
        descriptor.killing = None
    assert descriptor.killing is killing


def test_catalog_entry_equality_and_hash_ignore_the_source():
    entry = catalog.builtin_entries()["group"]
    moved = entry._replace(source="elsewhere.json")
    assert moved.source != entry.source
    assert moved == entry and not moved != entry
    renamed = entry._replace(name="other")
    assert renamed != entry and not renamed == entry
    # the shipped entries hold dicts, which do not hash; an entry of
    # hashable values hashes over every field but the source
    a = CatalogEntry("e", (), (), (), (), source="a.json")
    b = CatalogEntry("e", (), (), (), (), source="b.json")
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_descriptors_compare_by_identity():
    entry = catalog.builtin_entries()["group"]
    first, second = (catalog.BuiltTriple(entry).descriptor for _ in range(2))
    assert first == first
    assert first != second and not first == second
    assert len({first, second}) == 2


def test_descriptor_repr():
    descriptor = catalog.BuiltTriple(catalog.builtin_entries()["group"]).descriptor
    assert repr(descriptor) == "TripleDescriptor(group, dim g = 6)"
    unnamed = TripleDescriptor(
        g=descriptor.g,
        sigma=descriptor.sigma,
        theta=descriptor.theta,
        l_frame=descriptor.l_frame,
    )
    assert repr(unnamed) == "TripleDescriptor(unnamed, dim g = 6)"
