"""The same triple written another way gives the same answers.

l rewritten in a seeded unimodular basis, and l and theta conjugated by a
rational element of H: every verb's machine output without --explain must
be the shipped entry's, with exit 0 whatever the restricted roots are in
the new basis (probes.same_answers), and h and l cap h must be closed.
"""

import pytest

from lietriples import catalog
from lietriples.liealg import is_subalgebra
from lietriples.parabolic import is_spherical_triple

from conftest import ENTRY_NAMES
from helpers import cayley_conjugated_entry, rebased_entry
import probes

DIMS = ("dim_l", "dim_k_l", "dim_s_l", "dim_a", "dim_m", "dim_n", "dim_p", "dim_l_cap_h",
        "dim_p_plus_l_cap_h")


def _assert_shipped_answers(tmp_path, name, data):
    path = probes.write(tmp_path, name, data)
    probes.same_answers(probes.in_process, path, name)
    rewritten = probes.built(path).descriptor
    assert is_subalgebra(rewritten.g, rewritten.h), "h is not closed"
    assert is_subalgebra(rewritten.l_alg, rewritten.l_cap_h_in_l), "l cap h is not closed"
    shipped = catalog.get(name).descriptor
    for reverse in (False, True):
        want_verdict, want = is_spherical_triple(shipped, reverse=reverse)
        verdict, got = is_spherical_triple(rewritten, reverse=reverse)
        assert verdict == want_verdict, reverse
        assert [got[k] for k in DIMS] == [want[k] for k in DIMS], reverse


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("name", ENTRY_NAMES)
def test_rebased_frame_gives_the_shipped_answers(tmp_path, name, seed):
    data = rebased_entry(catalog.builtin_entries()[name], seed)
    _assert_shipped_answers(tmp_path, name, data)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("name", ["lorentzian-2", "g2"])
def test_cayley_conjugated_triple_gives_the_shipped_answers(tmp_path, name, seed):
    data = cayley_conjugated_entry(catalog.builtin_entries()[name], seed)
    assert data["theta"]["kind"] == "matrix"
    _assert_shipped_answers(tmp_path, name, data)
