"""The same triple written another way gives the same answers.

l rewritten in a seeded unimodular basis, and l and theta conjugated by a
rational element of H: every verb's machine output without --explain must
be the shipped entry's, and spherical must exit 0 whether or not the
restricted roots are rational in the new basis.
"""

import pytest

from lietriples import catalog
from lietriples.catalog import builtin_entries, canonical_json
from lietriples.cli import main
from lietriples.parabolic import is_spherical_triple

from conftest import ENTRY_NAMES
from helpers import cayley_conjugated_entry, rebased_entry

VERBS = (["triples", "check"], ["spherical"], ["casimir", "embed"])
DIMS = ("dim_l", "dim_k_l", "dim_s_l", "dim_a", "dim_m", "dim_n", "dim_p", "dim_l_cap_h")


def _machine(capsys, verb, target):
    code = main(["--format", "machine", *verb, target])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _assert_shipped_answers(capsys, tmp_path, name, data):
    path = tmp_path / f"{name}.json"
    path.write_text(canonical_json(data))
    for verb in VERBS:
        assert _machine(capsys, verb, str(path)) == _machine(capsys, verb, name), verb
    shipped = catalog.get(name).descriptor
    rewritten = catalog.build(next(iter(catalog.load_entries(str(path)).values()))).descriptor
    for reverse in (False, True):
        want_verdict, want = is_spherical_triple(shipped, reverse=reverse)
        verdict, got = is_spherical_triple(rewritten, reverse=reverse)
        assert verdict == want_verdict, reverse
        assert [got[k] for k in (*DIMS, "dim_p_plus_l_cap_h")] == [
            want[k] for k in (*DIMS, "dim_p_plus_l_cap_h")
        ], reverse


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("name", ENTRY_NAMES)
def test_rebased_frame_gives_the_shipped_answers(capsys, tmp_path, name, seed):
    data = rebased_entry(builtin_entries()[name], seed)
    _assert_shipped_answers(capsys, tmp_path, name, data)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("name", ["lorentzian-2", "g2"])
def test_cayley_conjugated_triple_gives_the_shipped_answers(capsys, tmp_path, name, seed):
    data = cayley_conjugated_entry(builtin_entries()[name], seed)
    assert data["theta"]["kind"] == "matrix"
    _assert_shipped_answers(capsys, tmp_path, name, data)
