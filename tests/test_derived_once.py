"""Each derived object of a triple is computed once across the CLI verbs.

The descriptor owns h, q, k, s, the Killing form, l as an algebra, its
Cartan split, l cap h and the Killing signatures behind the conditions, and
checks its involutions once; the verbs read them instead of rebuilding them.
The counts below are taken through every module binding of the counted
functions, on a fresh build that bypasses the process-wide catalog cache.
"""

import copy
import sys
from collections import Counter

from conftest import ENTRY_NAMES
from lietriples import catalog, cli, env2, liealg, pairs, ratlin

COUNTED = {
    "from_matrix_basis": liealg.from_matrix_basis,
    "is_subalgebra": liealg.is_subalgebra,
    "killing_form": liealg.killing_form,
    "subalgebra_on_own_basis": liealg.subalgebra_on_own_basis,
    "eigenspace_split": pairs.eigenspace_split,
    "iota_embed": env2.iota_embed,
    "check_transitive_triple": pairs.check_transitive_triple,
    "restrict_form": liealg.restrict_form,
}


def _count_calls(monkeypatch) -> dict:
    calls = {name: [] for name in COUNTED}
    for name, original in COUNTED.items():

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name].append(args)
            return _original(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "lietriples":
                continue
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


def test_verbs_compute_each_derived_object_once(monkeypatch, capsys):
    monkeypatch.setattr(catalog, "_BUILT_CACHE", {})
    calls = _count_calls(monkeypatch)
    validated = []
    original_validate = pairs.Involution.validate

    def counted_validate(self, g):
        validated.append(self)
        return original_validate(self, g)

    monkeypatch.setattr(pairs.Involution, "validate", counted_validate)
    products, matmul = [], ratlin.RatMatrix.__matmul__

    def counted_matmul(self, other):
        products.append((self, other))
        return matmul(self, other)

    monkeypatch.setattr(ratlin.RatMatrix, "__matmul__", counted_matmul)
    for verb in (["triples", "check"], ["spherical"], ["casimir", "embed"]):
        assert cli.main([*verb, "--explain", "lorentzian-2"]) == 0
    capsys.readouterr()

    (built,) = catalog._BUILT_CACHE.values()
    # so(2,4) is built from matrices once; u(1,2) only as l_alg, on the frame
    assert len(calls["from_matrix_basis"]) == 1
    # building l_alg decides that l is closed; no subalgebra check sees l
    assert all(sub != built.descriptor.l for _, sub in calls["is_subalgebra"])
    # embedding_report and embedding_evidence share the default image
    assert len(calls["iota_embed"]) == 1
    assert len(calls["killing_form"]) == 1
    assert len(calls["subalgebra_on_own_basis"]) <= 1
    # triples check asks for the report; spherical reads the one it cached
    assert len(calls["check_transitive_triple"]) == 1
    # the descriptor checks sigma and theta once, not once per verb
    assert len(validated) == 2
    # sigma and theta: each split at most once
    per_involution = Counter(inv.matrix for _, inv in calls["eigenspace_split"])
    assert per_involution and max(per_involution.values()) == 1
    # sigma and theta: each multiplied with the frame of l once, for in_l
    d = built.descriptor
    with_frame = [m for m, other in products if other is d.l_frame]
    assert [sum(m is inv.matrix for m in with_frame) for inv in (d.sigma, d.theta)] == [1, 1]
    # each form is restricted to each subspace once: the Killing signatures
    # on k, s and l cap h, and the generators' normalizing forms
    per_restriction = Counter(calls["restrict_form"])
    assert per_restriction and max(per_restriction.values()) == 1


def test_verbs_leave_the_subspaces_the_descriptor_owns_unchanged(monkeypatch, capsys):
    """Subspace vectors are dicts shared with their readers (the eta of the
    echelon split are h's own vectors, for instance); no verb changes one."""
    monkeypatch.setattr(catalog, "_BUILT_CACHE", {})
    for name in ENTRY_NAMES:
        d = catalog.get(name).descriptor
        d.validate()
        k_l, s_l = d.cartan_split
        owned = {
            "h": d.h, "q": d.q, "k": d.k, "s": d.s, "l": d.l,
            "k_l": k_l, "s_l": s_l, "l_cap_h": d.l_cap_h_in_l,
        }
        before = {key: (sub, copy.deepcopy(sub.vectors), hash(sub)) for key, sub in owned.items()}
        frame = copy.deepcopy(d.frame_vectors)
        for verb in (["triples", "check"], ["spherical"], ["casimir", "embed"]):
            assert cli.main([*verb, "--explain", name]) in (0, 1), (name, verb)
        capsys.readouterr()
        # the verbs ran on this descriptor: the transfer's reducer is built
        assert d.l_cap_h_in_l in d.l_alg._reducers, name
        for key, (sub, vectors, digest) in before.items():
            assert sub.vectors == vectors and hash(sub) == digest, (name, key)
        assert d.frame_vectors == frame, name
