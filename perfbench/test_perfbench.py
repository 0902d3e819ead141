"""Tests of the benchmark itself: inputs, tracer and checker."""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import goldens  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from lietriples import catalog, cli, pairs, ratlin  # noqa: E402,F401  (cli: every module loaded)
from lietriples.parabolic import is_spherical_triple  # noqa: E402


def _ops_key(ops):
    return [(op["label"], op["args"], sorted(op["expect"]["codes"])) for op in ops]


def _files(seed):
    return {name: desc for name, (desc, _, _) in workloads.make_descriptors(seed).items()}


def test_same_seed_gives_same_inputs():
    assert _ops_key(workloads.cold_ops(7)) == _ops_key(workloads.cold_ops(7))
    assert workloads.warm_plan(7, 6) == workloads.warm_plan(7, 6)
    assert workloads.warm_plan(7, 6) != workloads.warm_plan(8, 6)
    first = _files(7)
    assert first == _files(7)
    assert first != _files(8)
    assert sorted(first) == [
        "l-equals-h.json", "missing-q.json", "open-l.json", "swapped-column.json",
        "valid-group-compact.json", "valid-group.json", "valid-lorentzian-2.json",
    ]


def _bindings():
    out = {}
    for name, mod in sys.modules.items():
        if name == "lietriples" or name.startswith("lietriples."):
            for key, value in vars(mod).items():
                out[(name, key)] = value
                if isinstance(value, type):
                    for attr, member in vars(value).items():
                        out[(name, key, attr)] = member
    return out


def test_tracer_patches_every_binding_and_removes_them():
    built = catalog.BuiltTriple(catalog.builtin_entries()["group"])
    before = _bindings()
    t = tracer.Tracer()
    with t:
        assert pairs.kernel is ratlin.kernel
        assert getattr(pairs.kernel, "__perfbench_wrapper__", False)
        pairs.eigenspace_split(built.g, built.descriptor.sigma)
    # eigenspace_split reaches kernel through pairs' own binding, twice.
    assert t.calls["ratlin.kernel"] == 2
    assert t.calls["pairs.eigenspace_split"] == 1
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert not any(getattr(v, "__perfbench_wrapper__", False) for v in after.values())


def test_tracer_raises_on_a_missing_target(monkeypatch):
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (("ratlin", "no_such_function"),))
    monkeypatch.setattr(tracer, "STEMS", tracer.STEMS + ("ratlin.no_such_function",))
    before = _bindings()
    try:
        tracer.Tracer().install()
    except AttributeError:
        pass
    else:
        raise AssertionError("a missing target was skipped")
    after = _bindings()
    assert all(after[key] is before[key] for key in before)


def test_self_times_sum_within_traced_wall():
    t = tracer.Tracer()
    start = time.perf_counter()
    with t:
        built = catalog.BuiltTriple(catalog.builtin_entries()["group-compact"])
        built.embedding_report()
        is_spherical_triple(built.descriptor)
    wall = time.perf_counter() - start
    assert 0 < sum(t.self_s.values()) <= wall
    assert t.counters["ratlin.elim.cells"] > 0
    assert t.counters["ratlin.matmul.mults"] > 0


def test_checker_rejects_corrupted_coefficient_and_traceback():
    expect = workloads._entry_expect("casimir", goldens.ENTRIES["g2"], "g2")
    good = {
        "entry": "g2",
        "generators": goldens.GENERATORS,
        "coefficients": ["3", "-3/2", "2"],
        "residual_zero": True,
        "evidence": {
            "dim_g": 21, "dim_l": 14, "dim_h": 11, "dim_complement": 7,
            "h_invariance_checks": 11, "symmetrized_variant_equal": True,
            "generator_dims": goldens.ENTRIES["g2"]["generator_dims"],
        },
    }
    assert goldens.check_cli(expect, 0, json.dumps(good), "") == []
    corrupted = dict(good, coefficients=["3", "-3/2", "3"])
    assert goldens.check_cli(expect, 0, json.dumps(corrupted), "") != []
    # --explain output must carry its evidence block.
    no_evidence = {k: v for k, v in good.items() if k != "evidence"}
    assert goldens.check_cli(expect, 0, json.dumps(no_evidence), "") == ["no evidence block"]
    traceback = "Traceback (most recent call last):\n  File \"x\", line 1\nKeyError: 'q'\n"
    assert goldens.check_cli(expect, 0, json.dumps(good), traceback) != []
    assert len(goldens.check_cli({"codes": {2}}, 1, "", traceback)) == 2


def test_spectrum_goldens_are_recomputed():
    want = goldens.spectrum_expected(3, 50)
    assert [d["eigenvalue"] for d in want["discrete_positive"]] == ["7", "16", "27", "40"]


def test_traced_cli_prints_the_same_bytes(tmp_path):
    args = workloads._entry_args("check", "group")
    plain = workloads.run_cli(args)
    traced = workloads.run_cli(args, str(tmp_path / "trace.json"))
    assert plain[0] == traced[0] == 0
    assert plain[1] == traced[1]
    assert traced[4]["calls"]["cli.main"] == 1


def test_benchmark_json_lists_the_published_per_layer_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    published = list(tracer.layer_metrics(tracer.fold([])))
    published += ["cli.import_s", "trace.overhead_frac"]
    assert [m["name"] for m in spec["per_layer"]] == published
    assert [w["name"] for w in spec["workloads"]] == list(workloads.RUNNERS)
