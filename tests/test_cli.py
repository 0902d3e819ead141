import json
import subprocess
import sys
from fractions import Fraction
from itertools import combinations

import pytest

from lietriples import catalog
from lietriples.catalog import builtin_entries, canonical_json
from lietriples.cli import main
from lietriples.ratlin import _rat
from lietriples.spectra import lorentzian_spectrum_report

from helpers import rebased_entry


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_triples_check_table(capsys):
    code, out, err = run_cli(capsys, "triples", "check", "lorentzian-2")
    assert code == 0
    assert "verdict: TransitiveTriple" in out
    assert "infinitesimally transitive:  yes" in out


def test_triples_check_group(capsys):
    code, out, _ = run_cli(capsys, "triples", "check", "group")
    assert code == 0
    assert "TransitiveTriple" in out


def test_spherical_verdicts(capsys):
    for name, expected in [("group", "no"), ("lorentzian-2", "yes"), ("g2", "no")]:
        code, out, _ = run_cli(capsys, "spherical", name)
        assert code == 0
        assert f"spherical: {expected}" in out


def test_spherical_on_a_frame_scaled_by_10_to_the_12(capsys, tmp_path):
    # the same l, written as its frame columns times c: the dims stay, the
    # restricted roots grow by c, and the root search must not grow with c
    c = 10**12
    entry = builtin_entries()["lorentzian-2"]
    frame = catalog.build(entry).descriptor.l_frame
    scaled = entry.to_json_dict()
    scaled["name"] = "lorentzian-2-scaled"
    scaled["l"] = {
        "kind": "explicit",
        "vectors": [[str(c * x) for x in col] for col in frame.columns()],
    }
    path = tmp_path / "scaled.json"
    path.write_text(canonical_json(scaled))
    code, out, _ = run_cli(capsys, "--format", "machine", "--explain", "spherical", str(path))
    assert code == 0
    got = json.loads(out)
    code, out, _ = run_cli(capsys, "--format", "machine", "--explain", "spherical", "lorentzian-2")
    want = json.loads(out)
    assert got["spherical"] is want["spherical"] is True
    dims = ("dim_p", "dim_l_cap_h", "dim_p_plus_l_cap_h", "dim_l")
    assert [got[k] for k in dims] == [want[k] for k in dims] == [6, 4, 9, 9]
    roots = [
        ([str(c * Fraction(x)) for x in r["root"]], r["multiplicity"])
        for r in want["evidence"]["restricted_roots"]
    ]
    assert [(r["root"], r["multiplicity"]) for r in got["evidence"]["restricted_roots"]] == roots


def test_casimir_embed_goldens(capsys):
    expected = {
        "group": "(2, 0, 0)",
        "group-compact": "(2, -1, 0)",
        "lorentzian-2": "(2, -1, 0)",
        "g2": "(3, -3/2, 2)",
    }
    for name, coeffs in expected.items():
        code, out, _ = run_cli(capsys, "casimir", "embed", name)
        assert code == 0, name
        assert f"coefficients: {coeffs}" in out
        assert "canonical residual zero: yes" in out


def test_every_shipped_structure_table_is_integral():
    for name, entry in builtin_entries().items():
        d = catalog.build(entry).descriptor
        assert (d.g.int_table[1], d.l_alg.int_table[1]) == (1, 1), name


# the denominator of l's structure table on each rescaled frame below
_RESCALED_TABLE_DENOMINATOR = {
    ("lorentzian-2", "3/7"): 14,
    ("lorentzian-2", "1000000000000"): 3,
    ("lorentzian-2", "1/1000000000039"): 6000000000234,
    ("g2", "3/7"): 14,
    ("g2", "1000000000000"): 3,
    ("g2", "1/1000000000039"): 6000000000234,
    ("group-compact", "3/7"): 7,
    ("group-compact", "1000000000000"): 1,
    ("group-compact", "1/1000000000039"): 1000000000039,
}


@pytest.mark.parametrize("name, scale", list(_RESCALED_TABLE_DENOMINATOR))
def test_casimir_embed_on_a_rescaled_frame(capsys, tmp_path, name, scale):
    """l written as explicit vectors, frame vector i times (i mod 3 + 1)
    scale: l's structure table gets a denominator, and casimir embed gives
    the shipped coefficients, with seeds 1-3 giving the canonical image."""
    s = Fraction(scale)
    entry = builtin_entries()[name]
    frame = catalog.build(entry).descriptor.l_frame
    rescaled = entry.to_json_dict()
    rescaled["l"] = {
        "kind": "explicit",
        "vectors": [
            [str((i % 3 + 1) * s * x) for x in col] for i, col in enumerate(frame.columns())
        ],
    }
    path = tmp_path / "rescaled.json"
    path.write_text(canonical_json(rescaled))
    code, out, _ = run_cli(capsys, "--format", "machine", "casimir", "embed", str(path))
    got = json.loads(out)
    assert run_cli(capsys, "--format", "machine", "casimir", "embed", name)[1] == out
    assert (code, got["residual_zero"]) == (0, True)
    (loaded,) = catalog.load_entries(str(path)).values()
    bt = catalog.build(loaded)
    assert bt.descriptor.l_alg.int_table[1] == _RESCALED_TABLE_DENOMINATOR[name, scale]
    base = bt.iota_of_casimir()
    for seed in (1, 2, 3):
        assert bt.iota_of_casimir(complement_seed=seed) == base, seed


def test_spectrum_goldens(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--n", "2", "--cutoff", "50")
    assert code == 0
    assert "5, 12, 21, 32, 45" in out
    code, out, _ = run_cli(capsys, "spectrum", "--n", "3", "--cutoff", "100")
    assert code == 0
    assert "7, 16, 27, 40, 55, 72, 91" in out


def test_spectrum_zero_cutoff_keeps_bands(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--n", "2", "--cutoff", "0")
    assert code == 0
    assert "band (-inf, -4]" in out
    assert "none up to the cutoff" in out


@pytest.mark.parametrize(
    "n, cutoff, problem",
    [
        pytest.param("2", "1e20", "spectrum: bad --cutoff value '1e20'", id="1e20"),
        pytest.param(
            "2",
            "1e999999999",
            "spectrum: bad --cutoff value '1e999999999'",
            id="1e999999999",
        ),
        pytest.param(
            "2",
            str(10**20),
            f"error: cutoff {10**20} lists 9999999998 discrete eigenvalues, "
            "more than MAX_EIGENVALUES = 10000",
            id="21-digit-integer",
        ),
        pytest.param(
            "100000000",
            str(10**17),
            f"error: cutoff {10**17} lists 231662479 discrete eigenvalues, "
            "more than MAX_EIGENVALUES = 10000",
            id="n-1e8-cutoff-1e17",
        ),
    ],
)
def test_spectrum_large_cutoff_is_a_quick_input_error(n, cutoff, problem):
    # a fresh process, so that a cutoff that hangs fails on the timeout
    proc = subprocess.run(
        [sys.executable, "-m", "lietriples", "spectrum", "--n", n, "--cutoff", cutoff],
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", problem + "\n")


def _read_by_rat(capsys, value):
    return _rat(value)


def _read_from_descriptor(capsys, value):
    # group-compact with value as its first explicit l.vectors entry, read
    # from the object a descriptor file parses into (a Fraction has no JSON)
    entry = builtin_entries()["group-compact"].to_json_dict()
    entry["l"] = _explicit_l(value)
    try:
        built = catalog.BuiltTriple(catalog.entry_from_json_dict(entry, where="file.json"))
    except catalog.CatalogError as exc:
        assert str(exc) == (
            'file.json: l.vectors[0][0]: expected a rational "p/q" string, '
            f"got {catalog._show(value)}"
        )
        raise
    return built.descriptor.l_frame.column(0)[0]


def _read_as_report_cutoff(capsys, value):
    return lorentzian_spectrum_report(2, value).cutoff


def _read_as_cli_cutoff(capsys, value):
    code, out, err = run_cli(capsys, "--format", "machine", "spectrum", "--n", "2", f"--cutoff={value}")
    if code == 2:
        assert (out, err) == ("", f"spectrum: bad --cutoff value {str(value)!r}\n")
        raise ValueError(err)
    assert (code, err) == (0, "")
    return Fraction(json.loads(out)["cutoff"])


# one table of inputs for every reader of an exact rational: the first five
# are read, each as the same Fraction, and every other one is refused
_EXACT = [
    (Fraction(-3, 4), Fraction(-3, 4)),
    (7, Fraction(7)),
    ("7", Fraction(7)),
    ("-3/4", Fraction(-3, 4)),
    ("+2", Fraction(2)),
]
_INEXACT = [True, 0.1, "0.5", "1e9", " 7 ", "1_000", "0x10", None, "1/0", "9" * 5000, "1e300000"]


@pytest.mark.parametrize(
    "reader",
    [_read_by_rat, _read_from_descriptor, _read_as_report_cutoff, _read_as_cli_cutoff],
    ids=["rat", "descriptor", "report", "cli"],
)
@pytest.mark.parametrize(
    "value, expected",
    [pytest.param(*pair, id=repr(pair[0])[:16]) for pair in _EXACT]
    + [pytest.param(value, None, id=repr(value)[:16]) for value in _INEXACT],
)
def test_one_reader_for_exact_rationals(capsys, reader, value, expected):
    if expected is None:
        with pytest.raises((TypeError, ValueError)):
            reader(capsys, value)
    else:
        got = reader(capsys, value)
        assert (type(got), got) == (Fraction, expected)


def test_a_negative_cutoff_may_follow_the_option(capsys):
    """--cutoff -3/4 reads like --cutoff=-3/4, in process and through the
    console entry point; --cutoff with no value is still an input error."""
    joined = run_cli(capsys, "--format", "machine", "spectrum", "--n", "2", "--cutoff=-3/4")
    assert joined[0] == 0 and json.loads(joined[1])["cutoff"] == "-3/4"
    assert run_cli(capsys, "--format", "machine", "spectrum", "--n", "2", "--cutoff", "-3/4") == joined
    fresh = subprocess.run(
        [sys.executable, "-m", "lietriples", "--format", "machine", "spectrum", "--n", "2",
         "--cutoff", "-3/4"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == joined
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--n", "2", "--cutoff"])
    assert exc.value.code == 2
    assert "argument --cutoff: expected one argument" in capsys.readouterr().err


def test_spectrum_rejects_n1(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--n", "1")
    assert code == 2
    assert "--n" in err


def test_unknown_entry_is_input_error(capsys):
    code, out, err = run_cli(capsys, "triples", "check", "nope")
    assert code == 2
    assert "unknown catalog entry" in err


def test_malformed_file_is_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run_cli(capsys, "triples", "check", str(bad))
    assert code == 2
    assert "invalid JSON" in err


def test_descriptor_file_accepted(capsys, tmp_path):
    entry = builtin_entries()["group"]
    path = tmp_path / "group.json"
    path.write_text(canonical_json(entry.to_json_dict()))
    code, out, _ = run_cli(capsys, "triples", "check", str(path))
    assert code == 0
    assert "TransitiveTriple" in out


def test_extra_catalog_flag(capsys, tmp_path):
    entry = builtin_entries()["group"]
    renamed = catalog.CatalogEntry(
        name="group-copy",
        algebra=entry.algebra,
        sigma=entry.sigma,
        theta=entry.theta,
        l=entry.l,
        generators=entry.generators,
    )
    path = tmp_path / "extra.json"
    path.write_text(canonical_json(renamed.to_json_dict()))
    code, out, _ = run_cli(capsys, "--catalog", str(path), "spherical", "group-copy")
    assert code == 0
    assert "spherical: no" in out


def test_extra_catalog_with_a_name_listed_twice_is_an_input_error(capsys, tmp_path):
    # the second lorentzian-2 has l = h = so(1,4), the M[k,l] with k > 1,
    # which is no transitive triple: run, it would exit 1
    first = builtin_entries()["lorentzian-2"].to_json_dict()
    h = [k for k, (a, _) in enumerate(combinations(range(6), 2)) if a > 0]
    second = dict(first, l={"kind": "explicit", "vectors": [_unit(k, dim=15) for k in h]})
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({"schema_version": 1, "entries": [first, second]}))
    for verb in (["triples", "check"], ["spherical"], ["casimir", "embed"]):
        code, out, err = run_cli(capsys, "--catalog", str(path), *verb, "lorentzian-2")
        assert (code, out, err) == (2, "", f"error: {path}#entries[1]: name 'lorentzian-2' listed twice\n")


@pytest.mark.parametrize(
    "top, problem",
    [
        ({"schema_version": 999}, "unsupported schema_version 999 (want 1)"),
        ({"schema_version": True}, "schema_version: expected an integer, got True"),
        ({"schema_version": 1, "bogus": 1}, "unknown key 'bogus'"),
        ({}, "schema_version: expected an integer, got None"),
    ],
    ids=["version-999", "version-true", "unknown-key", "no-version"],
)
def test_an_entries_wrapper_is_read_by_the_entry_rule(capsys, tmp_path, top, problem):
    # the wrapper's own schema_version is read as an entry's is, and it has
    # no key but schema_version and entries
    path = tmp_path / "wrapper.json"
    path.write_text(json.dumps({**top, "entries": [builtin_entries()["group"].to_json_dict()]}))
    with pytest.raises(catalog.CatalogError) as err:
        catalog.load_entries(str(path))
    assert str(err.value) == f"{path}: {problem}"
    for argv in (["triples", "check", str(path)], ["--catalog", str(path), "spherical", "group"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {path}: {problem}\n")


def test_machine_output_round_trips(capsys):
    for argv in (
        ["--format", "machine", "triples", "check", "group"],
        ["--format", "machine", "--explain", "triples", "check", "g2"],
        ["--format", "machine", "spherical", "group-compact"],
        ["--format", "machine", "--explain", "spherical", "lorentzian-2"],
        ["--format", "machine", "casimir", "embed", "group"],
        ["--format", "machine", "--explain", "casimir", "embed", "group-compact"],
        ["--format", "machine", "spectrum", "--n", "2", "--cutoff", "50"],
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert canonical_json(payload) == out


def test_machine_output_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "--format", "machine", "spherical", "group")
    code2, out2, _ = run_cli(capsys, "spherical", "group", "--format", "machine")
    assert (code1, code2) == (0, 0)
    assert out1 == out2


def test_global_flags_after_subcommand(capsys):
    code, out, _ = run_cli(capsys, "spherical", "g2", "--explain")
    assert code == 0
    assert "restricted roots" in out


def test_nontransitive_exit_code(capsys, tmp_path):
    # break the group entry by shrinking l to a line: conditions fail
    entry = builtin_entries()["group"].to_json_dict()
    entry["name"] = "broken"
    entry["l"] = {"kind": "explicit", "vectors": [["0", "1", "0", "0", "0", "0"]]}
    path = tmp_path / "broken.json"
    path.write_text(canonical_json(entry))
    code, out, err = run_cli(capsys, "triples", "check", str(path))
    assert code == 1
    assert "NotTransitiveTriple" in out
    code, out, err = run_cli(capsys, "spherical", str(path))
    assert (code, out) == (1, "")
    assert err == (
        "error: not a transitive triple; failed: (i) reductively embedded, "
        "(ii) infinitesimally transitive\n"
    )


def test_explicit_empty_l_fails_verification_on_every_verb(capsys, tmp_path):
    # an empty frame is 6 x 0 and its Gram 0 x 0: l + h misses g, and no
    # verb may fail on the empty shapes
    entry = builtin_entries()["group"].to_json_dict()
    entry["name"] = "empty-l"
    entry["l"] = {"kind": "explicit", "vectors": []}
    path = tmp_path / "empty-l.json"
    path.write_text(canonical_json(entry))
    code, out, err = run_cli(capsys, "triples", "check", str(path))
    assert (code, err) == (1, "")
    assert "dims: g=6 h=3 l=0 l∩h=0" in out and "verdict: NotTransitiveTriple" in out
    code, out, err = run_cli(capsys, "spherical", str(path))
    assert (code, out, err) == (
        1, "", "error: not a transitive triple; failed: (ii) infinitesimally transitive\n"
    )
    code, out, err = run_cli(capsys, "casimir", "embed", str(path))
    assert (code, out, err) == (1, "", "error: l + h does not fill g\n")


def _tilted_l() -> dict:
    # l = sl(2) + span{(0, E - 4F)}: a transitive triple, but theta = -X^T
    # sends E - 4F to 4E - F, outside l, so l has no Cartan split
    entry = builtin_entries()["group"].to_json_dict()
    vectors = [[str(int(k == i)) for k in range(6)] for i in range(3)]
    entry["l"] = {"kind": "explicit", "vectors": vectors + [["0", "0", "0", "0", "1", "-4"]]}
    return entry


def _identity_theta() -> dict:
    # theta = 1 preserves l and commutes with sigma, so every descriptor check
    # passes, but fix(theta) = so(2, 4) is not compact: a = 0 and m = l would
    # read as spherical
    entry = builtin_entries()["lorentzian-2"].to_json_dict()
    entry["theta"] = {"kind": "ad_diag", "signs": ["1"] * 6}
    return entry


@pytest.mark.parametrize(
    "make, problem",
    [
        (_tilted_l, "theta does not preserve l; no Cartan split available"),
        (_identity_theta, "fix(theta) is not compact"),
    ],
    ids=["tilted-l", "identity-theta"],
)
def test_theta_without_a_cartan_split_of_l_is_a_located_input_error(
    capsys, tmp_path, make, problem
):
    entry = make()
    entry["name"] = "no-cartan-split"
    path = tmp_path / "entry.json"
    path.write_text(canonical_json(entry))
    code, out, err = run_cli(capsys, "triples", "check", str(path))
    assert (code, err) == (0, "")
    assert "verdict: TransitiveTriple" in out
    for verb in (["spherical"], ["casimir", "embed"]):
        code, out, err = run_cli(capsys, *verb, str(path))
        assert (code, out) == (2, ""), verb
        assert err == f"error: {path}: theta: {problem}\n", verb


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "lietriples", "spectrum", "--n", "2", "--cutoff", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "5" in proc.stdout


def test_spherical_with_irrational_restricted_roots(capsys, tmp_path):
    # lorentzian-2 with l rebased by seed 0: the greedy a has irrational
    # restricted roots in the new basis; the verdict needs none, so the verb
    # exits 0 with the shipped output, and --explain says why the roots are
    # missing
    path = tmp_path / "rebased.json"
    path.write_text(canonical_json(rebased_entry(builtin_entries()["lorentzian-2"], 0)))
    for fmt in ("machine", "table"):
        want = run_cli(capsys, "--format", fmt, "spherical", "lorentzian-2")
        assert run_cli(capsys, "--format", fmt, "spherical", str(path)) == want
    code, out, err = run_cli(capsys, "--format", "machine", "--explain", "spherical", str(path))
    assert (code, err) == (0, "")
    got = json.loads(out)
    note = got["evidence"].pop("restricted_roots_note")
    assert note == (
        "restricted roots not rational for this a: "
        "ad action does not split over the rationals (covered 3 of 9 dimensions)"
    )
    assert got["evidence"].pop("restricted_roots") is None
    _, out, _ = run_cli(capsys, "--format", "machine", "--explain", "spherical", "lorentzian-2")
    want = json.loads(out)
    del want["evidence"]["restricted_roots"]
    assert got == want
    code, out, _ = run_cli(capsys, "--explain", "spherical", str(path))
    assert code == 0
    assert out.splitlines()[-1] == note


def test_casimir_embed_nontransitive_entry_fails_verification(capsys, tmp_path):
    entry = builtin_entries()["group"].to_json_dict()
    entry["name"] = "borel-l"
    # l = borel of the first factor: a subalgebra, but l + h is too small
    entry["l"] = {
        "kind": "explicit",
        "vectors": [["1", "0", "0", "0", "0", "0"], ["0", "1", "0", "0", "0", "0"]],
    }
    path = tmp_path / "borel.json"
    path.write_text(canonical_json(entry))
    code, out, err = run_cli(capsys, "casimir", "embed", str(path))
    assert code == 1
    assert "l + h" in err


def test_casimir_embed_requires_transitivity_only(capsys, tmp_path):
    """casimir embed needs l + h = g, condition (ii), and no more.  With l
    all of sl(2) + sl(2) and the swap sigma, l cap h is the diagonal sl(2),
    not compact: only (iii) fails.  triples check and spherical refuse the
    entry, while the transfer goes through, to omega_l with a zero
    residual."""
    entry = builtin_entries()["group"].to_json_dict()
    entry["name"] = "whole-g"
    entry["l"] = {
        "kind": "explicit",
        "vectors": [[str(int(i == j)) for j in range(6)] for i in range(6)],
    }
    path = tmp_path / "whole.json"
    path.write_text(canonical_json(entry))
    code, out, err = run_cli(capsys, "--format", "machine", "triples", "check", str(path))
    got = json.loads(out)
    assert (code, err, got["verdict"]) == (1, "", "NotTransitiveTriple")
    assert (got["reductively_embedded"], got["infinitesimally_transitive"]) == (True, True)
    assert got["compact_intersection"] is False
    code, out, err = run_cli(capsys, "spherical", str(path))
    assert (code, out) == (1, "")
    assert err == "error: not a transitive triple; failed: (iii) compact intersection\n"
    code, out, err = run_cli(capsys, "--format", "machine", "casimir", "embed", str(path))
    got = json.loads(out)
    assert (code, err) == (0, "")
    assert (got["coefficients"], got["residual_zero"]) == (["1", "0", "0"], True)


def test_bad_involution_signs_rejected(capsys, tmp_path):
    entry = builtin_entries()["lorentzian-2"].to_json_dict()
    entry["name"] = "bad-signs"
    entry["sigma"] = {"kind": "ad_diag", "signs": ["-1", "1"]}  # wrong length
    path = tmp_path / "signs.json"
    path.write_text(canonical_json(entry))
    code, out, err = run_cli(capsys, "triples", "check", str(path))
    assert code == 2
    assert "signs" in err


def test_non_subalgebra_l_rejected(capsys, tmp_path):
    entry = builtin_entries()["group"].to_json_dict()
    entry["name"] = "not-closed"
    # span{(E,0), (F,0)} is not closed under the bracket
    entry["l"] = {
        "kind": "explicit",
        "vectors": [["0", "1", "0", "0", "0", "0"], ["0", "0", "1", "0", "0", "0"]],
    }
    path = tmp_path / "notclosed.json"
    path.write_text(canonical_json(entry))
    code, out, err = run_cli(capsys, "triples", "check", str(path))
    assert code == 2
    assert "subalgebra" in err


def _nested_direct_sum(factor, depth):
    """factor summed with itself, depth times over: 2**depth copies."""
    for _ in range(depth):
        factor = {"kind": "direct_sum", "factors": [factor, factor]}
    return factor


def _direct_sum_chain(factor, length):
    """((factor + factor) + factor) + ..., length direct sums deep."""
    chain = factor
    for _ in range(length):
        chain = {"kind": "direct_sum", "factors": [chain, factor]}
    return chain


@pytest.mark.parametrize(
    "algebra, problem",
    [
        ({"kind": "so", "p": 2}, "algebra.q: missing"),
        ({"kind": "so", "p": 2.7, "q": 4}, "algebra.p: expected an integer, got 2.7"),
        ({"kind": "so", "p": True, "q": 4}, "algebra.p: expected an integer, got True"),
        ({"kind": "so", "p": "2", "q": 4}, "algebra.p: expected an integer, got '2'"),
        ({"kind": "so", "p": -1, "q": 5}, "algebra.p: expected a non-negative integer, got -1"),
        ({"kind": "sl", "n": -2}, "algebra.n: expected a non-negative integer, got -2"),
        # one past the cap: the message comes before any algebra is built
        (
            {"kind": "so", "p": 2, "q": catalog.MAX_SIZE - 1},
            f"algebra: p + q = {catalog.MAX_SIZE + 1} is above the size cap "
            f"MAX_SIZE = {catalog.MAX_SIZE}",
        ),
        (
            {"kind": "sl", "n": catalog.MAX_SIZE + 1},
            f"algebra: n = {catalog.MAX_SIZE + 1} is above the size cap "
            f"MAX_SIZE = {catalog.MAX_SIZE}",
        ),
        # below the smallest size each constructor accepts
        ({"kind": "so", "p": 0, "q": 0}, "algebra: so needs p + q >= 2, got 0"),
        ({"kind": "so", "p": 1, "q": 0}, "algebra: so needs p + q >= 2, got 1"),
        ({"kind": "u", "p": 0, "q": 0}, "algebra: u needs p + q >= 1, got 0"),
        ({"kind": "su", "p": 0, "q": 1}, "algebra: su needs p + q >= 2, got 1"),
        ({"kind": "sl", "n": 1}, "algebra: sl needs n >= 2, got 1"),
        # a direct sum is capped as a whole, each factor within MAX_SIZE or not
        pytest.param(
            _nested_direct_sum({"kind": "so", "p": 6, "q": 6}, 3),
            "algebra.factors[0].factors[0].factors[1]: the direct sum reaches "
            f"matrix size 24 here, above the size cap MAX_SIZE = {catalog.MAX_SIZE}",
            id="direct-sum-of-8-so66",
        ),
        # direct sums nested MAX_SIZE deep need more than MAX_SIZE factors:
        # the walk stops there, before any factor is read
        pytest.param(
            _direct_sum_chain({"kind": "so", "p": 1, "q": 1}, 200),
            f"algebra{'.factors[0]' * (catalog.MAX_SIZE - 1)}: {catalog.MAX_SIZE} "
            f"nested direct sums are above the size cap MAX_SIZE = {catalog.MAX_SIZE}",
            id="direct-sum-chain-200-deep",
        ),
    ],
)
def test_integer_fields_are_located_input_errors(capsys, tmp_path, algebra, problem):
    entry = builtin_entries()["lorentzian-2"].to_json_dict()
    entry["algebra"] = algebra
    _assert_located_input_error(capsys, tmp_path, entry, problem)


def test_direct_sum_nested_to_the_cap_passes_the_size_check():
    # MAX_SIZE - 1 nested direct sums of the 1 x 1 algebra u(1, 0) fill the
    # cap exactly; one more level is rejected by depth alone
    leaf = {"kind": "u", "p": 1, "q": 0}
    size, _ = catalog._algebra(_direct_sum_chain(leaf, catalog.MAX_SIZE - 1), "algebra", 1, 0)
    assert size == catalog.MAX_SIZE
    with pytest.raises(catalog.CatalogError, match="nested direct sums"):
        catalog._algebra(_direct_sum_chain(leaf, catalog.MAX_SIZE), "algebra", 1, 0)


def _explicit_l(first_entry):
    vectors = builtin_entries()["group-compact"].l["vectors"]
    return {"kind": "explicit", "vectors": [[first_entry, *vectors[0][1:]], *vectors[1:]]}


def _l_vectors(edit):
    """group-compact's explicit l with its vector list edited."""
    return {"kind": "explicit", "vectors": edit(builtin_entries()["group-compact"].l["vectors"])}


def _matrix(columns):
    return {"kind": "matrix", "columns": [[str(x) for x in col] for col in columns]}


def _unit(i, sign=1, dim=6):
    return [sign if k == i else 0 for k in range(dim)]


# H_1 -> -H_1 alone breaks [H_1, E_1] = 2 E_1; -X^T on the first sl(2)
# factor only is an automorphism that does not commute with the factor swap
_FLIP_H1 = _matrix([_unit(0, -1), *(_unit(i) for i in range(1, 6))])
_NEG_TRANSPOSE_FIRST = _matrix([_unit(0, -1), _unit(2, -1), _unit(1, -1), *(_unit(i) for i in range(3, 6))])


@pytest.mark.parametrize(
    "field, recipe, problem",
    [
        ("l", {"kind": "explicit"}, "l.vectors: missing"),
        ("algebra", {"kind": "direct_sum"}, "algebra.factors: missing"),
        ("sigma", {"kind": "matrix"}, "sigma.columns: missing"),
        ("sigma", {"kind": "ad_diag"}, "sigma.signs: missing"),
        ("sigma", 3, "sigma: expected an object, got 3"),
        ("l", _explicit_l(1.5), 'l.vectors[0][0]: expected a rational "p/q" string, got 1.5'),
        ("l", _explicit_l(True), 'l.vectors[0][0]: expected a rational "p/q" string, got True'),
        ("l", {"kind": "explicit", "vectors": [["1"]]}, "l.vectors[0]: expected 6 entries, got 1"),
        ("l", _explicit_l("1e999999999"), 'l.vectors[0][0]: expected a rational "p/q" string, got \'1e999999999\''),
        ("l", _explicit_l("0.5"), 'l.vectors[0][0]: expected a rational "p/q" string, got \'0.5\''),
        ("l", {"kind": "u_realified", "p": 1, "q": -1}, "l.q: expected a non-negative integer, got -1"),
        ("l", {"kind": "u_realified", "p": 0, "q": 0}, "l: u_realified needs p + q >= 1, got 0"),
        # an l recipe of the wrong size for lorentzian-2's so(2,4)
        (
            ("lorentzian-2", "l"),
            {"kind": "u_realified", "p": 1, "q": 1},
            "l: u_realified gives vectors of length 6, but the algebra has dimension 15",
        ),
        (
            ("lorentzian-2", "l"),
            {"kind": "g2_in_so43"},
            "l: g2_in_so43 gives vectors of length 21, but the algebra has dimension 15",
        ),
        # a repeated generator makes the list dependent, so no decomposition
        # over it is unique; a name is a string, not coerced to one
        (("lorentzian-2", "generators"), ["omega_l", "omega_l"], "generators: 'omega_l' listed twice"),
        ("name", 5, "name: expected a string, got 5"),
        # a zero sign, rejected while parsing: it would make the
        # conjugation singular
        *(
            (
                ("lorentzian-2", field),
                {"kind": "ad_diag", "signs": ["1", "0"] + ["1"] * 4},
                f"{field}.signs[1]: expected a nonzero rational, got '0'",
            )
            for field in ("sigma", "theta")
        ),
        # recipes whose involution constructor rejects them on so(2,4): a
        # conjugation that leaves the algebra, a swap on an algebra that is
        # no direct sum
        *(
            (("lorentzian-2", field), recipe, f"{field}: {problem}")
            for field in ("sigma", "theta")
            for recipe, problem in (
                (
                    {"kind": "ad_diag", "signs": ["2"] + ["1"] * 5},
                    "conjugation does not preserve the algebra",
                ),
                ({"kind": "swap_factors"}, "not a direct sum of two equal factors"),
            )
        ),
        # files that parse but whose parts do not fit together
        ("l", _l_vectors(lambda v: v + [v[0]]), "l.vectors: l_frame does not have full rank"),
        ("l", _l_vectors(lambda v: v[1:]), "l.vectors: l is not a subalgebra"),
        ("theta", _FLIP_H1, "theta: involution is not an automorphism at basis pair (0,1)"),
        ("sigma", _FLIP_H1, "sigma: involution is not an automorphism at basis pair (0,1)"),
        ("theta", _NEG_TRANSPOSE_FIRST, "sigma, theta: sigma and theta do not commute"),
    ],
)
def test_recipe_fields_are_located_input_errors(capsys, tmp_path, field, recipe, problem):
    # a field given as (entry, field) replaces that field of another shipped entry
    base, field = field if isinstance(field, tuple) else ("group-compact", field)
    entry = builtin_entries()[base].to_json_dict()
    entry[field] = recipe
    _assert_located_input_error(capsys, tmp_path, entry, problem)


def test_equal_files_each_name_themselves_in_their_errors(capsys, tmp_path):
    # two copies of group with l = span{E, F}, which is not closed: the
    # build of the first file is not reused for the second
    entry = builtin_entries()["group"].to_json_dict()
    entry["l"] = {"kind": "explicit", "vectors": [_unit(1), _unit(2)]}
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        path.write_text(json.dumps(entry))
        code, out, err = run_cli(capsys, "triples", "check", str(path))
        assert (code, out, err) == (2, "", f"error: {path}: l.vectors: l is not a subalgebra\n")


def _nested_list(depth):
    value = "1"
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize(
    "base, field, recipe, located",
    [
        ("group-compact", "l", _explicit_l(_nested_list(900)), "l.vectors[0][0]: "),
        ("group-compact", "l", _explicit_l(["1/2"] * 10_000), "l.vectors[0][0]: "),
        ("group-compact", "sigma", {"kind": "x" * 10_000}, "sigma: "),
        ("group-compact", "l", {"kind": _nested_list(900)}, "l: "),
        ("lorentzian-2", "algebra", {"kind": [{"k": "v" * 500}] * 500}, "algebra: "),
        (
            "lorentzian-2",
            "algebra",
            _direct_sum_chain({"kind": "so", "p": 1, "q": 1}, 200),
            "algebra.factors[0]",
        ),
    ],
    ids=["deep-list", "long-list", "long-kind", "deep-kind", "wide-kind", "direct-sum-chain"],
)
def test_echoed_values_and_paths_are_bounded(capsys, tmp_path, base, field, recipe, located):
    entry = builtin_entries()[base].to_json_dict()
    entry[field] = recipe
    path = tmp_path / "big.json"
    path.write_text(json.dumps(entry))
    for verb in (["triples", "check"], ["spherical"], ["casimir", "embed"]):
        code, out, err = run_cli(capsys, *verb, str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: {located}")
        assert err.count("\n") == 1 and len(err) < 300, err


def test_json_nested_too_deeply_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    for verb in (["triples", "check"], ["spherical"], ["casimir", "embed"]):
        code, out, err = run_cli(capsys, *verb, str(path))
        assert (code, out, err) == (2, "", f"error: {path}: invalid JSON: nested too deeply\n")


@pytest.mark.parametrize(
    "name, data, problem",
    [
        ("ff.json", b"\xff{}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        (
            "latin-1.json",
            b'{"name": "caf\xe9"}',
            "'utf-8' codec can't decode byte 0xe9 in position 13: invalid continuation byte",
        ),
    ],
    ids=["byte-0xff", "latin-1-name"],
)
def test_a_file_that_is_not_utf8_is_a_located_input_error(capsys, tmp_path, name, data, problem):
    path = tmp_path / name
    path.write_bytes(data)
    for argv in (["triples", "check", str(path)], ["--catalog", str(path), "spherical", "group"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {path}: {problem}\n")


def _assert_located_input_error(capsys, tmp_path, entry, problem):
    """Every verb exits 2 on the file, naming the file and the field."""
    path = tmp_path / "bad-field.json"
    path.write_text(json.dumps(entry))
    for verb in (["triples", "check"], ["spherical"], ["casimir", "embed"]):
        code, out, err = run_cli(capsys, *verb, str(path))
        assert (code, out, err) == (2, "", f"error: {path}: {problem}\n")
