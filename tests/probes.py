"""Probes of the checker: each writes its descriptors, runs CLI verbs and asserts.

    python tests/probes.py goldens              # every file in tests/golden
    python tests/probes.py family lorentzian 4  # n = 4, 5; su: n = 2 to 5
    python tests/probes.py rebased 1            # lorentzian-4, a seeded frame
    python tests/probes.py cayley 1             # lorentzian-4, l and theta Cayley-conjugated
    python tests/probes.py scaled g2            # or lorentzian-2; frame x 10^12
    python tests/probes.py bench --workload cold-cli --seed 1 --seconds 3 --trace 0

As a script, each lietriples verb runs in a fresh process; tier-1 passes `in_process`.
"""

import difflib
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
sys.path.insert(0, SRC)

from helpers import cayley_conjugated_entry, rebased_entry  # noqa: E402
from lietriples import catalog, env2  # noqa: E402
from lietriples.cli import main  # noqa: E402
from lietriples.liealg import so_coordinates, su_matrices  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"
VERBS = {
    "triples-check": ["triples", "check"],
    "spherical": ["spherical"],
    "casimir-embed": ["casimir", "embed"],
}


def fresh(argv):
    """(exit code, stdout, stderr) of `python -m lietriples argv` in a new process."""
    cmd = [sys.executable, "-m", "lietriples", *argv]
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def in_process(argv):
    """The same of `cli.main(argv)`, run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def machine(run, *argv):
    """The parsed machine output of a verb that must exit 0."""
    code, out, err = run(["--format", "machine", *argv])
    assert code == 0, (argv, code, err)
    return json.loads(out)


def write(workdir, name, data) -> str:
    path = Path(workdir) / f"{name}.json"
    path.write_text(catalog.canonical_json(data))
    return str(path)


def built(path) -> catalog.BuiltTriple:
    (entry,) = catalog.load_entries(path).values()
    return catalog.build(entry)


# tests/golden/<name>.txt holds the stdout of `--format machine --explain
# <GOLDENS[name]>` followed by one line `exit: <code>`
GOLDENS = {f"{e}-{v}": [*argv, e] for e in catalog.builtin_entries() for v, argv in VERBS.items()}
GOLDENS["spectrum"] = ["spectrum", "--n", "3", "--cutoff", "200/3"]


def check_golden(run, name):
    assert name in GOLDENS, "no command in GOLDENS for this name"
    code, out, err = run(["--format", "machine", "--explain", *GOLDENS[name]])
    got, want = out + f"exit: {code}\n", (GOLDEN / f"{name}.txt").read_text()
    diff = difflib.unified_diff(want.splitlines(True), got.splitlines(True), name, "got")
    assert got == want, "".join(diff)
    assert err == "", err


# so(2,2n)/so(1,2n), l = u(1,n) (n = 2, 3 ship, tests/golden pins them) or su(1,n): dims
# of g, h, l, l cap h, Killing signatures on l and l cap h, the ambient Casimir's coefficients
FAMILY = {
    ("lorentzian", 4): ([45, 36, 25, 16], [8, 17, 0], [0, 16, 0], ("2", "-1", "0")),
    ("lorentzian", 5): ([66, 55, 36, 25], [10, 26, 0], [0, 25, 0], ("2", "-1", "0")),
    ("su", 2): ([15, 10, 8, 3], [4, 4, 0], [0, 3, 0], ("2", "-1/2", "0")),
    ("su", 3): ([28, 21, 15, 8], [6, 9, 0], [0, 8, 0], ("2", "-2/3", "0")),
    ("su", 4): ([45, 36, 24, 15], [8, 16, 0], [0, 15, 0], ("2", "-3/4", "0")),
    ("su", 5): ([66, 55, 35, 24], [10, 25, 0], [0, 24, 0], ("2", "-4/5", "0")),
}


def family_entry(family, n) -> dict:
    """catalog._lorentzian_entry(n); for su, l is su_matrices(1, n) in so(2,2n)."""
    data = catalog._lorentzian_entry(n).to_json_dict()
    if family == "su":
        mats = su_matrices(1, n)[0]
        vectors = [[str(x) for x in so_coordinates(2, 2 * n, m)] for m in mats]
        data["l"] = {"kind": "explicit", "vectors": vectors}
    return data


def check_family(run, workdir, family, n):
    """Each verb with --explain exits 0 with FAMILY's values; then check_transfer."""
    dims, on_l, on_l_cap_h, coefficients = FAMILY[family, n]
    path = write(workdir, f"{family}-{n}", family_entry(family, n))
    check, sph, cas = (machine(run, "--explain", *verb, path) for verb in VERBS.values())
    check_ev, sph_ev, cas_ev = (out["evidence"] for out in (check, sph, cas))
    assert check["verdict"] == "TransitiveTriple", check
    assert [check["dims"][k] for k in ("g", "h", "l", "l_cap_h")] == dims, check
    signatures = [check_ev["signature_on_l"], check_ev["signature_on_l_cap_h"]]
    assert signatures == [on_l, on_l_cap_h], check
    assert sph["spherical"] is True, sph
    # root spaces pair up: l = m + a + n + theta(n)
    assert sph["dim_l"] == sph_ev["dim_m"] + sph_ev["dim_a"] + 2 * sph_ev["dim_n"], sph
    assert cas["coefficients"] == list(coefficients) and cas["residual_zero"] is True, cas
    assert cas_ev["symmetrized_variant_equal"] is True, cas
    # every basis vector of h is checked: constant by construction, kept as a guard
    assert cas_ev["h_invariance_checks"] == cas_ev["dim_h"], cas
    check_transfer(path, [Fraction(c) for c in coefficients])


def check_transfer(path, coefficients):
    """Seeds 1-3 give the canonical image, also on a fresh build seeded first (seeding
    keeps the descriptor's split), and each image decomposes as coefficients over the
    first build's generators, another algebra object, modulo U(l)(l cap h)."""
    bt = built(path)
    base = bt.iota_of_casimir()
    assert [bt.iota_of_casimir(complement_seed=s) for s in (1, 2, 3)] == [base] * 3
    fresh_bt = catalog.BuiltTriple(bt.entry)
    images = [fresh_bt.iota_of_casimir(complement_seed=s) for s in (1, 2, 3, None)]
    assert images == [base] * 4, images
    gens = [q for _, q in bt.generators]
    for image in images:
        coeffs = env2.decompose_in_span(image, gens, fresh_bt.l_cap_h)
        assert coeffs == coefficients, coeffs
        combo = sum((q.scale(c) for c, q in zip(coeffs, gens)), env2.Quad2.zero(fresh_bt.l_alg))
        assert env2.equals_mod_ideal(image, combo, fresh_bt.l_cap_h), image


def same_answers(run, path, reference):
    """Each verb, without --explain, exits 0 with reference's machine output."""
    for verb in VERBS.values():
        got = run(["--format", "machine", *verb, path])
        assert got == run(["--format", "machine", *verb, reference]) and got[0] == 0, verb


def check_rebased(run, workdir, seed):
    """lorentzian-4 with l in a seeded unimodular basis of its frame."""
    reference = write(workdir, "lorentzian-4", family_entry("lorentzian", 4))
    data = rebased_entry(catalog._lorentzian_entry(4), seed)
    same_answers(run, write(workdir, f"lorentzian-4-rebased-{seed}", data), reference)


def check_cayley(run, workdir, seed):
    """lorentzian-4 with l and theta conjugated by a seeded Cayley transform in H,
    so that both have Fraction entries."""
    reference = write(workdir, "lorentzian-4", family_entry("lorentzian", 4))
    data = cayley_conjugated_entry(catalog._lorentzian_entry(4), seed)
    same_answers(run, write(workdir, f"lorentzian-4-cayley-{seed}", data), reference)


def scaled_entry(name) -> dict:
    """The shipped entry with l as explicit vectors, its frame's columns times 10^12."""
    data = catalog.builtin_entries()[name].to_json_dict()
    frame = catalog.get(name).descriptor.l_frame
    vectors = [[str(10**12 * x) for x in col] for col in frame.columns()]
    data["l"] = {"kind": "explicit", "vectors": vectors}
    return data


# hang guards: the restricted roots grow by 10^12 (with dim a = 2, the weighted sum of
# the ad(a_i) with a product of Gershgorin radii), the integer root search must not;
# name: (verdict, dim p, l cap h, p + l cap h, l; the --explain evidence, if checked)
SCALED = {
    "lorentzian-2": (True, [6, 4, 9, 9], None),
    "g2": (False, [8, 4, 12, 14], {"dim_a": 2, "dim_m": 0, "dim_n": 6, "roots": 12}),
}


def check_scaled(run, workdir, name):
    verdict, dims, evidence = SCALED[name]
    flags = ["--explain"] if evidence else []
    sph = machine(run, *flags, "spherical", write(workdir, f"{name}-scaled", scaled_entry(name)))
    assert sph["spherical"] is verdict, sph
    assert [sph[k] for k in ("dim_p", "dim_l_cap_h", "dim_p_plus_l_cap_h", "dim_l")] == dims, sph
    if evidence:
        ev = sph["evidence"]
        roots = {tuple(r["root"]): r["multiplicity"] for r in ev["restricted_roots"]}
        got = {k: ev[k] for k in ("dim_a", "dim_m", "dim_n")}
        assert {**got, "roots": len(roots)} == evidence, sph
        # -root is a root of the same multiplicity
        neg = {r: tuple(str(-Fraction(x)) for x in r) for r in roots}
        assert all(roots.get(neg[r]) == m for r, m in roots.items()), roots


def check_bench(stdout):
    """The last line of perfbench/run.py's stdout must say "correct": true."""
    lines = stdout.splitlines()
    assert lines and json.loads(lines[-1]).get("correct") is True, lines[-1:]


def cli(argv) -> int:
    probe, *args = argv or [""]
    probes = {"family": check_family, "rebased": check_rebased, "cayley": check_cayley,
              "scaled": check_scaled}
    if probe == "goldens":
        failed = False
        for path in sorted(GOLDEN.glob("*.txt")):
            try:
                check_golden(fresh, path.stem)
            except AssertionError as exc:  # print every failing file, then fail
                print(f"{path.name}: {exc}", file=sys.stderr)
                failed = True
        return int(failed)
    elif probe == "bench":
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), *args]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="")
        assert proc.returncode == 0, proc.returncode
        check_bench(proc.stdout)
    elif probe in probes:
        with tempfile.TemporaryDirectory() as workdir:
            probes[probe](fresh, workdir, *(int(a) if a.isdigit() else a for a in args))
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(cli(sys.argv[1:]))
