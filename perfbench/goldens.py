"""Exact expected results and the checker every benchmark op goes through.

The verdicts and coefficients are the README table's.  The dimensions follow
from the algebras: so(p, q) has dim (p+q)(p+q-1)/2, h and l are the named
subalgebras, and dim(l cap h) = dim l + dim h - dim g for a transitive
triple.  Restricted-root data is checked through identities that hold for
any choice of maximal abelian subspace, so a different greedy order cannot
trip the checker.  Spectrum values l^2 - n^2 are recomputed here.

A check returns a list of problems; an empty list means the op passed.
With require_evidence, a payload without its `--explain` evidence block is
a problem; without it the evidence is checked only when present.
"""

from __future__ import annotations

import json
from fractions import Fraction

ENTRIES = {
    "group": {
        "spherical": False,
        "coefficients": ["2", "0", "0"],
        "dims": {"g": 6, "h": 3, "l": 3, "l_cap_h": 0},
        "dim_q": 3, "dim_k": 2, "dim_s": 4,
        "signature_on_l": [2, 1, 0], "signature_on_l_cap_h": [0, 0, 0],
        "dim_k_l": 1, "dim_s_l": 2, "dim_a": 1, "dim_m": 0, "dim_n": 1,
        "dim_p": 2, "dim_p_plus_l_cap_h": 2,
        "generator_dims": {"omega_l": 3, "omega_l_cap_k": 1, "omega_l_cap_s_cap_q": 0},
    },
    "group-compact": {
        "spherical": True,
        "coefficients": ["2", "-1", "0"],
        "dims": {"g": 6, "h": 3, "l": 4, "l_cap_h": 1},
        "dim_q": 3, "dim_k": 2, "dim_s": 4,
        "signature_on_l": [2, 2, 0], "signature_on_l_cap_h": [0, 1, 0],
        "dim_k_l": 2, "dim_s_l": 2, "dim_a": 1, "dim_m": 1, "dim_n": 1,
        "dim_p": 3, "dim_p_plus_l_cap_h": 4,
        "generator_dims": {"omega_l": 4, "omega_l_cap_k": 2, "omega_l_cap_s_cap_q": 0},
    },
    "lorentzian-2": {
        "spherical": True,
        "coefficients": ["2", "-1", "0"],
        "dims": {"g": 15, "h": 10, "l": 9, "l_cap_h": 4},
        "dim_q": 5, "dim_k": 7, "dim_s": 8,
        "signature_on_l": [4, 5, 0], "signature_on_l_cap_h": [0, 4, 0],
        "dim_k_l": 5, "dim_s_l": 4, "dim_a": 1, "dim_m": 2, "dim_n": 3,
        "dim_p": 6, "dim_p_plus_l_cap_h": 9,
        "generator_dims": {"omega_l": 9, "omega_l_cap_k": 5, "omega_l_cap_s_cap_q": 0},
    },
    "g2": {
        "spherical": False,
        "coefficients": ["3", "-3/2", "2"],
        "dims": {"g": 21, "h": 11, "l": 14, "l_cap_h": 4},
        "dim_q": 10, "dim_k": 9, "dim_s": 12,
        "signature_on_l": [8, 6, 0], "signature_on_l_cap_h": [0, 4, 0],
        "dim_k_l": 6, "dim_s_l": 8, "dim_a": 2, "dim_m": 0, "dim_n": 6,
        "dim_p": 8, "dim_p_plus_l_cap_h": 12,
        "generator_dims": {"omega_l": 14, "omega_l_cap_k": 6, "omega_l_cap_s_cap_q": 4},
    },
}

GENERATORS = ["omega_l", "omega_l_cap_k", "omega_l_cap_s_cap_q"]


def _diff(problems: list, what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


def _evidence(p: list, payload: dict, required: bool):
    ev = payload.get("evidence")
    if ev is None and required:
        p.append("no evidence block")
    return ev


def check_triples(payload: dict, gold: dict, require_evidence: bool = False) -> list:
    """A `triples check` payload of a transitive triple."""
    p: list = []
    _diff(p, "verdict", payload.get("verdict"), "TransitiveTriple")
    for flag in ("reductively_embedded", "infinitesimally_transitive", "compact_intersection"):
        _diff(p, flag, payload.get(flag), True)
    _diff(p, "dims", payload.get("dims"), gold["dims"])
    ev = _evidence(p, payload, require_evidence)
    if ev is not None:
        for key in ("dim_q", "dim_k", "dim_s", "signature_on_l", "signature_on_l_cap_h"):
            _diff(p, key, ev.get(key), gold[key])
    return p


def check_spherical(payload: dict, gold: dict, require_evidence: bool = False) -> list:
    p: list = []
    dims = gold["dims"]
    _diff(p, "spherical", payload.get("spherical"), gold["spherical"])
    _diff(p, "dim_l", payload.get("dim_l"), dims["l"])
    _diff(p, "dim_l_cap_h", payload.get("dim_l_cap_h"), dims["l_cap_h"])
    _diff(p, "dim_p", payload.get("dim_p"), gold["dim_p"])
    _diff(p, "dim_p_plus_l_cap_h", payload.get("dim_p_plus_l_cap_h"), gold["dim_p_plus_l_cap_h"])
    ev = _evidence(p, payload, require_evidence)
    if ev is not None:
        for key in ("dim_k_l", "dim_s_l", "dim_a", "dim_m", "dim_n"):
            _diff(p, key, ev.get(key), gold[key])
        roots = ev.get("restricted_roots", [])
        total = sum(r["multiplicity"] for r in roots)
        _diff(p, "root multiplicities", total, dims["l"] - gold["dim_m"] - gold["dim_a"])
        negated = {tuple(str(-Fraction(x)) for x in r["root"]) for r in roots}
        _diff(p, "roots closed under negation", negated, {tuple(r["root"]) for r in roots})
    return p


def check_casimir(payload: dict, gold: dict, require_evidence: bool = False) -> list:
    p: list = []
    _diff(p, "generators", payload.get("generators"), GENERATORS)
    _diff(p, "coefficients", payload.get("coefficients"), gold["coefficients"])
    _diff(p, "residual_zero", payload.get("residual_zero"), True)
    ev = _evidence(p, payload, require_evidence)
    if ev is not None:
        dims = gold["dims"]
        _diff(p, "dim_g", ev.get("dim_g"), dims["g"])
        _diff(p, "dim_l", ev.get("dim_l"), dims["l"])
        _diff(p, "dim_h", ev.get("dim_h"), dims["h"])
        _diff(p, "dim_complement", ev.get("dim_complement"), dims["g"] - dims["l"])
        _diff(p, "h_invariance_checks", ev.get("h_invariance_checks"), dims["h"])
        _diff(p, "generator_dims", ev.get("generator_dims"), gold["generator_dims"])
        _diff(p, "symmetrized_variant_equal", ev.get("symmetrized_variant_equal"), True)
    return p


def check_not_transitive(payload: dict, dims: dict) -> list:
    """`triples check` on a triple with l = h: transitivity must fail."""
    p: list = []
    _diff(p, "verdict", payload.get("verdict"), "NotTransitiveTriple")
    _diff(p, "infinitesimally_transitive", payload.get("infinitesimally_transitive"), False)
    _diff(p, "dims", payload.get("dims"), dims)
    return p


def spectrum_expected(n: int, cutoff: Fraction) -> dict:
    """Bands and discrete eigenvalues l^2 - n^2 <= cutoff, l > n."""
    discrete = []
    ell = n + 1
    while ell * ell - n * n <= cutoff:
        discrete.append({"l": ell, "eigenvalue": str(ell * ell - n * n)})
        ell += 1
    edge = str(-n * n)
    return {
        "n": n,
        "cutoff": str(cutoff),
        "bounds": [[None, edge], [edge, "0"], ["0", None]],
        "discrete_positive": discrete,
    }


def check_spectrum(payload: dict, n: int, cutoff: Fraction) -> list:
    p: list = []
    want = spectrum_expected(n, cutoff)
    _diff(p, "n", payload.get("n"), want["n"])
    _diff(p, "cutoff", payload.get("cutoff"), want["cutoff"])
    bounds = [[b.get("lower"), b.get("upper")] for b in payload.get("bands", [])]
    _diff(p, "band bounds", bounds, want["bounds"])
    _diff(p, "discrete_positive", payload.get("discrete_positive"), want["discrete_positive"])
    return p


def check_cli(expect: dict, code: int, stdout: str, stderr: str) -> list:
    """Problems with one CLI run against its expectation.

    expect holds "codes" (the acceptable exit codes), optionally "entry"
    (the name machine output must carry) and "check" (a function of the
    parsed payload returning problems).  Any traceback is a problem.
    """
    p: list = []
    if code not in expect["codes"]:
        p.append(f"exit code {code}, want {sorted(expect['codes'])}")
    if "Traceback (most recent call last)" in stderr:
        last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
        p.append(f"traceback on stderr: {last}")
    check = expect.get("check")
    if check is None:
        if stdout:
            p.append("unexpected output on stdout")
        return p
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        p.append("stdout is not machine JSON")
        return p
    if "entry" in expect:
        _diff(p, "entry", payload.get("entry"), expect["entry"])
    return p + check(payload)
