"""Command-line front end.

Verbs:
    triples check <entry-or-file>   evaluate the three transitive-triple
                                    conditions; exit 0 only on a verified
                                    transitive triple
    spherical <entry>               sphericity verdict with the dimension
                                    evidence
    casimir embed <entry>           exact coefficients of the embedded
                                    ambient Casimir over the entry's
                                    generator list; exit 0 only when the
                                    canonical residual is zero
    spectrum --n N --cutoff C       banded Laplace spectrum report

Global flags: --format {table, machine}, --explain, --catalog PATH.

The machine format is canonical JSON (sorted keys, two-space indent, one
trailing newline, rationals as "p/q" strings) tagged with schema_version;
identical inputs produce byte-identical output, and re-rendering parsed
output reproduces it exactly.

Exit codes: 0 verified/success, 1 verification failure, 2 input error;
the sphericity verdict reads no eigenvalue, so spherical has no exit 3.

Importing this module loads spectra and _exact alone: spectrum runs on
them.  The entry verbs import catalog, pairs and env2 (and through them
liealg and ratlin) when they run, and spherical alone imports parabolic.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import TYPE_CHECKING

from ._exact import SCHEMA_VERSION, _rat, canonical_json
from .spectra import lorentzian_spectrum_report

if TYPE_CHECKING:
    from .catalog import BuiltTriple, CatalogEntry, CatalogError
    from .pairs import DescriptorError

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2


def _resolve(args) -> BuiltTriple:
    from . import catalog as cat

    extra = {}
    if args.catalog:
        extra = cat.load_entries(args.catalog)
    name = args.entry
    if os.path.isfile(name):
        entries = cat.load_entries(name)
        if len(entries) != 1:
            raise cat.CatalogError(
                f"{name}: file holds {len(entries)} entries; "
                "pass a single-entry file or use --catalog plus the entry name"
            )
        return cat.build(next(iter(entries.values())))
    return cat.get(name, extra)


def _on_entry(verb):
    """verb(args, built) on the resolved entry, after the descriptor's
    checks.  A DescriptorError from those checks or from the verb (such as
    the Cartan split of l that spherical and casimir embed read) is an
    input error naming the file and the field at fault; an error of pairs
    or env2 that refutes the triple is a verification failure."""

    def run(args) -> int:
        from .env2 import DegenerateForm, NotInvariant, NotTransitive
        from .pairs import DescriptorError, NotTransitiveTriple

        try:
            built = _resolve(args)
            try:
                built.descriptor.validate()
                return verb(args, built)
            except DescriptorError as exc:
                raise _located(built.entry, exc) from None
        except (NotInvariant, NotTransitive, NotTransitiveTriple, DegenerateForm) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_VERIFICATION

    return run


def _located(entry: CatalogEntry, exc: DescriptorError) -> CatalogError:
    """exc as a CatalogError naming the file and the field at fault."""
    from .catalog import CatalogError

    field = exc.field
    if field in ("l", "l_frame", "l_labels"):
        # the frame is the l recipe's vectors, in the order given
        field = "l.vectors" if entry.l.get("kind") == "explicit" else "l"
    return CatalogError(f"{entry.source or entry.name}: {field}: {exc}")


def _emit(args, payload: dict, table_lines: list) -> None:
    if args.format == "machine":
        sys.stdout.write(canonical_json(payload))
    else:
        for line in table_lines:
            print(line)


def cmd_triples_check(args, built: BuiltTriple) -> int:
    from .pairs import check_transitive_triple

    report = check_transitive_triple(built.descriptor)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "triples_check",
        "entry": built.entry.name,
        "reductively_embedded": report.reductive,
        "infinitesimally_transitive": report.transitive,
        "compact_intersection": report.compact_intersection,
        "dims": report.dims,
        "verdict": report.verdict,
    }
    yn = lambda b: "yes" if b else "no"
    d = report.dims
    lines = [
        f"entry: {built.entry.name}",
        f"(i)   reductively embedded:        {yn(report.reductive)}",
        f"(ii)  infinitesimally transitive:  {yn(report.transitive)}",
        f"(iii) compact intersection:        {yn(report.compact_intersection)}",
        f"dims: g={d['g']} h={d['h']} l={d['l']} l∩h={d['l_cap_h']}"
        f"  (l + h - l∩h = {d['l'] + d['h'] - d['l_cap_h']})",
        f"verdict: {report.verdict}",
    ]
    if args.explain:
        evidence = built.triple_evidence()
        payload["evidence"] = evidence
        lines.append(
            "eigenspace dims: "
            f"q={evidence['dim_q']} k={evidence['dim_k']} s={evidence['dim_s']}"
        )
        lines.append(
            "Killing signatures (pos, neg, zero): "
            f"on l {tuple(evidence['signature_on_l'])}, "
            f"on l∩h {tuple(evidence['signature_on_l_cap_h'])}"
        )
    _emit(args, payload, lines)
    return EXIT_OK if report.is_transitive_triple else EXIT_VERIFICATION


def cmd_spherical(args, built: BuiltTriple) -> int:
    # parabolic is imported here, by the one verb that runs it
    from .parabolic import is_spherical_triple

    verdict, ev = is_spherical_triple(built.descriptor)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "spherical",
        "entry": built.entry.name,
        "spherical": verdict,
        "dim_p": ev["dim_p"],
        "dim_l_cap_h": ev["dim_l_cap_h"],
        "dim_p_plus_l_cap_h": ev["dim_p_plus_l_cap_h"],
        "dim_l": ev["dim_l"],
    }
    lines = [
        f"entry: {built.entry.name}",
        f"spherical: {'yes' if verdict else 'no'}",
        f"dim p_L = {ev['dim_p']}, dim l∩h = {ev['dim_l_cap_h']}, "
        f"dim (p_L + l∩h) = {ev['dim_p_plus_l_cap_h']}, dim l = {ev['dim_l']}",
    ]
    if args.explain:
        payload["evidence"] = {
            "dim_k_l": ev["dim_k_l"],
            "dim_s_l": ev["dim_s_l"],
            "dim_a": ev["dim_a"],
            "dim_m": ev["dim_m"],
            "dim_n": ev["dim_n"],
            "restricted_roots": ev["roots"],
        }
        lines.append(
            f"cartan split: k_l={ev['dim_k_l']} s_l={ev['dim_s_l']}; "
            f"parabolic: m={ev['dim_m']} a={ev['dim_a']} n={ev['dim_n']}"
        )
        if ev["roots"] is None:
            payload["evidence"]["restricted_roots_note"] = ev["roots_note"]
            lines.append(ev["roots_note"])
        else:
            root_text = ", ".join(
                f"({','.join(r['root'])}) x{r['multiplicity']}" for r in ev["roots"]
            )
            lines.append(f"restricted roots: {root_text}")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_casimir_embed(args, built: BuiltTriple) -> int:
    report = built.embedding_report()
    coeffs = report["coefficients"]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "casimir_embed",
        "entry": built.entry.name,
        "generators": report["generators"],
        "coefficients": None if coeffs is None else [str(c) for c in coeffs],
        "residual_zero": report["residual_zero"],
    }
    lines = [f"entry: {built.entry.name}"]
    if coeffs is None:
        lines.append("no exact decomposition over the generator list")
    else:
        terms = []
        for c, name in zip(coeffs, report["generators"]):
            if c != 0:
                sign = "-" if c < 0 else "+"
                mag = -c if c < 0 else c
                coeff_txt = "" if mag == 1 else f"{mag}*"
                terms.append(f"{sign} {coeff_txt}{name}")
        formula = " ".join(terms).lstrip("+ ") or "0"
        lines.append(f"iota(Omega_G) = {formula}")
        lines.append(
            "coefficients: ("
            + ", ".join(str(c) for c in coeffs)
            + f")  over ({', '.join(report['generators'])})"
        )
    lines.append(f"canonical residual zero: {'yes' if report['residual_zero'] else 'no'}")
    if args.explain:
        extra = built.embedding_evidence()
        payload["evidence"] = extra
        lines.append(
            f"dims: g={extra['dim_g']} l={extra['dim_l']} h={extra['dim_h']} "
            f"complement={extra['dim_complement']}; "
            f"h-invariance checked on {extra['h_invariance_checks']} basis elements"
        )
        lines.append(
            "generator subspace dims: "
            + ", ".join(f"{k}={v}" for k, v in extra["generator_dims"].items())
        )
        lines.append(
            f"symmetrized variant equal: "
            f"{'yes' if extra['symmetrized_variant_equal'] else 'no'}"
        )
    _emit(args, payload, lines)
    ok = coeffs is not None and report["residual_zero"]
    return EXIT_OK if ok else EXIT_VERIFICATION


def cmd_spectrum(args) -> int:
    if args.n < 2:
        print("spectrum: --n must be at least 2", file=sys.stderr)
        return EXIT_INPUT
    try:
        cutoff = _rat(args.cutoff)
    except (TypeError, ValueError):
        print(f"spectrum: bad --cutoff value {args.cutoff!r}", file=sys.stderr)
        return EXIT_INPUT
    report = lorentzian_spectrum_report(args.n, cutoff)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "spectrum",
        "n": report.n,
        "cutoff": str(report.cutoff),
        "bands": [
            {
                "interval": band.interval_text(),
                "lower": None if band.lower is None else str(band.lower),
                "lower_open": band.lower_open,
                "upper": None if band.upper is None else str(band.upper),
                "upper_open": band.upper_open,
                "attribution": band.attribution,
            }
            for band in report.bands
        ],
        "discrete_positive": [
            {"l": ell, "eigenvalue": str(value)}
            for ell, value in report.discrete_positive
        ],
        "eigenspace_note": report.eigenspace_note,
    }
    lines = [f"Lorentzian spectrum report, n = {report.n}, cutoff = {report.cutoff}"]
    for band in report.bands:
        lines.append(f"  band {band.interval_text()}: {band.attribution}")
    if report.discrete_positive:
        values = ", ".join(str(v) for _, v in report.discrete_positive)
        ells = ", ".join(str(ell) for ell, _ in report.discrete_positive)
        lines.append(f"  discrete positive eigenvalues: {values}")
        lines.append(f"  from l = {ells}")
    else:
        lines.append("  discrete positive eigenvalues: none up to the cutoff")
    lines.append(f"  note: {report.eigenspace_note}")
    _emit(args, payload, lines)
    return EXIT_OK


def _add_global_options(parser: argparse.ArgumentParser, leaf: bool) -> None:
    # On leaf parsers the defaults are suppressed so that a value given
    # before the subcommand is not clobbered by a leaf default.
    suppress = argparse.SUPPRESS
    parser.add_argument(
        "--format",
        choices=("table", "machine"),
        default=suppress if leaf else "table",
        help="output style; machine is canonical JSON",
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        default=suppress if leaf else False,
        help="include the evidence record",
    )
    parser.add_argument(
        "--catalog",
        metavar="PATH",
        default=suppress if leaf else None,
        help="extra catalog JSON file",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lietriples",
        description="Exact checks for transitive/spherical triples, Casimir "
        "embeddings, and Lorentzian spectrum reports.",
    )
    _add_global_options(parser, leaf=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_global_options(common, leaf=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p_triples = sub.add_parser("triples", help="transitive-triple verification")
    sub_triples = p_triples.add_subparsers(dest="subcommand", required=True)
    p_check = sub_triples.add_parser(
        "check", parents=[common], help="check conditions (i)(ii)(iii)"
    )
    p_check.add_argument("entry", help="catalog entry name or descriptor file")
    p_check.set_defaults(func=_on_entry(cmd_triples_check))

    p_spherical = sub.add_parser(
        "spherical", parents=[common], help="sphericity verdict"
    )
    p_spherical.add_argument("entry", help="catalog entry name or descriptor file")
    p_spherical.set_defaults(func=_on_entry(cmd_spherical))

    p_casimir = sub.add_parser("casimir", help="Casimir embedding")
    sub_casimir = p_casimir.add_subparsers(dest="subcommand", required=True)
    p_embed = sub_casimir.add_parser(
        "embed", parents=[common], help="coefficients of the embedded ambient Casimir"
    )
    p_embed.add_argument("entry", help="catalog entry name or descriptor file")
    p_embed.set_defaults(func=_on_entry(cmd_casimir_embed))

    p_spectrum = sub.add_parser(
        "spectrum", parents=[common], help="Lorentzian spectrum report"
    )
    p_spectrum.add_argument(
        "--n", type=int, required=True, help="family parameter, n >= 2"
    )
    p_spectrum.add_argument(
        "--cutoff", default="100", help="largest discrete eigenvalue to list (rational)"
    )
    p_spectrum.set_defaults(func=cmd_spectrum)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    for k in range(len(argv) - 1, 0, -1):
        # argparse reads "-3/4", not a plain negative number, as an option
        if argv[k - 1] == "--cutoff" and re.match(r"-[0-9]", argv[k]):
            argv[k - 1 : k + 1] = [f"--cutoff={argv[k]}"]
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
