"""The shipped catalog of triples and its on-disk descriptor format.

Entries are small recipes (which algebra, which involutions, which embedded
subalgebra, which generator list) that build into validated
TripleDescriptors.  Descriptor files are JSON with every rational serialized
as a "p/q" string and read by _exact._rat, so no float can enter.

Conventions fixed here:
  * so(p, q) always uses the defining form J = diag(I_p, -I_q), and theta is
    conjugation by J.
  * the Lorentzian family embeds u(1, n) in so(2, 2n) by realification in
    interleaved coordinates (re_1, im_1, re_2, ...), where the defining forms
    literally agree; sigma is conjugation by diag(-1, 1, ..., 1), whose fixed
    subalgebra is the so(1, 2n) block.
  * the G2 entry embeds the split G2 matrices of liealg.g2_matrices (the
    derivations of the split octonions, written in a basis where they
    preserve diag(I_4, -I_3)) in so(4, 3); sigma is conjugation by
    diag(1, 1, 1, 1, 1, -1, -1), fixing so(4, 1) + so(2).  Any other
    negative-definite 2-plane gives an equivalent descriptor, so this choice
    is a recorded convention, not extra data.
"""

from __future__ import annotations

import json
import reprlib
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple, Optional

from . import env2
from ._exact import SCHEMA_VERSION, _rat, canonical_json
from .env2 import Quad2, casimir
from .liealg import (
    LieAlgebra,
    direct_sum,
    g2_matrices,
    g2_split,
    restrict_form,
    sl,
    so,
    so_coordinates,
    su,
    u,
    u_matrices,
)
from .pairs import (
    Involution,
    TripleDescriptor,
    conjugation_involution,
    negative_transpose_involution,
    swap_involution,
)
from .ratlin import RatMatrix, SubspaceBasis

# Largest matrix size a descriptor may request: p + q for so, u and su (and
# for l's u_realified), n for sl, the sum over the factors for a direct sum.
# Checked before anything is built, as are the smallest sizes the
# constructors accept.
MAX_SIZE = 12

GENERATOR_NAMES = ("omega_l", "omega_l_cap_k", "omega_l_cap_s_cap_q")


class CatalogError(ValueError):
    """A descriptor failed to parse or validate."""


class _BoundedRepr(reprlib.Repr):
    """repr for values echoed in messages: containers cut after a few items
    and three levels, the whole cut to 80 characters; short values read as
    repr() gives them."""

    def __init__(self):
        super().__init__()
        self.maxlevel = 3
        self.maxstring = self.maxother = 40

    def repr(self, x) -> str:
        text = super().repr(x)
        return text if len(text) <= 80 else text[:77] + "..."


_show = _BoundedRepr().repr


class CatalogEntry(NamedTuple):
    name: str
    algebra: dict
    sigma: dict
    theta: dict
    l: dict
    generators: tuple = GENERATOR_NAMES
    # where the entry was read from, for error messages; not part of its
    # value, so equality and hash read every field but this last one
    source: str = ""

    def __eq__(self, other):
        if type(other) is not CatalogEntry:
            return NotImplemented
        return self[:-1] == other[:-1]

    # tuple's own __ne__ would compare the source too
    def __ne__(self, other):
        if type(other) is not CatalogEntry:
            return NotImplemented
        return self[:-1] != other[:-1]

    def __hash__(self):
        return hash(self[:-1])

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "algebra": self.algebra,
            "sigma": self.sigma,
            "theta": self.theta,
            "l": self.l,
            "generators": list(self.generators),
        }


def _field(recipe: dict, key: str, where: str):
    """recipe[key]; where locates the recipe in messages."""
    if key not in recipe:
        raise CatalogError(f"{where}.{key}: missing")
    return recipe[key]


def _typed(value, kind: type, where: str, length: Optional[int] = None):
    """value as a JSON object, list, string or integer (never a bool), of a
    given length."""
    if type(value) is not kind:
        name = {dict: "an object", list: "a list", str: "a string", int: "an integer"}[kind]
        raise CatalogError(f"{where}: expected {name}, got {_show(value)}")
    if length is not None and len(value) != length:
        raise CatalogError(f"{where}: expected {length} entries, got {len(value)}")
    return value


def _sizes(recipe: dict, keys: str, where: str, minimum: int) -> list:
    """The integer fields named by keys (such as "pq"): each non-negative,
    their sum between minimum and MAX_SIZE."""
    sizes = []
    for key in keys:
        size = _typed(_field(recipe, key, where), int, f"{where}.{key}")
        if size < 0:
            raise CatalogError(
                f"{where}.{key}: expected a non-negative integer, got {size}"
            )
        sizes.append(size)
    total = " + ".join(keys)
    if sum(sizes) < minimum:
        raise CatalogError(
            f"{where}: {recipe['kind']} needs {total} >= {minimum}, got {sum(sizes)}"
        )
    if sum(sizes) > MAX_SIZE:
        raise CatalogError(
            f"{where}: {total} = {sum(sizes)} is above the size cap "
            f"MAX_SIZE = {MAX_SIZE}"
        )
    return sizes


def _rational(value, where: str) -> Fraction:
    """value read by _exact._rat, the one rule for exact rationals (a JSON
    integer or an integer or "p/q" string), refused at where."""
    try:
        return _rat(value)
    except (TypeError, ValueError):
        raise CatalogError(
            f'{where}: expected a rational "p/q" string, got {_show(value)}'
        ) from None


def _vector(value, where: str, length: int) -> list:
    entries = _typed(value, list, where, length)
    return [_rational(x, f"{where}[{i}]") for i, x in enumerate(entries)]


def _vectors(value, where: str, length: int, count: Optional[int] = None) -> list:
    vectors = _typed(value, list, where, count)
    return [_vector(v, f"{where}[{i}]", length) for i, v in enumerate(vectors)]


# -- recipe interpreters ----------------------------------------------------


# algebra recipe kind -> (constructor, size fields, smallest size)
_SIZED_ALGEBRAS = {"so": (so, "pq", 2), "u": (u, "pq", 1), "su": (su, "pq", 2), "sl": (sl, "n", 2)}


def _build_algebra(recipe, where: str = "algebra") -> LieAlgebra:
    return _algebra(recipe, where, 1, 0)[1]()


def _algebra(
    node, at: str, depth: int, total: int
) -> tuple[int, Callable[[], LieAlgebra]]:
    """(size, build) for an algebra recipe met at depth, where total is the
    matrix size of the factors before it: size adds its own (p + q or n, 7
    for split G2, the sum over the factors of a direct sum), and build()
    constructs it.  The walk is depth first and stops at the first factor
    past MAX_SIZE; nothing is built until the whole walk has passed.  Every
    factor has size at least 1, so direct sums nested k deep have size at
    least k + 1; the walk also stops at the first direct sum nested deeper
    than MAX_SIZE - 1, which bounds the recursion and keeps the path it
    names short."""
    kind = _typed(node, dict, at).get("kind")
    if kind == "direct_sum":
        if depth >= MAX_SIZE:
            raise CatalogError(
                f"{at}: {depth} nested direct sums are above the size cap "
                f"MAX_SIZE = {MAX_SIZE}"
            )
        factors = _typed(_field(node, "factors", at), list, f"{at}.factors", 2)
        total, first = _algebra(factors[0], f"{at}.factors[0]", depth + 1, total)
        total, second = _algebra(factors[1], f"{at}.factors[1]", depth + 1, total)
        return total, lambda: direct_sum(first(), second())
    if kind == "g2split":
        total, build = total + 7, g2_split  # liealg.g2_matrices are 7 x 7
    elif isinstance(kind, str) and kind in _SIZED_ALGEBRAS:
        construct, keys, minimum = _SIZED_ALGEBRAS[kind]
        sizes = _sizes(node, keys, at, minimum)
        total, build = total + sum(sizes), lambda: construct(*sizes)
    else:
        raise CatalogError(f"{at}: unknown algebra recipe kind: {_show(kind)}")
    if total > MAX_SIZE:
        raise CatalogError(
            f"{at}: the direct sum reaches matrix size {total} here, "
            f"above the size cap MAX_SIZE = {MAX_SIZE}"
        )
    return total, build


def _build_involution(g: LieAlgebra, recipe, where: str) -> Involution:
    """The involution of a recipe.  A zero ad_diag sign, and what the
    constructor rejects (a conjugation that leaves the algebra, a swap on an
    algebra that is no direct sum of two equal factors), is an input error
    at where."""
    kind = _typed(recipe, dict, where).get("kind")
    if kind == "ad_diag":
        if g.matrices is None:
            raise CatalogError(f"{where}: ad_diag needs an algebra given by matrices")
        size = g.matrices[0].rows
        raw = _field(recipe, "signs", where)
        signs = _vector(raw, f"{where}.signs", size)
        for k, x in enumerate(signs):
            if not x:
                raise CatalogError(
                    f"{where}.signs[{k}]: expected a nonzero rational, got {_show(raw[k])}"
                )
        build = lambda: conjugation_involution(g, RatMatrix.diagonal(signs))
    elif kind == "swap_factors":
        build = lambda: swap_involution(g)
    elif kind == "neg_transpose":
        build = lambda: negative_transpose_involution(g)
    elif kind == "matrix":
        columns = _field(recipe, "columns", where)
        cols = _vectors(columns, f"{where}.columns", g.dim, g.dim)
        build = lambda: Involution(RatMatrix.from_columns(g.dim, cols))
    else:
        raise CatalogError(f"{where}: unknown involution recipe kind: {_show(kind)}")
    try:
        return build()
    except ValueError as exc:
        raise CatalogError(f"{where}: {exc}") from None


def _build_l(
    g: LieAlgebra, recipe, where: str = "l"
) -> tuple[RatMatrix, Optional[list]]:
    """(frame, labels): the columns of the frame are the preferred ordered
    basis of l, and labels names them (None for explicit vectors)."""
    kind = _typed(recipe, dict, where).get("kind")
    if kind == "first_factor":
        half = g.dim // 2
        units = [{i: Fraction(1)} for i in range(half)]
        return RatMatrix._of_rows(units, g.dim).transpose(), list(g.basis_labels[:half])
    if kind == "explicit":
        cols = _vectors(_field(recipe, "vectors", where), f"{where}.vectors", g.dim)
        return RatMatrix.from_columns(g.dim, cols), None
    if kind == "u_realified":
        p_sig, q_sig = _sizes(recipe, "pq", where, 1)
        mats, labels = u_matrices(p_sig, q_sig)
        cols = [so_coordinates(2 * p_sig, 2 * q_sig, m) for m in mats]
    elif kind == "g2_in_so43":
        mats, labels = g2_matrices()
        cols = [so_coordinates(4, 3, m) for m in mats]
    else:
        raise CatalogError(f"{where}: unknown l recipe kind: {_show(kind)}")
    if len(cols[0]) != g.dim:
        raise CatalogError(
            f"{where}: {kind} gives vectors of length {len(cols[0])}, "
            f"but the algebra has dimension {g.dim}"
        )
    return RatMatrix.from_columns(g.dim, cols), labels


# -- built triples -----------------------------------------------------------


class BuiltTriple:
    """A catalog entry resolved into exact objects, computed lazily.

    The derived objects of the triple (h, q, k, s, the Killing form, l as an
    algebra, l cap h) are owned by the descriptor; this class adds the
    Casimir elements and the evidence records of the CLI verbs.
    """

    def __init__(self, entry: CatalogEntry):
        self.entry = entry
        where = entry.source or entry.name
        self.g = _build_algebra(entry.algebra, f"{where}: algebra")
        sigma = _build_involution(self.g, entry.sigma, f"{where}: sigma")
        theta = _build_involution(self.g, entry.theta, f"{where}: theta")
        frame, labels = _build_l(self.g, entry.l, f"{where}: l")
        self.descriptor = TripleDescriptor(
            g=self.g,
            sigma=sigma,
            theta=theta,
            l_frame=frame,
            name=entry.name,
            l_labels=labels,
        )

    @property
    def l_alg(self) -> LieAlgebra:
        return self.descriptor.l_alg

    @property
    def l_cap_h(self) -> SubspaceBasis:
        """l cap h in l-coordinates."""
        return self.descriptor.l_cap_h_in_l

    @cached_property
    def omega_g(self) -> Quad2:
        full = SubspaceBasis.full(self.g.dim)
        return casimir(self.g, full, self.descriptor.killing)

    def generator_subspace(self, name: str) -> SubspaceBasis:
        """The subspace of l (in l-coordinates) normalizing each generator:
        all of l, l cap k = k_l from the descriptor's Cartan split of l, or
        l cap s cap q, one kernel inside l (TripleDescriptor.in_l)."""
        d = self.descriptor
        k_l, _ = d.cartan_split
        if name == "omega_l":
            return SubspaceBasis.full(self.l_alg.dim)
        if name == "omega_l_cap_k":
            return k_l
        if name == "omega_l_cap_s_cap_q":
            return d.in_l(theta=-1, sigma=-1)
        raise CatalogError(f"unknown generator name: {name!r}")

    @cached_property
    def _normalized_subspaces(self) -> list:
        """[(name, subspace of l, normalizing form on it)] per generator.

        The forms are restrictions of the descriptor's Killing Gram on the
        frame, in l-coordinates (see generators).  B(X, theta Y) is the
        Killing form on compact directions (theta fixes them) and its
        negative on s-directions, so it is negative definite wherever we use
        it; the plain restriction would flip the sign of the mixed subspace
        generator.  The subspaces read the descriptor's Cartan split, which
        raises DescriptorError on theta unless theta is a Cartan involution
        that preserves l.
        """
        out = []
        for name in self.entry.generators:
            sub = self.generator_subspace(name)
            form = restrict_form(self.descriptor.frame_gram, sub)
            out.append((name, sub, -form if name == "omega_l_cap_s_cap_q" else form))
        return out

    @cached_property
    def generators(self) -> list:
        """[(name, Quad2 over l)] normalized per the catalog convention.

        omega_l uses the ambient Killing form restricted to l.  The two
        auxiliary generators use the theta-twisted form B(X, theta Y): on
        l cap k this equals the restricted Killing form, and on the mixed
        subspace l cap s cap q it is the negative of it.
        """
        return [
            (name, casimir(self.l_alg, sub, form))
            for name, sub, form in self._normalized_subspaces
        ]

    def iota_of_casimir(self, complement_seed: Optional[int] = None) -> Quad2:
        if complement_seed is None:
            return self._canonical_image
        return env2.iota_embed(self.descriptor, self.omega_g, complement_seed)

    @cached_property
    def _canonical_image(self) -> Quad2:
        """iota(Omega_G) through the canonical split."""
        return env2.iota_embed(self.descriptor, self.omega_g)

    def embedding_report(self) -> dict:
        """Coefficients of iota(Omega_G) over the generator list, plus checks."""
        image = self.iota_of_casimir()
        gens = self.generators
        coeffs = env2.decompose_in_span(
            image, [q for _, q in gens], self.l_cap_h
        )
        residual_zero = False
        if coeffs is not None:
            combo = Quad2.zero(self.l_alg)
            for c, (_, gen) in zip(coeffs, gens):
                combo = combo + gen.scale(c)
            residual_zero = env2.equals_mod_ideal(image, combo, self.l_cap_h)
        return {
            "generators": [name for name, _ in gens],
            "coefficients": None if coeffs is None else [Fraction(c) for c in coeffs],
            "residual_zero": residual_zero,
        }

    def triple_evidence(self) -> dict:
        """Auditable extras for the triples-check command."""
        d = self.descriptor
        report = d.triple_report
        return {
            "dim_q": d.q.dim,
            "dim_k": d.k.dim,
            "dim_s": d.s.dim,
            "signature_on_l": list(report.signature_on_l),
            "signature_on_l_cap_h": list(report.signature_on_l_cap_h),
        }

    def embedding_evidence(self) -> dict:
        """Auditable extras for the embedding command."""
        d = self.descriptor
        gen_dims = {}
        sym_equal = True
        for (name, sub, form), (_, plain) in zip(
            self._normalized_subspaces, self.generators
        ):
            gen_dims[name] = sub.dim
            if sub.dim and plain != env2.symmetrized_casimir(self.l_alg, sub, form):
                sym_equal = False
        labels = self.l_alg.basis_labels
        image_terms = [
            [".".join(labels[i] for i in m) or "1", str(c)]
            for m, c in self.iota_of_casimir().ordered_terms()
        ]
        return {
            "dim_g": self.g.dim,
            "dim_l": d.l.dim,
            "dim_h": d.h.dim,
            "dim_complement": self.g.dim - d.l.dim,
            "h_invariance_checks": d.h.dim,
            "generator_dims": gen_dims,
            "symmetrized_variant_equal": sym_equal,
            "canonical_image": image_terms,
        }

    def validate(self) -> None:
        """Raise pairs.DescriptorError unless the descriptor passes its
        checks and theta gives l a Cartan split; both are decided by the
        descriptor, and this runs no check of its own.  Nothing in the
        package calls it: it is kept because the warm set-up of the
        benchmark (perfbench/workloads.py) does."""
        self.descriptor.validate()
        self.descriptor.cartan_split


# -- shipped entries ----------------------------------------------------------


def _group_entry() -> CatalogEntry:
    return CatalogEntry(
        name="group",
        algebra={
            "kind": "direct_sum",
            "factors": [{"kind": "sl", "n": 2}, {"kind": "sl", "n": 2}],
        },
        sigma={"kind": "swap_factors"},
        theta={"kind": "neg_transpose"},
        l={"kind": "first_factor"},
    )


def _group_compact_entry() -> CatalogEntry:
    # l = sl(2) in the first factor plus so(2) = span(E - F) in the second;
    # ambient coordinates are (H, E, F)_1 then (H, E, F)_2.
    vectors = [
        ["1", "0", "0", "0", "0", "0"],
        ["0", "1", "0", "0", "0", "0"],
        ["0", "0", "1", "0", "0", "0"],
        ["0", "0", "0", "0", "1", "-1"],
    ]
    return CatalogEntry(
        name="group-compact",
        algebra={
            "kind": "direct_sum",
            "factors": [{"kind": "sl", "n": 2}, {"kind": "sl", "n": 2}],
        },
        sigma={"kind": "swap_factors"},
        theta={"kind": "neg_transpose"},
        l={"kind": "explicit", "vectors": vectors},
    )


def _lorentzian_entry(n: int) -> CatalogEntry:
    size = 2 + 2 * n
    return CatalogEntry(
        name=f"lorentzian-{n}",
        algebra={"kind": "so", "p": 2, "q": 2 * n},
        sigma={"kind": "ad_diag", "signs": ["-1"] + ["1"] * (size - 1)},
        theta={"kind": "ad_diag", "signs": ["1", "1"] + ["-1"] * (2 * n)},
        l={"kind": "u_realified", "p": 1, "q": n},
    )


def _g2_entry() -> CatalogEntry:
    return CatalogEntry(
        name="g2",
        algebra={"kind": "so", "p": 4, "q": 3},
        sigma={"kind": "ad_diag", "signs": ["1", "1", "1", "1", "1", "-1", "-1"]},
        theta={"kind": "ad_diag", "signs": ["1", "1", "1", "1", "-1", "-1", "-1"]},
        l={"kind": "g2_in_so43"},
    )


def builtin_entries() -> dict:
    entries = [
        _group_entry(),
        _group_compact_entry(),
        _lorentzian_entry(2),
        _lorentzian_entry(3),
        _g2_entry(),
    ]
    return {e.name: e for e in entries}


_BUILT_CACHE: dict = {}


def build(entry: CatalogEntry) -> BuiltTriple:
    """The built triple of an entry, one per content and source: an equal
    entry read from another file names that file in its errors."""
    key = (entry.source, canonical_json(entry.to_json_dict()))
    if key not in _BUILT_CACHE:
        _BUILT_CACHE[key] = BuiltTriple(entry)
    return _BUILT_CACHE[key]


def get(name: str, extra: Optional[dict] = None) -> BuiltTriple:
    entries = builtin_entries()
    if extra:
        entries.update(extra)
    if name not in entries:
        known = ", ".join(sorted(entries))
        raise CatalogError(f"unknown catalog entry {name!r} (known: {known})")
    return build(entries[name])


# -- on-disk format -----------------------------------------------------------


def _check_schema_version(data: dict, where: str) -> None:
    # typed first: true and 1.0 compare equal to 1
    version = _typed(data.get("schema_version"), int, f"{where}: schema_version")
    if version != SCHEMA_VERSION:
        raise CatalogError(
            f"{where}: unsupported schema_version {_show(version)} (want {SCHEMA_VERSION})"
        )


def entry_from_json_dict(data: dict, where: str = "<entry>") -> CatalogEntry:
    if not isinstance(data, dict):
        raise CatalogError(f"{where}: entry must be an object")
    _check_schema_version(data, where)
    for field in ("name", "algebra", "sigma", "theta", "l"):
        if field not in data:
            raise CatalogError(f"{where}: missing field {field!r}")
    generators = data.get("generators", list(GENERATOR_NAMES))
    generators = tuple(_typed(generators, list, f"{where}: generators"))
    for k, gname in enumerate(generators):
        if gname not in GENERATOR_NAMES:
            raise CatalogError(f"{where}: unknown generator {_show(gname)}")
        # a generator listed twice makes the list dependent, so no
        # decomposition over it is unique
        if gname in generators[:k]:
            raise CatalogError(f"{where}: generators: {_show(gname)} listed twice")
    return CatalogEntry(
        name=_typed(data["name"], str, f"{where}: name"),
        algebra=data["algebra"],
        sigma=data["sigma"],
        theta=data["theta"],
        l=data["l"],
        generators=generators,
        source=where,
    )


def load_entries(path: str) -> dict:
    """Load {name: CatalogEntry} from a JSON descriptor file.

    The file holds one entry object or {"schema_version": 1, "entries":
    [...]} in UTF-8; bytes that are not UTF-8 are a CatalogError naming the
    file, JSON parse errors are re-raised with line/column diagnostics, and
    nesting too deep for the parser as a CatalogError.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CatalogError(f"{path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise CatalogError(f"{path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CatalogError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"
        ) from exc
    except RecursionError:
        raise CatalogError(f"{path}: invalid JSON: nested too deeply") from None
    if isinstance(data, dict) and "entries" in data:
        _check_schema_version(data, path)
        extra = sorted(data.keys() - {"schema_version", "entries"})
        if extra:
            raise CatalogError(f"{path}: unknown key {_show(extra[0])}")
        items = data["entries"]
        if not isinstance(items, list):
            raise CatalogError(f"{path}: 'entries' must be a list")
        out = {}
        for idx, item in enumerate(items):
            where = f"{path}#entries[{idx}]"
            entry = entry_from_json_dict(item, where=where)
            if entry.name in out:
                raise CatalogError(f"{where}: name {_show(entry.name)} listed twice")
            out[entry.name] = entry
        return out
    entry = entry_from_json_dict(data, where=path)
    return {entry.name: entry}
