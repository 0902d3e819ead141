"""Per-layer timing of lietriples from outside the package.

A Tracer replaces each public function or method named in TARGETS with a
wrapper that counts calls and accumulates self time (its wall time minus the
time spent in other wrapped calls it made).  Every binding of a wrapped
function inside the package is patched, not only the defining module's: a
module that did ``from .ratlin import kernel`` holds its own reference, and
leaving it unpatched would hide those calls.  ``remove`` restores every
binding it replaced.

Nothing here changes what the package computes; the benchmark asserts that
traced CLI stdout is byte-identical to untraced stdout.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

PACKAGE = "lietriples"

# (module, attribute path).  Methods are given as "Class.method".
TARGETS = (
    ("cli", "main"),
    ("catalog", "build"),
    ("catalog", "BuiltTriple.__init__"),
    ("catalog", "load_entries"),
    ("liealg", "from_matrix_basis"),
    ("liealg", "killing_form"),
    ("liealg", "is_subalgebra"),
    ("liealg", "subalgebra_on_own_basis"),
    ("liealg", "centralizer"),
    ("pairs", "Involution.validate"),
    ("pairs", "conjugation_involution"),
    ("pairs", "eigenspace_split"),
    ("pairs", "check_transitive_triple"),
    ("parabolic", "is_spherical_triple"),
    ("parabolic", "cartan_split_of_l"),
    ("parabolic", "maximal_abelian_in_s"),
    ("parabolic", "restricted_roots"),
    ("parabolic", "char_poly"),
    ("env2", "casimir"),
    ("env2", "symmetrized_casimir"),
    ("env2", "iota_embed"),
    ("env2", "check_h_invariant"),
    ("env2", "decompose_in_span"),
    ("env2", "equals_mod_ideal"),
    ("spectra", "lorentzian_spectrum_report"),
    ("ratlin", "kernel"),
    ("ratlin", "solve"),
    ("ratlin", "inverse"),
    ("ratlin", "rank"),
    ("ratlin", "signature"),
    ("ratlin", "SubspaceBasis.__init__"),
    ("ratlin", "RatMatrix.__matmul__"),
    ("ratlin", "RatMatrix.apply"),
    ("ratlin", "_rref"),
    ("ratlin", "_bareiss_rank"),
)

# Wrapped names that some workload never calls: only their call counts are
# published, because a self time that is structurally zero carries no
# information (the warm workload has no CLI, the descriptor files give
# explicit involution matrices, and so on).
CALLS_ONLY = frozenset(
    {
        "cli.main",
        "catalog.build",
        "catalog.load_entries",
        "pairs.conjugation_involution",
        "env2.symmetrized_casimir",
        "spectra.lorentzian_spectrum_report",
    }
)


def _cells(args) -> int:
    rows = args[0]
    return len(rows) * len(rows[0]) if rows else 0


def _matmul_mults(args) -> int:
    a, b = args[0], args[1]
    return a.rows * a.cols * b.cols


def _apply_mults(args) -> int:
    return args[0].rows * args[0].cols


# Sizes computed from the arguments of a wrapped call, as (counter, function).
SIZES = {
    "ratlin._rref": ("ratlin.elim.cells", _cells),
    "ratlin._bareiss_rank": ("ratlin.elim.cells", _cells),
    "ratlin.RatMatrix.matmul": ("ratlin.matmul.mults", _matmul_mults),
    "ratlin.RatMatrix.apply": ("ratlin.apply.mults", _apply_mults),
}
COUNTERS = ("ratlin.elim.cells", "ratlin.matmul.mults", "ratlin.apply.mults")


def metric_stem(module: str, attr: str) -> str:
    """'ratlin', 'RatMatrix.__matmul__' -> 'ratlin.RatMatrix.matmul'."""
    parts = [module]
    for piece in attr.split("."):
        if piece == "__init__":
            continue
        parts.append(piece.strip("_") if piece.startswith("__") else piece)
    return ".".join(parts)


STEMS = tuple(metric_stem(m, a) for m, a in TARGETS)


class Tracer:
    """Call counts, self times and sizes for the wrapped package functions."""

    def __init__(self):
        self.calls = {stem: 0 for stem in STEMS}
        self.self_s = {stem: 0.0 for stem in STEMS}
        self.counters = {name: 0 for name in COUNTERS}
        self._stack: list = []
        self._patches: list = []

    def _wrap(self, stem: str, fn):
        calls, self_s, counters, stack = self.calls, self.self_s, self.counters, self._stack
        size = SIZES.get(stem)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if size is not None:
                counters[size[0]] += size[1](args)
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                calls[stem] += 1
                self_s[stem] += elapsed - inner
                if stack:
                    stack[-1] += elapsed

        wrapper.__perfbench_wrapper__ = True
        return wrapper

    def install(self) -> None:
        """Wrap every target and patch every package binding of it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name in ("cli", "catalog", "liealg", "pairs", "parabolic", "env2", "spectra", "ratlin"):
            importlib.import_module(f"{PACKAGE}.{name}")
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        try:
            for target, stem in zip(TARGETS, STEMS):
                self._install_one(target, stem, modules)
        except Exception:
            self.remove()
            raise

    def _install_one(self, target, stem, modules) -> None:
        # A target the package no longer defines raises (AttributeError or
        # KeyError), so that a stale TARGETS list cannot read as 0 calls.
        module, attr = target
        owner = sys.modules[f"{PACKAGE}.{module}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            original = vars(cls)[meth]
            self._patch(cls, meth, original, self._wrap(stem, original))
            return
        original = getattr(owner, attr)
        wrapper = self._wrap(stem, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, original, wrapper)

    def _patch(self, holder, key, original, wrapper) -> None:
        setattr(holder, key, wrapper)
        self._patches.append((holder, key, original))

    def remove(self) -> None:
        """Put back every binding that install replaced."""
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def to_json(self) -> dict:
        return {"calls": self.calls, "self_s": self.self_s, "counters": self.counters}


def fold(parts) -> dict:
    """Sum Tracer.to_json() records (one per traced process or pass)."""
    total = {
        "calls": {stem: 0 for stem in STEMS},
        "self_s": {stem: 0.0 for stem in STEMS},
        "counters": {name: 0 for name in COUNTERS},
    }
    for part in parts:
        for section, values in total.items():
            for key in values:
                values[key] += part[section][key]
    return total


def layer_metrics(folded: dict) -> dict:
    """Published per-layer values from a folded record."""
    out = {}
    for stem in STEMS:
        if stem not in CALLS_ONLY:
            out[f"{stem}.self_s"] = (folded["self_s"][stem], "s")
        out[f"{stem}.calls"] = (folded["calls"][stem], "count")
    for name in COUNTERS:
        out[name] = (folded["counters"][name], "count")
    return out
