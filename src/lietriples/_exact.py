"""Exact values in and out: _rat, the package's one reader of exact
rationals (descriptor files, the CLI and every layer read through it), and
canonical_json with SCHEMA_VERSION, the one JSON rendering.

The module imports no other module of the package, so that the CLI front
end and the spectrum report load it without the algebra; ratlin and catalog
bind these same objects for the layers above them.
"""

from __future__ import annotations

import re
from fractions import Fraction

SCHEMA_VERSION = 1

_RATIONAL = re.compile(r"([+-]?)([0-9]+)(?:/([0-9]+))?")
_MAX_DIGITS = 4300  # Python's default int_max_str_digits, whatever the setting


def _rat(x) -> Fraction:
    """x as a Fraction: a Fraction, an int (not a bool), or the text "p" or
    "p/q" with an optional sign.  A wrong type or other text is a TypeError,
    a zero denominator or more than _MAX_DIGITS digits in a row ValueError."""
    if isinstance(x, Fraction):
        return x
    if type(x) is int:
        return Fraction(x)
    match = _RATIONAL.fullmatch(x) if isinstance(x, str) else None
    if match is None:
        raise TypeError(f"not an exact rational: {x!r}")
    sign, p, q = match.groups(default="1")  # no "/q" reads as q = 1
    if len(p) > _MAX_DIGITS or len(q) > _MAX_DIGITS:
        raise ValueError(f"more than {_MAX_DIGITS} digits in a row")
    if not int(q):
        raise ValueError(f"zero denominator: {x!r}")
    return Fraction(int(sign + p), int(q))


def canonical_json(obj) -> str:
    """The one JSON rendering used everywhere (machine output, caching)."""
    # json is imported here: the table format never renders JSON
    import json

    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
