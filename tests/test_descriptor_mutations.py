"""Seeded mutants of shipped descriptors keep the CLI exit-code contract.

Each mutant drops a field, gives a value another JSON type, or shortens or
lengthens a list, somewhere inside the group or group-compact entry.  Every
verb must exit 0, 1 or 2 on the mutant's file without an exception
escaping main.
"""

import copy
import json
import random

import pytest

from lietriples.catalog import builtin_entries
from lietriples.cli import main

SEED = 2021
MUTANTS_PER_ENTRY = 20

# one value of each JSON type, plus a few that look almost right
OTHER_VALUES = [None, True, 7, -1, 2.5, "x", "1/0", [], {}, [["1"]]]


def _locations(node, path=()):
    """(parent, path, value) for every value inside a JSON value."""
    children = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in children:
        yield node, path + (key,), value
        if isinstance(value, (dict, list)):
            yield from _locations(value, path + (key,))


MUTATIONS = {
    "drop": lambda parent, value: isinstance(parent, dict),
    "retype": lambda parent, value: True,
    "shorten": lambda parent, value: isinstance(value, list) and value,
    "lengthen": lambda parent, value: isinstance(value, list),
}


def _mutant(entry: dict, rng: random.Random) -> tuple[dict, str]:
    data = copy.deepcopy(entry)
    kind = rng.choice(sorted(MUTATIONS))
    fits = [loc for loc in _locations(data) if MUTATIONS[kind](loc[0], loc[2])]
    parent, path, value = rng.choice(fits)
    if kind == "drop":
        del parent[path[-1]]
    elif kind == "retype":
        others = [v for v in OTHER_VALUES if type(v) is not type(value)]
        parent[path[-1]] = rng.choice(others)
    elif kind == "shorten":
        del value[rng.randrange(len(value))]
    else:
        value.append(copy.deepcopy(rng.choice(value)) if value else "0")
    return data, f"{entry['name']}: {kind} {'.'.join(map(str, path))}"


def _mutants() -> list:
    rng = random.Random(SEED)
    out = []
    for name in ("group", "group-compact"):
        entry = builtin_entries()[name].to_json_dict()
        out += [_mutant(entry, rng) for _ in range(MUTANTS_PER_ENTRY)]
    return out


MUTANTS = _mutants()


@pytest.mark.parametrize("data", [d for d, _ in MUTANTS], ids=[i for _, i in MUTANTS])
def test_mutated_descriptor_keeps_the_exit_code_contract(capsys, tmp_path, data):
    path = tmp_path / "mutant.json"
    path.write_text(json.dumps(data))
    for verb in (["triples", "check"], ["spherical"], ["casimir", "embed"]):
        code = main([*verb, str(path)])
        err = capsys.readouterr().err
        assert code in (0, 1, 2)
        assert "Traceback" not in err
