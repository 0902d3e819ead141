"""Machine output of every verb on every shipped entry, byte for byte.

Each file tests/golden/<entry>-<verb>.txt holds the stdout of
``lietriples --format machine --explain <verb> <entry>`` followed by one
line ``exit: <code>``.  The files were written before the zero-skipping
kernels went in, so any change to a number, a key or an ordering in the
output of a later implementation fails here.  tests/golden/spectrum.txt
does the same for ``spectrum --n 3 --cutoff 200/3``, written before the
cutoff was read through ratlin._rat.
"""

from pathlib import Path

import pytest

from conftest import ENTRY_NAMES
from lietriples.cli import main

GOLDEN = Path(__file__).parent / "golden"

VERBS = {
    "triples-check": ["triples", "check"],
    "spherical": ["spherical"],
    "casimir-embed": ["casimir", "embed"],
}


@pytest.mark.parametrize("verb", VERBS)
@pytest.mark.parametrize("entry", ENTRY_NAMES)
def test_machine_output_matches_golden(capsys, entry, verb):
    code = main(["--format", "machine", "--explain", *VERBS[verb], entry])
    captured = capsys.readouterr()
    expected = (GOLDEN / f"{entry}-{verb}.txt").read_text()
    assert captured.out + f"exit: {code}\n" == expected
    assert captured.err == ""


def test_spectrum_machine_output_matches_golden(capsys):
    code = main(["--format", "machine", "--explain", "spectrum", "--n", "3", "--cutoff", "200/3"])
    captured = capsys.readouterr()
    assert captured.out + f"exit: {code}\n" == (GOLDEN / "spectrum.txt").read_text()
    assert captured.err == ""
