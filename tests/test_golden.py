"""Machine output of every verb on every shipped entry, byte for byte.

Each file tests/golden/<name>.txt holds the stdout of the command that
probes.GOLDENS gives that name, run with --format machine --explain, and
its exit code.  The files were written before the zero-skipping kernels
went in, so any change to a number, a key or an ordering in the output of
a later implementation fails here; spectrum.txt was written before the
cutoff was read through ratlin._rat.
"""

import pytest

import probes


@pytest.mark.parametrize("name", probes.GOLDENS)
def test_machine_output_matches_golden(name):
    probes.check_golden(probes.in_process, name)


def test_every_golden_file_has_a_command():
    assert sorted(p.stem for p in probes.GOLDEN.glob("*.txt")) == sorted(probes.GOLDENS)
