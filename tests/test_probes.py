"""The probes CI runs with tests/probes.py, run here in process at CI's sizes.

A broken probe, or a change to a value of probes.FAMILY, fails locally: the
Lorentzian family with l = u(1,n) and l = su(1,n) for n = 2 to 5, lorentzian-4
in the two rebased frames CI checks and in its first Cayley-conjugated one, and
both 10^12-scaled frames.
"""

import pytest

import probes
from probes import in_process


@pytest.mark.parametrize("family, n", probes.FAMILY)
def test_family_member(tmp_path, family, n):
    probes.check_family(in_process, tmp_path, family, n)


@pytest.mark.parametrize("seed", [1, 2])
def test_rebased_lorentzian_4(tmp_path, seed):
    probes.check_rebased(in_process, tmp_path, seed)


def test_cayley_conjugated_lorentzian_4(tmp_path):
    probes.check_cayley(in_process, tmp_path, 1)


@pytest.mark.parametrize("name", probes.SCALED)
def test_scaled_frame(tmp_path, name):
    probes.check_scaled(in_process, tmp_path, name)


def test_fresh_process_gives_the_in_process_output():
    argv = ["--format", "machine", "spectrum", "--n", "2", "--cutoff", "50"]
    assert probes.fresh(argv) == in_process(argv)


def test_bench_checker_reads_the_last_line():
    probes.check_bench('workload\n{"correct": true, "failed": 0}\n')
    for stdout in ("", '{"correct": true}\n{"correct": false}\n', '{"correct": 1}\n', "{}\n"):
        with pytest.raises(AssertionError):
            probes.check_bench(stdout)


def test_unknown_probe_is_a_usage_error(capsys):
    assert probes.cli(["nope"]) == 2
    assert "python tests/probes.py" in capsys.readouterr().err
