"""The benchmark's command lines still parse and mean what they meant.

``perfbench/run.py`` builds each workload's ``degenwave run`` argv itself,
so a renamed or reinterpreted flag would break the benchmark without failing
any other test.  The module is only imported: importing it starts nothing.
"""

import importlib.util
import sys
from pathlib import Path
from unittest import mock

import pytest

from degenwave.cli import _config_from_args, build_parser, main

ROOT = Path(__file__).resolve().parent.parent


def load_bench():
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the class is made
    with mock.patch.dict(sys.modules, {spec.name: module}):
        spec.loader.exec_module(module)
    return module


BENCH = load_bench()

# (preset, T, T2, h, ks) of the full and of the set-up run at seed 0
EXPECTED = {
    "fig2": (("fig2", 10.0, 50.0, 0.01, (1, 2, 4, 8)),
             ("fig2", 0.002, 50.0, 0.01, (1, 2, 4, 8))),
    "fig3-short": (("fig3", 2.0, 12.0, 0.01, (1, 2, 4, 8)),
                   ("fig3", 0.002, 0.002, 0.01, (1, 2, 4, 8))),
    "fine-mesh": (("fig2", 2.0, 50.0, 0.002, (1, 4, 16)),
                  ("fig2", 0.002, 50.0, 0.002, (1, 4, 16))),
}


def test_every_workload_is_covered():
    assert set(BENCH.WORKLOADS) == set(EXPECTED)


@pytest.mark.parametrize("setup", [False, True], ids=["full", "setup"])
@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_workload_argv_parses_and_validates(name, setup, tmp_path):
    workload = BENCH.WORKLOADS[name]
    ks = BENCH.modes_for(workload, 0, BENCH.load_reference())
    argv = BENCH.cli_args(workload, ks, setup)
    args = build_parser().parse_args(argv + ["--out", str(tmp_path / "result")])
    config = _config_from_args(args)
    config.validate()
    got = (config.experiment, config.t_final, config.t_extend, config.h,
           config.ks)
    assert got == EXPECTED[name][setup]


def test_fig3_short_final_energy_within_reference(tmp_path):
    # the benchmark's E(T) gate on the mode its AB5 extension moves most
    reference = BENCH.load_reference()["fig3-short"]
    out = tmp_path / "result"
    assert main(["run", "--preset", "fig3", "--T", "2", "--T2", "12",
                 "--k", "12", "--out", str(out)]) == 0
    got = BENCH.final_energy((out / "traces" / "trace_k12.csv").read_bytes())
    assert abs(got - reference["final_energy"]["12"]) <= reference["tolerance"]
