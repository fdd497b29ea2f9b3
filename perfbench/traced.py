"""Run the degenwave command line with a span around each layer's calls.

    python3 perfbench/traced.py run --preset fig2 --k 1,2,4,8 --out DIR/result

Before ``degenwave.cli.main`` runs, the public functions of each module are
replaced by wrappers that record a span (name, start, end, parent) or bump a
work counter.  The replacement is made everywhere the original function
object is bound, so names imported by ``from ... import`` into other modules
(``cli``, ``experiments``, ``picard``, ...) are traced too; ``src/`` is not
changed.  Spans stay in memory and are written when the run ends, next to
the output directory: ``DIR/spans.npz`` (arrays ``name``, ``parent``,
``start``, ``end``) and ``DIR/trace.json`` (run id, span names, counters).
The program must run on one thread (``DEGENWAVE_THREADS=1``), so that spans
nest.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
import uuid
from collections import Counter
from pathlib import Path

import numpy as np

import degenwave
from degenwave import (cli, experiments, linop, linwave, mesh, multistep,
                       oracle, picard)

MODULES = (degenwave, cli, experiments, linop, linwave, mesh, multistep,
           oracle, picard)


class Tracer:
    """Spans and counters of one run, kept in parallel lists."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.names: list = []
        self.name: list = []
        self.parent: list = []
        self.start: list = []
        self.end: list = []
        self.stack = [-1]
        self.counters: Counter = Counter()

    def span(self, label: str, fn, count=None):
        """Wrap ``fn`` so each call records a span named ``label``.

        ``count(counters, result, args, kwargs)`` runs after the call.
        """
        if label not in self.names:
            self.names.append(label)
        nid = self.names.index(label)
        name, parent, start, end, stack = (self.name, self.parent, self.start,
                                           self.end, self.stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(end)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if count is not None:
                count(self.counters, result, args, kwargs)
            return result

        return wrapper

    def tally(self, key: str, fn):
        """Wrap ``fn`` so each call adds one to counter ``key``; no span."""
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def write(self, directory: Path) -> None:
        np.savez(directory / "spans.npz",
                 name=np.array(self.name, dtype=np.int64),
                 parent=np.array(self.parent, dtype=np.int64),
                 start=np.array(self.start), end=np.array(self.end))
        (directory / "trace.json").write_text(json.dumps(
            {"run_id": self.run_id, "names": self.names,
             "counters": dict(self.counters)}, indent=1, sort_keys=True))


def rebind(owner, attr: str, wrapped) -> None:
    """Replace ``owner.attr`` and every module-level alias of it."""
    original = inspect.getattr_static(owner, attr)
    setattr(owner, attr, wrapped)
    for module in MODULES:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)


def calls(key):
    def count(counters, result, args, kwargs):
        counters[key] += 1
    return count


def arguments(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def count_propagator(counters, prop, args, kwargs):
    # computed: bytes of the cached dense powers, not bytes moved
    counters["linop.propagator.bytes"] += sum(p.nbytes for p in prop.powers)


def count_sweep(counters, states, args, kwargs):
    a = arguments(linwave.sweep, args, kwargs)
    points = a["prop"].points
    nsteps, n = states.shape[0] - 1, a["f_absc"].shape[1]
    counters["linwave.sweep.calls"] += 1
    counters["linwave.sweep.steps"] += nsteps
    # computed from shapes: per step, ``points`` (n x 2n) gathers plus their
    # accumulation, then one (2n x 2n) propagator product and the add
    counters["linwave.sweep.flops"] += nsteps * (points * (4 * n * n + 2 * n)
                                                 + 8 * n * n + 2 * n)


def count_picard(counters, result, args, kwargs):
    counters["picard.solves"] += 1
    counters["picard.windows"] += len(result.windows)
    counters["picard.iterations"] += result.iterations


def count_extension(counters, traj, args, kwargs):
    substeps = arguments(multistep.extend_trajectory, args, kwargs)["substeps"]
    counters["multistep.substeps"] = max(counters["multistep.substeps"], substeps)


def count_rk4(counters, sol, args, kwargs):
    a = arguments(oracle.rk4_ansatz, args, kwargs)
    counters["oracle.rk4.steps"] += int(round(a["t_final"] / a["step"]))


def counted_rhs_factory(tracer: Tracer, factory):
    @functools.wraps(factory)
    def wrapper(*args, **kwargs):
        return tracer.tally("multistep.rhs.calls", factory(*args, **kwargs))
    return wrapper


def install(tr: Tracer) -> None:
    """Wrap each layer's public entry points (see the module docstring)."""
    rebind(mesh.QuarticTensor, "contract",
           tr.span("mesh.contract", mesh.QuarticTensor.contract,
                   calls("mesh.contract.calls")))
    rebind(mesh.SpatialOperators, "solve_mass",
           tr.span("mesh.solve_mass", mesh.SpatialOperators.solve_mass,
                   calls("mesh.solve_mass.calls")))
    rebind(linop, "matrix_exponential",
           tr.span("linop.propagator", linop.matrix_exponential, count_propagator))
    rebind(linop, "energy", tr.span("linop.energy", linop.energy,
                                    calls("linop.energy.calls")))
    rebind(linwave, "sweep", tr.span("linwave.sweep", linwave.sweep, count_sweep))
    rebind(picard, "picard_solve",
           tr.span("picard", picard.picard_solve, count_picard))
    rebind(multistep, "extend_trajectory",
           tr.span("multistep", multistep.extend_trajectory, count_extension))
    # internal steps: AB5 steps plus the Runge-Kutta bootstrap substeps
    rebind(multistep, "ab5_step", tr.tally("multistep.steps", multistep.ab5_step))
    rebind(multistep, "_rk4_step", tr.tally("multistep.steps", multistep._rk4_step))
    rebind(multistep, "semilinear_rhs",
           counted_rhs_factory(tr, multistep.semilinear_rhs))
    rebind(oracle, "rk4_ansatz", tr.span("oracle.rk4", oracle.rk4_ansatz, count_rk4))
    for fn in ("compare_energy_decay", "compare_energy_norm"):
        rebind(oracle, fn, tr.span("oracle.compare", getattr(oracle, fn)))
    for fn in ("frequency_sweep", "extend_with_ab5"):
        rebind(experiments, fn, tr.span("experiments", getattr(experiments, fn)))
    for fn in ("write_trace_csv", "write_columns_csv", "emit_plot"):
        rebind(cli, fn, tr.span("cli.artifacts", getattr(cli, fn)))
    rebind(cli.Report, "write", tr.span("cli.artifacts", cli.Report.write))


def main(argv: list) -> int:
    if os.environ.get("DEGENWAVE_THREADS") != "1":
        print("traced runs need DEGENWAVE_THREADS=1", file=sys.stderr)
        return 1
    if "--out" not in argv:
        print("traced runs need --out", file=sys.stderr)
        return 1
    tracer = Tracer()
    install(tracer)
    code = cli.main(argv)
    tracer.write(Path(argv[argv.index("--out") + 1]).parent)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
