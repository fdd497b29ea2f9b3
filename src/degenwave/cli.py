"""Command-line front end: configuration, orchestration, artifacts.

Every run writes a manifest with the fully resolved configuration, one CSV
per trace with fixed 17-significant-digit formatting (so reruns are
byte-identical), static SVG plots, a report with pass/fail lines for
the built-in invariant checks, and ``diagnostics.json`` with each Picard
window's iterations, distance, active modes, certificate bound with its
terms and contraction ratio, and redos.

Exit codes: 0 success, 1 configuration error, 2 numerical failure,
3 invariant-check failure.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .experiments import (EnergyTrace, check_resolved,
                          closed_form_potential_m1, decay_rate_fit,
                          dissipation_exponent, extend_traces,
                          extend_with_ab5, frequency_sweep, lower_order_decay,
                          modal_norms, mode_initial_state, primitive_setup,
                          primitive_solve)
from .linwave import Trajectory, analytic_linear_damped
from .mesh import assemble, mesh_from_h, whole_steps
from .multistep import BlowupError
from .oracle import (AnsatzProblem, oracle_states, reference_errors, rk4_ansatz,
                     simulate_oscillator, uniform_stability_sweep,
                     OscillatorProblem)
from .picard import DegenerateDamping, PicardDivergenceError, check_damping
from .svgplot import Series, downsample, render_line_plot

@dataclass(frozen=True)
class RunConfig:
    experiment: str = "fig2"
    alpha: float = 1.0
    m: int = 1
    ks: tuple = (1, 2, 4, 8)
    h: float = 1e-2
    delta: float = 2e-3
    t_final: float = 10.0
    t_extend: float = 50.0
    beta: float = (2.0 / np.pi) ** 2
    window: float = 1.0
    epsilon: float = 1e-8
    khat: float = 1.0
    radius: float = float(np.sqrt(2.0))
    samples: int = 64
    eps_target: float = 0.1
    horizon: float = 400.0
    osc_step: float = 0.01
    seed: int = 0
    out: str = "degenwave-out"

    def validate(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and (isinstance(value, bool) or not (
                    isinstance(value, (int, float)) and np.isfinite(value))):
                raise ValueError(f"{f.name} must be a finite number, got {value!r}")
            if f.type == "int" and type(value) is not int:
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
            # an empty path is the working directory
            if f.type == "str" and not (type(value) is str and value):
                raise ValueError(f"{f.name} must be a nonempty string, got {value!r}")
        for name in ("h", "delta", "t_final", "window", "epsilon", "khat",
                     "radius", "eps_target", "horizon", "osc_step"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name in ("m", "samples"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        check_damping(self.alpha, self.m)
        if (not self.ks or any(type(k) is not int or k < 1 for k in self.ks)
                or len(set(self.ks)) < len(self.ks)):
            raise ValueError(f"modes must be distinct integers >= 1, got {self.ks!r}")
        if self.experiment == "fig1" and self.ks != (1,):
            raise ValueError("fig1 runs the mode k = 1 only")
        if self.experiment == "fig1" and not 0.0 < self.beta < 2.0 * np.pi:
            raise ValueError(f"fig1 needs beta in (0, 2 pi), got {self.beta!r}")
        if self.experiment == "primitive" and len(self.ks) > 1:
            raise ValueError("primitive runs one mode")
        # the sweep runs to the horizon, the sample trajectories to at most 250
        if self.experiment == "oscillator":
            for length in (self.horizon, min(self.horizon, 250.0)):
                whole_steps(length, self.osc_step,
                            f"osc_step {self.osc_step!r} must divide the horizon "
                            f"{self.horizon!r} and min(horizon, 250)")
        nsteps = whole_steps(self.t_final, self.delta, "delta must divide t_final")
        whole_steps(self.window, self.delta, "delta must divide window")
        if self.experiment in ("fig3", "primitive"):
            if self.t_extend < self.t_final:
                raise ValueError("t_extend must not precede t_final")
            if self.t_extend > self.t_final and nsteps < 4:
                raise ValueError("extending needs at least 4 steps of delta "
                                 "up to t_final to seed AB5")
            # the extension starts where the run's grid ends, at nsteps * delta
            whole_steps(self.t_extend - nsteps * self.delta, self.delta,
                        "delta must tile the extension interval", least=0)
        if self.experiment != "oscillator":
            mesh = mesh_from_h(self.h)
            for k in self.ks:
                check_resolved(mesh, k)


# -- configuration files --------------------------------------------------------

def parse_config_file(path: str) -> dict:
    """Flat key = value file (or a manifest.json from an earlier run)."""
    text = Path(path).read_text()
    if path.endswith(".json"):
        doc = json.loads(text)
        values = doc.get("config", doc) if isinstance(doc, dict) else doc
        if not isinstance(values, dict):
            raise ValueError(f"{path}: expected a JSON object of config values")
        return values
    out = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = _strip_comment(line).strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        out[key.strip()] = _parse_value(value.strip())
    return out


def _strip_comment(line: str) -> str:
    """``line`` up to its first '#' outside single or double quotes."""
    quote = None
    chars = iter(enumerate(line))
    for i, ch in chars:
        if quote is None and ch == "#":
            return line[:i]
        if quote is None and ch in "'\"":
            quote = ch
        elif ch == quote:
            quote = None
        elif quote and ch == "\\":
            next(chars, None)   # an escaped character cannot close the quote
    return line


def _parse_value(text: str):
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text.strip("\"'")


def _parse_ks(text) -> tuple:
    if isinstance(text, (list, tuple)):
        return tuple(text)   # validate rejects the entries that are not integers
    return tuple(_parse_value(p.strip()) for p in str(text).split(",") if p.strip())


# -- artifact writers -------------------------------------------------------------

def write_columns_csv(path: Path, header: list, columns: list) -> None:
    """Equal-length columns, each value as ``f"{v:.17g}"``, in one %-format."""
    rows = np.column_stack(columns)
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    path.write_text(",".join(header) + "\n" + (line * len(rows))
                    % tuple(rows.ravel().tolist()), newline="\n")


def write_trace_csv(path: Path, trace: EnergyTrace) -> None:
    write_columns_csv(path, ["t", "E", "L2", "H1"],
                      [trace.times, trace.energy, trace.l2, trace.h1])


def emit_plot(traces: list, path: Path, title: str, xlabel: str = "t",
              ylabel: str = "E", logx: bool = False, logy: bool = False,
              annotation: str = "") -> Path:
    """Write labeled (label, x, y) traces as a deterministic SVG line plot."""
    if not traces:
        raise ValueError("no traces to plot")
    series = []
    for item in traces:
        label, x, y = item[:3]
        if len(x) == 0:
            raise ValueError(f"trace {label!r} is empty")
        dashed = len(item) > 3 and bool(item[3])
        dx, dy = downsample(list(x), list(y))
        series.append(Series(label=label, x=dx, y=dy, dashed=dashed))
    path.write_text(render_line_plot(series, title, xlabel, ylabel,
                                     logx=logx, logy=logy, annotation=annotation))
    return path


# the WindowReport fields diagnostics.json holds per window
DIAGNOSTIC_FIELDS = ("t_start", "iterations", "distance", "modes", "bound",
                     "terms", "gamma", "redone")


class Report:
    """Collects pass/fail/info lines and renders report.txt; collects the
    Picard runs' window reports for diagnostics.json."""

    def __init__(self):
        self.lines = []
        self.failed = False
        self.windows = {}

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        tag = "PASS" if ok else "FAIL"
        self.failed |= not ok
        self.lines.append(f"[{tag}] {name}" + (f": {detail}" if detail else ""))

    def info(self, name: str, detail: str) -> None:
        self.lines.append(f"[INFO] {name}: {detail}")

    def picard(self, label: str, windows: list) -> None:
        """Record the ``WindowReport``s of the Picard run ``label``."""
        self.windows[label] = [{key: getattr(w, key) for key in DIAGNOSTIC_FIELDS}
                               for w in windows]

    def write(self, path: Path) -> None:
        summary = "FAIL" if self.failed else "PASS"
        path.write_text("\n".join(self.lines + [f"[SUMMARY] {summary}"]) + "\n")

    def write_diagnostics(self, path: Path) -> None:
        path.write_text(json.dumps({"picard": self.windows}, indent=1,
                                   sort_keys=True) + "\n")


# An energy sums n products, so two agree only to about n * 1.1e-16 relative
# (1e-13 at n = 999): below the floor of 1e-12, three decades under the 1e-9
# bound, a change is rounding that moves with any reordering of the arithmetic.
def _relative(value: float) -> str:
    return f"{value:.2e}" if abs(value) >= 1e-12 else "below 1e-12"


def _check_trace_energy_laws(report: Report, trace: EnergyTrace, label: str,
                             conservative: bool) -> None:
    e = trace.energy
    e0 = max(e[0], 1e-300)
    if conservative:
        drift = float(np.abs(e - e[0]).max() / e0)
        report.check(f"{label} energy conserved", drift < 1e-9,
                     f"max relative drift {_relative(drift)}")
        return
    inc = float(np.diff(e).max() / e0) if len(e) > 1 else 0.0
    report.check(f"{label} energy nonincreasing", inc <= 1e-6,
                 f"max relative per-step increase {_relative(inc)}")
    span = trace.times[-1] - trace.times[0]
    if span >= 1.0:
        dt = trace.times[1] - trace.times[0]
        # a step of 2 or more rounds 1/dt to 0; compare neighbours then
        stride = max(1, int(round(1.0 / dt)))
        strict = True
        for i in range(0, len(e) - stride, stride):
            if e[i] > 1e-4 and not e[i + stride] < e[i]:
                strict = False
                break
        report.check(f"{label} energy strictly decreasing over unit windows",
                     strict)


# -- shared pipeline pieces -------------------------------------------------------

def _run_sweep(config: RunConfig, ops):
    return frequency_sweep(config.ks, config.alpha, config.m, ops, config.delta,
                           config.t_final, window=config.window,
                           epsilon=config.epsilon)


def _oracle_problems(config: RunConfig, mesh, ks, amplitudes) -> list:
    return [AnsatzProblem.for_mesh(mesh, k, c0=a / np.sqrt(2.0), c1=0.0,
                                   alpha=config.alpha, m=config.m)
            for k, a in zip(ks, amplitudes)]


# the largest turn omega * step of the reference's fastest mode, in radians.
# Against 16 steps per delta, one Lawson step moved a printed e_k by at most
# 5.7e-3 of its last digit at omega delta = 1.56 (n = 499, k <= 62, delta =
# 0.008) and by 3e-4 at 0.78 (n = 999, k <= 124, delta = 0.002).  The error
# falls as the fourth power of the step, so at 1 it stays near 1e-3 of the
# last digit: a margin of 10 on the promise below
ORACLE_TURN = 1.0


def _oracle_grid(config: RunConfig) -> tuple:
    """(step, steps per delta) of the reference: the fewest Lawson RK4 steps
    that keep omega * step <= ORACLE_TURN for the fastest mode, omega = k pi;
    the step then moves a printed e_k by under 1% of its last digit.  That is
    one step per delta up to k = 159 at delta = 0.002."""
    stride = int(np.ceil(max(config.ks) * np.pi * config.delta / ORACLE_TURN))
    return config.delta / stride, stride


def _oracle_errors(config: RunConfig, ops, runs) -> dict:
    """(energy-history gap, state-difference norm) per mode, from one
    reference run for all modes."""
    problems = _oracle_problems(config, ops.mesh, [run.k for run in runs],
                                [run.data.amplitude for run in runs])
    gaps, norms = reference_errors([run.trajectory for run in runs],
                                   [run.trace.energy for run in runs], problems,
                                   ops, config.t_final, *_oracle_grid(config))
    return {run.k: (float(g), float(e)) for run, g, e in zip(runs, gaps, norms)}


# restart length of the splice check
SPLICE_WINDOW = 0.2


def _check_splice(runs, ops, forcing) -> list:
    """Restart AB5 from the Picard amplitudes SPLICE_WINDOW before the
    splice, on the active modes there, all runs in one extension, and
    require each to reproduce its Picard energy history up to the splice.

    Returns one (name, ok, detail) line per run for ``_report_line``; ok is
    None when the trajectories are too short to restart.  The tolerance is
    delta^2 E(0): the Picard solution is second order in time.  A restart
    from the wrong state or with the wrong right-hand side misses by a share
    of the energy lost over the window instead.  The gap is taken over the
    whole window, because at the splice itself the single-mode runs have
    v ~ 0 and dissipate almost nothing.
    """
    traj = runs[0].trajectory      # the runs share one time grid
    last = len(traj.times) - 1
    # the scheme seeds from five trajectory points
    back = min(int(round(SPLICE_WINDOW / traj.delta)), last - 4)
    names = [f"k={run.k} splice continuity" for run in runs]
    if back < 1:
        return [(name, None, "not checked, the trajectory is too short to "
                 "restart") for name in names]
    start = last - back
    heads = [run.trajectory.prefix(start + 1) for run in runs]
    picard = np.array([run.trace.energy[start + 1:] for run in runs])
    gaps = np.zeros(len(runs))

    def observe(j0, block):
        for i, (modes, z) in enumerate(block):
            e = modal_norms(traj.propagator, modes, z)[0]
            gaps[i] = max(gaps[i], np.abs(e - picard[i, j0:j0 + len(e)]).max())

    extend_with_ab5(heads, ops, forcing, traj.times[-1], observe)
    lines = []
    for name, run, gap in zip(names, runs, gaps):
        tol = traj.delta**2 * run.trace.energy[0]
        lines.append((name, gap <= tol,
                      f"AB5 restarted at t={traj.times[start]:g} follows the "
                      f"Picard energy to t={traj.times[-1]:g} within "
                      f"{gap:.2e} (tolerance delta^2 E(0) = {tol:.1e})"))
    return lines


def _report_line(report: Report, name: str, ok, detail: str) -> None:
    """A check line, or an info line when ``ok`` is None."""
    if ok is None:
        report.info(name, detail)
    else:
        report.check(name, ok, detail)


# -- experiment drivers -------------------------------------------------------------

def _exp_frequency(config: RunConfig, dirs, report: Report) -> None:
    """fig2 and custom: the frequency sweep; fig3: the same, extended."""
    extend = config.experiment == "fig3"
    ops = assemble(mesh_from_h(config.h))
    runs = _run_sweep(config, ops)
    conservative = config.alpha == 0.0
    e_table = {} if conservative else _oracle_errors(config, ops, runs)
    full = [run.trace for run in runs]
    splices = [None] * len(runs)
    if extend and config.t_extend > config.t_final:
        forcing = DegenerateDamping(config.alpha, config.m)
        full = extend_traces([run.trajectory for run in runs], full, ops,
                             forcing, config.t_extend)
        splices = _check_splice(runs, ops, forcing)
    traces = {}
    for run, trace, splice in zip(runs, full, splices):
        if splice is not None:
            _report_line(report, *splice)
        report.picard(f"k={run.k}", run.result.windows)
        traces[run.k] = trace
        write_trace_csv(dirs["traces"] / f"trace_k{run.k}.csv", trace)
        e0 = trace.energy[0]
        report.check(f"k={run.k} unit initial energy", abs(e0 - 1.0) < 1e-3,
                     f"E(0) = {e0:.6f}")
        report.check(f"k={run.k} fixed point converged", run.result.converged,
                     f"{run.result.iterations} iterations, final distance "
                     f"{run.result.final_distance:.2e}")
        _check_trace_energy_laws(report, trace, f"k={run.k}", conservative)

        if not conservative:
            e_gap, e_nrm = e_table[run.k]
            report.info(f"e_{run.k}",
                        f"energy-history gap {e_gap:.3e}; "
                        f"state-difference norm {e_nrm:.3e}")

    if len(runs) > 1 and not conservative:
        finals = {run.k: run.trace.energy[-1] for run in runs}
        ordered = sorted(finals)
        ok = all(finals[a] < finals[b] for a, b in zip(ordered, ordered[1:]))
        report.check("decay deteriorates with frequency", ok,
                     "E(T) by k: " + ", ".join(
                         f"k={k}: {finals[k]:.4f}" for k in ordered))

    label = "sweep" if config.experiment == "custom" else config.experiment
    emit_plot([(f"k={k}", tr.times, tr.energy) for k, tr in sorted(traces.items())],
              dirs["plots"] / f"{label}_energy.svg",
              title="Energy decay by initial-data frequency",
              ylabel="E(t)")
    if extend:
        emit_plot([(f"k={k}", tr.times, tr.l2) for k, tr in sorted(traces.items())],
                  dirs["plots"] / f"{label}_l2.svg",
                  title="Displacement L2 norm", ylabel="|u(t)|_0")


def _exp_fig1(config: RunConfig, dirs, report: Report) -> None:
    ops = assemble(mesh_from_h(config.h))
    run = _run_sweep(config, ops)[0]
    mesh = ops.mesh
    report.picard("k=1", run.result.windows)
    write_trace_csv(dirs["traces"] / "trace_k1.csv", run.trace)
    _check_trace_energy_laws(report, run.trace, "nonlinear k=1",
                             conservative=config.alpha == 0.0)

    mid = mesh.n // 2   # x = 0.5 for odd n
    if abs(mesh.nodes[mid] - 0.5) > 1e-12:
        report.info("midpoint", f"nearest node to 0.5 is x={mesh.nodes[mid]:.4f}")
    u_mid = np.concatenate([rows[:, mid] for rows in run.trajectory.blocks()])
    c0 = run.data.amplitude
    u_lin = analytic_linear_damped(config.beta, 1, c0, run.trajectory.times,
                                   0.5)[0]
    write_columns_csv(dirs["traces"] / "point_x0.5.csv",
                      ["t", "u_nonlinear", "u_linear_damped"],
                      [run.trajectory.times, u_mid, u_lin])
    emit_plot([("degenerate damping", run.trajectory.times, u_mid),
               (f"linear damping b={config.beta:.3f}", run.trajectory.times,
                u_lin, True)],
              dirs["plots"] / "fig1_midpoint.svg",
              title="Midpoint displacement u(t, 0.5)", ylabel="u")
    report.info("fig1", "slower-than-viscous decay visible in point trace")


def _exp_primitive(config: RunConfig, dirs, report: Report) -> None:
    ops = assemble(mesh_from_h(config.h))
    mesh = ops.mesh
    k = config.ks[0]
    setup = primitive_setup(k, config.m, ops, alpha=config.alpha)
    if config.m == 1:
        exact = closed_form_potential_m1(setup.data.amplitude, k, mesh.nodes)
        err = float(np.abs(setup.phi0 - exact).max())
        report.check("potential matches closed form", err < 50 * mesh.h**2,
                     f"max nodal error {err:.2e}")
    result = primitive_solve(setup, ops, config.delta, config.t_final,
                             window=config.window, epsilon=config.epsilon)
    report.picard(f"primitive k={k}", result.windows)
    report.picard(f"k={k}", result.damped_run.result.windows)
    write_trace_csv(dirs["traces"] / f"primitive_k{k}.csv", result.trace)
    write_trace_csv(dirs["traces"] / f"trace_k{k}.csv", result.damped_run.trace)
    report.info("velocity reproduces damped solution",
                f"sup |phi' - u|_0 = {result.velocity_gap_l2:.2e}")
    _check_trace_energy_laws(report, result.trace, "primitive", conservative=False)

    bound_report = lower_order_decay(result.damped_run.trace, setup, ops)
    report.check("L2 norm within potential energy bound",
                 bound_report.all_satisfied,
                 f"bound {bound_report.bound:.4e}, "
                 f"max |u|_0^2 {float((bound_report.l2**2).max()):.4e}")

    if config.t_extend > config.t_final:
        trace, = extend_traces([result.trajectory], [result.trace], ops,
                               setup.damping, config.t_extend)
        write_trace_csv(dirs["traces"] / f"primitive_k{k}_extended.csv", trace)
        _check_trace_energy_laws(report, trace, "primitive extended",
                                 conservative=False)
        window = (config.t_final, config.t_extend)
        span = f"[{config.t_final:g},{config.t_extend:g}]"
        secant = decay_rate_fit(trace, window)
        try:
            p = dissipation_exponent(trace, window)
        except ValueError as exc:
            report.info("decay exponent", f"not estimated over {span}: {exc}; "
                        f"secant power-law fit {secant:.3f} (diagnostic)")
            annotation = ""
        else:
            report.info("decay exponent",
                        f"dissipation-law fit over {span}: p = {p:.3f} "
                        f"(asymptotic rate {1.0 / config.m:g}); secant "
                        f"power-law fit {secant:.3f} (diagnostic, biased by "
                        "the time shift of the decay law)")
            annotation = f"decay exponent p = {p:.3f}"
        mask = trace.times >= config.t_final
        emit_plot([("primitive energy", trace.times[mask], trace.energy[mask])],
                  dirs["plots"] / "primitive_energy_loglog.svg",
                  title="Primitive problem energy decay",
                  logx=True, logy=True, annotation=annotation)


def _exp_oscillator(config: RunConfig, dirs, report: Report) -> None:
    offset = (config.seed * 0.6180339887498949 * 2 * np.pi) % (2 * np.pi)
    sweep = uniform_stability_sweep(config.khat, config.alpha, config.m,
                                    config.radius, config.samples,
                                    config.eps_target, horizon=config.horizon,
                                    step=config.osc_step, angle_offset=offset)
    write_columns_csv(dirs["traces"] / "oscillator_sweep.csv",
                      ["x0", "v0", "initial_norm", "time_to_eps"],
                      [sweep.samples[:, 0], sweep.samples[:, 1],
                       sweep.initial_norms, sweep.times_to_eps])
    if config.alpha == 0.0:
        report.check("conservative sweep never reaches target",
                     not sweep.reached.any(), "no decay without damping")
    else:
        report.check("all samples reach the target ball", sweep.all_reached,
                     f"max time to |y| < {config.eps_target:g}: "
                     f"{sweep.max_time:.2f} of horizon {config.horizon:g}")
    picks = sorted(set([0, config.samples // 2, config.samples - 1]))
    series = []
    for i in picks:
        prob = OscillatorProblem(khat=config.khat, alpha=config.alpha,
                                 m=config.m, x0=sweep.samples[i, 0],
                                 x1=sweep.samples[i, 1])
        tr = simulate_oscillator(prob, min(config.horizon, 250.0), config.osc_step)
        nonmono = float(np.diff(tr.norms).max())
        report.check(f"sample {i} equivalent norm nonincreasing",
                     nonmono <= 1e-8, f"max step increase {nonmono:.2e}")
        series.append((f"sample {i}", tr.times, tr.norms))
    emit_plot(series, dirs["plots"] / "oscillator_norms.svg",
              title="Oscillator equivalent norm", ylabel="|y(t)|")


def _exp_oracle_only(config: RunConfig, dirs, report: Report) -> None:
    ops = assemble(mesh_from_h(config.h))
    mesh = ops.mesh
    amplitudes = [mode_initial_state(ops, k).amplitude for k in config.ks]
    sols = rk4_ansatz(_oracle_problems(config, mesh, config.ks, amplitudes),
                      config.t_final, *_oracle_grid(config))
    traces = {}
    for k, sol in zip(config.ks, sols):
        trace = EnergyTrace.from_trajectory(
            Trajectory(sol.times, oracle_states(sol, mesh), config.delta), ops)
        traces[k] = trace
        write_trace_csv(dirs["traces"] / f"oracle_k{k}.csv", trace)
        # the reference's invariant is per-position: each sampled oscillator
        # dissipates; the assembled field energy is only approximately monotone
        per_sample = sol.modal_energy()
        worst = float(np.diff(per_sample, axis=0).max())
        if config.alpha == 0.0:
            drift = float(np.abs(per_sample - per_sample[0]).max())
            report.check(f"oracle k={k} per-position energy conserved",
                         drift < 1e-7, f"max drift {drift:.2e}")
        else:
            report.check(f"oracle k={k} per-position energy nonincreasing",
                         worst <= 1e-8, f"max per-step increase {worst:.2e}")
        report.info(f"oracle k={k} assembled energy",
                    f"E(0) = {trace.energy[0]:.6f}, E(T) = {trace.energy[-1]:.6f}")
    emit_plot([(f"k={k}", tr.times, tr.energy) for k, tr in sorted(traces.items())],
              dirs["plots"] / "oracle_energy.svg",
              title="Reference energy decay", ylabel="E(t)")


# each experiment's driver and the values its preset sets over RunConfig's
PRESETS = {
    "fig1": (_exp_fig1, {"ks": (1,)}),
    "fig2": (_exp_frequency, {}),
    "fig3": (_exp_frequency, {}),
    "primitive": (_exp_primitive, {"ks": (1,)}),
    "oscillator": (_exp_oscillator, {}),
    "oracle": (_exp_oracle_only, {"ks": (1,)}),
    "custom": (_exp_frequency, {}),
}
EXPERIMENTS = tuple(PRESETS)


def run(config: RunConfig) -> int:
    """Execute one experiment; returns the process exit code."""
    try:
        config.validate()
        out = Path(config.out)
        dirs = {"traces": out / "traces", "plots": out / "plots"}
        for d in (out, *dirs.values()):
            d.mkdir(parents=True, exist_ok=True)
        manifest = {"version": __version__, "config": asdict(config)}
        manifest["config"]["ks"] = list(config.ks)
        (out / "manifest.json").write_text(json.dumps(manifest, indent=2,
                                                      sort_keys=True) + "\n")

        report = Report()
        try:
            driver, _ = PRESETS[config.experiment]
            driver(config, dirs, report)
        except (PicardDivergenceError, BlowupError, FloatingPointError) as exc:
            report.lines.append(f"[ERROR] numerical failure: {exc}")
            report.failed = True
            report.write(out / "report.txt")
            report.write_diagnostics(out / "diagnostics.json")
            print(f"numerical failure: {exc}", file=sys.stderr)
            return 2

        report.write(out / "report.txt")
        report.write_diagnostics(out / "diagnostics.json")
        print((out / "report.txt").read_text(), end="")
        return 3 if report.failed else 0
    # OSError: the outputs cannot be created or written where --out points
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1


# -- argument parsing -----------------------------------------------------------

# the flags not named after their field, which is otherwise spelt with '-'
_FLAG_NAMES = {"t_final": "T", "t_extend": "T2", "ks": "k"}
# --k stays text: _parse_ks splits it, as it does a config file's mode list
_FLAG_TYPES = {"float": float, "int": int, "str": str, "tuple": str}
# keys that manifests of earlier versions carry and that no longer set
# anything, each with the one value it may still hold (None: any value)
_RETIRED_KEYS = {"max_iterations": None, "rule": "boole", "substeps": 0,
                 "oracle_stride": 10}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degenwave",
        description="Degenerately damped string: simulations and experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run one experiment", allow_abbrev=False)
    run_p.add_argument("--preset", choices=sorted(PRESETS), default="fig2")
    run_p.add_argument("--config", help="flat key=value file or manifest.json")
    # one flag per field; an unset flag stays None, so that the preset and
    # the config file supply the value
    for f in fields(RunConfig):
        if f.name != "experiment":
            flag = _FLAG_NAMES.get(f.name, f.name.replace("_", "-"))
            run_p.add_argument(f"--{flag}", dest=f.name, type=_FLAG_TYPES[f.type])
    return parser


def _config_from_args(args) -> RunConfig:
    """The preset's values, overridden by the config file's, overridden by
    the flags'."""
    names = RunConfig.__dataclass_fields__
    values = {"experiment": args.preset, **PRESETS[args.preset][1]}
    if args.config:
        file_values = parse_config_file(args.config)
        for key, only in _RETIRED_KEYS.items():
            if only is not None and file_values.get(key, only) != only:
                raise ValueError(f"config key {key!r} is retired and may only "
                                 f"hold {only!r}, got {file_values[key]!r}")
        unknown = sorted(set(file_values) - set(names) - set(_RETIRED_KEYS))
        if unknown:
            raise ValueError("unknown config key "
                             + ", ".join(repr(key) for key in unknown))
        values.update((k, v) for k, v in file_values.items() if k in names)
    values.update((k, v) for k, v in vars(args).items()
                  if k in names and v is not None)
    if "ks" in values:
        values["ks"] = _parse_ks(values["ks"])
    return RunConfig(**values)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        config = _config_from_args(args)
    except (ValueError, TypeError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
