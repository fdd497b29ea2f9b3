"""Benchmark of the degenwave command line, one workload per invocation.

    python3 perfbench/run.py --workload fig2 --seed 0 --seconds 20 --trace 0

Every measured run is a fresh ``python -m degenwave.cli run ...`` process
with ``PYTHONPATH=src``, started only after the previous one has exited (a
closed loop with one client), single-threaded.  Each run's outputs are
checked (see ``check_run``).  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs the same command under ``traced.py`` and reports the
per-layer metrics.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the workloads, the seed rule and the baseline.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / "perfbench-out"

# The program is measured single-threaded: no worker pool, no BLAS threads.
THREAD_ENV = {"DEGENWAVE_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1"}
DELTA = "0.002"            # the presets' time step; one step is the set-up run
CHILD_DEADLINE_S = 170.0   # every child ends before this much time has passed
E1_BAND = (1.9e-2, 7.7e-2)  # acceptance bands of the paper's error table
E2_MAX = 1.6e-2
FIRST_DRAWN_MODE = 5       # other seeds draw their modes from k >= 5


@dataclass(frozen=True)
class Workload:
    preset: str
    args: tuple            # flags after --preset, without --k
    setup_args: tuple      # the same command cut to one time step
    n: int                 # interior mesh nodes; a mode k is admissible if 8k <= n
    fixed: tuple           # modes every seed runs
    drawn0: tuple          # the other modes at seed 0
    setups_per_block: int  # set-up runs before each full run, and after the last


WORKLOADS = {
    "fig2": Workload(
        "fig2", (), ("--T", DELTA), 99, (1, 2), (4, 8), 5),
    "fig3-short": Workload(
        "fig3", ("--T", "2", "--T2", "12"), ("--T", DELTA, "--T2", DELTA),
        99, (1, 2), (4, 8), 5),
    "fine-mesh": Workload(
        "fig2", ("--h", "0.002", "--T", "2"), ("--h", "0.002", "--T", DELTA),
        499, (1,), (4, 16), 2),
}


def draw_pool(workload: Workload, iterations: dict) -> range:
    """The modes other seeds draw from: the admissible modes from k = 5 up
    whose Picard iteration count, recorded in ``reference.json``, equals that
    of k = 5, so that every seed other than 0 does the same solver work."""
    want = iterations[str(FIRST_DRAWN_MODE)]
    k = FIRST_DRAWN_MODE
    while 8 * (k + 1) <= workload.n and iterations.get(str(k + 1)) == want:
        k += 1
    return range(FIRST_DRAWN_MODE, k + 1)


def modes_for(workload: Workload, seed: int, reference: dict) -> tuple:
    """The mode list of a run: the preset's at seed 0, drawn otherwise.

    Every seed keeps ``workload.fixed`` (k = 1 and 2 carry the acceptance
    bands) and draws as many other modes as the preset has, without
    replacement, from ``draw_pool`` of the workload's ``reference``.
    """
    if seed == 0:
        return workload.fixed + workload.drawn0
    pool = draw_pool(workload, reference["iterations"])
    drawn = random.Random(seed).sample(pool, len(workload.drawn0))
    return workload.fixed + tuple(sorted(drawn))


def cli_args(workload: Workload, ks: tuple, setup: bool) -> list:
    extra = workload.setup_args if setup else workload.args
    return ["run", "--preset", workload.preset, *extra,
            "--k", ",".join(str(k) for k in ks)]


# -- child processes ---------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


@dataclass
class RunResult:
    kind: str              # "setup", "run" or "traced"
    out: Path
    wall_s: float
    rss_mb: float
    code: int
    timed_out: bool
    problems: list


def spawn(argv: list, out: Path, kind: str, deadline: float) -> RunResult:
    """Run one child to completion; wall time is spawn to exit.

    ``os.wait4`` gives the child's own peak RSS.  A watchdog kills the child
    at ``deadline`` (a ``time.monotonic`` value) so the benchmark always ends.
    """
    out.mkdir(parents=True)
    timed_out = threading.Event()
    with open(out / "stdout.txt", "wb") as so, open(out / "stderr.txt", "wb") as se:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv + ["--out", str(out / "result")], cwd=ROOT,
                                env=child_env(), stdout=so, stderr=se)

        def kill():
            timed_out.set()
            proc.kill()

        watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return RunResult(kind=kind, out=out, wall_s=wall,
                     rss_mb=usage.ru_maxrss / 1024.0, code=proc.returncode,
                     timed_out=timed_out.is_set(), problems=[])


# -- output checks --------------------------------------------------------------------

_E_GAP = re.compile(r"^\[INFO\] e_(\d+): energy-history gap (\S+);", re.M)


def load_reference() -> dict:
    return json.loads((BENCH / "reference.json").read_text())


def trace_files(out: Path) -> dict:
    """Name -> bytes of every trace CSV a run wrote."""
    return {p.name: p.read_bytes()
            for p in sorted((out / "result" / "traces").glob("*.csv"))}


def final_energy(csv_bytes: bytes) -> float:
    last = csv_bytes.decode().rstrip("\n").rsplit("\n", 1)[-1]
    return float(last.split(",")[1])


def check_run(res: RunResult, name: str, ks: tuple, full: bool,
              reference: dict | None, first_traces: dict | None) -> list:
    """Problems found in one run's outputs; an empty list means it passed.

    Every run: no timeout, no ``[ERROR]`` line, one trace per mode, and trace
    CSVs byte-identical to ``first_traces`` (the first run of the same
    command in this invocation).  A full run (not cut to one step) must also
    exit 0 with a report ending ``[SUMMARY] PASS``, keep e_1 and e_2 inside
    the acceptance bands on ``fig2``, and end at E(T) within the recorded
    tolerance of ``reference`` for every mode.  A one-step run may exit 3,
    because the decay ordering cannot show yet.
    """
    problems = []
    if res.timed_out:
        return ["killed at the deadline"]
    report_path = res.out / "result" / "report.txt"
    report = report_path.read_text() if report_path.exists() else ""
    if "[ERROR]" in report:
        problems.append("report has an [ERROR] line")
    if full:
        if res.code != 0:
            problems.append(f"exit code {res.code}")
        if report.rstrip("\n").rsplit("\n", 1)[-1] != "[SUMMARY] PASS":
            problems.append("report does not end with [SUMMARY] PASS")
    elif res.code not in (0, 3):
        problems.append(f"exit code {res.code}")

    traces = trace_files(res.out)
    expected = {f"trace_k{k}.csv" for k in ks}
    if set(traces) != expected:
        problems.append(f"trace files {sorted(traces)}, expected {sorted(expected)}")
    elif first_traces is not None:
        differ = [f for f in sorted(traces) if traces[f] != first_traces.get(f)]
        if differ:
            problems.append(f"traces differ from the first run: {differ}")

    if full and name == "fig2":
        gaps = {int(k): float(v) for k, v in _E_GAP.findall(report)}
        if 1 in ks and not E1_BAND[0] <= gaps.get(1, -1.0) <= E1_BAND[1]:
            problems.append(f"e_1 = {gaps.get(1)} outside {list(E1_BAND)}")
        if 2 in ks and not 0.0 <= gaps.get(2, 1.0) <= E2_MAX:
            problems.append(f"e_2 = {gaps.get(2)} above {E2_MAX}")
    if full and reference is not None and set(traces) == expected:
        tol = reference["tolerance"]
        for k in ks:
            want = reference["final_energy"][str(k)]
            got = final_energy(traces[f"trace_k{k}.csv"])
            if not abs(got - want) <= tol:
                problems.append(f"E(T) of k={k} is {got!r}, recorded {want!r} "
                                f"(tolerance {tol:.1e})")
    return problems


# -- traced runs ------------------------------------------------------------------------

def layer_names(spec: dict) -> tuple:
    """Span names and exact counts among ``BENCHMARK.json``'s per-layer metrics.

    Every ``<span>.self_s`` metric is the summed self time of a span that
    ``traced.py`` records; every metric in another unit than seconds is a
    count, computed or counted, that must repeat exactly between runs.
    """
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    spans = tuple(m[:-len(".self_s")] for m in per_layer if m.endswith(".self_s"))
    exact = tuple(m for m, unit in per_layer.items() if unit != "s")
    return spans, exact


def artifact_bytes(out: Path) -> int:
    """Bytes of the CSV, SVG and report files a run wrote (not the manifest,
    which holds the output path)."""
    result = out / "result"
    files = [*result.glob("traces/*.csv"), *result.glob("plots/*.svg"),
             result / "report.txt"]
    return sum(p.stat().st_size for p in files if p.exists())


def layer_numbers(res: RunResult, spans_named: tuple, exact: tuple) -> dict:
    """Per-layer counts and self times of one traced run.

    A span's self time is its duration minus the durations of its direct
    children; they nest and do not overlap, because the program runs on one
    thread.  ``trace.untraced_s`` is the process wall time outside every
    top-level span.
    """
    import numpy as np

    meta = json.loads((res.out / "trace.json").read_text())
    spans = np.load(res.out / "spans.npz")
    name, parent = spans["name"], spans["parent"]
    dur = spans["end"] - spans["start"]
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    self_by_name = np.bincount(name, weights=dur - covered,
                               minlength=len(meta["names"]))
    numbers = {f"{span}.self_s": 0.0 for span in spans_named}
    for i, span in enumerate(meta["names"]):
        numbers[f"{span}.self_s"] = float(self_by_name[i])
    # counters traced.py keeps; the two below are computed here
    numbers.update({m: meta["counters"].get(m, 0) for m in exact})
    numbers["cli.artifacts.bytes"] = artifact_bytes(res.out)
    windows = numbers["picard.windows"]
    numbers["picard.iterations_per_window"] = (
        numbers["picard.iterations"] / windows if windows else 0.0)
    numbers["trace.untraced_s"] = res.wall_s - float(dur[~nested].sum())
    return numbers


def per_layer_metrics(pairs: list, spec: dict) -> dict:
    """Per-layer metrics from (untraced, traced) run pairs.

    Counts come from the first traced run, and every traced run must repeat
    them exactly.  Times are medians over the traced runs, and
    ``trace.overhead_s`` is the median over the pairs of traced minus
    untraced wall time, so both runs of a difference see the same phase of
    the host.
    """
    spans_named, exact = layer_names(spec)
    traced = [t for _, t in pairs]
    numbers = [layer_numbers(r, spans_named, exact) for r in traced]
    for r, nums in zip(traced[1:], numbers[1:]):
        moved = [m for m in exact if nums[m] != numbers[0][m]]
        if moved:
            r.problems.append(f"work counts differ between traced runs: {moved}")
    metrics = {m: numbers[0][m] for m in exact}
    for m in (*(f"{span}.self_s" for span in spans_named), "trace.untraced_s"):
        metrics[m] = statistics.median(nums[m] for nums in numbers)
    metrics["trace.overhead_s"] = statistics.median(
        t.wall_s - u.wall_s for u, t in pairs)
    return metrics


# -- the environment record -------------------------------------------------------------

def environment() -> dict:
    """Machine, interpreter, library versions and the thread settings used."""
    import numpy
    import scipy

    env = {"nproc": os.cpu_count(), "cpu": platform.processor() or "unknown",
           "caches": {}, "python": platform.python_version(),
           "numpy": numpy.__version__, "scipy": scipy.__version__,
           "blas": "unknown", "threads": dict(THREAD_ENV)}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            env["caches"][f"L{level} {kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        pass
    return env


# -- one invocation ----------------------------------------------------------------------------

def measure(name: str, seed: int, seconds: float, trace: bool, fast: bool) -> dict:
    """Run one workload for ``seconds``; returns the result object."""
    deadline = time.monotonic() + CHILD_DEADLINE_S
    workload = WORKLOADS[name]
    spec = bench_spec()
    recorded = load_reference()[name]
    ks = modes_for(workload, seed, recorded)
    reference = None if fast else recorded
    full = not fast
    argv = [sys.executable, "-m", "degenwave.cli",
            *cli_args(workload, ks, setup=fast)]
    traced_argv = [sys.executable, str(BENCH / "traced.py"), *argv[3:]]
    setup_argv = [sys.executable, "-m", "degenwave.cli",
                  *cli_args(workload, ks, setup=True)]
    work = OUT / name
    shutil.rmtree(work, ignore_errors=True)
    # byte-compile once, as an installed package would be
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    print(json.dumps({"workload": name, "seed": seed, "modes": list(ks),
                      "command": argv[1:], "why": next(
                          w["why"] for w in spec["workloads"] if w["name"] == name),
                      "environment": environment()}), flush=True)

    runs: list = []
    first_traces: dict = {}

    def one(cmd, kind):
        res = spawn(cmd, work / f"{len(runs):03d}-{kind}", kind, deadline)
        # traced and untraced runs of the same command write the same traces
        key = "setup" if kind == "setup" else "run"
        res.problems = check_run(res, name, ks, full and kind != "setup",
                                 reference, first_traces.get(key))
        first_traces.setdefault(key, trace_files(res.out))
        runs.append(res)
        return res

    def closed_loop(round_):
        # closed loop: each run starts after the previous one has exited;
        # rounds repeat until ``seconds`` have passed, and at least twice
        t0 = time.monotonic()
        done = []
        while len(done) < 2 or time.monotonic() - t0 < seconds:
            if time.monotonic() >= deadline or any(r.timed_out for r in runs):
                break
            done.append(round_())
        return done

    def setup_block():
        return [one(setup_argv, "setup") for _ in range(workload.setups_per_block)]

    if trace:
        # an untraced run before each traced one: trace.overhead_s is the
        # median difference within these pairs
        pairs = [(u, t) for u, t in closed_loop(
                     lambda: (one(argv, "run"), one(traced_argv, "traced")))
                 if not (u.timed_out or t.timed_out)]
        metrics = per_layer_metrics(pairs, spec) if pairs else {}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        # set-up runs before each full run and after the last, so that both
        # kinds sample the same phases of the host
        setups = []

        def round_():
            setups.extend(setup_block())
            return one(argv, "run")

        measured = [r for r in closed_loop(round_) if not r.timed_out]
        if time.monotonic() < deadline:
            setups.extend(setup_block())
        setups = [r for r in setups if not r.timed_out]
        if measured and setups:     # none only if runs hung until the deadline
            metrics = {"wall_s": statistics.median(r.wall_s for r in measured),
                       "setup_s": statistics.median(r.wall_s for r in setups),
                       "peak_rss_mb": statistics.median(r.rss_mb for r in measured)}
        else:
            metrics = {}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    failed = sum(1 for r in runs if r.problems)
    for r in runs:
        print(json.dumps({"run": r.out.name, "wall_s": round(r.wall_s, 4),
                          "rss_mb": round(r.rss_mb, 1), "exit": r.code,
                          "problems": r.problems}), flush=True)
    if not trace:
        metrics["success_rate"] = 1.0 - failed / len(runs)
        print(json.dumps({"wall_s_samples": len(measured),
                          "setup_s_samples": len(setups)}), flush=True)
    return {"correct": failed == 0 and set(metrics) == set(units),
            "attempted": len(runs), "failed": failed,
            "metrics": {m: {"value": metrics[m], "unit": units[m]}
                        for m in units if m in metrics}}


def bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--fast", action="store_true",
                        help="self-test mode: every run cut to one time step, "
                             "outputs not compared with the recorded reference")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "degenwave" / "cli.py").is_file():
        print(f"no degenwave sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.fast)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
