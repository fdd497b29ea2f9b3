"""Record the final energies E(T) that ``run.py`` checks every run against.

    python3 perfbench/record_reference.py [workload ...]

For the modes a seed can run, runs the workload's command once at the
preset step delta and once at delta/2, both single-threaded, and writes
``perfbench/reference.json`` with, per workload:

- ``final_energy``: E(T) per mode at delta, read from its trace CSV;
- ``time_error``: (4/3)|E_delta(T) - E_delta/2(T)| per mode, the Richardson
  estimate of the time-discretisation error of E(T) for a second-order
  solver (the observed order of ``picard_solve``);
- ``tolerance``: twice the largest time error.  A solver change that removes
  the time error entirely, such as a higher-order Picard interpolation,
  moves E(T) by about the time error and so stays inside; a change to the
  computed solution larger than that fails the check;
- ``iterations``: Picard iterations per mode at delta, from the report.

The modes are the fixed ones, those of seed 0, and the admissible modes
(8k <= n) from k = 5 up, recorded in chunks until a chunk holds a mode whose
iteration count differs from that of k = 5.  So the recording covers the
draw pool that ``run.draw_pool`` derives from the iteration counts.

Run it only when the computed solution is meant to change, and say so.
"""

from __future__ import annotations

import json
import re
import shutil
import sys
import time

from run import (BENCH, DELTA, FIRST_DRAWN_MODE, OUT, WORKLOADS, cli_args,
                 final_energy, spawn, trace_files)

CHUNK = 6     # modes per process: bounds the memory of one run at n = 499
_ITERS = re.compile(r"k=(\d+) fixed point converged: (\d+) iterations")


def final_energies(name: str, delta: str, modes: list) -> tuple[dict, dict]:
    """E(T) and Picard iterations per mode, one process per chunk of modes."""
    energies, iterations = {}, {}
    for i in range(0, len(modes), CHUNK):
        ks = tuple(modes[i:i + CHUNK])
        e, it = run_chunk(name, delta, ks, f"{ks[0]:03d}")
        energies.update(e)
        iterations.update(it)
    return energies, iterations


def run_chunk(name: str, delta: str, ks: tuple, tag: str) -> tuple[dict, dict]:
    workload = WORKLOADS[name]
    out = OUT / "reference" / name / delta / tag
    shutil.rmtree(out, ignore_errors=True)
    argv = [sys.executable, "-m", "degenwave.cli",
            *cli_args(workload, ks, setup=False), "--delta", delta]
    res = spawn(argv, out, "run", deadline=time.monotonic() + 3600.0)
    report = (out / "result" / "report.txt").read_text()
    if res.code != 0 or not report.rstrip().endswith("[SUMMARY] PASS"):
        raise SystemExit(f"{name} at delta {delta}, modes {ks}: exit "
                         f"{res.code}\n{report}")
    traces = trace_files(out)
    energies = {k: final_energy(traces[f"trace_k{k}.csv"]) for k in ks}
    iterations = {int(k): int(n) for k, n in _ITERS.findall(report)}
    print(f"{name} delta={delta} modes={ks} {res.wall_s:.1f} s", flush=True)
    return energies, iterations


def recorded_modes(name: str) -> tuple[dict, dict]:
    """Run at delta the fixed and seed-0 modes, then the draw candidates in
    chunks from k = 5 up until the iteration count changes."""
    workload = WORKLOADS[name]
    energies, iterations = final_energies(
        name, DELTA, sorted(set(workload.fixed + workload.drawn0)))
    k = FIRST_DRAWN_MODE
    while 8 * k <= workload.n:
        chunk = range(k, min(k + CHUNK, workload.n // 8 + 1))
        ks = tuple(m for m in chunk if m not in energies)
        if ks:
            e, it = run_chunk(name, DELTA, ks, f"{k:03d}")
            energies.update(e)
            iterations.update(it)
        if any(iterations[m] != iterations[FIRST_DRAWN_MODE] for m in chunk):
            break
        k += CHUNK
    return energies, iterations


def record(name: str) -> dict:
    coarse, iterations = recorded_modes(name)
    fine, _ = final_energies(name, str(float(DELTA) / 2), sorted(coarse))
    error = {k: 4.0 / 3.0 * abs(coarse[k] - fine[k]) for k in coarse}
    return {"delta": float(DELTA),
            "tolerance": float(f"{2.0 * max(error.values()):.2e}"),
            "final_energy": {str(k): v for k, v in coarse.items()},
            "time_error": {str(k): float(f"{v:.3e}") for k, v in error.items()},
            "iterations": {str(k): v for k, v in sorted(iterations.items())}}


def main(names: list) -> int:
    path = BENCH / "reference.json"
    doc = json.loads(path.read_text()) if path.exists() else {}
    for name in names or sorted(WORKLOADS):
        doc[name] = record(name)
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
