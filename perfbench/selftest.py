"""Self-test of the benchmark; exits 0 when every check holds.

    python3 perfbench/selftest.py

1. Runs ``run.py --fast`` (every run cut to one time step) with tracing off
   and on, and checks that each prints every metric named in
   ``BENCHMARK.json`` with its unit, and reports no failed run.
2. Feeds ``check_run`` a passing ``fig2`` output and then copies of it with
   one fault injected each (a ``[FAIL]`` report, a non-zero exit, e_1 out of
   band, E(T) off the recorded value, a changed trace byte) and checks that
   the good one passes and every faulty one fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from run import (BENCH, OUT, ROOT, RunResult, WORKLOADS, bench_spec,
                 check_run, load_reference, modes_for, trace_files)

FAILURES = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        FAILURES.append(what)


def fast_run(trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload",
                           "fig2", "--seed", "0", "--seconds", "1", "--trace",
                           str(trace), "--fast"], cwd=ROOT, capture_output=True,
                          text=True, timeout=170)
    expect(proc.returncode == 0, f"--fast --trace {trace} exits 0")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result: dict, section: str) -> None:
    want = {m["name"]: m["unit"] for m in bench_spec()[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(got == want, f"{section}: every metric with its unit")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{section}: correct, none of {result['attempted']} runs failed")


def write_fig2_output(out, ks, reference) -> RunResult:
    """A passing fig2 output: PASS report, e_k in band, recorded E(T)."""
    traces = out / "result" / "traces"
    traces.mkdir(parents=True)
    for k in ks:
        e_final = reference["final_energy"][str(k)]
        (traces / f"trace_k{k}.csv").write_text(
            f"t,E,L2,H1\n0,1,0.5,1.4\n10,{e_final!r},0.3,1.1\n")
    gaps = {1: "4.216e-02", 2: "6.738e-03"}
    lines = [f"[INFO] e_{k}: energy-history gap {gaps.get(k, '5.0e-03')}; "
             f"state-difference norm 2.0e-01" for k in ks]
    (out / "result" / "report.txt").write_text(
        "\n".join(["[PASS] k=1 unit initial energy: E(0) = 1.000000", *lines,
                   "[SUMMARY] PASS"]) + "\n")
    return RunResult(kind="run", out=out, wall_s=1.0, rss_mb=1.0, code=0,
                     timed_out=False, problems=[])


def replace_in(path, old: str, new: str) -> None:
    text = path.read_text()
    assert old in text, (path, old)
    path.write_text(text.replace(old, new))


def check_output_check() -> None:
    reference = load_reference()["fig2"]
    ks = modes_for(WORKLOADS["fig2"], 0, reference)
    base = OUT / "selftest"
    shutil.rmtree(base, ignore_errors=True)
    good = write_fig2_output(base / "good", ks, reference)
    first = trace_files(good.out)
    expect(check_run(good, "fig2", ks, True, reference, first) == [],
           "a passing fig2 output has no problems")

    def injected(label, fault, caught_by, compare_traces=True):
        res = write_fig2_output(base / label, ks, reference)
        fault(res)
        problems = check_run(res, "fig2", ks, True, reference,
                             first if compare_traces else None)
        expect(any(caught_by in p for p in problems),
               f"{label} is a failure: {problems}")

    report = lambda res: res.out / "result" / "report.txt"
    trace1 = lambda res: res.out / "result" / "traces" / "trace_k1.csv"

    def fail_line(res):
        replace_in(report(res), "[SUMMARY] PASS",
                   "[FAIL] decay deteriorates with frequency\n[SUMMARY] FAIL")

    def exit_code(res):
        res.code = 3

    def e1_out_of_band(res):
        replace_in(report(res), "gap 4.216e-02", "gap 1.000e-02")

    def energy_off(res):
        want = reference["final_energy"]["1"]
        moved = want + 10 * reference["tolerance"]
        replace_in(trace1(res), repr(want), repr(moved))

    def trace_byte(res):
        replace_in(trace1(res), "0,1,0.5,1.4", "0,1,0.5,1.5")

    injected("injected-FAIL-report", fail_line, "[SUMMARY] PASS")
    injected("injected-exit-3", exit_code, "exit code 3")
    injected("injected-e1-out-of-band", e1_out_of_band, "e_1")
    # alone, without the byte comparison, the E(T) check must catch it
    injected("injected-energy-off", energy_off, "E(T) of k=1",
             compare_traces=False)
    injected("injected-trace-byte", trace_byte, "traces differ")


def main() -> int:
    check_metrics(fast_run(0), "end_to_end")
    check_metrics(fast_run(1), "per_layer")
    check_output_check()
    print("selftest " + ("passed" if not FAILURES else f"FAILED: {FAILURES}"))
    return 0 if not FAILURES else 1


if __name__ == "__main__":
    sys.exit(main())
