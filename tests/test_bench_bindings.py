"""The benchmark's traced run still finds the functions it wraps.

``perfbench/traced.py`` rebinds public functions by name and reads some of
their arguments by name, so a rename in ``src/`` would break its per-layer
counters without failing any other test.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_fig3_counts_every_layer(tmp_path):
    env = dict(os.environ, DEGENWAVE_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced.py"), "run",
         "--preset", "fig3", "--k", "1", "--T", "0.02", "--T2", "0.04",
         "--out", str(tmp_path / "result")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    counters = json.loads((tmp_path / "trace.json").read_text())["counters"]
    for key in ("picard.solves", "linwave.sweep.calls", "mesh.contract.calls",
                "multistep.steps", "oracle.rk4.steps"):
        assert counters.get(key, 0) > 0, key
    # M^-1 lives in the sine modes: no preset's hot path solves with M
    assert counters.get("mesh.solve_mass.calls", 0) == 0
