"""Every blab name the benchmark's tracer wraps still exists.

`perfbench/tracer.py` instruments blab by replacing module attributes (for
example `blab.verify.GridBoundary`, whose calls become the `geometry.grid`
span). A renamed or removed binding is not an error there: it lands in the
trace's `missing` list and the per-layer metrics built on it vanish. These
tests run both gated workloads once, traced, exactly as the benchmark's
runner starts them, and fail on any missing binding.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INVOKE = ROOT / "perfbench" / "invoke.py"


def _invoke(out: Path, *args: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(INVOKE), args[0], str(out), "1", *args[1:]],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    trace = json.loads((out / "trace.json").read_text())
    assert trace["missing"] == []
    return trace


def test_oracle_workload_keeps_its_bindings(tmp_path):
    trace = _invoke(tmp_path, "oracle", "801")
    assert trace["spans"]["geometry.grid"]["calls"] >= 1
    assert trace["counts"]["grid.points"] > 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["checks"] and all(ok for _, ok, _ in report["checks"])


def test_cascade_workload_keeps_its_bindings(tmp_path):
    _invoke(tmp_path, "cli", "iterproj", str(ROOT / "configs" / "blobs2d.cfg"),
            "--iterations", "1", "--out", str(tmp_path / "run"))
