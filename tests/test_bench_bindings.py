"""Every blab name the benchmark's tracer wraps still exists, and every
per-layer metric the benchmark declares comes out of a traced run.

`perfbench/tracer.py` instruments blab by replacing module attributes (for
example `blab.verify.GridBoundary`, whose calls become the `geometry.grid`
span). A renamed or removed binding is not an error there: it lands in the
trace's `missing` list and the per-layer metrics built on it vanish. A name
wrapped only where a module imports it (the nn functions) is not even
listed: when `blab.verify` stops importing `margin` under that name, the
trace loses the `nn.margin` span silently. So these tests run both gated
workloads as a `--trace 1` run does, one input untraced then traced, through
the benchmark's own runner, and feed the pair to its `per_layer`: every
per-layer name in BENCHMARK.json must come out, as finite JSON.
"""

import importlib.util
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PER_LAYER = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]


def _load_bench():
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


bench = _load_bench()


def _invoke_pair(tmp_path: Path, mode: str, argv) -> dict:
    """Run the input argv(out) untraced, then traced; returns the traced
    run's trace summary after checking the pair's per-layer metrics."""
    runner = bench.Runner(ROOT, time.monotonic() + 300)
    invs = []
    for traced in (False, True):
        out = tmp_path / ("traced" if traced else "untraced")
        inv = bench.Invocation(0, traced, out)
        inv.child = runner.run([mode, str(out), str(int(traced)), *argv(out)], out)
        assert inv.child.code == 0, (out / "stderr.txt").read_text()[-2000:]
        invs.append(inv)
    trace = json.loads((invs[1].out / "trace.json").read_text())
    assert trace["missing"] == []
    metrics = bench.per_layer(invs)
    assert [name for name in PER_LAYER if name not in metrics] == []
    values = {name: value for name, (value, _) in metrics.items()}
    json.dumps(values, allow_nan=False)  # the runner's last line: NaN or inf is no result
    return trace


def test_oracle_workload_keeps_its_bindings(tmp_path):
    trace = _invoke_pair(tmp_path, "oracle", lambda out: ["801"])
    assert trace["spans"]["geometry.grid"]["calls"] >= 1
    assert trace["counts"]["grid.points"] > 0
    report = json.loads((tmp_path / "traced" / "report.json").read_text())
    assert report["checks"] and all(ok for _, ok, _ in report["checks"])


def test_cascade_workload_keeps_its_bindings(tmp_path):
    _invoke_pair(tmp_path, "cli", lambda out: [
        "iterproj", str(ROOT / "configs" / "blobs2d.cfg"), "--iterations", "1",
        "--out", str(out / "run")])
