"""One benchmark invocation in a fresh interpreter.

    python3 invoke.py setup CONFIG
    python3 invoke.py cli OUT_DIR TRACE BLAB_ARG...
    python3 invoke.py oracle OUT_DIR TRACE SEED

`setup` imports blab, parses CONFIG and builds its dataset: the work that
setup_s times. `cli` runs `blab.cli.main` on the given arguments. `oracle`
runs `blab.verify.oracle_suite(nets=1, seed=SEED)` and writes its checks to
OUT_DIR/report.json. Both write OUT_DIR/outcome.json with the projection
counts. With TRACE=1 they also install the tracer and write
OUT_DIR/trace.json (per-span aggregates) and OUT_DIR/spans.npz (raw spans).
The exit code is blab's. blab is imported from PYTHONPATH.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import nullcontext
from pathlib import Path

EXIT_MISSING = 70  # a binding the outcome counters need is gone


def _count(owner, attr: str, counts: dict, hook) -> None:
    fn = getattr(owner, attr)

    def counted(*args, **kwargs):
        result = fn(*args, **kwargs)
        hook(counts, attr, args, result)
        return result

    setattr(owner, attr, counted)


def setup(config: str) -> int:
    from blab.config import parse_config
    from blab.experiments import build_dataset
    build_dataset(parse_config(config).dataset)
    return 0


def run(mode: str, out_dir: Path, trace: bool, args: list[str]) -> int:
    import blab.cli
    import blab.experiments
    import blab.verify
    import tracer as tracing

    counts: dict = {}
    try:
        _count(blab.experiments, "project_dataset", counts, tracing.count_dataset_projections)
        _count(blab.verify, "project_to_boundary", counts, tracing.count_projections)
    except AttributeError as e:
        print(f"outcome counter cannot attach: {e}", file=sys.stderr)
        return EXIT_MISSING
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    t0 = time.perf_counter()
    with tracer.span("bench.invoke") if tracer else nullcontext():
        if mode == "cli":
            code = blab.cli.main(args)
        else:
            checks, failing = blab.verify.oracle_suite(nets=1, seed=int(args[0]))
    if mode == "oracle":
        report = {"checks": [list(c) for c in checks], "failing": failing}
        (out_dir / "report.json").write_text(json.dumps(report, indent=2, default=str) + "\n")
        code = 0 if all(ok for _, ok, _ in checks) else 1
    seconds = time.perf_counter() - t0

    outcome = {"projections": counts.get("projections", 0),
               "converged": counts.get("converged", 0), "seconds": seconds}
    (out_dir / "outcome.json").write_text(json.dumps(outcome) + "\n")
    if tracer:
        summary = tracer.summary()
        summary["seconds"] = seconds
        (out_dir / "trace.json").write_text(json.dumps(summary, indent=1) + "\n")
        tracer.save(out_dir / "spans.npz")
    return code


def main(argv: list[str]) -> int:
    if argv[0] == "setup":
        return setup(argv[1])
    mode, out_dir, trace = argv[0], Path(argv[1]), argv[2] == "1"
    return run(mode, out_dir, trace, argv[3:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
