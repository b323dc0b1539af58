"""blab's byte gates as one command: md5 digests of what blab ships, and a
comparison of two such records.

    python3 tools/gates.py run OUT.json
    python3 tools/gates.py compare A.json B.json

`run` imports blab from PYTHONPATH, else from this checkout's src, so the
same script records any checkout, and writes OUT.json, one entry per output:

- `census/i`: the run directory of a one-iteration `iterproj
  configs/blobs2d.cfg`, input i of CENSUS_INPUTS, seeded by perfbench/run.py's
  `sub_seed` as its cascade2d workload is with seed 1;
- `oracle/s`: the check lines and failing case of `verify.oracle_suite(nets=1,
  seed=sub_seed(s, 0, "oracle"))` for s = 1..ORACLE_SEEDS, and
  `oracle/failing`, the list of seeds whose suite fails;
- `byte784/...`: the 784-d byte check, each file on its own: `gen-data --dim
  784 --per-class 100 --seed 7 --format idx`, then `iterproj` on
  BYTE784_CONFIG, which reads those files;
- `gen-data/csv` (3-d blobs) and `verify/SUITE`, the default `blab verify`
  lines of each suite.

A run directory is digested without its manifest.json, which holds
timestamps; every entry holds the command's exit code beside its digest.
`compare` prints each entry that differs or that one file lacks, then a
count, and exits 1; it prints nothing and exits 0 for equal records.
Set OPENBLAS_NUM_THREADS=1 for both sides of a comparison.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT / "src"))  # after PYTHONPATH, which picks the blab to record
sys.path.append(str(ROOT))

import blab.cli  # noqa: E402
import blab.verify  # noqa: E402
from perfbench.run import sub_seed  # noqa: E402

CASCADE2D_CONFIG = ROOT / "configs" / "blobs2d.cfg"
CENSUS_SEED = 1
CENSUS_INPUTS = 40
ORACLE_SEEDS = 1000

# perfbench/run.py's CASCADE784_CONFIG with every sample and 2 iterations
BYTE784_CONFIG = """[dataset]
source = idx
images_path = blobs784.idx
labels_path = blobs784.labels.idx
class_a = 0
class_b = 1

[network]
dims = 784,500,256,128,32,2

[train]
optimizer = adam
learning_rate = 0.01
max_epochs = 20000
batch_size = 30
accuracy_target = 0.90

[experiment]
iterations = 2
"""


def _md5(data: bytes) -> str:
    return hashlib.md5(data).hexdigest()


def _tree_md5(root: Path) -> str:
    """One digest of every file under root but manifest.json: paths and bytes."""
    h = hashlib.md5()
    for p in sorted(q for q in root.rglob("*") if q.is_file() and q.name != "manifest.json"):
        rel = p.relative_to(root).as_posix().encode()
        h.update(b"%d:%s%d:" % (len(rel), rel, p.stat().st_size))
        h.update(p.read_bytes())
    return h.hexdigest()


def _cli(argv: list[str]) -> tuple[int, str]:
    """blab.cli.main's exit code and stdout; its stderr passes through."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = blab.cli.main(argv)
    return code, out.getvalue()


def census(n: int, work: Path) -> dict:
    entries = {}
    for i in range(n):
        run = work / f"census{i}"
        code, _ = _cli(["iterproj", str(CASCADE2D_CONFIG), "--iterations", "1",
                        "--set", f"experiment.master_seed={sub_seed(CENSUS_SEED, i, 'master')}",
                        "--set", f"dataset.seed={sub_seed(CENSUS_SEED, i, 'dataset')}",
                        "--out", str(run)])
        entries[f"census/{i}"] = {"exit": code, "md5": _tree_md5(run)}
    return entries


def oracle(n: int) -> dict:
    entries, failing = {}, []
    for s in range(1, n + 1):
        results, case = blab.verify.oracle_suite(nets=1, seed=sub_seed(s, 0, "oracle"))
        entries[f"oracle/{s}"] = _md5(json.dumps([results, case], default=str).encode())
        if not all(ok for _, ok, _ in results):
            failing.append(s)
    entries["oracle/failing"] = failing
    return entries


def byte784(work: Path) -> dict:
    images = work / "blobs784.idx"
    code, _ = _cli(["gen-data", "--dim", "784", "--per-class", "100", "--seed", "7",
                    "--format", "idx", "--out", str(images)])
    (work / "byte784.cfg").write_text(BYTE784_CONFIG)
    entries = {"byte784/gen-data": {"exit": code}}
    code, _ = _cli(["iterproj", str(work / "byte784.cfg"), "--out", str(work / "run")])
    entries["byte784/iterproj"] = {"exit": code}
    for p in sorted([images, images.with_suffix(".labels.idx"),
                     *(q for q in (work / "run").rglob("*") if q.is_file())]):
        if p.name != "manifest.json":
            entries[f"byte784/{p.relative_to(work).as_posix()}"] = _md5(p.read_bytes())
    return entries


def cli_outputs(work: Path) -> dict:
    csv = work / "blobs3d.csv"
    code, _ = _cli(["gen-data", "--dim", "3", "--per-class", "20", "--seed", "5",
                    "--out", str(csv)])
    entries = {"gen-data/csv": {"exit": code, "md5": _md5(csv.read_bytes())}}
    for suite in sorted(blab.verify.SUITES):
        code, lines = _cli(["verify", suite])
        entries[f"verify/{suite}"] = {"exit": code, "md5": _md5(lines.encode())}
    return entries


def run(args) -> int:
    entries = {}
    home = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="blab_gates_") as tmp:
        work = Path(tmp)
        os.chdir(work)  # verify writes a failing case to the working directory
        try:
            entries.update(census(CENSUS_INPUTS, work))
            entries.update(oracle(ORACLE_SEEDS))
            entries.update(byte784(work))
            entries.update(cli_outputs(work))
        finally:
            os.chdir(home)
    Path(args.out).write_text(json.dumps(entries, indent=1) + "\n")
    return 0


def compare(args) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (args.a, args.b))
    differ = [k for k in sorted(a.keys() | b.keys()) if a.get(k) != b.get(k)]
    for k in differ:
        print(f"{k}: {a.get(k, 'absent')} -> {b.get(k, 'absent')}")
    if differ:
        print(f"{len(differ)} of {len(a.keys() | b.keys())} entries differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    sp = sub.add_parser("run", help="record the digests of this blab")
    sp.add_argument("out")
    sp.set_defaults(fn=run)
    sp = sub.add_parser("compare", help="list the entries two records differ in")
    sp.add_argument("a")
    sp.add_argument("b")
    sp.set_defaults(fn=compare)
    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
