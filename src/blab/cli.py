"""Command-line entry point: experiment dispatch, CSV/JSON emission, SVG charts.

Exit codes: 0 success, 1 verify-suite failure, 2 config error (ConfigError:
a config file that cannot be read, or an output path that cannot be written,
among them), 3 data error (DataError: an input file that cannot be read, or
a run directory's file that is not blab's or does not fit its run, among them),
4 numeric failure (NumericError: training that diverges or hits its epoch
cap, or a projection that breaks down), 5 out of memory (MemoryError: an
array the host cannot hold), 130 interrupted (Ctrl-C or SIGTERM).
Any other error is a fault in blab, not in its input, and ends with its
traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
from pathlib import Path

from .config import DatasetSpec, parse_config, serialize_config
from .data import (LAYOUT_KINDS, ConfigError, DataError, NumericError, check_writable, export_csv,
                   save_idx, write_file)
from .experiments import (TRANSFER_MODES, build_dataset, run_generalization_tracking,
                          run_iterative_projection, run_symmetry_experiment, run_transfer)
from .verify import SUITES

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_MEMORY = 5
EXIT_INTERRUPTED = 130


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _given(args, flags) -> dict:
    """By dest, the flags given; an unset flag (None) keeps the default of
    the function or dataclass its dest names."""
    return {a.dest: getattr(args, a.dest) for a in flags if getattr(args, a.dest) is not None}


def cmd_cascade(args) -> int:
    """`iterproj`, and `gentrack`, which also tracks test accuracy."""
    iterations = [] if args.iterations is None else [f"experiment.iterations={args.iterations}"]
    cfg = parse_config(args.config, args.set + iterations)
    out = Path(args.out or f"run_{args.command}")
    tracking = args.command == "gentrack"
    records = (run_generalization_tracking if tracking else run_iterative_projection)(cfg, out)
    print(f"wrote {out / 'records.csv'} and {out / 'chart.svg'} ({len(records)} records"
          f"{', test accuracy tracked' if tracking else ''})")
    return EXIT_OK


def _report(out: Path, run) -> int:
    """The one path of transfer and symmetry: check that out can be written,
    run the experiment, write its report to out as JSON and print it."""
    check_writable(out)
    text = json.dumps(run(), indent=2)
    write_file(out, text + "\n")
    print(text)
    return EXIT_OK


def cmd_transfer(args) -> int:
    cfg = parse_config(args.config, args.set)
    return _report(Path(args.out or "transfer_report.json"), lambda: run_transfer(cfg, args.mode))


def cmd_symmetry(args) -> int:
    return _report(Path(args.out or "symmetry_report.json"), lambda: run_symmetry_experiment(
        args.layout, args.trials, **_given(args, args.symmetry_flags)))


def cmd_verify(args) -> int:
    results, failing = SUITES[args.suite]()
    all_ok = True
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] {name}" + (f"  ({detail})" if detail else ""))
        all_ok &= ok
    if not all_ok and failing is not None:
        path = Path(f"verify_{args.suite}_failure.json")
        write_file(path, json.dumps(failing, indent=2, default=str) + "\n")
        print(f"failing case serialized to {path}", file=sys.stderr)
    return EXIT_OK if all_ok else EXIT_FAIL


def cmd_gen_data(args) -> int:
    given = _given(args, args.blob_flags)
    if args.kind == "blobs":
        spec = DatasetSpec(source="blobs", **given)
    elif given:
        flags = ", ".join(a.option_strings[0] for a in args.blob_flags if a.dest in given)
        raise ConfigError(f"--kind {args.kind} takes no blob flag, got {flags}")
    else:
        spec = DatasetSpec(source="symmetric", layout_kind=args.kind)  # every layout is 2-D
    side = math.isqrt(spec.dim)
    if args.format == "idx" and side * side != spec.dim:
        raise ConfigError(f"idx export needs a square feature dimension, got {spec.dim}")
    data = build_dataset(spec)
    out = Path(args.out)
    if args.format == "csv":
        export_csv(data, out)
        print(f"wrote {out} ({len(data)} samples)")
    else:
        labels_path = out.with_suffix(".labels.idx")
        save_idx(data, out, labels_path, side)
        print(f"wrote {out} and {labels_path}")
    return EXIT_OK


def cmd_show_config(args) -> int:
    cfg = parse_config(args.config, args.set)
    sys.stdout.write(serialize_config(cfg))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="blab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("config", help="experiment config file")
        sp.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                        help="override a config value")
        sp.add_argument("--out", help="output directory / file")

    for name, text in (("iterproj", "iterative boundary projection run"),
                       ("gentrack", "iterative projection with test-accuracy tracking")):
        sp = sub.add_parser(name, help=text)
        common(sp)
        sp.add_argument("--iterations", type=int, help="sets experiment.iterations")
        sp.set_defaults(fn=cmd_cascade)

    sp = sub.add_parser("transfer", help="adversarial transferability experiment")
    common(sp)
    sp.add_argument("--mode", choices=TRANSFER_MODES,
                    default="cross_training_set")
    sp.set_defaults(fn=cmd_transfer)

    sp = sub.add_parser("symmetry", help="boundary-multiplicity experiment on a symmetric layout")
    sp.add_argument("--layout", choices=LAYOUT_KINDS, default="square_xor")
    sp.add_argument("--trials", type=int, default=20)
    sp.set_defaults(fn=cmd_symmetry, symmetry_flags=[  # dests: run_symmetry_experiment's parameters
        sp.add_argument("--seed", dest="master_seed", metavar="SEED", type=int),
        sp.add_argument("--perturb", type=_finite_float),
        sp.add_argument("--kappa", type=_finite_float)])
    sp.add_argument("--out")

    sp = sub.add_parser("verify", help="run a property suite")
    sp.add_argument("suite", choices=sorted(SUITES))
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("gen-data", help="generate a synthetic dataset file")
    sp.add_argument("--kind", choices=("blobs",) + LAYOUT_KINDS, default="blobs")
    sp.add_argument("--out", required=True)
    sp.add_argument("--format", choices=["csv", "idx"], default="csv")
    sp.set_defaults(fn=cmd_gen_data, blob_flags=[  # --kind blobs only; dests: DatasetSpec fields
        sp.add_argument("--dim", type=int),
        sp.add_argument("--per-class", type=int),
        sp.add_argument("--distance", dest="center_distance", metavar="DISTANCE",
                        type=_finite_float),
        sp.add_argument("--sigma", type=_finite_float),
        sp.add_argument("--seed", type=int)])

    sp = sub.add_parser("show-config", help="parse and echo a resolved config")
    common(sp)
    sp.set_defaults(fn=cmd_show_config)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # SIGTERM takes Ctrl-C's path, until main returns
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as e:
        print(f"out of memory: {e}", file=sys.stderr)
        return EXIT_MEMORY
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_DFL if previous is None else previous)


if __name__ == "__main__":
    sys.exit(main())
