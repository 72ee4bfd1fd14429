"""Command-line entry points.

Exit codes: 0 on success, 2 for configuration or input-format
problems and for a run that needs more memory than the machine has, 3
when a run aborts on a numerical failure.
"""

import argparse
import sys
from pathlib import Path

from .errors import ConfigError, ContractError, FormatError, NumericalFailure
from .runner import (
    bake_synthetic,
    compare_styles,
    emit_report,
    load_config,
    render_table,
    run_experiment,
    write_json,
)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rvflstream",
        description="Streaming class-incremental learning with random-feature ensembles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one experiment config")
    p_run.add_argument("--config", required=True, help="YAML config file")
    p_run.add_argument("--out", default=None,
                       help="output directory (overrides config 'out')")

    p_cmp = sub.add_parser("compare",
                           help="run several configs differing only in style")
    p_cmp.add_argument("--configs", required=True, nargs="+",
                       help="YAML config files, one per style")
    p_cmp.add_argument("--repeats", type=int, default=1,
                       help="paired repeats per style")
    p_cmp.add_argument("--out", default=None,
                       help="directory for the comparison table")

    p_bake = sub.add_parser("bake-synthetic",
                            help="materialize a synthetic dataset spec as CSV")
    p_bake.add_argument("--spec", required=True, help="YAML dataset spec")
    p_bake.add_argument("--out", required=True, help="output directory")

    return parser


def _out_dir(path):
    """path as a Path, checked before any data is read.

    ConfigError naming it when it, or the nearest ancestor that exists,
    is not a directory, since the outputs could not be written there.
    """
    path = Path(path)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"output directory {path}: {existing} exists "
                          f"and is not a directory")
    return path


def _cmd_run(args):
    config = load_config(args.config)
    out_dir = args.out or config.out_dir
    if out_dir is None:
        raise ConfigError("no output directory: pass --out or set 'out' in the config")
    out_dir = _out_dir(out_dir)
    report = run_experiment(config)
    emit_report(report, out_dir)
    final = report.final
    print(f"wrote {out_dir}/report.json")
    print(f"acc={final['acc']:.6f}"
          + (f" bwt={final['bwt']:.6f}" if final["bwt"] is not None else "")
          + (f" fwt={final['fwt']:.6f}" if final["fwt"] is not None else "")
          + f" cum_regret={final['cum_regret']:.6f}")
    return 0


def _cmd_compare(args):
    configs = [load_config(p) for p in args.configs]
    out_dir = _out_dir(args.out) if args.out else None
    rows = compare_styles(configs, repeats=args.repeats)
    table = render_table(rows)
    print(table)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_json(out_dir / "compare.json", {"repeats": args.repeats, "rows": rows})
        with open(out_dir / "compare.txt", "w", newline="\n") as f:
            f.write(table + "\n")
        print(f"wrote {out_dir}/compare.json")
    return 0


def _cmd_bake(args):
    out_dir = bake_synthetic(args.spec, _out_dir(args.out))
    print(f"wrote {out_dir}/train.csv, {out_dir}/test.csv, {out_dir}/meta.json")
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "compare": _cmd_compare,
        "bake-synthetic": _cmd_bake,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, ContractError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # A config under the size bound can still ask for more memory
        # than is free; numpy's message names the array it could not get.
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
