"""Command-line front end.

One subcommand per row of the stage table :data:`pipeline.STAGES`;
stages exchange clouds through the columnar format and every output
carries a manifest. Exit codes: 0 ok, 2 config error, 3 data error,
4 numeric failure, 1 internal. Errors print a single machine-parseable
line: ``error[<category>]: <detail>``.
"""

import argparse
import logging
import sys
from pathlib import Path

from . import __version__, pipeline
from .errors import MslidarError
from .pipeline import setting

# Config options every stage takes, besides --config and -v.
COMMON = (
    setting("seed", help="global seed; overrides the config file"),
    setting("threads", help="workers for training, prediction and neighbor queries, every "
            "CPU this process may run on when null; results do not depend on it"),
)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mslidar",
        description="multispectral LiDAR tree-point extraction pipeline",
    )
    ap.add_argument("--version", action="version", version=f"mslidar {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    for st in pipeline.STAGES.values():
        p = sub.add_parser(st.name, help=st.help)
        p.add_argument("--config", type=Path, default=None, help="YAML config file")
        for f in (*COMMON, *st.flags):
            p.add_argument(f.option, dest=f.dest, help=f.help, **f.kwargs)
        p.add_argument("-v", "--verbose", action="store_true")
    return ap


def effective_config(args: argparse.Namespace) -> dict:
    """Defaults < config file < flags, as the stage runs it."""
    flags = (*COMMON, *pipeline.STAGES[args.command].flags)
    overrides = {f.config: getattr(args, f.dest) for f in flags
                 if f.config and getattr(args, f.dest) is not None}
    return pipeline.load_config(args.config, overrides)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    st = pipeline.STAGES[args.command]
    try:
        cfg = effective_config(args)
        st.run(cfg, **{f.dest: getattr(args, f.dest) for f in st.flags if f.config is None})
    except MslidarError as exc:
        print(f"error[{exc.category}]: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # pragma: no cover - defensive
        print(f"error[internal]: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
