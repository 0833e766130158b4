"""Command-line entry point.

Subcommands:
  run   execute a named preset or a JSON config file
  list  show the available presets
  plot  emit a standalone matplotlib script for existing CSV output

Exit codes: 0 on success, 2 for configuration problems (including
unknown experiment names and ``--workers`` below 1), 3 for numerical
failures, which are reported with the failing module and operation, 4
when a run needs more memory than it can allocate (a config whose sizes
parse but do not fit), and 141 (128 + SIGPIPE,
the shell's code for a writer the closed pipe ends) without a traceback
when the reader of stdout goes away early, as in ``| head -1``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .errors import (ConfigError, DomainError, NumericalError,
                     UnknownExperimentError)
from .experiments import (OUTPUT_ENV_VAR, ExperimentConfig,
                          emit_plot_script, get_preset, list_experiments,
                          run)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_MEMORY = 4
EXIT_BROKEN_PIPE = 141


def _parse_seeds(text: str) -> list[int]:
    """Seed overrides: "0:20" is a half-open range, "1,5,9" a list."""
    text = text.strip()
    if ":" in text:
        lo, _, hi = text.partition(":")
        start = int(lo) if lo else 0
        stop = int(hi)
        if stop <= start:
            raise ConfigError("--seeds", f"empty range {text!r}")
        return list(range(start, stop))
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError("--seeds", f"cannot parse {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="precondrisk",
        description="Asymptotic risk of preconditioned interpolators: "
                    "theory curves, finite-sample checks, and RKHS "
                    "iteration experiments.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute an experiment")
    run_p.add_argument("name", nargs="?",
                       help="preset name (see 'list')")
    run_p.add_argument("--config", metavar="PATH",
                       help="JSON config file instead of a preset name")
    run_p.add_argument("--out", metavar="DIR", default=None,
                       help=f"output directory (default ${OUTPUT_ENV_VAR} "
                            "or ./outputs)")
    run_p.add_argument("--seeds", metavar="SPEC", default=None,
                       help='override seeds: "0:20" or "1,5,9"')
    run_p.add_argument("--workers", type=int, default=1,
                       help="thread-pool width, at least 1 (default 1); "
                            "with N > 1 workers OpenBLAS is capped at "
                            "usable cores // N threads for the run")

    sub.add_parser("list", help="list the built-in presets")

    plot_p = sub.add_parser("plot", help="emit a matplotlib script")
    plot_p.add_argument("csv", nargs="+", help="CSV files produced by run")
    plot_p.add_argument("--kind", required=True,
                        choices=("gamma", "time", "alpha"),
                        help="x-axis family")
    plot_p.add_argument("--out", required=True, metavar="PATH",
                        help="where to write the plot script")
    return parser


def _load_config(args) -> ExperimentConfig:
    if args.config is not None and args.name is not None:
        raise ConfigError("run", "give a preset name or --config, not both")
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as handle:
                raw = json.load(handle)
        except OSError as exc:
            raise ConfigError("--config", str(exc)) from None
        except ValueError as exc:  # bad JSON, UTF-8 or an over-long integer
            raise ConfigError("--config", f"invalid JSON: {exc}") from None
        config = ExperimentConfig.from_dict(raw)
    elif args.name is not None:
        config = get_preset(args.name)
    else:
        raise ConfigError("run", "need a preset name or --config")
    if args.seeds is not None:
        raw = config.to_dict()
        raw["seeds"] = _parse_seeds(args.seeds)
        config = ExperimentConfig.from_dict(raw)
    return config


def _cmd_run(args) -> int:
    if args.workers < 1:
        raise ConfigError("--workers", f"must be at least 1, got "
                                       f"{args.workers}")
    config = _load_config(args)
    manifest = run(config, out_dir=args.out, workers=args.workers)
    print(f"{config.experiment}: wrote {len(manifest.outputs)} files "
          f"in {manifest.wall_clock_seconds:.1f}s "
          f"(config {manifest.config_hash[:12]})")
    for name in sorted(manifest.outputs):
        print(f"  {name}")
    return EXIT_OK


def _cmd_list(args) -> int:
    for name, description in list_experiments().items():
        print(f"{name:8s} {description}")
    return EXIT_OK


def _cmd_plot(args) -> int:
    emit_plot_script(args.csv, args.kind, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {"run": _cmd_run, "list": _cmd_list, "plot": _cmd_plot}
    try:
        code = handler[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # fd 1 goes to /dev/null so the interpreter's exit flush is quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except UnknownExperimentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure in {exc.module}.{exc.operation}: {exc}",
              file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        print(f"out of memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return EXIT_MEMORY


if __name__ == "__main__":
    sys.exit(main())
