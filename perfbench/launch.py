"""One timed ``precondrisk`` CLI process, started by ``run.py``.

Usage:
    python3 perfbench/launch.py --record PATH [--trace] [--setup-only] \
        -- <precondrisk arguments>

It runs ``precondrisk.cli.main`` on the arguments, which is what the
installed ``precondrisk`` console script does, from the ``src/`` tree
of the checkout this file sits in.  Around it, it records into PATH
(JSON):

  config_ready   CLOCK_MONOTONIC time at which the config was loaded and
                 validated; the parent subtracts its spawn time
  run_s          seconds spent in ``experiments.run`` as the CLI calls it
  trace          with --trace, the ``Tracer`` summary of the run

--setup-only stops after the config is validated.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _parse(argv: list[str]) -> tuple[argparse.Namespace, list[str]]:
    """Own options before ``--``, precondrisk arguments after it."""
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(prog="launch.py")
    parser.add_argument("--record", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv[:split]), argv[split + 1:]


def main() -> int:
    opts, cli_args = _parse(sys.argv[1:])
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from precondrisk import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"launch.py: imported {cli.__file__}, not {SRC}")
    record: dict = {}
    load_config = cli._load_config

    def timed_load_config(args):
        config = load_config(args)
        record["config_ready"] = time.monotonic()
        return config

    cli._load_config = timed_load_config
    if opts.setup_only:
        cli._load_config(cli.build_parser().parse_args(cli_args))
        rc = 0
    else:
        tracer = None
        if opts.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        run = cli.run

        def timed_run(*args, **kwargs):
            start = time.perf_counter()
            try:
                return run(*args, **kwargs)
            finally:
                record["run_s"] = time.perf_counter() - start

        cli.run = timed_run
        rc = cli.main(cli_args)
        if tracer is not None:
            tracer.uninstall()
            record["trace"] = tracer.summary()
    with open(opts.record, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return rc


if __name__ == "__main__":
    sys.exit(main())
