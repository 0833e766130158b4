"""Outside-in benchmark of the ``precondrisk run`` CLI.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 it starts ``precondrisk run`` (through launch.py) in a
fresh child process, one at a time, until S seconds are used.  Serial
workloads give their children one BLAS thread; ``stationary`` keeps the
BLAS default beside its 2 pool threads.  It reports per workload, as
medians over the children:

  wall_s       child start to exit
  setup_s      child start to a validated config (import plus config
               load), sampled by the timed children and by eleven
               set-up-only children
  cells_per_s  primary CSV rows / seconds in experiments.run
  cpu_s        the child's user + sys time (os.wait4)
  peak_rss_mb  the child's own peak RSS (os.wait4)

With --trace 1 it runs traced children, at least two: they wrap every
layer function (tracer.py) and give the per-layer metrics.  Every
child's outputs are checked (workloads.py) after the timed loop, and
every traced child must make exactly the calls of the first one;
failed_frac is failed checks / checks attempted.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The full result, with every sample, the
failed checks and the machine fingerprint, goes to
.perfbench/results/<workload>-seed<N>-trace<T>.json in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAUNCH = HERE / "launch.py"
STATE = ROOT / ".perfbench"

# set-up-only children at the start of every untraced run; the first
# one also warms the file cache and is not counted
SETUP_PROBES = 12
# traced children per traced run, at least, so the call counts of two
# can be compared
MIN_TRACED = 2

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cells_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "experiments.run.s": "s",
    "finite_sim.conditional_bias.s": "s",
    "finite_sim.conditional_variance.s": "s",
    "finite_sim.trajectory.s": "s",
    "finite_sim.sample_design.s": "s",
    "finite_sim.simulate_risk.s": "s",
    "linalg.factorizations": "count",
    "linalg.factorizations_per_cell": "count",
    "linalg.s": "s",
    "stieltjes.solve_m.calls": "count",
    "stieltjes.solve_m.s": "s",
    "risk_theory.s": "s",
    "rkhs_sim.run_preconditioned.s": "s",
    "rkhs_sim.steps_per_s": "1/s",
    "rkhs_sim.nonfinite_cells": "count",
    "experiments.write_csv.s": "s",
    "experiments.bytes_written": "B",
    "experiments.pool.busy_frac": "ratio",
    "trace.top_level_coverage": "ratio",
    "trace.overhead_s": "s",
}
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
            "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS")


class Child:
    """One finished child process: its timings, usage and outputs."""

    def __init__(self, out: Path, returncode: int, wall_s: float,
                 cpu_s: float, peak_rss_mb: float, record: dict,
                 spawned: float):
        self.out = out
        self.returncode = returncode
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.peak_rss_mb = peak_rss_mb
        self.record = record
        ready = record.get("config_ready")
        self.setup_s = None if ready is None else ready - spawned


def child_env(blas_threads: int | None) -> dict:
    """This process's environment, with BLAS threads pinned if asked."""
    env = dict(os.environ)
    if blas_threads is not None:
        env.update({key: str(blas_threads) for key in BLAS_ENV})
    return env


def spawn(cli_args: list, out: Path, own_args: list, env: dict) -> Child:
    """Run launch.py in a fresh process and collect its own rusage."""
    out.mkdir(parents=True)
    record_path = out / "record.json"
    argv = [sys.executable, str(LAUNCH), "--record", str(record_path),
            *own_args, "--", *cli_args]
    with open(out / "child.log", "wb") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT, cwd=ROOT,
                                env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        ended = time.monotonic()
        # os.wait4 reaped the child; keep Popen from waiting for it again
        proc.returncode = os.waitstatus_to_exitcode(status)
    record = {}
    if record_path.exists():
        record = json.loads(record_path.read_text(encoding="utf-8"))
    return Child(out, proc.returncode, ended - spawned,
                 usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1000.0,
                 record, spawned)


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _blas_threads():
    """OpenBLAS's own thread count, read through ctypes when possible."""
    import ctypes
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def fingerprint(workers: int, env: dict,
                blas_threads: int | None) -> dict:
    """The machine and the children's BLAS set-up."""
    import numpy

    config = numpy.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    try:
        commit = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {key: blas.get(key) for key in
                 ("name", "version", "openblas configuration")},
        "blas_threads": (_blas_threads() if blas_threads is None
                         else blas_threads),
        "blas_env": {key: env.get(key) for key in BLAS_ENV},
        "workers": workers,
        "commit": commit,
    }


def measure(workload, seed: int, seconds: float, trace: bool,
            work: Path) -> dict:
    began = time.monotonic()
    inputs = workload.inputs(seed, work)
    env = child_env(workload.blas_threads)
    deadline = time.monotonic() + seconds
    children: list[tuple[str, Child]] = []

    def child(kind: str, own_args: list) -> Child:
        out = work / f"{len(children):03d}-{kind}"
        result = spawn(inputs.args + ["--out", str(out)], out, own_args,
                       env)
        children.append((kind, result))
        return result

    if not trace:
        for i in range(SETUP_PROBES):
            child("setup" if i else "warmup", ["--setup-only"])
    started_children = len(children)
    while True:
        started = time.monotonic()
        child("traced" if trace else "timed",
              ["--trace"] if trace else [])
        now = time.monotonic()
        enough = not trace or len(children) - started_children >= MIN_TRACED
        if enough and now + (now - started) > deadline:
            break  # the next would overrun

    # checks and oracles run after the timed loop, so no BLAS work of
    # this process overlaps a child
    attempted = failed = 0
    failures = []
    samples = []
    first_calls = None
    for index, (kind, result) in enumerate(children):
        if kind == "warmup":
            continue
        if kind == "setup":
            samples.append({"kind": kind, "setup_s": result.setup_s})
            continue
        if "trace" in result.record:
            calls = result.record["trace"]["calls"]
            if first_calls is None:
                first_calls = calls
            else:
                attempted += 1
                if calls != first_calls:
                    failed += 1
                    failures.append(f"{result.out.name}: call counts differ "
                                    "from the first traced child's")
        pick = random.Random(f"{workload.name}/{seed}/{index}")
        checks = workload.check(result.out, inputs, result.returncode, pick)
        attempted += len(checks.items)
        failed += len(checks.failed)
        failures += [f"{result.out.name}: {name}: {detail}"
                     for name, _, detail in checks.failed]
        samples.append(_sample(workload, kind, result, not checks.failed))

    if trace:
        metrics = _per_layer(workload, samples)
    else:
        timed = [s for s in samples if s["kind"] == "timed"]
        setups = [s["setup_s"] for s in samples if s["setup_s"] is not None]
        metrics = {
            "wall_s": (_median([s["wall_s"] for s in timed]), len(timed)),
            "setup_s": (_median(setups), len(setups)),
            "cells_per_s": (_median([s["cells"] / s["run_s"] for s in timed
                                     if s["run_s"]]), len(timed)),
            "cpu_s": (_median([s["cpu_s"] for s in timed]), len(timed)),
            "peak_rss_mb": (_median([s["peak_rss_mb"] for s in timed]),
                            len(timed)),
        }
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "cli_args": inputs.args,
        "fingerprint": fingerprint(workload.workers, env,
                                   workload.blas_threads),
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "samples": samples,
        "elapsed_s": time.monotonic() - began,
    }


def _sample(workload, kind: str, result: Child, outputs_ok: bool) -> dict:
    """One child's numbers; output counts only from outputs that passed."""
    sample = {
        "kind": kind,
        "returncode": result.returncode,
        "wall_s": result.wall_s,
        "setup_s": result.setup_s,
        "cpu_s": result.cpu_s,
        "peak_rss_mb": result.peak_rss_mb,
        "run_s": result.record.get("run_s"),
        "cells": 0,
        "bytes_written": 0,
        "nonfinite_cells": 0,
        "steps": 0,
    }
    if outputs_ok:
        sample["cells"] = workload.cells(result.out)
        sample["bytes_written"] = sum(
            path.stat().st_size for path in result.out.iterdir()
            if path.name.startswith(f"{workload.prefix}_"))
        sample["nonfinite_cells"] = workload.nonfinite_cells(result.out)
        sample["steps"] = workload.steps(result.out)
    if "trace" in result.record:
        sample["trace"] = result.record["trace"]
    return sample


def _per_layer(workload, samples: list) -> dict:
    traced = [s for s in samples if "trace" in s]
    if not traced:
        raise SystemExit("no traced child finished")
    n = len(traced)

    def med(fn) -> tuple[float, int]:
        return _median([fn(s) for s in traced]), n

    def fn_s(name):
        return med(lambda s: s["trace"]["function_s"].get(name, 0.0))

    def steps_per_s(s) -> float:
        busy = s["trace"]["function_s"].get("rkhs_sim.run_preconditioned")
        return s["steps"] / busy if busy else 0.0

    return {
        "experiments.run.s": med(lambda s: s["trace"]["run_s"]),
        "finite_sim.conditional_bias.s": fn_s("finite_sim.conditional_bias"),
        "finite_sim.conditional_variance.s":
            fn_s("finite_sim.conditional_variance"),
        "finite_sim.trajectory.s": fn_s("finite_sim.trajectory"),
        "finite_sim.sample_design.s": fn_s("finite_sim.sample_design"),
        "finite_sim.simulate_risk.s": fn_s("finite_sim.simulate_risk"),
        "linalg.factorizations": med(lambda s: s["trace"]["linalg_calls"]),
        "linalg.factorizations_per_cell": med(
            lambda s: s["trace"]["linalg_calls"] / s["cells"]
            if s["cells"] else 0.0),
        "linalg.s": med(lambda s: s["trace"]["layer_s"].get("linalg", 0.0)),
        "stieltjes.solve_m.calls":
            med(lambda s: s["trace"]["calls"].get("stieltjes.solve_m", 0)),
        "stieltjes.solve_m.s": fn_s("stieltjes.solve_m"),
        "risk_theory.s":
            med(lambda s: s["trace"]["layer_s"].get("risk_theory", 0.0)),
        "rkhs_sim.run_preconditioned.s": fn_s("rkhs_sim.run_preconditioned"),
        "rkhs_sim.steps_per_s": med(steps_per_s),
        "rkhs_sim.nonfinite_cells": med(lambda s: s["nonfinite_cells"]),
        "experiments.write_csv.s": fn_s("experiments.write_csv"),
        "experiments.bytes_written": med(lambda s: s["bytes_written"]),
        "experiments.pool.busy_frac": med(
            lambda s: s["trace"]["top_level_s"]
            / (workload.workers * s["trace"]["run_s"])
            if s["trace"]["run_s"] else 0.0),
        "trace.top_level_coverage": med(lambda s: s["trace"]["coverage"]),
        "trace.overhead_s": med(lambda s: s["trace"]["overhead_s"]),
    }


def _report(result: dict, units: dict) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"seconds {result['seconds']}  trace {result['trace']}  "
          f"args {' '.join(result['cli_args'])}")
    print("fingerprint " + json.dumps(result["fingerprint"], sort_keys=True))
    for name, unit in units.items():
        value, count = result["metrics"][name]
        print(f"  {name:36s} {value:14.6g} {unit:6s} median of {count}")
    print(f"  {'failed_frac':36s} {result['failed'] / result['attempted']:14.6g}"
          f" {'ratio':6s} {result['failed']} of {result['attempted']} checks")
    for line in result["failures"]:
        print(f"  FAILED {line}", file=sys.stderr)


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "precondrisk" / "__init__.py").is_file():
        print(f"error: no precondrisk package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]
    work = STATE / "work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = measure(workload, args.seed, args.seconds,
                         bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    units = PER_LAYER if args.trace else END_TO_END
    _report(result, units)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name][0], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
