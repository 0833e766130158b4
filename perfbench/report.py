"""Run every workload and print each metric by name, unit and sample count.

Usage (from the root of a checkout):
    python3 perfbench/report.py [--seeds 10] [--seconds 30] [--trace 0|1]
                                [--json PATH]

It runs ``run.py`` for workload seeds 0 .. seeds-1, every workload per
seed before the next seed.  Per workload and metric it prints the median
over the runs of the per-run medians, the spread (interquartile range
over median, from ``statistics.quantiles(n=4)``) and the number of runs
and of samples behind them.  failed_frac pools the checks of all runs.
--json writes the same table as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, PER_LAYER, STATE  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def spread(values: list[float]) -> float:
    """Interquartile range over the median; 0 with fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    if median == 0:
        return 0.0 if q1 == q3 else float("inf")
    return (q3 - q1) / abs(median)


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], stdout=subprocess.PIPE, text=True, check=False)
    if completed.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: run.py exited "
                         f"{completed.returncode}")
    path = STATE / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def summarize(results: list[dict], units: dict) -> dict:
    table = {}
    for name, unit in units.items():
        values = [r["metrics"][name][0] for r in results]
        table[name] = {
            "unit": unit,
            "median": statistics.median(values),
            "spread": spread(values),
            "runs": len(values),
            "samples": sum(r["metrics"][name][1] for r in results),
        }
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    table["failed_frac"] = {"unit": "ratio", "median": failed / attempted,
                            "spread": 0.0, "runs": len(results),
                            "samples": attempted}
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=1,
                        help="runs per workload, one seed each")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", metavar="PATH")
    args = parser.parse_args(argv)
    units = PER_LAYER if args.trace else END_TO_END

    workloads = list(WORKLOADS)
    seeds = range(args.seeds)
    # seeds outside, workloads inside: a slow spell of the host hits one
    # run of several workloads rather than several runs of one
    results = {w: [] for w in workloads}
    for seed in seeds:
        for workload in workloads:
            results[workload].append(
                run_one(workload, seed, args.seconds, args.trace))
    summary = {}
    for workload in workloads:
        first = results[workload][0]
        summary[workload] = {"table": summarize(results[workload], units),
                             "fingerprint": first["fingerprint"],
                             "cli_args": first["cli_args"]}
        print(f"{workload}: {' '.join(first['cli_args'])}")
        for name, row in summary[workload]["table"].items():
            print(f"  {name:36s} {row['median']:14.6g} {row['unit']:6s} "
                  f"spread {row['spread']:7.2%}  runs {row['runs']:2d}  "
                  f"samples {row['samples']}")
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"seconds": args.seconds, "seeds": args.seeds,
             "trace": args.trace,
             "workloads": summary}, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
