"""Self-test of the output checker: corrupted outputs must count as failures.

Usage (from the root of a checkout):
    python3 perfbench/selftest.py

It runs the ``stationary`` workload's CLI call once (workload seed 0)
and checks copies of its outputs:

  1. untouched outputs pass every check;
  2. one variance cell changed in its last digits, with the manifest
     digest updated to match, fails the risk = bias + variance check;
  3. the bias and risk of the row the oracle samples, shifted together
     so that the sum still holds and the digest updated, fails the
     dense-oracle check;
  4. one wrong digest in the manifest fails that digest check only;
  5. a non-zero exit code fails every check.

It prints one line per case and exits 1 if any case does not hold.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from run import STATE, child_env, spawn  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PICK = "selftest"


def _rewrite(path: Path, edit) -> None:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows(rows)


def _set_digest(out: Path, name: str, digest: str | None = None) -> None:
    manifest_path = out / "fig3a_manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    if digest is None:
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
    manifest["outputs"][name] = digest
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")


def main() -> int:
    workload = WORKLOADS["stationary"]
    work = STATE / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = workload.inputs(0, work)
        clean = work / "clean"
        child = spawn(inputs.args + ["--out", str(clean)], clean, [],
                      child_env(workload.blas_threads))
        return _cases(workload, inputs, clean, child.returncode)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _cases(workload, inputs, clean: Path, returncode: int) -> int:
    sim = "fig3a_sim.csv"
    with open(clean / sim, encoding="utf-8") as handle:
        n_rows = sum(1 for _ in handle) - 1
    # the rows the two oracle checks sample, as CSV line numbers
    pick = random.Random(PICK)
    sampled = [1 + pick.randrange(n_rows) for _ in range(2)]

    def variance_cell(rows):
        row = rows[1 + sampled[0] % n_rows]
        row[9] = repr(float(row[9]) * (1 + 1e-12))

    def oracle_shift(rows):
        row = rows[sampled[0]]
        bias = float(row[8]) * (1 + 1e-6)
        row[8], row[10] = repr(bias), repr(bias + float(row[9]))

    cases = []  # (title, out dir, returncode, expected failing checks)
    cases.append(("untouched outputs", clean, returncode, set()))

    out = clean.with_name("variance")
    shutil.copytree(clean, out)
    _rewrite(out / sim, variance_cell)
    _set_digest(out, sim)
    cases.append(("one variance cell changed", out, 0,
                  {"sim.csv risk = bias + variance, all finite and > 0"}))

    out = clean.with_name("oracle")
    shutil.copytree(clean, out)
    _rewrite(out / sim, oracle_shift)
    _set_digest(out, sim)
    cases.append(("sampled row's bias and risk shifted", out, 0,
                  {f"sampled sim.csv row {k}: dense bias and variance"
                   for k, line in enumerate(sampled)
                   if line == sampled[0]}))

    out = clean.with_name("digest")
    shutil.copytree(clean, out)
    _set_digest(out, sim, "0" * 64)
    cases.append(("wrong manifest digest", out, 0,
                  {f"{sim} digest matches the manifest"}))

    cases.append(("non-zero exit code", clean, 3, None))

    ok = True
    for title, out, code, expected in cases:
        checks = workload.check(out, inputs, code, random.Random(PICK))
        failed = {name for name, _, _ in checks.failed}
        if expected is None:
            good = len(checks.failed) == len(checks.items) > 0
        else:
            good = failed == expected
        ok &= good
        print(f"{'PASS' if good else 'FAIL'}  {title}: {len(failed)} of "
              f"{len(checks.items)} checks failed"
              + "".join(f"\n        {name}" for name in sorted(failed)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
