"""The four benchmark workloads: seeded inputs and the checks on outputs.

Each workload maps a workload seed to the arguments of one
``precondrisk run`` call (a ``--seeds`` window, or a config JSON for
``rkhs``) and knows which files that call must write.  ``check``
verifies a finished call: exit code, manifest digests, the layout of
every CSV, and sampled values against oracles computed here with dense
linear algebra straight from the definitions, never through the
package's own evaluation paths.  The package is used only to realize
inputs: presets, designs, the kernel model and its data set, and the
brute-force RKHS iteration that it keeps as a test oracle.

Each check is one named pass/fail entry.  A check that raises fails.
When the process exited non-zero every check of the call counts as
failed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# relative agreement required of values that the oracle computes exactly
EXACT_RTOL = 1e-10
# whitened theory variance against sigma^2/(gamma - 1) (criterion 1)
WHITENED_RTOL = 1e-9
# fig1's risk is a 50 000-point test average; its standard error is
# about 0.7% of the risk, so 5% is about seven standard errors
MONTE_CARLO_RTOL = 0.05
# oracle rows checked per call
SAMPLED_ROWS = 2
# RKHS steps replayed through the brute-force oracle
BRUTE_FORCE_STEPS = 5


class CheckFailed(Exception):
    """A check found a wrong value; the message says which."""


class Checks:
    """Named pass/fail results of one call's checks."""

    def __init__(self):
        self.items: list[tuple[str, bool, str]] = []

    def run(self, name: str, fn, *args) -> None:
        try:
            fn(*args)
        except Exception as exc:  # a check that cannot run has failed
            self.items.append((name, False, f"{type(exc).__name__}: {exc}"))
        else:
            self.items.append((name, True, ""))

    def fail_all(self, why: str) -> None:
        self.items = [(name, False, why) for name, _, _ in self.items]

    @property
    def failed(self) -> list[tuple[str, bool, str]]:
        return [item for item in self.items if not item[1]]


@dataclass(frozen=True)
class Inputs:
    """What one call receives: CLI arguments (without --out) and params."""

    args: list
    params: dict


def _window_start(name: str, seed: int) -> int:
    return random.Random(f"{name}/{seed}").randrange(1_000_000)


def _close(value: float, expected: float, rtol: float) -> bool:
    return abs(value - expected) <= rtol * abs(expected)


def _expect_close(what: str, value: float, expected: float,
                  rtol: float) -> None:
    if not _close(value, expected, rtol):
        raise CheckFailed(f"{what}: got {value!r}, oracle {expected!r} "
                          f"(rtol {rtol:g})")


def _number(text: str) -> float:
    return float(text) if text != "" else math.nan


def _optional(text: str) -> float | None:
    return float(text) if text != "" else None


def read_csv(path: Path) -> tuple[list[str], list[dict]]:
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        return list(reader.fieldnames or []), list(reader)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# dense oracles

def _spectrum(spec: dict):
    from precondrisk import make_two_atom

    if spec.get("kind") != "two_atom":
        raise CheckFailed(f"no oracle for spectrum kind {spec.get('kind')!r}")
    return make_two_atom(float(spec["kappa"]),
                         frobenius_normalize=bool(spec.get("normalized",
                                                           True)))


def _prior_eigs(prior: dict, sx: np.ndarray) -> np.ndarray:
    if prior["kind"] == "constant":
        return np.full_like(sx, float(prior["value"]))
    if prior["kind"] == "power":
        return sx ** (-float(prior["exponent"]))
    raise CheckFailed(f"no oracle for prior kind {prior['kind']!r}")


def _precond_eigs(spec: dict, sx: np.ndarray) -> np.ndarray:
    if spec["kind"] == "identity":
        return np.ones_like(sx)
    if spec["kind"] == "inverse_pop_fisher":
        return 1.0 / sx
    if spec["kind"] == "power":
        return sx ** (-float(spec["alpha"]))
    raise CheckFailed(f"no oracle for preconditioner {spec['kind']!r}")


def _design(config: dict, gamma: float, seed: int):
    from precondrisk import sample_design

    n = int(config["n"])
    return sample_design(n, int(round(gamma * n)),
                         _spectrum(config["spectrum"]), "gaussian", seed)


def _interpolator(X: np.ndarray, p: np.ndarray) -> np.ndarray:
    """M = P X^T S^-1 (d x n) with S = X P X^T."""
    XP = X * p
    return np.linalg.solve(XP @ X.T, XP).T


def dense_bias(X, sx, st, M) -> float:
    """(1/d) Tr[S_theta (I - M X)^T S_x (I - M X)] with the d x d matrix."""
    W = np.eye(X.shape[1]) - M @ X
    return float(np.sum(W * W * sx[:, None] * st[None, :])) / X.shape[1]


def dense_variance(sx, M, sigma2: float) -> float:
    """sigma^2 Tr[P X^T S^-2 X P S_x] = sigma^2 Tr[M M^T S_x]."""
    return sigma2 * float(np.sum(M * M * sx[:, None]))


def flow_interpolator(X, p, t: float) -> np.ndarray:
    """M(t) = P X^T [I - exp(-t S / n)] S^-1, from an eigendecomposition."""
    XP = X * p
    S = XP @ X.T
    lam, Q = np.linalg.eigh(0.5 * (S + S.T))
    g = -np.expm1(-t * lam / X.shape[0]) / lam
    return XP.T @ (Q * g) @ Q.T


def quadratic_risks(X, sx, st, p, sigma2: float, alpha_q: float,
                    seed: int) -> tuple[float, float]:
    """Exact fig1 risks for one design: (given the draws, averaged).

    For Gaussian x with diagonal S_x the odd moments vanish, so the
    excess risk of theta_hat is delta^T S_x delta + 2 alpha_q^2 sum s_i^2
    with delta = theta* - theta_hat.  The first value uses the theta*,
    calibration and noise draws the runner makes from Philox stream 1
    of the seed (in that order); only the test average is left out.
    The second averages theta* and the noise given X (ROADMAP item 2):
    B(X) + s_eff^2 V0(X) + f_c^T M^T S_x M f_c + 2 alpha_q^2 sum s_i^2.
    """
    n, d = X.shape
    trace_sx = float(np.sum(sx))
    rng = np.random.Generator(np.random.Philox([1, int(seed)]))
    theta = rng.standard_normal(d) * np.sqrt(st / d)
    calib = rng.standard_normal((4096, d)) * np.sqrt(sx)
    var_fc = float(np.var(alpha_q * (np.sum(calib * calib, axis=1)
                                     - trace_sx)))
    noise = rng.standard_normal(n)
    fc = alpha_q * (np.sum(X * X, axis=1) - trace_sx)
    M = _interpolator(X, p)
    quad = 2.0 * alpha_q**2 * float(np.sum(sx * sx))

    y = X @ theta + fc + math.sqrt(sigma2 + var_fc) * noise
    delta = theta - M @ y
    given = float(delta @ (sx * delta)) + quad

    Mf = M @ fc
    averaged = (dense_bias(X, sx, st, M)
                + (sigma2 + quad) * dense_variance(sx, M, 1.0)
                + float(Mf @ (sx * Mf)) + quad)
    return given, averaged


def rkhs_divergent(model, dataset, eta: float, alpha: float) -> bool:
    """Whether a <- a - eta C (G a - b), C = diag(1/(mu+alpha)), blows up.

    The error iterates with I - eta C G, similar to I - eta H with
    H = C^1/2 G C^1/2 >= 0, so it grows iff eta * lambda_max(H) > 2.
    lambda_max(H) is that of the n x n matrix Psi Psi^T / n with
    Psi = Phi diag(sqrt(mu / (mu + alpha))).
    """
    psi = dataset.feature_rows * np.sqrt(model.mu / (model.mu + alpha))
    top = float(np.linalg.eigvalsh(psi @ psi.T / dataset.n)[-1])
    return eta * top > 2.0


# ---------------------------------------------------------------------------
# workloads

class Workload:
    name = ""
    why = ""
    workers = 1
    # BLAS threads of the children: None keeps the library default
    blas_threads: int | None = None
    prefix = ""
    csvs: tuple = ()
    primary = ""

    def inputs(self, seed: int, workdir: Path) -> Inputs:
        raise NotImplementedError

    def check_values(self, checks: Checks, out: Path, inputs: Inputs,
                     pick: random.Random) -> None:
        raise NotImplementedError

    def files(self) -> list[str]:
        return [f"{self.prefix}_{name}" for name in self.csvs]

    def cells(self, out: Path) -> int:
        return len(read_csv(out / f"{self.prefix}_{self.primary}")[1])

    def nonfinite_cells(self, out: Path) -> int:
        return 0

    def steps(self, out: Path) -> int:
        """RKHS iteration steps in the outputs; 0 for other workloads."""
        return 0

    def check(self, out: Path, inputs: Inputs, returncode: int,
              pick: random.Random) -> Checks:
        checks = Checks()
        checks.run("exit code is 0", self._exit_ok, returncode)
        manifest_path = out / f"{self.prefix}_manifest.json"
        checks.run("manifest lists exactly the expected CSVs",
                   self._manifest_files, manifest_path)
        for name in self.files():
            checks.run(f"{name} digest matches the manifest",
                       self._digest, manifest_path, out / name)
        checks.run("columns manifest matches the CSV headers",
                   self._columns, out)
        self.check_values(checks, out, inputs, pick)
        if returncode != 0:
            checks.fail_all(f"process exited with {returncode}")
        return checks

    @staticmethod
    def _exit_ok(returncode: int) -> None:
        if returncode != 0:
            raise CheckFailed(f"exit code {returncode}")

    def _manifest_files(self, manifest_path: Path) -> None:
        with open(manifest_path, encoding="utf-8") as handle:
            listed = sorted(json.load(handle)["outputs"])
        if listed != sorted(self.files()):
            raise CheckFailed(f"manifest lists {listed}")

    @staticmethod
    def _digest(manifest_path: Path, path: Path) -> None:
        with open(manifest_path, encoding="utf-8") as handle:
            recorded = json.load(handle)["outputs"][path.name]
        actual = _sha256(path)
        if recorded != actual:
            raise CheckFailed(f"manifest {recorded[:12]}, file {actual[:12]}")

    def _columns(self, out: Path) -> None:
        with open(out / f"{self.prefix}_columns.json",
                  encoding="utf-8") as handle:
            columns = json.load(handle)
        for name in self.files():
            header, _ = read_csv(out / name)
            if columns.get(name) != header:
                raise CheckFailed(f"{name}: header {header}, "
                                  f"manifest {columns.get(name)}")


def _preset(name: str) -> dict:
    from precondrisk import get_preset

    return get_preset(name).to_dict()


def _seed_window(args: list, start: int, width: int) -> list:
    return args + ["--seeds", f"{start}:{start + width}"]


def _config_inputs(config: dict, path: Path) -> Inputs:
    """Write ``config`` to ``path`` and run it with ``--config``."""
    path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    # children run from the checkout root
    return Inputs(["run", "--config", os.path.relpath(path, ROOT)], config)


def _labels(config: dict) -> list[tuple[str, float | None]]:
    """(preconditioner label, alpha or None) per configured preconditioner."""
    return [(p["kind"], float(p["alpha"]) if "alpha" in p else None)
            for p in config["preconditioners"]]


def _expect_rows(rows: list[dict], columns: dict, expected: list) -> None:
    """Rows, parsed column by column, must equal ``expected`` in order."""
    got = [tuple(parse(row[key]) for key, parse in columns.items())
           for row in rows]
    if got != expected:
        first = next((i for i, (a, b) in enumerate(zip(got, expected))
                      if a != b), min(len(got), len(expected)))
        raise CheckFailed(f"{len(got)} rows, expected {len(expected)}; "
                          f"first difference at row {first}")


class Stationary(Workload):
    name = "stationary"
    why = ("fig3a seed window through the runner's 2-thread pool with "
           "default BLAS threads: fresh designs, stationary bias and "
           "variance, Gram solves dominate")
    workers = 2
    prefix = "fig3a"
    csvs = ("sim.csv", "theory.csv")
    primary = "sim.csv"
    window = 2

    def inputs(self, seed: int, workdir: Path) -> Inputs:
        start = _window_start(self.name, seed)
        config = _preset("fig3a")
        config["seeds"] = list(range(start, start + self.window))
        args = _seed_window(["run", "fig3a"], start, self.window)
        return Inputs(args + ["--workers", str(self.workers)], config)

    def check_values(self, checks, out, inputs, pick) -> None:
        config = inputs.params
        sim = out / f"{self.prefix}_sim.csv"
        theory = out / f"{self.prefix}_theory.csv"
        checks.run("sim.csv has one row per (gamma, seed, preconditioner)",
                   self._sim_grid, sim, config)
        checks.run("sim.csv risk = bias + variance, all finite and > 0",
                   _sum_identity, sim)
        checks.run("theory.csv has one row per (gamma, preconditioner)",
                   self._theory_grid, theory, config)
        checks.run("whitened theory variance = sigma^2/(gamma - 1)",
                   self._whitened, theory)
        for k in range(SAMPLED_ROWS):
            checks.run(f"sampled sim.csv row {k}: dense bias and variance",
                       self._oracle_row, sim, config, pick)

    @staticmethod
    def _sim_grid(path, config) -> None:
        n = int(config["n"])
        expected = [(seed, float(g), int(round(g * n)), label, alpha)
                    for g in config["gammas"] for seed in config["seeds"]
                    for label, alpha in _labels(config)]
        _expect_rows(read_csv(path)[1],
                     {"seed": int, "gamma": float, "d": int,
                      "preconditioner": str, "alpha": _optional}, expected)

    @staticmethod
    def _theory_grid(path, config) -> None:
        expected = [(float(g), label) for g in config["gammas"]
                    for label, _ in _labels(config)]
        _expect_rows(read_csv(path)[1],
                     {"gamma": float, "preconditioner": str}, expected)

    @staticmethod
    def _whitened(path) -> None:
        rows = [r for r in read_csv(path)[1]
                if r["preconditioner"] == "inverse_pop_fisher"]
        if not rows:
            raise CheckFailed("no inverse_pop_fisher rows")
        for r in rows:
            gamma, sigma2 = float(r["gamma"]), float(r["sigma2"])
            _expect_close(f"gamma={gamma}", float(r["variance"]),
                          sigma2 / (gamma - 1.0), WHITENED_RTOL)

    @staticmethod
    def _oracle_row(path, config, pick) -> None:
        rows = read_csv(path)[1]
        row = rows[pick.randrange(len(rows))]
        design = _design(config, float(row["gamma"]), int(row["seed"]))
        sx = design.sigma_x_eigs
        spec = next(p for p in config["preconditioners"]
                    if p["kind"] == row["preconditioner"])
        M = _interpolator(design.X, _precond_eigs(spec, sx))
        st = _prior_eigs(config["prior"], sx)
        where = f"seed {row['seed']} gamma {row['gamma']} " \
                f"{row['preconditioner']}"
        _expect_close(f"{where} bias", float(row["bias"]),
                      dense_bias(design.X, sx, st, M), EXACT_RTOL)
        _expect_close(f"{where} variance", float(row["variance"]),
                      dense_variance(sx, M, float(config["sigma2"])),
                      EXACT_RTOL)


def _sum_identity(path) -> None:
    for i, r in enumerate(read_csv(path)[1]):
        bias, var, risk = (float(r["bias"]), float(r["variance"]),
                           float(r["risk"]))
        if not (math.isfinite(risk) and bias > 0 and var > 0
                and risk == bias + var):
            raise CheckFailed(f"row {i}: bias {bias!r} + variance {var!r} "
                              f"!= risk {risk!r}")


class Alignment(Workload):
    name = "alignment"
    why = ("fig11 seed window, serial, 1 BLAS thread: each design is "
           "redrawn for 11 prior exponents x 3 preconditioners, trajectory "
           "plus stationary bias")
    prefix = "fig11"
    csvs = ("alignment_sim.csv", "alignment_theory.csv")
    primary = "alignment_sim.csv"
    window = 2
    blas_threads = 1

    def inputs(self, seed: int, workdir: Path) -> Inputs:
        start = _window_start(self.name, seed)
        config = _preset("fig11")
        config["seeds"] = list(range(start, start + self.window))
        return Inputs(_seed_window(["run", "fig11"], start, self.window),
                      config)

    def check_values(self, checks, out, inputs, pick) -> None:
        config = inputs.params
        sim = out / f"{self.prefix}_alignment_sim.csv"
        theory = out / f"{self.prefix}_alignment_theory.csv"
        checks.run("alignment_sim.csv has one row per "
                   "(exponent, seed, preconditioner)",
                   self._sim_grid, sim, config)
        checks.run("alignment_sim.csv biases finite and > 0, t_bias > 0",
                   self._sim_values, sim)
        checks.run("alignment_theory.csv has one finite bias per "
                   "(exponent, preconditioner)",
                   self._theory_grid, theory, config)
        for k in range(SAMPLED_ROWS):
            checks.run(f"sampled alignment_sim.csv row {k}: dense "
                       "stationary and early-stopped bias",
                       self._oracle_row, sim, config, pick)

    @staticmethod
    def _sim_grid(path, config) -> None:
        expected = [(float(e), label, alpha, seed)
                    for e in config["prior_exponents"]
                    for seed in config["seeds"]
                    for label, alpha in _labels(config)]
        _expect_rows(read_csv(path)[1],
                     {"prior_exponent": float, "preconditioner": str,
                      "alpha": _optional, "seed": int}, expected)

    @staticmethod
    def _sim_values(path) -> None:
        for i, r in enumerate(read_csv(path)[1]):
            values = [_number(r[k]) for k in
                      ("bias_stationary", "bias_opt", "t_bias")]
            if not all(math.isfinite(v) and v > 0 for v in values):
                raise CheckFailed(f"row {i}: {values}")

    @staticmethod
    def _theory_grid(path, config) -> None:
        expected = [(float(e), label) for e in config["prior_exponents"]
                    for label, _ in _labels(config)]
        rows = read_csv(path)[1]
        _expect_rows(rows, {"prior_exponent": float, "preconditioner": str},
                     expected)
        if not all(math.isfinite(_number(r["bias"])) for r in rows):
            raise CheckFailed("non-finite theory bias")

    @staticmethod
    def _oracle_row(path, config, pick) -> None:
        rows = read_csv(path)[1]
        row = rows[pick.randrange(len(rows))]
        design = _design(config, float(config["gammas"][0]), int(row["seed"]))
        sx = design.sigma_x_eigs
        spec = next(p for p in config["preconditioners"]
                    if p["kind"] == row["preconditioner"])
        p = _precond_eigs(spec, sx)
        st = sx ** (-float(row["prior_exponent"]))
        where = f"seed {row['seed']} exponent {row['prior_exponent']} " \
                f"{row['preconditioner']}"
        _expect_close(f"{where} stationary bias",
                      float(row["bias_stationary"]),
                      dense_bias(design.X, sx, st,
                                 _interpolator(design.X, p)), EXACT_RTOL)
        M_t = flow_interpolator(design.X, p, float(row["t_bias"]))
        _expect_close(f"{where} bias at t_bias", float(row["bias_opt"]),
                      max(dense_bias(design.X, sx, st, M_t), 0.0),
                      EXACT_RTOL)


class Quadratic(Workload):
    name = "quadratic"
    why = ("fig1 config, one seed, 3 alpha_q values, serial, 1 BLAS thread: "
           "Monte Carlo test draws of the quadratic teacher dominate, Gram "
           "work is bypassed")
    prefix = "fig1"
    csvs = ("sim.csv",)
    primary = "sim.csv"
    blas_threads = 1
    # three of fig1's seven alpha_q values, the linear teacher and the
    # largest two, so that a run holds several children
    alpha_q_values = (0.0, 0.015, 0.02)

    def inputs(self, seed: int, workdir: Path) -> Inputs:
        config = _preset("fig1")
        config["alpha_q_values"] = list(self.alpha_q_values)
        config["seeds"] = [_window_start(self.name, seed)]
        return _config_inputs(config, workdir / f"fig1_config_{seed}.json")

    def check_values(self, checks, out, inputs, pick) -> None:
        config = inputs.params
        sim = out / f"{self.prefix}_sim.csv"
        checks.run("sim.csv has one row per (alpha_q, seed, preconditioner)",
                   self._sim_grid, sim, config)
        checks.run("sim.csv risks match the exact conditional risk",
                   self._oracle, sim, config)

    @staticmethod
    def _sim_grid(path, config) -> None:
        expected = [(seed, label, f"quadratic(alpha_q={a:g})")
                    for a in config["alpha_q_values"]
                    for seed in config["seeds"]
                    for label, _ in _labels(config)]
        _expect_rows(read_csv(path)[1], {"seed": int, "preconditioner": str,
                                         "label_model": str}, expected)

    @staticmethod
    def _oracle(path, config) -> None:
        rows = read_csv(path)[1]
        alphas = [float(a) for a in config["alpha_q_values"]]
        per_label = len(config["preconditioners"]) * len(config["seeds"])
        cache = {}
        for i, row in enumerate(rows):
            seed, label = int(row["seed"]), row["preconditioner"]
            if seed not in cache:
                cache[seed] = _design(config, float(config["gammas"][0]),
                                      seed)
            design = cache[seed]
            sx = design.sigma_x_eigs
            spec = next(p for p in config["preconditioners"]
                        if p["kind"] == label)
            given, averaged = quadratic_risks(
                design.X, sx, _prior_eigs(config["prior"], sx),
                _precond_eigs(spec, sx), float(config["sigma2"]),
                alphas[i // per_label], seed)
            risk = _number(row["risk"])
            if not (_close(risk, given, MONTE_CARLO_RTOL)
                    or _close(risk, averaged, EXACT_RTOL)):
                raise CheckFailed(f"row {i}: risk {risk!r}, exact given the "
                                  f"draws {given!r}, averaged {averaged!r}")


class RKHS(Workload):
    name = "rkhs"
    why = ("fig13 config with n in {200, 400, 800} and T = 2000, serial, "
           "1 BLAS thread: the RKHS iteration and an 8.7 MB trajectory CSV "
           "dominate")
    prefix = "fig13"
    csvs = ("rkhs_sweep.csv", "rkhs_traj.csv")
    primary = "rkhs_sweep.csv"
    blas_threads = 1

    def inputs(self, seed: int, workdir: Path) -> Inputs:
        config = _preset("fig13")
        params = config["rkhs"]
        params["ns"] = [200, 400, 800]
        params["T"] = 2000
        params["model_seed"] = _window_start(self.name, seed)
        params["data_seed"] = _window_start(f"{self.name}/data", seed)
        return _config_inputs(config, workdir / f"rkhs_config_{seed}.json")

    def check_values(self, checks, out, inputs, pick) -> None:
        params = inputs.params["rkhs"]
        sweep = out / f"{self.prefix}_rkhs_sweep.csv"
        traj = out / f"{self.prefix}_rkhs_traj.csv"
        state: dict = {}
        checks.run("rkhs_sweep.csv has one row per (r, n, alpha)",
                   self._sweep_grid, sweep, params)
        checks.run("rkhs_traj.csv has t = 0..T for every sweep cell",
                   self._traj_grid, traj, params, state)
        checks.run("trajectories start at the teacher's squared norm",
                   self._initial, params, state)
        checks.run("sweep best/final risks agree with the trajectories",
                   self._sweep_consistent, sweep, state)
        checks.run("every non-finite cell diverges by the spectral oracle",
                   self._nonfinite, params, state)
        for k in range(SAMPLED_ROWS):
            checks.run(f"sampled cell {k}: first {BRUTE_FORCE_STEPS} steps "
                       "match the brute-force oracle",
                       self._brute_force, params, state, pick)

    @staticmethod
    def cells_grid(params) -> list[tuple[float, int, float]]:
        return [(float(r), int(n), float(a)) for r in params["r_values"]
                for n in params["ns"] for a in params["alphas"]]

    def _sweep_grid(self, path, params) -> None:
        _expect_rows(read_csv(path)[1], {"r": float, "n": int, "alpha": float},
                     self.cells_grid(params))

    def _traj_grid(self, path, params, state) -> None:
        T = int(params["T"])
        grid = self.cells_grid(params)
        risks = np.empty((len(grid), T + 1))
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            next(reader)
            count = 0
            for count, row in enumerate(reader, start=1):
                cell, t = divmod(count - 1, T + 1)
                r, n, alpha = grid[cell] if cell < len(grid) else (0, 0, 0)
                if (cell >= len(grid) or int(row[6]) != t
                        or int(row[0]) != n or float(row[3]) != r
                        or float(row[4]) != alpha):
                    raise CheckFailed(f"row {count}: {row[:7]}")
                risks[cell, t] = _number(row[7])
        if count != risks.size:
            raise CheckFailed(f"{count} rows, expected {risks.size}")
        state["risks"] = risks

    @staticmethod
    def _initial(params, state) -> None:
        from precondrisk import build_model

        risks = state["risks"]
        for r in params["r_values"]:
            model = build_model(int(params["N"]), float(params["s"]),
                                float(r), seed=int(params["model_seed"]))
            expected = float(np.sum(model.fstar ** 2))
            for i, (cell_r, _, _) in enumerate(
                    RKHS.cells_grid(params)):
                if cell_r == float(r):
                    _expect_close(f"cell {i} R(f_0)", risks[i, 0], expected,
                                  1e-12)

    @staticmethod
    def _sweep_consistent(path, state) -> None:
        risks = state["risks"]
        for i, row in enumerate(read_csv(path)[1]):
            traj = risks[i]
            best, final = _number(row["best_risk"]), _number(row["final_risk"])
            best_iter = int(row["best_iter"])
            same_final = final == traj[-1] or (math.isnan(final)
                                               and math.isnan(traj[-1]))
            finite = traj[np.isfinite(traj)]
            if not (same_final and best == traj[best_iter]
                    and finite.size and best <= finite.min()):
                raise CheckFailed(f"cell {i}: best {best!r} at {best_iter}, "
                                  f"final {final!r}, trajectory final "
                                  f"{traj[-1]!r}")

    @staticmethod
    def _model_and_data(params, r: float, n: int):
        from precondrisk import build_model, make_dataset

        model = build_model(int(params["N"]), float(params["s"]), r,
                            seed=int(params["model_seed"]))
        # the runner draws each n's data set from data_seed + n
        dataset = make_dataset(model, n, float(params["sigma"]),
                               seed=int(params["data_seed"]) + n)
        return model, dataset

    def _nonfinite(self, params, state) -> None:
        risks = state["risks"]
        grid = self.cells_grid(params)
        for i in np.nonzero(~np.all(np.isfinite(risks), axis=1))[0]:
            r, n, alpha = grid[i]
            model, dataset = self._model_and_data(params, r, n)
            if not rkhs_divergent(model, dataset, float(params["eta"]),
                                  alpha):
                raise CheckFailed(f"cell r={r} n={n} alpha={alpha:g} is "
                                  "non-finite but the iteration contracts")

    def _brute_force(self, params, state, pick) -> None:
        from precondrisk import brute_force_steps

        grid = self.cells_grid(params)
        i = pick.randrange(len(grid))
        r, n, alpha = grid[i]
        model, dataset = self._model_and_data(params, r, n)
        expected = brute_force_steps(model, dataset, float(params["eta"]),
                                     alpha, BRUTE_FORCE_STEPS)
        for t, value in enumerate(expected):
            _expect_close(f"cell r={r} n={n} alpha={alpha:g} t={t}",
                          state["risks"][i, t], float(value), EXACT_RTOL)

    def nonfinite_cells(self, out: Path) -> int:
        rows = read_csv(out / f"{self.prefix}_rkhs_sweep.csv")[1]
        return sum(not math.isfinite(_number(r["final_risk"])) for r in rows)

    def steps(self, out: Path) -> int:
        with open(out / f"{self.prefix}_rkhs_traj.csv", "rb") as handle:
            rows = sum(1 for _ in handle) - 1
        return rows - self.cells(out)  # a cell's t = 0 row is not a step


WORKLOADS = {w.name: w for w in (Stationary(), Alignment(), Quadratic(),
                                 RKHS())}
