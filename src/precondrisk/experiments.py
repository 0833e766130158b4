"""Named experiments, config validation, and the batch runner.

Each preset is an embedded JSON-style document describing one figure's
worth of computation.  ``run`` validates a config, fans seed/sweep
cells out to a bounded thread pool (each cell is pure given its seed),
writes RFC-4180 CSVs with 17-significant-digit floats, and records a
manifest with a canonical config hash, the RNG identity, and per-file
digests.  Two runs of the same config produce byte-identical CSVs.
"""

from __future__ import annotations

import csv
import difflib
import hashlib
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import ConfigError, UnknownExperimentError
from .finite_sim import (GENERATOR_NAME, LabelModel, UnobservedBlock,
                         conditional_bias, default_time_grid,
                         optimal_early_stopping, sample_design,
                         simulate_risk, trajectory, yky_diagnostic, _rng)
from .risk_theory import (RISK_CSV_COLUMNS, MisspecSpec, misspecified_bias,
                          risk_report, sweep_alpha)
from .rkhs_sim import (RKHS_CSV_COLUMNS, build_model, make_dataset,
                       run_preconditioned, rate_optimal_damping)
from .spectra import (PreconditionerSpec, SpectralMeasure, make_joint,
                      make_poly_decay, make_two_atom, make_uniform)

__all__ = ["ExperimentConfig", "RunManifest", "run", "list_experiments",
           "get_preset", "emit_plot_script", "SIM_CSV_COLUMNS"]

OUTPUT_ENV_VAR = "PRECONDRISK_OUT"

SIM_CSV_COLUMNS = ("seed", "n", "d", "gamma", "preconditioner", "alpha",
                   "sigma2", "label_model", "bias", "variance", "risk")
TRAJECTORY_CSV_COLUMNS = ("seed", "t", "bias", "variance", "risk")

KINDS = ("stationary", "trajectory", "alpha_sweep", "misspec_quadratic",
         "misspec_unobserved", "yky", "alignment", "rkhs")
_SIMULATION_KINDS = ("stationary", "trajectory", "misspec_quadratic",
                     "misspec_unobserved", "yky", "alignment")


# ---------------------------------------------------------------------------
# config parsing

def _require(mapping: dict, key: str, types, path: str):
    if key not in mapping:
        raise ConfigError(f"{path}.{key}" if path else key, "missing field")
    value = mapping[key]
    if types is not None and not isinstance(value, types):
        raise ConfigError(f"{path}.{key}" if path else key,
                          f"expected {types}, got {type(value).__name__}")
    return value


def _number(mapping: dict, key: str, path: str, minimum=None,
            strict_min=None, default=None):
    if key not in mapping:
        if default is not None:
            return default
        raise ConfigError(f"{path}.{key}" if path else key, "missing field")
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}.{key}" if path else key,
                          f"expected a number, got {type(value).__name__}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}.{key}" if path else key,
                          f"must be >= {minimum}, got {value}")
    if strict_min is not None and value <= strict_min:
        raise ConfigError(f"{path}.{key}" if path else key,
                          f"must be > {strict_min}, got {value}")
    return float(value)


def build_spectrum(spec: dict, path: str = "spectrum") -> SpectralMeasure:
    kind = _require(spec, "kind", str, path)
    kappa = _number(spec, "kappa", path, minimum=1.0)
    normalized = bool(spec.get("normalized", True))
    if kind == "two_atom":
        return make_two_atom(kappa, frobenius_normalize=normalized)
    if kind == "uniform":
        n_atoms = int(_number(spec, "n_atoms", path, minimum=2))
        return make_uniform(kappa, n_atoms, frobenius_normalize=normalized)
    if kind == "poly_decay":
        n_atoms = int(_number(spec, "n_atoms", path, minimum=2))
        exponent = _number(spec, "exponent", path, strict_min=0.0)
        return make_poly_decay(exponent, kappa, n_atoms)
    raise ConfigError(f"{path}.kind", f"unknown spectrum kind {kind!r}")


def build_prior(spec: dict, path: str = "prior"):
    """A prior eigenvalue map v_theta(x); power or constant kinds."""
    kind = _require(spec, "kind", str, path)
    if kind == "power":
        exponent = _number(spec, "exponent", path)

        def prior(x, _e=exponent):
            return np.asarray(x, dtype=float) ** (-_e)

        return prior
    if kind == "constant":
        value = _number(spec, "value", path, minimum=0.0)

        def prior(x, _v=value):
            return np.full_like(np.asarray(x, dtype=float), _v)

        return prior
    raise ConfigError(f"{path}.kind", f"unknown prior kind {kind!r}")


def build_precond(spec: dict, path: str) -> PreconditionerSpec:
    kind = _require(spec, "kind", str, path)
    try:
        if kind in ("power", "additive_interp", "damped_inverse"):
            alpha = _number(spec, "alpha", path)
            return PreconditionerSpec(kind, alpha=alpha)
        if kind == "sample_damped":
            lam = _number(spec, "lam", path, strict_min=0.0)
            return PreconditionerSpec(kind, lam=lam)
        return PreconditionerSpec(kind)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated experiment; ``raw`` is the canonical config document."""

    experiment: str
    kind: str
    raw: dict = field(compare=False)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("", "config must be a JSON object")
        version = raw.get("schema_version")
        if version != 1:
            raise ConfigError("schema_version",
                              f"unsupported schema version {version!r}")
        experiment = _require(raw, "experiment", str, "")
        kind = _require(raw, "kind", str, "")
        if kind not in KINDS:
            raise ConfigError("kind", f"must be one of {KINDS}; got {kind!r}")
        cfg = cls(experiment=experiment, kind=kind, raw=raw)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        raw = self.raw
        if self.kind in _SIMULATION_KINDS:
            seeds = _require(raw, "seeds", list, "")
            if len(seeds) == 0:
                raise ConfigError("seeds",
                                  "simulation experiments need >= 1 seed")
            for i, s in enumerate(seeds):
                if isinstance(s, bool) or not isinstance(s, int):
                    raise ConfigError(f"seeds[{i}]", "seeds must be integers")
        if self.kind == "rkhs":
            self._validate_rkhs()
            return
        build_spectrum(_require(raw, "spectrum", dict, ""))
        build_prior(_require(raw, "prior", dict, ""))
        gammas = _require(raw, "gammas", list, "")
        if len(gammas) == 0:
            raise ConfigError("gammas", "need at least one gamma")
        for i, g in enumerate(gammas):
            if not isinstance(g, (int, float)) or g <= 1:
                raise ConfigError(f"gammas[{i}]",
                                  f"gamma must be a number > 1, got {g!r}")
        _number(raw, "sigma2", "", minimum=0.0)
        if self.kind in ("stationary", "trajectory", "misspec_quadratic",
                         "misspec_unobserved", "alignment"):
            n = raw.get("n")
            if not isinstance(n, int) or n < 2:
                raise ConfigError("n", "need an integer sample count >= 2")
            for i, g in enumerate(gammas):
                if round(g * n) <= n:
                    raise ConfigError(f"gammas[{i}]",
                                      f"gamma*n must exceed n; got {g}*{n}")
        if self.kind != "yky":
            preconds = _require(raw, "preconditioners", list, "")
            if len(preconds) == 0:
                raise ConfigError("preconditioners",
                                  "need at least one preconditioner")
            for i, p in enumerate(preconds):
                if not isinstance(p, dict):
                    raise ConfigError(f"preconditioners[{i}]",
                                      "expected an object")
                spec = build_precond(p, f"preconditioners[{i}]")
                if self.kind in ("stationary", "alpha_sweep", "alignment",
                                 "misspec_unobserved") \
                        and not spec.is_population:
                    raise ConfigError(
                        f"preconditioners[{i}].kind",
                        f"{spec.kind} has no population spectrum; use "
                        "identity (the sample kinds share the GD limit)")
        if self.kind == "alpha_sweep":
            families = _require(raw, "families", list, "")
            for i, fam in enumerate(families):
                if fam not in ("power", "additive_interp", "damped_inverse"):
                    raise ConfigError(f"families[{i}]",
                                      f"unknown family {fam!r}")
            self._validate_grid("alphas")
        if self.kind == "alignment":
            self._validate_grid("prior_exponents")
        if self.kind == "misspec_quadratic":
            self._validate_grid("alpha_q_values", lo=0.0, hi=math.inf)
        if self.kind == "misspec_unobserved":
            self._validate_grid("trace_terms", lo=0.0, hi=math.inf,
                                strict_lo=True)
            d_c = raw.get("d_c")
            if not isinstance(d_c, int) or d_c < 1:
                raise ConfigError("d_c", "need an integer block size >= 1")
        if self.kind == "yky":
            levels = _require(raw, "noise_levels", list, "")
            if len(levels) < 2:
                raise ConfigError("noise_levels", "need >= 2 noise levels")
            for i, s in enumerate(levels):
                if not isinstance(s, (int, float)) or s < 0:
                    raise ConfigError(f"noise_levels[{i}]",
                                      "noise std must be >= 0")
        if "t_grid" in raw and raw["t_grid"] is not None:
            grid = raw["t_grid"]
            if not isinstance(grid, dict):
                raise ConfigError("t_grid", "expected an object")
            scale = grid.get("scale", "lambda_max")
            if scale not in ("lambda_max", "absolute"):
                raise ConfigError("t_grid.scale",
                                  f"unknown scale {scale!r}")
            lo = _number(grid, "lo", "t_grid", strict_min=0.0, default=1e-2)
            hi = _number(grid, "hi", "t_grid", strict_min=0.0, default=1e2)
            if hi <= lo:
                raise ConfigError("t_grid.hi", "need hi > lo")
            points = grid.get("points", 60)
            if not isinstance(points, int) or points < 2:
                raise ConfigError("t_grid.points", "need an integer >= 2")

    def _validate_grid(self, key: str, lo: float = 0.0, hi: float = 1.0,
                       strict_lo: bool = False) -> None:
        values = _require(self.raw, key, list, "")
        if len(values) == 0:
            raise ConfigError(key, "need a nonempty grid")
        prev = None
        for i, v in enumerate(values):
            if not isinstance(v, (int, float)):
                raise ConfigError(f"{key}[{i}]", "expected a number")
            if v < lo or v > hi or (strict_lo and v == lo):
                raise ConfigError(f"{key}[{i}]",
                                  f"value {v} outside the allowed range")
            if prev is not None and v < prev:
                raise ConfigError(f"{key}[{i}]", "grid must be sorted")
            prev = v

    def _validate_rkhs(self) -> None:
        params = _require(self.raw, "rkhs", dict, "")
        N = params.get("N")
        if not isinstance(N, int) or N < 2:
            raise ConfigError("rkhs.N", "need an integer >= 2")
        s = _number(params, "s", "rkhs", strict_min=1.0)
        r_values = _require(params, "r_values", list, "rkhs")
        for i, r in enumerate(r_values):
            if not isinstance(r, (int, float)) or r <= 0:
                raise ConfigError(f"rkhs.r_values[{i}]", "need r > 0")
            if not 2 * r + 1.0 / s > 1.0:
                raise ConfigError(f"rkhs.r_values[{i}]",
                                  f"2r + 1/s > 1 fails for r={r}, s={s}")
        ns = _require(params, "ns", list, "rkhs")
        for i, n in enumerate(ns):
            if not isinstance(n, int) or n < 1:
                raise ConfigError(f"rkhs.ns[{i}]", "need an integer n >= 1")
        alphas = _require(params, "alphas", None, "rkhs")
        if alphas != "rate_optimal":
            if not isinstance(alphas, list) or not alphas:
                raise ConfigError("rkhs.alphas",
                                  'need a list of dampings or "rate_optimal"')
            for i, a in enumerate(alphas):
                if not isinstance(a, (int, float)) or a <= 0:
                    raise ConfigError(f"rkhs.alphas[{i}]", "need alpha > 0")
        eta = _number(params, "eta", "rkhs", default=0.5)
        if not 0 < eta < 1:
            raise ConfigError("rkhs.eta", "need 0 < eta < 1")
        T = params.get("T", 300)
        if not isinstance(T, int) or T < 1:
            raise ConfigError("rkhs.T", "need an integer T >= 1")
        _number(params, "sigma", "rkhs", minimum=0.0, default=0.0)

    def to_dict(self) -> dict:
        return json.loads(json.dumps(self.raw))

    def canonical_json(self) -> str:
        return json.dumps(self.raw, sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


@dataclass(frozen=True)
class RunManifest:
    """Provenance record written next to the CSV outputs."""

    experiment: str
    config_hash: str
    generator: str
    version: str
    wall_clock_seconds: float
    outputs: dict  # filename -> sha256

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "config_hash": self.config_hash,
            "generator": self.generator,
            "version": self.version,
            "wall_clock_seconds": self.wall_clock_seconds,
            "outputs": dict(sorted(self.outputs.items())),
            "conventions": {
                "spectrum_normalization": "frobenius (E[value^2] = 1)",
                "eigenvalue_apportionment": "largest remainder",
                "snr_definition": "E[v_x * v_theta] / sigma2",
            },
        }


# ---------------------------------------------------------------------------
# CSV output

def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    if math.isnan(value):
        return ""
    return format(value, ".17g")


def write_csv(path, columns, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# runners (one per experiment kind)

def _resolve_t_grid(raw: dict):
    """Returns (grid array or None, grid kwargs) for trajectory kinds."""
    grid = raw.get("t_grid")
    if grid is None:
        return None
    scale = grid.get("scale", "lambda_max")
    lo = float(grid.get("lo", 1e-2))
    hi = float(grid.get("hi", 1e2))
    points = int(grid.get("points", 60))
    if scale == "absolute":
        return np.geomspace(lo, hi, points)
    return ("lambda_max", lo, hi, points)


def _pool_map(fn, cells, workers: int):
    if workers <= 1:
        return [fn(cell) for cell in cells]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, cells))


def _run_stationary(cfg: ExperimentConfig, workers: int) -> dict:
    raw = cfg.raw
    fx = build_spectrum(raw["spectrum"])
    prior = build_prior(raw["prior"])
    sigma2 = float(raw["sigma2"])
    n = int(raw["n"])
    specs = [build_precond(p, f"preconditioners[{i}]")
             for i, p in enumerate(raw["preconditioners"])]
    seeds = [int(s) for s in raw["seeds"]]

    theory_rows = []
    for gamma in raw["gammas"]:
        for spec in specs:
            if spec.is_population:
                report = risk_report(fx, prior, spec, float(gamma), sigma2)
                theory_rows.append(report.to_csv_row())

    def cell(args):
        gamma, seed = args
        d = int(round(gamma * n))
        design = sample_design(n, d, fx, "gaussian", seed)
        out = []
        for spec in specs:
            point = trajectory(design, spec, prior, sigma2, [math.inf])[0]
            out.append([seed, n, d, gamma, spec.label,
                        None if spec.alpha is None else spec.alpha, sigma2,
                        "well_specified", point.bias, point.variance,
                        point.risk])
        return out

    cells = [(float(g), s) for g in raw["gammas"] for s in seeds]
    sim_rows = [row for chunk in _pool_map(cell, cells, workers)
                for row in chunk]
    return {"theory.csv": (RISK_CSV_COLUMNS, theory_rows),
            "sim.csv": (SIM_CSV_COLUMNS, sim_rows)}


def _run_trajectory(cfg: ExperimentConfig, workers: int) -> dict:
    raw = cfg.raw
    fx = build_spectrum(raw["spectrum"])
    prior = build_prior(raw["prior"])
    sigma2 = float(raw["sigma2"])
    n = int(raw["n"])
    gamma = float(raw["gammas"][0])
    d = int(round(gamma * n))
    specs = [build_precond(p, f"preconditioners[{i}]")
             for i, p in enumerate(raw["preconditioners"])]
    seeds = [int(s) for s in raw["seeds"]]
    grid_spec = _resolve_t_grid(raw)

    def cell(args):
        spec, seed = args
        design = sample_design(n, d, fx, "gaussian", seed)
        if grid_spec is None or isinstance(grid_spec, tuple):
            t_grid = None
            if isinstance(grid_spec, tuple):
                _, lo, hi, points = grid_spec
                t_grid = default_time_grid(design, spec, points, lo, hi)
        else:
            t_grid = grid_spec
        points = trajectory(design, spec, prior, sigma2, t_grid)
        return spec, [[seed, p.t, p.bias, p.variance, p.risk]
                      for p in points]

    cells = [(spec, seed) for spec in specs for seed in seeds]
    results = _pool_map(cell, cells, workers)
    outputs: dict = {}
    for spec, rows in results:
        name = f"trajectory_{spec.label}.csv"
        outputs.setdefault(name, (TRAJECTORY_CSV_COLUMNS, []))
        outputs[name][1].extend(rows)
    return outputs


def _run_alpha_sweep(cfg: ExperimentConfig, workers: int) -> dict:
    raw = cfg.raw
    fx = build_spectrum(raw["spectrum"])
    prior = build_prior(raw["prior"])
    sigma2 = float(raw["sigma2"])
    rows = []
    for gamma in raw["gammas"]:
        for family in raw["families"]:
            for _, report in sweep_alpha(fx, prior, float(gamma), sigma2,
                                         family, raw["alphas"]):
                rows.append(report.to_csv_row())
    return {"sweep.csv": (RISK_CSV_COLUMNS, rows)}


def _run_misspec_quadratic(cfg: ExperimentConfig, workers: int) -> dict:
    raw = cfg.raw
    fx = build_spectrum(raw["spectrum"])
    prior = build_prior(raw["prior"])
    sigma2 = float(raw["sigma2"])
    n = int(raw["n"])
    gamma = float(raw["gammas"][0])
    d = int(round(gamma * n))
    specs = [build_precond(p, f"preconditioners[{i}]")
             for i, p in enumerate(raw["preconditioners"])]
    seeds = [int(s) for s in raw["seeds"]]
    test_points = int(raw.get("test_points", 100_000))

    def cell(args):
        alpha_q, seed = args
        design = sample_design(n, d, fx, "gaussian", seed)
        model = LabelModel(kind="quadratic", sigma=math.sqrt(sigma2),
                           prior_map=prior, alpha_q=alpha_q)
        out = []
        for spec in specs:
            summary = simulate_risk([design], spec, model,
                                    test_points=test_points)
            out.append([seed, n, d, gamma, spec.label,
                        None if spec.alpha is None else spec.alpha, sigma2,
                        model.label, math.nan, math.nan,
                        summary.mean_risk])
        return out

    cells = [(float(a), s) for a in raw["alpha_q_values"] for s in seeds]
    rows = [row for chunk in _pool_map(cell, cells, workers)
            for row in chunk]
    return {"sim.csv": (SIM_CSV_COLUMNS, rows)}


def _run_misspec_unobserved(cfg: ExperimentConfig, workers: int) -> dict:
    raw = cfg.raw
    fx = build_spectrum(raw["spectrum"])
    prior = build_prior(raw["prior"])
    sigma2 = float(raw["sigma2"])
    n = int(raw["n"])
    gamma = float(raw["gammas"][0])
    d = int(round(gamma * n))
    d_c = int(raw["d_c"])
    specs = [build_precond(p, f"preconditioners[{i}]")
             for i, p in enumerate(raw["preconditioners"])]
    seeds = [int(s) for s in raw["seeds"]]

    theory_rows = []
    for tau in raw["trace_terms"]:
        for spec in specs:
            joint = make_joint(fx, prior, spec)
            bias = misspecified_bias(joint, gamma, MisspecSpec(float(tau)))
            base = risk_report(fx, prior, spec, gamma, sigma2)
            theory_rows.append([float(tau), gamma, sigma2, spec.label,
                                None if spec.alpha is None else spec.alpha,
                                bias, base.variance, bias + base.variance])

    def cell(args):
        tau, seed = args
        design = sample_design(n, d, fx, "gaussian", seed)
        block = UnobservedBlock.isotropic(d_c, tau)
        model = LabelModel(kind="unobserved", sigma=math.sqrt(sigma2),
                           prior_map=prior, unobserved=block)
        out = []
        for spec in specs:
            summary = simulate_risk([design], spec, model)
            out.append([seed, n, d, gamma, spec.label,
                        None if spec.alpha is None else spec.alpha, sigma2,
                        model.label, summary.mean_bias,
                        summary.mean_variance, summary.mean_risk])
        return out

    cells = [(float(t), s) for t in raw["trace_terms"] for s in seeds]
    sim_rows = [row for chunk in _pool_map(cell, cells, workers)
                for row in chunk]
    theory_columns = ("trace_term", "gamma", "sigma2", "preconditioner",
                      "alpha", "bias", "variance", "total")
    return {"misspec_theory.csv": (theory_columns, theory_rows),
            "sim.csv": (SIM_CSV_COLUMNS, sim_rows)}


def _run_yky(cfg: ExperimentConfig, workers: int) -> dict:
    raw = cfg.raw
    fx = build_spectrum(raw["spectrum"])
    prior = build_prior(raw["prior"])
    n = int(raw["n"])
    gamma = float(raw["gammas"][0])
    d = int(round(gamma * n))
    seeds = [int(s) for s in raw["seeds"]]
    levels = [float(s) for s in raw["noise_levels"]]
    # one fixed design; only the labels are resampled
    design = sample_design(n, d, fx, "gaussian", seeds[0])
    model = LabelModel(kind="well_specified", sigma=0.0, prior_map=prior)

    labels, keys = [], []
    for seed in seeds:
        rng = _rng(seed, stream=1)
        theta_star = model.sample_theta_star(design, rng)
        base_noise = rng.standard_normal(n)
        signal = design.X @ theta_star
        for sigma in levels:
            labels.append(signal + sigma * base_noise)
            keys.append((sigma, seed))
    # every label vector against one factorization of the fixed design
    values = yky_diagnostic(design, np.column_stack(labels))
    rows = [[sigma, seed, float(v)] for (sigma, seed), v in zip(keys, values)]
    means = [[sigma,
              float(np.mean([r[2] for r in rows if r[0] == sigma]))]
             for sigma in levels]
    return {"yky.csv": (("sigma", "seed", "diagnostic"), rows),
            "yky_mean.csv": (("sigma", "mean_diagnostic"), means)}


def _run_alignment(cfg: ExperimentConfig, workers: int) -> dict:
    raw = cfg.raw
    fx = build_spectrum(raw["spectrum"])
    sigma2 = float(raw["sigma2"])
    n = int(raw["n"])
    gamma = float(raw["gammas"][0])
    d = int(round(gamma * n))
    specs = [build_precond(p, f"preconditioners[{i}]")
             for i, p in enumerate(raw["preconditioners"])]
    seeds = [int(s) for s in raw["seeds"]]
    exponents = [float(a) for a in raw["prior_exponents"]]

    def prior_for(expo):
        return lambda x: np.asarray(x, dtype=float) ** (-expo)

    theory_rows = []
    for expo in exponents:
        for spec in specs:
            report = risk_report(fx, prior_for(expo), spec, gamma, sigma2)
            theory_rows.append([expo, spec.label,
                                None if spec.alpha is None else spec.alpha,
                                report.bias])

    def cell(args):
        expo, seed = args
        design = sample_design(n, d, fx, "gaussian", seed)
        prior = prior_for(expo)
        out = []
        for spec in specs:
            points = trajectory(design, spec, prior, sigma2, None)
            stop = optimal_early_stopping(points)
            stationary_bias = conditional_bias(design, spec, prior)
            out.append([expo, spec.label,
                        None if spec.alpha is None else spec.alpha, seed,
                        stationary_bias, stop.bias_opt, stop.t_bias])
        return out

    cells = [(e, s) for e in exponents for s in seeds]
    sim_rows = [row for chunk in _pool_map(cell, cells, workers)
                for row in chunk]
    theory_columns = ("prior_exponent", "preconditioner", "alpha", "bias")
    sim_columns = ("prior_exponent", "preconditioner", "alpha", "seed",
                   "bias_stationary", "bias_opt", "t_bias")
    return {"alignment_theory.csv": (theory_columns, theory_rows),
            "alignment_sim.csv": (sim_columns, sim_rows)}


def _run_rkhs(cfg: ExperimentConfig, workers: int) -> dict:
    params = cfg.raw["rkhs"]
    N = int(params["N"])
    s = float(params["s"])
    eta = float(params.get("eta", 0.5))
    T = int(params.get("T", 300))
    sigma = float(params.get("sigma", 0.0))
    model_seed = int(params.get("model_seed", 0))
    data_seed = int(params.get("data_seed", 0))
    threshold_factor = float(params.get("threshold_factor", 2.0))
    ns = [int(n) for n in params["ns"]]

    traj_rows = []
    sweep_rows = []
    for r in params["r_values"]:
        model = build_model(N, s, float(r), seed=model_seed)
        for n in ns:
            dataset = make_dataset(model, n, sigma, seed=data_seed + n)
            if params["alphas"] == "rate_optimal":
                alphas = [rate_optimal_damping(n, s, float(r))]
            else:
                alphas = [float(a) for a in params["alphas"]]

            def cell(alpha):
                return alpha, run_preconditioned(model, dataset, eta,
                                                 alpha, T)

            results = _pool_map(cell, alphas, workers)
            best_overall = min(float(risks.min())
                               for _, risks in results)
            threshold = threshold_factor * best_overall
            for alpha, risks in results:
                for t, risk in enumerate(risks):
                    traj_rows.append([n, N, s, float(r), alpha, eta, t,
                                      float(risk)])
                best = int(np.argmin(risks))
                hits = np.nonzero(risks <= threshold)[0]
                its = int(hits[0]) if hits.size else None
                sweep_rows.append([n, N, s, float(r), alpha, eta,
                                   float(risks[best]), best,
                                   float(risks[-1]), its])
    sweep_columns = ("n", "N", "s", "r", "alpha", "eta", "best_risk",
                     "best_iter", "final_risk", "iters_to_threshold")
    return {"rkhs_traj.csv": (RKHS_CSV_COLUMNS, traj_rows),
            "rkhs_sweep.csv": (sweep_columns, sweep_rows)}


_RUNNERS = {
    "stationary": _run_stationary,
    "trajectory": _run_trajectory,
    "alpha_sweep": _run_alpha_sweep,
    "misspec_quadratic": _run_misspec_quadratic,
    "misspec_unobserved": _run_misspec_unobserved,
    "yky": _run_yky,
    "alignment": _run_alignment,
    "rkhs": _run_rkhs,
}


def run(config: ExperimentConfig | dict, out_dir: str | None = None,
        workers: int = 1) -> RunManifest:
    """Execute a validated config and write CSVs plus a manifest.

    ``out_dir`` defaults to the PRECONDRISK_OUT environment variable or
    "./outputs".  Returns the manifest (also written as
    ``<experiment>_manifest.json`` with a column manifest alongside).
    """
    if isinstance(config, dict):
        config = ExperimentConfig.from_dict(config)
    if out_dir is None:
        out_dir = os.environ.get(OUTPUT_ENV_VAR, "outputs")
    os.makedirs(out_dir, exist_ok=True)
    start = time.monotonic()
    outputs = _RUNNERS[config.kind](config, max(1, int(workers)))

    prefix = config.raw.get("output_prefix", config.experiment)
    digests = {}
    columns_manifest = {}
    for name, (columns, rows) in sorted(outputs.items()):
        filename = f"{prefix}_{name}"
        path = os.path.join(out_dir, filename)
        write_csv(path, columns, rows)
        digests[filename] = _sha256(path)
        columns_manifest[filename] = list(columns)

    columns_path = os.path.join(out_dir, f"{prefix}_columns.json")
    with open(columns_path, "w", encoding="utf-8") as handle:
        json.dump(columns_manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")

    manifest = RunManifest(
        experiment=config.experiment,
        config_hash=config.config_hash(),
        generator=GENERATOR_NAME,
        version=__version__,
        wall_clock_seconds=time.monotonic() - start,
        outputs=digests,
    )
    manifest_path = os.path.join(out_dir, f"{prefix}_manifest.json")
    with open(manifest_path, "w", encoding="utf-8") as handle:
        payload = manifest.to_dict()
        payload["config"] = config.to_dict()
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return manifest


# ---------------------------------------------------------------------------
# presets

def _seeds(count: int) -> list[int]:
    return list(range(count))


_TWO_ATOM_20 = {"kind": "two_atom", "kappa": 20.0, "normalized": True}
_PRIOR_ISO = {"kind": "constant", "value": 1.0}
_PRIOR_INV = {"kind": "power", "exponent": 1.0}
_GD_NGD = [{"kind": "identity"}, {"kind": "inverse_pop_fisher"}]
_GD_NGD_POW = _GD_NGD + [{"kind": "power", "alpha": 0.5}]

PRESETS: dict[str, dict] = {
    "fig1": {
        "schema_version": 1,
        "experiment": "fig1",
        "description": "Quadratic misspecification: GD vs NGD risk crossing "
                       "as the nonlinearity grows",
        "kind": "misspec_quadratic",
        "spectrum": _TWO_ATOM_20,
        "prior": _PRIOR_ISO,
        "gammas": [2.0],
        "n": 300,
        "sigma2": 0.1,
        "preconditioners": _GD_NGD,
        "alpha_q_values": [0.0, 0.0025, 0.005, 0.0075, 0.01, 0.015, 0.02],
        "test_points": 50000,
        "seeds": _seeds(10),
    },
    "fig2": {
        "schema_version": 1,
        "experiment": "fig2",
        "description": "Risk along the gradient flow for GD, population "
                       "NGD, and the sample pseudo-inverse",
        "kind": "trajectory",
        "spectrum": _TWO_ATOM_20,
        "prior": _PRIOR_ISO,
        "gammas": [2.0],
        "n": 300,
        "sigma2": 1.0,
        "preconditioners": _GD_NGD + [{"kind": "sample_pseudo_inverse"}],
        "t_grid": {"scale": "lambda_max", "lo": 1e-2, "hi": 1e2,
                   "points": 60},
        "seeds": _seeds(5),
    },
    "fig3a": {
        "schema_version": 1,
        "experiment": "fig3a",
        "description": "Stationary variance vs gamma: theory curves with "
                       "n=300 Monte Carlo dots",
        "kind": "stationary",
        "spectrum": _TWO_ATOM_20,
        "prior": _PRIOR_ISO,
        "gammas": [1.25, 1.5, 2.0, 3.0, 5.0],
        "n": 300,
        "sigma2": 1.0,
        "preconditioners": _GD_NGD_POW,
        "seeds": _seeds(20),
    },
    "fig3b": {
        "schema_version": 1,
        "experiment": "fig3b",
        "description": "Stationary bias vs gamma under the aligned prior "
                       "Sigma_theta = I",
        "kind": "stationary",
        "spectrum": _TWO_ATOM_20,
        "prior": _PRIOR_ISO,
        "gammas": [1.25, 1.5, 2.0, 3.0, 5.0],
        "n": 300,
        "sigma2": 1.0,
        "preconditioners": _GD_NGD_POW,
        "seeds": _seeds(20),
    },
    "fig3c": {
        "schema_version": 1,
        "experiment": "fig3c",
        "description": "Stationary bias vs gamma under the misaligned "
                       "prior Sigma_theta = Sigma_X^-1",
        "kind": "stationary",
        "spectrum": _TWO_ATOM_20,
        "prior": _PRIOR_INV,
        "gammas": [1.25, 1.5, 2.0, 3.0, 5.0],
        "n": 300,
        "sigma2": 1.0,
        "preconditioners": _GD_NGD_POW,
        "seeds": _seeds(20),
    },
    "fig5": {
        "schema_version": 1,
        "experiment": "fig5",
        "description": "Bias/variance tradeoff along the three "
                       "interpolating families (kappa=25, SNR=32/5)",
        "kind": "alpha_sweep",
        "spectrum": {"kind": "two_atom", "kappa": 25.0, "normalized": True},
        "prior": _PRIOR_ISO,
        "gammas": [2.0],
        # sigma2 = E[v_x] / SNR with SNR = 32/5 on the normalized spectrum
        "sigma2": 0.11481305477418861,
        "preconditioners": [{"kind": "identity"}],
        "families": ["additive_interp", "power", "damped_inverse"],
        "alphas": [round(i / 20, 2) for i in range(21)],
        "seeds": [],
    },
    "fig6": {
        "schema_version": 1,
        "experiment": "fig6",
        "description": "Unobserved-feature misspecification on the "
                       "uniform kappa=20 spectrum",
        "kind": "misspec_unobserved",
        "spectrum": {"kind": "uniform", "kappa": 20.0, "n_atoms": 200,
                     "normalized": True},
        "prior": _PRIOR_ISO,
        "gammas": [2.0],
        "n": 300,
        "sigma2": 1.0,
        "preconditioners": _GD_NGD_POW,
        "trace_terms": [0.1, 0.3, 1.0],
        "d_c": 300,
        "seeds": _seeds(20),
    },
    "fig7": {
        "schema_version": 1,
        "experiment": "fig7",
        "description": "Unobserved-feature misspecification on the "
                       "polynomial-decay kappa=500 spectrum",
        "kind": "misspec_unobserved",
        "spectrum": {"kind": "poly_decay", "kappa": 500.0, "n_atoms": 300,
                     "exponent": 1.0},
        "prior": _PRIOR_ISO,
        "gammas": [2.0],
        "n": 300,
        "sigma2": 1.0,
        "preconditioners": _GD_NGD_POW,
        "trace_terms": [0.1, 0.3, 1.0],
        "d_c": 300,
        "seeds": _seeds(20),
    },
    "fig9": {
        "schema_version": 1,
        "experiment": "fig9",
        "description": "Epoch-wise double descent near the interpolation "
                       "threshold (kappa=32, gamma=16/15, misaligned prior)",
        "kind": "trajectory",
        "spectrum": {"kind": "two_atom", "kappa": 32.0, "normalized": True},
        "prior": _PRIOR_INV,
        "gammas": [16.0 / 15.0],
        "n": 300,
        "sigma2": 1.0,
        "preconditioners": _GD_NGD,
        "t_grid": {"scale": "absolute", "lo": 1e-2, "hi": 1e6, "points": 25},
        "seeds": _seeds(10),
    },
    "fig10": {
        "schema_version": 1,
        "experiment": "fig10",
        "description": "Label-noise diagnostic sqrt(y^T K^-1 y / n) on a "
                       "fixed design as noise grows",
        "kind": "yky",
        "spectrum": _TWO_ATOM_20,
        "prior": _PRIOR_ISO,
        "gammas": [2.0],
        "n": 300,
        "sigma2": 1.0,
        "noise_levels": [0.0, 0.5, 1.0, 2.0],
        "seeds": _seeds(20),
    },
    "fig11": {
        "schema_version": 1,
        "experiment": "fig11",
        "description": "Stationary and early-stopped bias as the prior "
                       "Sigma_theta = Sigma_X^-a sweeps alignment",
        "kind": "alignment",
        "spectrum": _TWO_ATOM_20,
        "prior": _PRIOR_ISO,
        "gammas": [2.0],
        "n": 300,
        "sigma2": 1.0,
        "preconditioners": _GD_NGD_POW,
        "prior_exponents": [round(i / 10, 1) for i in range(11)],
        "seeds": _seeds(10),
    },
    "fig13": {
        "schema_version": 1,
        "experiment": "fig13",
        "description": "RKHS damping sweep: large damping helps smooth "
                       "teachers (r=3/4), small damping helps rough ones",
        "kind": "rkhs",
        "seeds": [0],
        "rkhs": {
            "N": 500,
            "s": 2.0,
            "r_values": [0.75, 0.26],
            "ns": [400],
            "alphas": [1e-05, 3.593813663804626e-05,
                       0.0001291549665014884, 0.00046415888336127773,
                       0.001668100537200059, 0.005994842503189409,
                       0.021544346900318832, 0.0774263682681127,
                       0.27825594022071243, 1.0],
            "eta": 0.5,
            "T": 300,
            "sigma": 0.022360679774997897,
            "model_seed": 7,
            "data_seed": 11,
            "threshold_factor": 2.0,
        },
    },
}

_ALIASES = {"fig3-variance": "fig3a", "fig9-epochwise": "fig9"}


def list_experiments() -> dict[str, str]:
    """Preset names with one-line descriptions."""
    return {name: preset.get("description", "")
            for name, preset in sorted(PRESETS.items())}


def get_preset(name: str) -> ExperimentConfig:
    """Look a preset up by name; unknown names get a nearest suggestion."""
    key = _ALIASES.get(name, name)
    if key not in PRESETS:
        candidates = sorted(PRESETS) + sorted(_ALIASES)
        close = difflib.get_close_matches(name, candidates, n=1,
                                          cutoff=0.3)
        raise UnknownExperimentError(name, close[0] if close else None)
    return ExperimentConfig.from_dict(json.loads(json.dumps(PRESETS[key])))


# ---------------------------------------------------------------------------
# plot script emission

_PLOT_KINDS = {
    "gamma": {"x": "gamma", "ys": ("variance", "bias", "total"),
              "xlabel": "overparameterization gamma = d/n",
              "logx": True},
    "time": {"x": "t", "ys": ("bias", "variance", "risk"),
             "xlabel": "gradient-flow time t", "logx": True},
    "alpha": {"x": "alpha", "ys": ("bias", "variance", "total"),
              "xlabel": "interpolation alpha", "logx": False},
}


def _csv_columns(path: str) -> list[str]:
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        return next(reader, [])


def emit_plot_script(csv_paths, kind: str, out_path: str) -> str:
    """Write a standalone matplotlib script for the given CSVs.

    ``kind`` is one of gamma / time / alpha; each CSV must carry the x
    column and at least one of the kind's y columns (missing columns
    are reported by name).  The emitted script is a plain-text artifact
    with no dependency on this package.
    """
    if kind not in _PLOT_KINDS:
        raise ConfigError("kind",
                          f"must be one of {sorted(_PLOT_KINDS)}; "
                          f"got {kind!r}")
    spec = _PLOT_KINDS[kind]
    csv_paths = [str(p) for p in csv_paths]
    if not csv_paths:
        raise ConfigError("csv", "need at least one CSV path")
    per_file_ys = {}
    for path in csv_paths:
        if not os.path.exists(path):
            raise ConfigError("csv", f"no such file: {path}")
        columns = _csv_columns(path)
        if spec["x"] not in columns:
            raise ConfigError("csv",
                              f"{path} is missing column {spec['x']!r}")
        ys = [y for y in spec["ys"] if y in columns]
        if not ys:
            raise ConfigError(
                "csv", f"{path} is missing all of the columns "
                f"{list(spec['ys'])}")
        per_file_ys[path] = ys

    lines = [
        "#!/usr/bin/env python3",
        f'"""Plot {kind} curves from: {", ".join(csv_paths)}."""',
        "import csv",
        "from collections import defaultdict",
        "",
        "import matplotlib.pyplot as plt",
        "",
        f"X_COLUMN = {spec['x']!r}",
        f"FILES = {json.dumps(per_file_ys, indent=4)}",
        "",
        "",
        "def load(path):",
        "    with open(path, newline='', encoding='utf-8') as handle:",
        "        return list(csv.DictReader(handle))",
        "",
        "",
        "def series(rows, y):",
        "    grouped = defaultdict(list)",
        "    for row in rows:",
        "        if row.get(y) in (None, ''):",
        "            continue",
        "        label = row.get('preconditioner', '') or 'all'",
        "        if row.get('alpha'):",
        "            label += '(' + row['alpha'] + ')'",
        "        grouped[label].append((float(row[X_COLUMN]),"
        " float(row[y])))",
        "    return grouped",
        "",
        "",
        "ys = sorted({y for names in FILES.values() for y in names})",
        "fig, axes = plt.subplots(1, len(ys), figsize=(5 * len(ys), 4),",
        "                         squeeze=False)",
        "for ax, y in zip(axes[0], ys):",
        "    for path, names in FILES.items():",
        "        if y not in names:",
        "            continue",
        "        rows = load(path)",
        "        dotted = any(r.get('seed') not in (None, '')"
        " for r in rows)",
        "        for label, pts in sorted(series(rows, y).items()):",
        "            pts.sort()",
        "            xs = [p[0] for p in pts]",
        "            vals = [p[1] for p in pts]",
        "            if dotted:",
        "                ax.plot(xs, vals, 'o', alpha=0.4, label=label)",
        "            else:",
        "                ax.plot(xs, vals, '-', label=label)",
        f"    ax.set_xlabel({spec['xlabel']!r})",
        "    ax.set_ylabel(y)",
    ]
    if spec["logx"]:
        lines.append("    ax.set_xscale('log')")
    lines += [
        "    ax.legend(fontsize=8)",
        "fig.tight_layout()",
        "out = __file__.rsplit('.', 1)[0] + '.png'",
        "fig.savefig(out, dpi=150)",
        "print('wrote', out)",
    ]
    script = "\n".join(lines) + "\n"
    with open(out_path, "w", encoding="utf-8") as handle:
        handle.write(script)
    return script
