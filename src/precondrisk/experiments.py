"""Named experiments, config parsing, and the batch runner.

Each preset is an embedded JSON-style document describing one figure's
worth of computation.  ``ExperimentConfig.from_dict`` is the only reader
of that document: it checks every field, naming the field's path on
failure, and parses it into typed fields once.  ``run`` fans cells out
to a bounded thread pool (each cell is pure given its seed; a design
cell factors its design once per preconditioner for the whole sweep),
writes RFC-4180 CSVs with 17-significant-digit floats, and records a
manifest with a canonical config hash, the RNG identity, and per-file
digests.  Two runs of the same config at the same BLAS thread count
produce byte-identical CSVs; a pool of W workers caps OpenBLAS at
usable cores // W threads for the run, and the manifest records the
count used.
"""

from __future__ import annotations

import csv
import ctypes
import difflib
import functools
import hashlib
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import __version__
from .errors import ConfigError, DomainError, UnknownExperimentError
from .finite_sim import (GENERATOR_NAME, LabelModel, default_time_grid,
                         gram_flow, optimal_early_stopping, sample_design,
                         simulate_risk, trajectory, yky_diagnostic,
                         _GRID_HI, _GRID_LO, _GRID_POINTS, _rng)
from .risk_theory import (RISK_CSV_COLUMNS, MisspecSpec, misspecified_bias,
                          risk_report, sweep_alpha)
from .rkhs_sim import (RKHS_CSV_COLUMNS, build_model,
                       iterations_to_threshold, make_dataset,
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
# kinds that draw designs, and so need seeds, n and gamma * n > n
_SIMULATION_KINDS = ("stationary", "trajectory", "misspec_quadratic",
                     "misspec_unobserved", "yky", "alignment")
_SINGLE_GAMMA_KINDS = ("trajectory", "misspec_quadratic",
                       "misspec_unobserved", "yky", "alignment")
_POPULATION_ONLY_KINDS = ("stationary", "alpha_sweep", "alignment",
                          "misspec_unobserved")
# the sorted grid each kind sweeps, and the range of its values
_SWEEP_GRIDS = {
    "alpha_sweep": ("alphas", {"minimum": 0.0, "maximum": 1.0}),
    "alignment": ("prior_exponents", {"minimum": 0.0, "maximum": 1.0}),
    "misspec_quadratic": ("alpha_q_values", {"minimum": 0.0}),
    "misspec_unobserved": ("trace_terms", {"strict_min": 0.0}),
}
_FAMILIES = ("power", "additive_interp", "damped_inverse")


# ---------------------------------------------------------------------------
# config parsing

def _path(path: str, key) -> str:
    return f"{path}.{key}" if path else key


def _require(mapping: dict, key: str, types, path: str):
    if key not in mapping:
        raise ConfigError(_path(path, key), "missing field")
    value = mapping[key]
    if types is not None and not isinstance(value, types):
        raise ConfigError(_path(path, key),
                          f"expected {types}, got {type(value).__name__}")
    return value


def _check_number(value, where: str, minimum=None, strict_min=None,
                  maximum=None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(where,
                          f"expected a number, got {type(value).__name__}")
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ConfigError(where, "integer beyond float range")
    if not math.isfinite(value):
        raise ConfigError(where, f"must be finite, got {value}")
    if minimum is not None and value < minimum:
        raise ConfigError(where, f"must be >= {minimum}, got {value}")
    if strict_min is not None and value <= strict_min:
        raise ConfigError(where, f"must be > {strict_min}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(where, f"must be <= {maximum}, got {value}")
    return float(value)


def _check_integer(value, where: str, minimum: int) -> int:
    """An integer in [minimum, sys.maxsize]: sizes numpy can index."""
    if isinstance(value, bool) or not isinstance(value, int) \
            or not minimum <= value <= sys.maxsize:
        raise ConfigError(where, f"need an integer in [{minimum}, "
                                 f"sys.maxsize], got {value!r}")
    return value


def _number(mapping: dict, key: str, path: str, default=None,
            **bounds) -> float:
    if key not in mapping and default is not None:
        return default
    return _check_number(_require(mapping, key, None, path),
                         _path(path, key), **bounds)


def _integer(mapping: dict, key: str, path: str, minimum: int,
             default=None) -> int:
    if key not in mapping and default is not None:
        return default
    return _check_integer(_require(mapping, key, None, path),
                          _path(path, key), minimum)


def _list(mapping: dict, key: str, path: str, check, **bounds) -> tuple:
    """A nonempty list, each item passed through ``check``."""
    where = _path(path, key)
    values = _require(mapping, key, list, path)
    if not values:
        raise ConfigError(where, "need at least one value")
    return tuple(check(v, f"{where}[{i}]", **bounds)
                 for i, v in enumerate(values))


def _file_name(value, where: str) -> str:
    """A name that output files can start with inside the output dir."""
    if not isinstance(value, str) or value in ("", ".", "..") \
            or any(c in value for c in "/\\\0"):
        raise ConfigError(where, f"need a bare file name, got {value!r}")
    return value


def build_spectrum(spec: dict, path: str = "spectrum") -> SpectralMeasure:
    kind = _require(spec, "kind", str, path)
    # the spectra are normalized by E[value^2], so kappa^2 must be finite
    kappa = _number(spec, "kappa", path, minimum=1.0,
                    maximum=math.sqrt(sys.float_info.max))
    normalized = spec.get("normalized", True)
    if not isinstance(normalized, bool):
        raise ConfigError(f"{path}.normalized",
                          f"expected true or false, got {normalized!r}")
    if kind == "two_atom":
        return make_two_atom(kappa, frobenius_normalize=normalized)
    if kind == "uniform":
        n_atoms = _integer(spec, "n_atoms", path, 2)
        return make_uniform(kappa, n_atoms, frobenius_normalize=normalized)
    if kind == "poly_decay":
        n_atoms = _integer(spec, "n_atoms", path, 2)
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


def build_precond(spec: dict, path: str,
                  population_only: bool = False) -> PreconditionerSpec:
    if not isinstance(spec, dict):
        raise ConfigError(path, "expected an object")
    kind = _require(spec, "kind", str, path)
    try:
        if kind in ("power", "additive_interp", "damped_inverse"):
            precond = PreconditionerSpec(kind,
                                         alpha=_number(spec, "alpha", path))
        elif kind == "sample_damped":
            precond = PreconditionerSpec(
                kind, lam=_number(spec, "lam", path, strict_min=0.0))
        else:
            precond = PreconditionerSpec(kind)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None
    if population_only and not precond.is_population:
        raise ConfigError(f"{path}.kind",
                          f"{kind} has no population spectrum; use identity "
                          "(the sample kinds share the GD limit)")
    return precond


@dataclass(frozen=True)
class _TimeGrid:
    """``points`` geometric flow times over [lo, hi], absolute or in
    units of n / lambda_max(X P X^T) of each design."""

    absolute: bool
    lo: float
    hi: float
    points: int

    def times(self, flow) -> np.ndarray:
        if self.absolute:
            return np.geomspace(self.lo, self.hi, self.points)
        return default_time_grid(flow.design, flow, self.points, self.lo,
                                 self.hi)


def _parse_t_grid(grid) -> _TimeGrid:
    if not isinstance(grid, dict):
        raise ConfigError("t_grid", "expected an object")
    scale = grid.get("scale", "lambda_max")
    if scale not in ("lambda_max", "absolute"):
        raise ConfigError("t_grid.scale", f"unknown scale {scale!r}")
    lo = _number(grid, "lo", "t_grid", strict_min=0.0, default=_GRID_LO)
    hi = _number(grid, "hi", "t_grid", strict_min=0.0, default=_GRID_HI)
    if hi <= lo:
        raise ConfigError("t_grid.hi", "need hi > lo")
    points = _integer(grid, "points", "t_grid", 2, default=_GRID_POINTS)
    return _TimeGrid(scale == "absolute", lo, hi, points)


@dataclass(frozen=True)
class _RkhsParams:
    """The ``rkhs`` object; ``alphas`` None means the rate-optimal
    damping of each (n, r)."""

    N: int
    s: float
    r_values: tuple[float, ...]
    ns: tuple[int, ...]
    alphas: tuple[float, ...] | None
    eta: float
    T: int
    sigma: float
    model_seed: int
    data_seed: int
    threshold_factor: float


def _parse_rkhs(params: dict) -> _RkhsParams:
    s = _number(params, "s", "rkhs", strict_min=1.0)
    r_values = _list(params, "r_values", "rkhs", _check_number,
                     strict_min=0.0)
    for i, r in enumerate(r_values):
        if not 2 * r + 1.0 / s > 1.0:
            raise ConfigError(f"rkhs.r_values[{i}]",
                              f"2r + 1/s > 1 fails for r={r}, s={s}")
    alphas = _require(params, "alphas", None, "rkhs")
    if alphas != "rate_optimal":
        if not isinstance(alphas, list):
            raise ConfigError("rkhs.alphas",
                              'need a list of dampings or "rate_optimal"')
        alphas = _list(params, "alphas", "rkhs", _check_number,
                       strict_min=0.0)
    eta = _number(params, "eta", "rkhs", default=0.5)
    if not 0 < eta < 1:
        raise ConfigError("rkhs.eta", "need 0 < eta < 1")
    return _RkhsParams(
        N=_integer(params, "N", "rkhs", 2), s=s, r_values=r_values,
        ns=_list(params, "ns", "rkhs", _check_integer, minimum=1),
        alphas=None if alphas == "rate_optimal" else alphas, eta=eta,
        T=_integer(params, "T", "rkhs", 1, default=300),
        sigma=_number(params, "sigma", "rkhs", minimum=0.0, default=0.0),
        model_seed=_integer(params, "model_seed", "rkhs", 0, default=0),
        data_seed=_integer(params, "data_seed", "rkhs", 0, default=0),
        threshold_factor=_number(params, "threshold_factor", "rkhs",
                                 strict_min=0.0, default=2.0))


@dataclass(frozen=True)
class ExperimentConfig:
    """A parsed experiment; ``raw`` is the canonical config document.

    The other fields are everything a runner reads, parsed and checked
    once.  Fields a kind does not use keep their empty defaults;
    ``sweep`` is the kind's own axis (alphas, prior exponents, alpha_q
    values, trace terms or noise levels), ``(None,)`` for kinds that
    sweep only gamma.
    """

    experiment: str
    kind: str
    raw: dict = field(compare=False)
    prefix: str = ""
    seeds: tuple[int, ...] = ()
    spectrum: SpectralMeasure | None = None
    prior: Callable[[np.ndarray], np.ndarray] | None = None
    gammas: tuple[float, ...] = ()
    sigma2: float = 0.0
    n: int = 0
    specs: tuple[PreconditionerSpec, ...] = ()
    sweep: tuple = (None,)
    families: tuple[str, ...] = ()
    t_grid: _TimeGrid | None = None
    rkhs: _RkhsParams | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("", "config must be a JSON object")
        version = raw.get("schema_version")
        if version != 1:
            raise ConfigError("schema_version",
                              f"unsupported schema version {version!r}")
        experiment = _file_name(_require(raw, "experiment", None, ""),
                                "experiment")
        kind = _require(raw, "kind", str, "")
        if kind not in KINDS:
            raise ConfigError("kind", f"must be one of {KINDS}; got {kind!r}")
        out = {"prefix": _file_name(raw.get("output_prefix", experiment),
                                    "output_prefix")}
        if kind in _SIMULATION_KINDS:
            out["seeds"] = _list(raw, "seeds", "", _check_integer,
                                 minimum=0)
        if kind == "rkhs":
            out["rkhs"] = _parse_rkhs(_require(raw, "rkhs", dict, ""))
            return cls(experiment=experiment, kind=kind, raw=raw, **out)

        out["spectrum"] = build_spectrum(_require(raw, "spectrum", dict, ""))
        out["prior"] = build_prior(_require(raw, "prior", dict, ""))
        gammas = out["gammas"] = _list(raw, "gammas", "", _check_number,
                                       strict_min=1.0)
        if kind in _SINGLE_GAMMA_KINDS and len(gammas) > 1:
            raise ConfigError("gammas", f"{kind} takes one gamma, "
                                        f"got {len(gammas)}")
        out["sigma2"] = _number(raw, "sigma2", "", minimum=0.0)
        if kind in _SIMULATION_KINDS:
            n = out["n"] = _integer(raw, "n", "", 2)
            for i, g in enumerate(gammas):
                # the design is n x round(gamma * n)
                if not math.isfinite(g * n) or round(g * n) <= n \
                        or n * round(g * n) > sys.maxsize:
                    raise ConfigError(f"gammas[{i}]", f"gamma*n must exceed "
                                      f"n, and n * gamma*n be at most "
                                      f"sys.maxsize; got {g}*{n}")
        if kind != "yky":
            out["specs"] = _list(
                raw, "preconditioners", "", build_precond,
                population_only=kind in _POPULATION_ONLY_KINDS)
        if kind == "alpha_sweep":
            families = _require(raw, "families", list, "")
            for i, fam in enumerate(families):
                if fam not in _FAMILIES:
                    raise ConfigError(f"families[{i}]",
                                      f"unknown family {fam!r}")
            out["families"] = tuple(families)
        if kind in _SWEEP_GRIDS:
            key, bounds = _SWEEP_GRIDS[kind]
            grid = out["sweep"] = _list(raw, key, "", _check_number, **bounds)
            for i in range(1, len(grid)):
                if grid[i] < grid[i - 1]:
                    raise ConfigError(f"{key}[{i}]", "grid must be sorted")
        if kind == "yky":
            out["sweep"] = _list(raw, "noise_levels", "", _check_number,
                                 minimum=0.0)
            if len(out["sweep"]) < 2:
                raise ConfigError("noise_levels", "need >= 2 noise levels")
        if raw.get("t_grid") is not None:
            out["t_grid"] = _parse_t_grid(raw["t_grid"])
        return cls(experiment=experiment, kind=kind, raw=raw, **out)

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
    blas: dict  # library, BLAS threads used, pool width

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "config_hash": self.config_hash,
            "generator": self.generator,
            "version": self.version,
            "wall_clock_seconds": self.wall_clock_seconds,
            "outputs": dict(sorted(self.outputs.items())),
            "blas": dict(self.blas),
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

def _pool_map(fn, cells, workers: int):
    if workers <= 1:
        return [fn(cell) for cell in cells]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, cells))


def _design_rows(cfg: ExperimentConfig, workers: int, row) -> list:
    """``row(gamma, value, flow, spec)`` for every gamma, sweep value,
    seed and spec, in that order.

    Cells are (gamma, seed) and run on the pool.  Each draws one design
    and factors it once per spec; every sweep value reads that flow.
    """
    def spec_rows(gamma, design, spec):
        # the flow is freed on return, before the next spec's is built
        flow = gram_flow(design, spec)
        return [row(gamma, value, flow, spec) for value in cfg.sweep]

    def cell(args):
        gamma, seed = args
        design = sample_design(cfg.n, int(round(gamma * cfg.n)),
                               cfg.spectrum, "gaussian", seed)
        return [spec_rows(gamma, design, spec) for spec in cfg.specs]

    keys = [(g, s) for g in cfg.gammas for s in cfg.seeds]
    results = dict(zip(keys, _pool_map(cell, keys, workers)))
    return [results[g, s][k][v]
            for g in cfg.gammas for v in range(len(cfg.sweep))
            for s in cfg.seeds for k in range(len(cfg.specs))]


def _sim_row(cfg: ExperimentConfig, gamma: float, design, spec,
             label_model: str, bias: float, variance: float,
             risk: float) -> list:
    return [design.seed, design.n, design.d, gamma, spec.label, spec.alpha,
            cfg.sigma2, label_model, bias, variance, risk]


def _run_stationary(cfg: ExperimentConfig, workers: int) -> dict:
    theory_rows = [risk_report(cfg.spectrum, cfg.prior, spec, gamma,
                               cfg.sigma2).to_csv_row()
                   for gamma in cfg.gammas for spec in cfg.specs]

    def row(gamma, _, flow, spec):
        point = trajectory(flow.design, flow, cfg.prior, cfg.sigma2,
                           [math.inf])[0]
        return _sim_row(cfg, gamma, flow.design, spec, "well_specified",
                        point.bias, point.variance, point.risk)

    return {"theory.csv": (RISK_CSV_COLUMNS, theory_rows),
            "sim.csv": (SIM_CSV_COLUMNS, _design_rows(cfg, workers, row))}


def _run_trajectory(cfg: ExperimentConfig, workers: int) -> dict:
    def row(gamma, _, flow, spec):
        t_grid = None if cfg.t_grid is None else cfg.t_grid.times(flow)
        return [[flow.design.seed, p.t, p.bias, p.variance, p.risk]
                for p in trajectory(flow.design, flow, cfg.prior,
                                    cfg.sigma2, t_grid)]

    results = _design_rows(cfg, workers, row)
    outputs: dict = {}
    for k, spec in enumerate(cfg.specs):
        name = f"trajectory_{spec.label}.csv"
        rows = outputs.setdefault(name, (TRAJECTORY_CSV_COLUMNS, []))[1]
        for cell_rows in results[k::len(cfg.specs)]:
            rows.extend(cell_rows)
    return outputs


def _run_alpha_sweep(cfg: ExperimentConfig, workers: int) -> dict:
    rows = [report.to_csv_row()
            for gamma in cfg.gammas for family in cfg.families
            for _, report in sweep_alpha(cfg.spectrum, cfg.prior, gamma,
                                         cfg.sigma2, family, cfg.sweep)]
    return {"sweep.csv": (RISK_CSV_COLUMNS, rows)}


def _label_model_rows(cfg: ExperimentConfig, workers: int, kind: str,
                      fields: Callable[[float], dict]) -> tuple:
    """sim.csv of ``simulate_risk`` on every design under the label model
    ``kind`` with the extra fields ``fields(sweep value)``."""
    def row(gamma, value, flow, spec):
        model = LabelModel(kind=kind, sigma=math.sqrt(cfg.sigma2),
                           prior_map=cfg.prior, **fields(value))
        summary = simulate_risk([flow.design], flow, model)
        return _sim_row(cfg, gamma, flow.design, spec, model.label,
                        summary.mean_bias, summary.mean_variance,
                        summary.mean_risk)

    return SIM_CSV_COLUMNS, _design_rows(cfg, workers, row)


def _run_misspec_quadratic(cfg: ExperimentConfig, workers: int) -> dict:
    return {"sim.csv": _label_model_rows(
        cfg, workers, "quadratic", lambda alpha_q: {"alpha_q": alpha_q})}


def _run_misspec_unobserved(cfg: ExperimentConfig, workers: int) -> dict:
    gamma = cfg.gammas[0]
    # the variance and the joint spectrum do not depend on the trace term
    joints = [make_joint(cfg.spectrum, cfg.prior, spec) for spec in cfg.specs]
    variances = [risk_report(cfg.spectrum, cfg.prior, spec, gamma,
                             cfg.sigma2).variance for spec in cfg.specs]
    theory_rows = []
    for tau in cfg.sweep:
        for spec, joint, variance in zip(cfg.specs, joints, variances):
            bias = misspecified_bias(joint, gamma, MisspecSpec(tau))
            theory_rows.append([tau, gamma, cfg.sigma2, spec.label,
                                spec.alpha, bias, variance, bias + variance])

    theory_columns = ("trace_term", "gamma", "sigma2", "preconditioner",
                      "alpha", "bias", "variance", "total")
    return {"misspec_theory.csv": (theory_columns, theory_rows),
            "sim.csv": _label_model_rows(
                cfg, workers, "unobserved", lambda tau: {"trace_term": tau})}


def _run_yky(cfg: ExperimentConfig, workers: int) -> dict:
    n = cfg.n
    # one fixed design; only the labels are resampled
    design = sample_design(n, int(round(cfg.gammas[0] * n)), cfg.spectrum,
                           "gaussian", cfg.seeds[0])
    model = LabelModel(kind="well_specified", sigma=0.0, prior_map=cfg.prior)

    labels, keys = [], []
    for seed in cfg.seeds:
        rng = _rng(seed, stream=1)
        theta_star = model.sample_theta_star(design, rng)
        base_noise = rng.standard_normal(n)
        signal = design.X @ theta_star
        for sigma in cfg.sweep:
            labels.append(signal + sigma * base_noise)
            keys.append((sigma, seed))
    # every label vector against one factorization of the fixed design
    values = yky_diagnostic(design, np.column_stack(labels))
    rows = [[sigma, seed, float(v)] for (sigma, seed), v in zip(keys, values)]
    means = [[sigma,
              float(np.mean([r[2] for r in rows if r[0] == sigma]))]
             for sigma in cfg.sweep]
    return {"yky.csv": (("sigma", "seed", "diagnostic"), rows),
            "yky_mean.csv": (("sigma", "mean_diagnostic"), means)}


def _run_alignment(cfg: ExperimentConfig, workers: int) -> dict:
    gamma = cfg.gammas[0]
    priors = {expo: build_prior({"kind": "power", "exponent": expo})
              for expo in cfg.sweep}
    theory_rows = [[expo, spec.label, spec.alpha,
                    risk_report(cfg.spectrum, priors[expo], spec, gamma,
                                cfg.sigma2).bias]
                   for expo in cfg.sweep for spec in cfg.specs]

    def row(gamma, expo, flow, spec):
        # the default grid, then t = inf for the stationary bias
        times = np.append(default_time_grid(flow.design, flow), math.inf)
        points = trajectory(flow.design, flow, priors[expo], cfg.sigma2,
                            times)
        stop = optimal_early_stopping(points[:-1])
        return [expo, spec.label, spec.alpha, flow.design.seed,
                points[-1].bias, stop.bias_opt, stop.t_bias]

    theory_columns = ("prior_exponent", "preconditioner", "alpha", "bias")
    sim_columns = ("prior_exponent", "preconditioner", "alpha", "seed",
                   "bias_stationary", "bias_opt", "t_bias")
    return {"alignment_theory.csv": (theory_columns, theory_rows),
            "alignment_sim.csv": (sim_columns,
                                  _design_rows(cfg, workers, row))}


def _run_rkhs(cfg: ExperimentConfig, workers: int) -> dict:
    p = cfg.rkhs
    traj_rows = []
    sweep_rows = []
    for r in p.r_values:
        model = build_model(p.N, p.s, r, seed=p.model_seed)
        for n in p.ns:
            dataset = make_dataset(model, n, p.sigma, seed=p.data_seed + n)
            alphas = p.alphas if p.alphas is not None \
                else [rate_optimal_damping(n, p.s, r)]

            def cell(alpha):
                risks = run_preconditioned(model, dataset, p.eta, alpha, p.T)
                # a diverging iteration overflows to inf, then to nan
                return alpha, np.where(np.isnan(risks), math.inf, risks)

            results = _pool_map(cell, alphas, workers)
            threshold = p.threshold_factor * min(float(risks.min())
                                                 for _, risks in results)
            for alpha, risks in results:
                for t, risk in enumerate(risks):
                    traj_rows.append([n, p.N, p.s, r, alpha, p.eta, t,
                                      float(risk)])
                best = int(np.argmin(risks))
                sweep_rows.append([n, p.N, p.s, r, alpha, p.eta,
                                   float(risks[best]), best,
                                   float(risks[-1]),
                                   iterations_to_threshold(risks,
                                                           threshold)])
    sweep_columns = ("n", "N", "s", "r", "alpha", "eta", "best_risk",
                     "best_iter", "final_risk", "iters_to_threshold")
    return {"rkhs_traj.csv": (RKHS_CSV_COLUMNS, traj_rows),
            "rkhs_sweep.csv": (sweep_columns, sweep_rows)}


# ---------------------------------------------------------------------------
# BLAS thread budget

@functools.cache
def _openblas():
    """(library file name, get, set) for numpy's bundled OpenBLAS thread
    count, or None when no such library or symbol pair is found.

    ``ctypes.CDLL`` of the already-loaded file returns that library, so
    the setter acts on the BLAS numpy calls.
    """
    libs = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(np.__file__))), "numpy.libs")
    names = sorted(os.listdir(libs)) if os.path.isdir(libs) else []
    for name in (n for n in names if "openblas" in n):
        try:
            lib = ctypes.CDLL(os.path.join(libs, name))
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"),
                               ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return name, get, put
    return None


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@contextmanager
def _blas_budget(workers: int):
    """Cap OpenBLAS at usable cores // workers threads while a pool of
    ``workers`` runs, never above the caller's count, and restore the
    caller's count on exit.  Yields the manifest's ``blas`` record.

    The count is process-global: at ``workers == 1``, or when no
    OpenBLAS setter is found, nothing is changed.
    """
    found = _openblas()
    if found is None:
        yield {"library": None, "threads": "unknown", "workers": workers}
        return
    library, get, put = found
    before = get()
    threads = before
    if workers > 1:
        threads = min(before, max(1, _usable_cpus() // workers))
    try:
        if threads != before:
            put(threads)
        yield {"library": library, "threads": threads, "workers": workers}
    finally:
        if threads != before:
            put(before)


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

    ``workers`` (at least 1) is the thread-pool width.  With more than
    one worker the run caps OpenBLAS at usable cores // workers threads
    (never above the current count) and restores the count afterwards;
    the manifest's ``blas`` record names the count used, which sets the
    trailing digits of the output.  That setting is process-global, so
    ``run`` is not meant to be called concurrently from several threads.
    """
    if isinstance(config, dict):
        config = ExperimentConfig.from_dict(config)
    workers = int(workers)
    if workers < 1:
        raise DomainError(f"workers must be at least 1, got {workers}")
    if out_dir is None:
        out_dir = os.environ.get(OUTPUT_ENV_VAR, "outputs")
    os.makedirs(out_dir, exist_ok=True)
    start = time.monotonic()
    with _blas_budget(workers) as blas:
        outputs = _RUNNERS[config.kind](config, workers)

    prefix = config.prefix
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
        blas=blas,
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
_FIG3 = {
    "schema_version": 1,
    "kind": "stationary",
    "spectrum": _TWO_ATOM_20,
    "prior": _PRIOR_ISO,
    "gammas": [1.25, 1.5, 2.0, 3.0, 5.0],
    "n": 300,
    "sigma2": 1.0,
    "preconditioners": _GD_NGD_POW,
    "seeds": _seeds(20),
}

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
    # fig3b is fig3a under another name: the same config, the same numbers
    "fig3a": dict(_FIG3, experiment="fig3a",
                  description="Stationary variance vs gamma: theory curves "
                              "with n=300 Monte Carlo dots"),
    "fig3b": dict(_FIG3, experiment="fig3b",
                  description="Stationary bias vs gamma under the aligned "
                              "prior Sigma_theta = I"),
    "fig3c": dict(_FIG3, experiment="fig3c", prior=_PRIOR_INV,
                  description="Stationary bias vs gamma under the misaligned "
                              "prior Sigma_theta = Sigma_X^-1"),
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
