"""Exact asymptotic risk of preconditioned interpolating regression.

The package computes bias and variance limits for ridgeless linear
regression run through a preconditioned gradient flow, checks them
against finite-sample simulations, and includes a truncated spectral
model for damped-inverse kernel updates.
"""

__version__ = "0.1.0"

from .errors import (ConfigError, DegenerateSpectrumError, DomainError,
                     NoPopulationSpectrumError, NumericalError,
                     OutOfRegimeError, UnknownExperimentError)
from .spectra import (JointSpectrum, PreconditionerSpec, SpectralMeasure,
                      make_joint, make_poly_decay, make_two_atom,
                      make_uniform, precondition_spectrum)
from .stieltjes import (StieltjesSolution, finite_diff_check, m_derivative,
                        solve_m)
from .risk_theory import (MisspecSpec, RiskReport, bias_lower_bound,
                          misspecified_bias, risk_report, sweep_alpha,
                          theoretical_bias, theoretical_variance)
from .finite_sim import (Design, EarlyStopping, GramFlow, LabelModel,
                         SimulationSummary, TrajectoryPoint,
                         build_preconditioner, conditional_bias,
                         conditional_variance, default_time_grid,
                         gram_flow, min_norm_check, optimal_early_stopping,
                         sample_design, simulate_risk, stationary_solution,
                         trajectory, yky_diagnostic)
from .rkhs_sim import (RKHSDataset, SpectralRKHS, brute_force_steps,
                       build_model, iterations_to_threshold, make_dataset,
                       run_gd, run_preconditioned, rate_optimal_damping)
from .experiments import (ExperimentConfig, RunManifest, emit_plot_script,
                          get_preset, list_experiments, run)

__all__ = [
    "__version__",
    # errors
    "DomainError", "OutOfRegimeError", "DegenerateSpectrumError",
    "NoPopulationSpectrumError", "NumericalError", "ConfigError",
    "UnknownExperimentError",
    # spectra
    "SpectralMeasure", "PreconditionerSpec", "JointSpectrum",
    "make_two_atom", "make_uniform", "make_poly_decay",
    "precondition_spectrum", "make_joint",
    # stieltjes
    "StieltjesSolution", "solve_m", "m_derivative", "finite_diff_check",
    # risk_theory
    "RiskReport", "MisspecSpec", "theoretical_variance", "theoretical_bias",
    "bias_lower_bound", "misspecified_bias", "risk_report", "sweep_alpha",
    # finite_sim
    "Design", "GramFlow", "LabelModel", "TrajectoryPoint",
    "EarlyStopping", "SimulationSummary", "sample_design",
    "build_preconditioner", "gram_flow", "stationary_solution",
    "conditional_bias",
    "conditional_variance", "default_time_grid", "trajectory",
    "optimal_early_stopping", "simulate_risk", "min_norm_check",
    "yky_diagnostic",
    # rkhs_sim
    "SpectralRKHS", "RKHSDataset", "build_model", "make_dataset",
    "rate_optimal_damping", "run_preconditioned", "run_gd",
    "iterations_to_threshold", "brute_force_steps",
    # experiments
    "ExperimentConfig", "RunManifest", "run", "list_experiments",
    "get_preset", "emit_plot_script",
]
