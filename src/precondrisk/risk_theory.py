"""Closed-form asymptotic risk of preconditioned ridgeless interpolation.

With m = m(0) and m' = m'(0) the ridgeless Stieltjes solution for the
spectrum of Sigma_X * P at overparameterization gamma = d/n > 1:

* variance:  V = sigma^2 * (m'/m^2 - 1), minimized over P at the
  inverse population Fisher, where F_XP is a point mass and
  V = sigma^2 / (gamma - 1);
* bias:      B = (m'/m^2) * E[v_x * v_theta / (1 + v_xp * m)^2],
  minimized at P = Sigma_theta (prior matching), where it equals
  1 / (gamma * m*);
* unobserved features add B_c = trace_term * (1 + V0) with
  V0 = m'/m^2 - 1 the unit-noise variance and
  trace_term = (1/d_c) Tr(Sigma_X^c Sigma_theta^c).

``sweep_alpha`` evaluates the three one-parameter preconditioner
families that interpolate gradient descent (alpha=0) and natural
gradient descent (alpha=1); along each, variance decreases with alpha
while bias increases, so interior alphas trade the two off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .spectra import (JointSpectrum, PreconditionerSpec, SpectralMeasure,
                      make_joint)
from .stieltjes import solve_m

__all__ = [
    "RiskReport",
    "MisspecSpec",
    "theoretical_variance",
    "theoretical_bias",
    "bias_lower_bound",
    "misspecified_bias",
    "risk_report",
    "sweep_alpha",
    "RISK_CSV_COLUMNS",
]

RISK_CSV_COLUMNS = ("gamma", "sigma2", "preconditioner", "alpha", "bias",
                    "variance", "total", "m0", "m_prime")


@dataclass(frozen=True)
class RiskReport:
    """Asymptotic bias/variance at one (spectrum, prior, P, gamma) point."""

    bias: float
    variance: float
    total: float
    m0: float
    m_prime: float
    gamma: float
    sigma2: float
    preconditioner: str = ""
    alpha: float | None = None

    def to_csv_row(self) -> list:
        return [self.gamma, self.sigma2, self.preconditioner,
                "" if self.alpha is None else self.alpha,
                self.bias, self.variance, self.total, self.m0, self.m_prime]


@dataclass(frozen=True)
class MisspecSpec:
    """Unobserved-feature strength: trace_term = (1/d_c)Tr(Sx^c Stheta^c)."""

    trace_term: float

    def __post_init__(self):
        if self.trace_term < 0:
            raise DomainError("trace_term must be >= 0")

    @classmethod
    def from_joint(cls, joint: JointSpectrum) -> "MisspecSpec":
        """E[v_x^c * v_theta^c] over an unobserved-feature joint spectrum."""
        return cls(float(np.sum(joint.weights * joint.ux * joint.utheta)))

    @classmethod
    def from_spectrum(cls, fxc: SpectralMeasure, prior_map) -> "MisspecSpec":
        ut = np.asarray(prior_map(fxc.values), dtype=float)
        if np.any(ut < 0):
            raise DomainError("unobserved prior_map must be >= 0")
        return cls(float(np.sum(fxc.weights * fxc.values * ut)))


def theoretical_variance(f_xp: SpectralMeasure, gamma: float, sigma2: float
                         ) -> float:
    """Asymptotic variance sigma^2 * (m'/m^2 - 1) at lambda -> 0+."""
    if sigma2 < 0:
        raise DomainError("sigma2 must be >= 0")
    if sigma2 == 0:
        # still validates the regime so errors do not depend on sigma2
        solve_m(f_xp, gamma, 0.0)
        return 0.0
    sol = solve_m(f_xp, gamma, 0.0)
    return sigma2 * (sol.ratio - 1.0)


def _bias(joint: JointSpectrum, sol) -> float:
    """(m'/m^2) * E[v_x v_theta / (1 + v_xp m)^2] at a solved m."""
    return sol.ratio * float(np.sum(
        joint.weights * joint.ux * joint.utheta
        / (1.0 + joint.uxp * sol.m0) ** 2))


def theoretical_bias(joint: JointSpectrum, gamma: float) -> float:
    """Asymptotic bias (m'/m^2) * E[v_x v_theta / (1 + v_xp m)^2]."""
    return _bias(joint, solve_m(joint.xp_measure(), gamma, 0.0))


def bias_lower_bound(fx: SpectralMeasure, prior_map, gamma: float) -> float:
    """1/(gamma*m*): the bias floor, attained at P = Sigma_theta.

    m* solves the ridgeless equation for the prior-matched spectrum
    v_xp = v_x * v_theta.
    """
    joint = make_joint(fx, prior_map, PreconditionerSpec.prior_match())
    sol = solve_m(joint.xp_measure(), gamma, 0.0)
    return 1.0 / (gamma * sol.m0)


def misspecified_bias(joint: JointSpectrum, gamma: float, mis: MisspecSpec
                      ) -> float:
    """Bias with unobserved features: B_theta + trace_term * (1 + V0).

    V0 is the unit-noise variance m'/m^2 - 1 of the observed block; the
    unobserved part acts exactly like label noise of variance
    trace_term plus an irreducible trace_term offset.
    """
    sol = solve_m(joint.xp_measure(), gamma, 0.0)
    v0 = sol.ratio - 1.0
    return _bias(joint, sol) + mis.trace_term * (1.0 + v0)


def risk_report(fx: SpectralMeasure, prior_map, spec: PreconditionerSpec,
                gamma: float, sigma2: float) -> RiskReport:
    """Full asymptotic report for one preconditioner."""
    joint = make_joint(fx, prior_map, spec)
    sol = solve_m(joint.xp_measure(), gamma, 0.0)
    bias = _bias(joint, sol)
    variance = sigma2 * (sol.ratio - 1.0)
    return RiskReport(bias=bias, variance=variance, total=bias + variance,
                      m0=sol.m0, m_prime=sol.m_prime, gamma=gamma,
                      sigma2=sigma2, preconditioner=spec.label,
                      alpha=spec.alpha)


_FAMILIES = {
    "power": PreconditionerSpec.power,
    "additive_interp": PreconditionerSpec.additive_interp,
    "damped_inverse": PreconditionerSpec.damped_inverse,
}


def sweep_alpha(fx: SpectralMeasure, prior_map, gamma: float, sigma2: float,
                family: str, alphas) -> list[tuple[float, RiskReport]]:
    """Evaluate one interpolating family over an alpha grid in [0, 1]."""
    if family not in _FAMILIES:
        raise DomainError(
            f"family must be one of {sorted(_FAMILIES)}; got {family!r}")
    alphas = [float(a) for a in alphas]
    if any(not 0.0 <= a <= 1.0 for a in alphas):
        raise DomainError("alphas must lie in [0, 1]")
    if sorted(alphas) != alphas:
        raise DomainError("alphas must be sorted ascending")
    out = []
    for alpha in alphas:
        spec = _FAMILIES[family](alpha)
        out.append((alpha, risk_report(fx, prior_map, spec, gamma, sigma2)))
    return out
