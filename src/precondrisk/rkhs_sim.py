"""Truncated-spectrum simulator for damped-preconditioned RKHS regression.

The kernel operator is represented directly by its spectrum: N
eigenvalues mu_i = i**(-s) (so mu_1 = 1 and the capacity condition
holds by construction) with eigenfunctions proxied by i.i.d. standard
normal feature rows, which are orthonormal in L2 up to O(n^{-1/2}).
The teacher obeys a source condition f* = L^r h*, i.e. its L2
coefficients are f*_i = h_i * mu_i**r with h_i unit variance.

Writing the student in RKHS coordinates a (so its L2 coefficients are
sqrt(mu_i) * a_i), the damped-preconditioned update

    f_t = f_{t-1} - eta * (Sigma + alpha I)^{-1} (Sigma_hat f_{t-1} - S*Y)

becomes a diagonal-times-dense iteration

    a_t = a_{t-1} - eta * diag(1/(mu+alpha)) * (G a_{t-1} - b),
    G = (1/n) D^{1/2} Phi^T Phi D^{1/2},  b = (1/n) D^{1/2} Phi^T y,

and plain gradient descent is the same without the diagonal factor.
The population risk R(f_t) = sum_i (sqrt(mu_i) a_{t,i} - f*_i)^2 is
exact in the truncated basis, so trajectories carry no test-set noise.

Large alpha reduces the update to a rescaled gradient step; small alpha
approximates natural gradient and needs only a logarithmic number of
steps at the damping alpha = n**(-2s/(2rs+1)), versus a polynomial
number for gradient descent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError

__all__ = [
    "SpectralRKHS",
    "RKHSDataset",
    "build_model",
    "make_dataset",
    "rate_optimal_damping",
    "run_preconditioned",
    "run_gd",
    "iterations_to_threshold",
    "RKHS_CSV_COLUMNS",
]

RKHS_CSV_COLUMNS = ("n", "N", "s", "r", "alpha", "eta", "t", "risk")


@dataclass(frozen=True, eq=False)
class SpectralRKHS:
    """Kernel spectrum, source condition, and the fixed teacher."""

    N: int
    s: float
    r: float
    mu: np.ndarray
    h: np.ndarray
    fstar: np.ndarray
    seed: int

    def __post_init__(self):
        for name in ("mu", "h", "fstar"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def initial_risk(self) -> float:
        """R(f_0) for f_0 = 0: the squared L2 norm of the teacher."""
        return float(np.sum(self.fstar**2))


@dataclass(frozen=True, eq=False)
class RKHSDataset:
    """Sampled eigenfunction rows and bounded-noise labels."""

    n: int
    feature_rows: np.ndarray
    y: np.ndarray
    sigma: float
    seed: int

    def __post_init__(self):
        rows = np.asarray(self.feature_rows, dtype=float)
        y = np.asarray(self.y, dtype=float)
        rows.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "feature_rows", rows)
        object.__setattr__(self, "y", y)


def build_model(N: int, s: float, r: float, seed: int = 0) -> SpectralRKHS:
    """Teacher f*_i = h_i * mu_i**r over the spectrum mu_i = i**(-s).

    Rejects (r, s) violating the admissibility condition 2r + 1/s > 1
    (strictly), naming the inequality.
    """
    if N < 2:
        raise DomainError("N must be >= 2")
    if s <= 1:
        raise DomainError(f"capacity exponent must satisfy s > 1; got {s!r}")
    if r <= 0:
        raise DomainError(f"source exponent must satisfy r > 0; got {r!r}")
    if not 2 * r + 1.0 / s > 1.0:
        raise DomainError(
            f"admissibility requires 2r + 1/s > 1 strictly; "
            f"got 2*{r!r} + 1/{s!r} = {2 * r + 1.0 / s!r}")
    mu = np.arange(1, N + 1, dtype=float) ** (-s)
    rng = np.random.Generator(np.random.Philox([2, int(seed)]))
    h = rng.standard_normal(N)
    return SpectralRKHS(N=N, s=float(s), r=float(r), mu=mu, h=h,
                        fstar=h * mu**r, seed=int(seed))


def make_dataset(model: SpectralRKHS, n: int, sigma: float,
                 noise: str = "uniform", seed: int = 0) -> RKHSDataset:
    """Draw n samples with labels y_i = f*(x_i) + eps_i, |eps_i| <= sigma.

    ``noise`` is "uniform" on [-sigma, sigma] (default) or
    "truncated_gaussian" (std sigma/2, rejection-sampled to |eps| <=
    sigma); both satisfy the almost-sure bound.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if sigma < 0:
        raise DomainError("sigma must be >= 0")
    rng = np.random.Generator(np.random.Philox([3, int(seed)]))
    rows = rng.standard_normal((n, model.N))
    if sigma == 0:
        eps = np.zeros(n)
    elif noise == "uniform":
        eps = rng.uniform(-sigma, sigma, size=n)
    elif noise == "truncated_gaussian":
        eps = 0.5 * sigma * rng.standard_normal(n)
        bad = np.abs(eps) > sigma
        while np.any(bad):
            eps[bad] = 0.5 * sigma * rng.standard_normal(int(bad.sum()))
            bad = np.abs(eps) > sigma
    else:
        raise DomainError(f"unknown noise kind {noise!r}")
    y = rows @ model.fstar + eps
    return RKHSDataset(n=n, feature_rows=rows, y=y, sigma=float(sigma),
                       seed=int(seed))


def rate_optimal_damping(n: int, s: float, r: float) -> float:
    """The rate-optimal damping recipe alpha = n**(-2s/(2rs+1))."""
    if n < 1:
        raise DomainError(f"n must be >= 1; got {n!r}")
    if s <= 1 or r <= 0:
        raise DomainError(f"need s > 1 and r > 0; got s={s!r}, r={r!r}")
    return float(n) ** (-2.0 * s / (2.0 * r * s + 1.0))


def _iterate(model: SpectralRKHS, dataset: RKHSDataset, eta: float,
             scale: np.ndarray, T: int) -> np.ndarray:
    """Shared iteration: a <- a - eta * scale * (G a - b); returns risks."""
    if T < 0:
        raise DomainError("T must be >= 0")
    d_half = np.sqrt(model.mu)
    psi = dataset.feature_rows * d_half
    G = psi.T @ psi / dataset.n
    b = psi.T @ dataset.y / dataset.n
    a = np.zeros(model.N)
    risks = np.empty(T + 1)
    risks[0] = model.initial_risk
    for t in range(1, T + 1):
        a = a - eta * scale * (G @ a - b)
        diff = d_half * a - model.fstar
        risks[t] = float(diff @ diff)
    return risks


def run_preconditioned(model: SpectralRKHS, dataset: RKHSDataset,
                       eta: float, alpha: float, T: int) -> np.ndarray:
    """Risk trajectory [R(f_0), ..., R(f_T)] of the damped update."""
    if not 0 < eta < 1:
        raise DomainError(
            f"step size must satisfy 0 < eta < 1 (spectral norm bound); "
            f"got {eta!r}")
    if alpha <= 0:
        raise DomainError(f"damping must satisfy alpha > 0; got {alpha!r}")
    return _iterate(model, dataset, eta, 1.0 / (model.mu + alpha), T)


def run_gd(model: SpectralRKHS, dataset: RKHSDataset, eta: float,
           T: int) -> np.ndarray:
    """Risk trajectory of plain gradient descent (no preconditioner)."""
    if not 0 < eta < 1:
        raise DomainError(
            f"step size must satisfy 0 < eta < 1 (spectral norm bound); "
            f"got {eta!r}")
    return _iterate(model, dataset, eta, np.ones(model.N), T)


def iterations_to_threshold(traj: Sequence[float], epsilon: float
                            ) -> int | None:
    """First index t with R(f_t) <= epsilon, or None if never reached."""
    if not epsilon > 0:
        raise DomainError("epsilon must be > 0")
    traj = np.asarray(traj, dtype=float)
    hits = np.nonzero(traj <= epsilon)[0]
    return int(hits[0]) if hits.size else None


def brute_force_steps(model: SpectralRKHS, dataset: RKHSDataset, eta: float,
                      alpha: float | None, T: int) -> np.ndarray:
    """Naive operator-space implementation, used as a test oracle.

    Builds the empirical covariance operator from explicit rank-one
    sums each step instead of the precomputed Gram; alpha=None means
    plain gradient descent.  Only sensible for small N.
    """
    D = np.diag(model.mu)
    D_half = np.diag(np.sqrt(model.mu))
    n = dataset.n
    # K(x_i) in RKHS coordinates is D^{1/2} phi(x_i)
    ks = dataset.feature_rows @ D_half
    a = np.zeros(model.N)
    risks = [model.initial_risk]
    if alpha is None:
        B = np.eye(model.N)
    else:
        B = np.linalg.inv(D + alpha * np.eye(model.N))
    for _ in range(T):
        sigma_hat_a = sum(k * float(k @ a) for k in ks) / n
        sy = sum(k * yi for k, yi in zip(ks, dataset.y)) / n
        a = a - eta * B @ (sigma_hat_a - sy)
        diff = np.sqrt(model.mu) * a - model.fstar
        risks.append(float(diff @ diff))
    return np.asarray(risks)

