"""Finite-sample Monte Carlo engine for preconditioned interpolation.

Designs are drawn as X = Z diag(sqrt(eigs)) with i.i.d. unit-variance
entries Z, where the d eigenvalues realize a discrete spectrum by
largest-remainder apportionment of its weights.  All population
matrices (Sigma_X, Sigma_theta, population preconditioners) are
diagonal in this fixed basis; rotation invariance of the Gaussian
entries makes that choice distribution-identical to any rotated one,
and a test confirms basis independence by explicit conjugation.

Bias and variance given X are never estimated by sampling theta*, the
noise or test points, for any label model; they are computed from the
exact conditional trace formulas

    B(X) = (1/d) Tr[Sigma_theta (I - P X^T S^-1 X)^T Sigma_X (...)],
    V(X) = sigma^2 Tr[P X^T S^-2 X P Sigma_X],      S = X P X^T,

plus, for a misspecified teacher, the closed-form terms of
``simulate_risk``.  So the only Monte Carlo fluctuation left is in X
itself.  Every term is the t = inf point of the gradient flow
theta_P(t) = P X^T [I - exp(-(t/n) S)] S^-1 y, whose spectral filter
(1 - exp(-t lam / n)) / lam tends to 1/lam: one symmetric
eigendecomposition of the n x n Gram S, held by a ``GramFlow``, gives
every conditional quantity.  ``trajectory``, ``conditional_bias``,
``conditional_variance``, ``default_time_grid``, ``stationary_solution``
and ``simulate_risk`` take that flow (``gram_flow``) of the same design
in place of a preconditioner, and then read it instead of factoring S
again.

Randomness comes from numpy's Philox counter-based generator, which is
seed-stable across platforms; the generator name and numpy version are
recorded in run metadata by the experiment harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, NumericalError, OutOfRegimeError
from .spectra import PreconditionerSpec, SpectralMeasure

__all__ = [
    "Design",
    "GramFlow",
    "TrajectoryPoint",
    "LabelModel",
    "EarlyStopping",
    "SimulationSummary",
    "sample_design",
    "apportion_counts",
    "build_preconditioner",
    "gram_flow",
    "stationary_solution",
    "conditional_bias",
    "conditional_variance",
    "trajectory",
    "default_time_grid",
    "optimal_early_stopping",
    "simulate_risk",
    "min_norm_check",
    "yky_diagnostic",
    "GENERATOR_NAME",
]

GENERATOR_NAME = f"numpy.random.Philox (Philox4x64-10), numpy {np.__version__}"

# Gram invertibility floor relative to the largest eigenvalue.
_GRAM_RTOL = 1e-12
# Default flow time grid: points, and its span in units of n / lambda_max.
_GRID_POINTS, _GRID_LO, _GRID_HI = 60, 1e-2, 1e2


def _rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator; distinct streams decouple X from labels."""
    return np.random.Generator(np.random.Philox([int(stream), int(seed)]))


def apportion_counts(weights: np.ndarray, d: int) -> np.ndarray:
    """Largest-remainder apportionment of probability weights to d slots."""
    weights = np.asarray(weights, dtype=float)
    quotas = weights * d
    counts = np.floor(quotas).astype(int)
    rest = d - int(counts.sum())
    if rest > 0:
        # ties broken by atom index for determinism
        order = np.lexsort((np.arange(weights.size), -(quotas - counts)))
        counts[order[:rest]] += 1
    return counts


@dataclass(frozen=True, eq=False)
class Design:
    """A realized random design X with its diagonal covariance."""

    X: np.ndarray
    n: int
    d: int
    sigma_x_eigs: np.ndarray
    seed: int
    entry_dist: str = "gaussian"

    def __post_init__(self):
        if self.d <= self.n:
            raise OutOfRegimeError(
                f"need d > n (overparameterized); got n={self.n}, d={self.d}")
        X = np.asarray(self.X, dtype=float)
        eigs = np.asarray(self.sigma_x_eigs, dtype=float)
        if X.shape != (self.n, self.d):
            raise DomainError("X must have shape (n, d)")
        if eigs.shape != (self.d,):
            raise DomainError("sigma_x_eigs must have length d")
        X.setflags(write=False)
        eigs.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "sigma_x_eigs", eigs)

    @property
    def gamma(self) -> float:
        return self.d / self.n


@dataclass(frozen=True, eq=False)
class GramFlow:
    """X P X^T = Q diag(lam) Q^T for one design and preconditioner.

    ``lam`` is ascending; ``Ah = Q^T (X P Sigma_X P X^T) Q`` is the block
    of the bias and variance that does not depend on the prior.  Built by
    ``gram_flow``.
    """

    design: Design
    XP: np.ndarray
    lam: np.ndarray
    Q: np.ndarray
    Ah: np.ndarray


@dataclass(frozen=True)
class TrajectoryPoint:
    """Conditional risk decomposition at one gradient-flow time."""

    t: float
    bias: float
    variance: float
    risk: float


@dataclass(frozen=True)
class EarlyStopping:
    """Grid minima of a trajectory.

    (t_risk, risk, bias, variance) describe the risk-minimizing grid
    point; (t_bias, bias_opt) the separately minimized bias.
    """

    t_risk: float
    risk: float
    bias: float
    variance: float
    t_bias: float
    bias_opt: float


@dataclass(frozen=True)
class LabelModel:
    """How labels are generated on top of a design.

    kind:
      - "well_specified": y = X theta* + eps
      - "quadratic": adds f_c(x) = alpha_q * (<x, x> - Tr Sigma_X), and
        the noise variance grows by Var f_c(x) to sigma^2 + Var f_c(x)
      - "unobserved": adds x_c^T theta_c from an unobserved feature block
        with trace term (1/d_c) Tr(Sigma_X^c Sigma_theta^c) = trace_term
    theta* is drawn with covariance (1/d) Sigma_theta, where the
    Sigma_theta eigenvalues are prior_map(sigma_x_eigs).
    """

    kind: str
    sigma: float
    prior_map: Callable[[np.ndarray], np.ndarray] = field(
        default=lambda x: np.ones_like(x), compare=False)
    alpha_q: float = 0.0
    trace_term: float = 0.0

    def __post_init__(self):
        if self.kind not in ("well_specified", "quadratic", "unobserved"):
            raise DomainError(f"unknown label model kind {self.kind!r}")
        if self.sigma < 0:
            raise DomainError("sigma must be >= 0")
        if self.kind == "unobserved" and not self.trace_term > 0:
            raise DomainError("unobserved kind needs trace_term > 0")

    @property
    def label(self) -> str:
        if self.kind == "quadratic":
            return f"quadratic(alpha_q={self.alpha_q:g})"
        if self.kind == "unobserved":
            return f"unobserved(trace_term={self.trace_term:g})"
        return "well_specified"

    def sample_theta_star(self, design: Design,
                          rng: np.random.Generator) -> np.ndarray:
        eigs_theta = np.asarray(self.prior_map(design.sigma_x_eigs), float)
        if np.any(eigs_theta < 0):
            raise DomainError("prior_map must be >= 0 on the realized eigs")
        return rng.standard_normal(design.d) * np.sqrt(eigs_theta / design.d)


@dataclass(frozen=True)
class SimulationSummary:
    """Seed means and standard deviations plus the per-seed table."""

    mean_bias: float
    std_bias: float
    mean_variance: float
    std_variance: float
    mean_risk: float
    std_risk: float
    per_seed: tuple  # rows of (seed, bias, variance, risk)


def sample_design(n: int, d: int, spectrum: SpectralMeasure,
                  entry_dist: str = "gaussian", seed: int = 0) -> Design:
    """Draw X = Z diag(sqrt(eigs)) with the spectrum realized over d slots.

    ``entry_dist`` is "gaussian" or "rademacher" (both zero mean, unit
    variance).  Deterministic for a fixed seed.
    """
    if d <= n:
        raise OutOfRegimeError(
            f"need d > n (overparameterized); got n={n}, d={d}")
    counts = apportion_counts(spectrum.weights, d)
    eigs = np.repeat(spectrum.values, counts).astype(float)
    rng = _rng(seed, stream=0)
    if entry_dist == "gaussian":
        Z = rng.standard_normal((n, d))
    elif entry_dist == "rademacher":
        Z = rng.integers(0, 2, size=(n, d)).astype(float) * 2.0 - 1.0
    else:
        raise DomainError(f"unknown entry_dist {entry_dist!r}")
    X = Z * np.sqrt(eigs)
    return Design(X=X, n=n, d=d, sigma_x_eigs=eigs, seed=seed,
                  entry_dist=entry_dist)


def build_preconditioner(spec: PreconditionerSpec, design: Design
                         ) -> np.ndarray:
    """Realize the preconditioner as a dense d x d symmetric PSD matrix.

    Population kinds are diagonal in the design's eigenbasis; sample
    kinds are built from X^T X.
    """
    if spec.is_population:
        return np.diag(spec.eig_map(design.sigma_x_eigs))
    gram_d = design.X.T @ design.X
    if spec.kind == "sample_pseudo_inverse":
        return np.linalg.pinv(gram_d, hermitian=True)
    # sample_damped
    P = np.linalg.inv(gram_d + spec.lam * np.eye(design.d))
    return 0.5 * (P + P.T)


def _precond_parts(design: Design, P) -> tuple[np.ndarray, np.ndarray | None]:
    """Split P into (diagonal vector, None) or (None, dense matrix).

    Accepts a PreconditionerSpec, a length-d vector of eigenvalues, or a
    d x d matrix.  Diagonal structure is used for the fast paths.
    """
    if isinstance(P, PreconditionerSpec):
        if P.is_population:
            return P.eig_map(design.sigma_x_eigs), None
        return None, build_preconditioner(P, design)
    P = np.asarray(P, dtype=float)
    if P.ndim == 1:
        if P.shape != (design.d,):
            raise DomainError("diagonal preconditioner must have length d")
        return P, None
    if P.shape != (design.d, design.d):
        raise DomainError("preconditioner matrix must be d x d")
    return None, P


def _xp(design: Design, P) -> np.ndarray:
    """X P as an n x d array, using the diagonal fast path when possible."""
    diag, dense = _precond_parts(design, P)
    if diag is not None:
        return design.X * diag
    return design.X @ dense


def gram_flow(design: Design, P) -> GramFlow:
    """Factor S = X P X^T once; raises NumericalError if S is singular."""
    XP = _xp(design, P)
    S = XP @ design.X.T
    lam, Q = np.linalg.eigh(0.5 * (S + S.T))
    if lam[0] <= _GRAM_RTOL * lam[-1]:
        raise NumericalError(
            "finite_sim", "gram_flow",
            f"Gram matrix numerically singular (min/max eig = "
            f"{lam[0]:.3e}/{lam[-1]:.3e})")
    A = (XP * design.sigma_x_eigs) @ XP.T
    return GramFlow(design, XP, lam, Q, Q.T @ A @ Q)


def _flow(design: Design, P) -> GramFlow:
    """P itself if it is a flow of ``design``, else a new one."""
    if not isinstance(P, GramFlow):
        return gram_flow(design, P)
    if P.design is not design:
        raise DomainError("the GramFlow was built on another design")
    return P


def _theta_eigs(design: Design, theta) -> np.ndarray:
    """Sigma_theta eigenvalues co-indexed with sigma_x_eigs.

    ``theta`` can be a prior map (callable on the realized covariance
    eigenvalues), an explicit length-d vector, or a scalar.
    """
    if callable(theta):
        out = np.asarray(theta(design.sigma_x_eigs), dtype=float)
        out = np.broadcast_to(out, (design.d,)).astype(float)
    elif np.isscalar(theta):
        out = np.full(design.d, float(theta))
    else:
        out = np.asarray(theta, dtype=float)
        if out.shape != (design.d,):
            raise DomainError("Sigma_theta eigenvalues must have length d")
    if np.any(out < 0):
        raise DomainError("Sigma_theta eigenvalues must be >= 0")
    return out


def stationary_solution(design: Design, P, y: np.ndarray) -> np.ndarray:
    """theta_hat = P X^T (X P X^T)^-1 y, the min-||.||_{P^-1} interpolant."""
    y = np.asarray(y, dtype=float)
    flow = _flow(design, P)
    return flow.XP.T @ (flow.Q @ ((flow.Q.T @ y) / flow.lam))


def conditional_bias(design: Design, P, theta) -> float:
    """Exact prior-averaged bias given X: the flow's t = inf point."""
    return trajectory(design, P, theta, 0.0, [math.inf])[0].bias


def conditional_variance(design: Design, P, sigma2: float) -> float:
    """Exact noise-averaged variance given X: the flow's t = inf point."""
    return trajectory(design, P, 0.0, sigma2, [math.inf])[0].variance


def default_time_grid(design: Design, P, n_points: int = _GRID_POINTS,
                      lo: float = _GRID_LO, hi: float = _GRID_HI
                      ) -> np.ndarray:
    """Geometric grid spanning [lo, hi] * n / lambda_max(X P X^T)."""
    scale = design.n / float(_flow(design, P).lam[-1])
    return np.geomspace(lo * scale, hi * scale, n_points)


def trajectory(design: Design, P, theta, sigma2: float,
               t_grid: Sequence[float] | None = None,
               f_c: np.ndarray | None = None) -> list[TrajectoryPoint]:
    """Exact conditional bias/variance along the gradient flow.

    theta_P(t) = P X^T [I - exp(-(t/n) S)] S^-1 y with S = X P X^T.  One
    symmetric eigendecomposition of S is reused for every grid time;
    t = inf gives the stationary conditional values exactly.  Without a
    grid, the default_time_grid points are used.

    ``f_c`` holds the values on the n training rows of a label term
    outside the linear model (y = X theta* + f_c + eps).  The flow fits
    it like a fixed signal, so the bias gains ||Sigma_X^1/2 P X^T W(t)
    S^-1 f_c||^2 with W(t) = I - exp(-(t/n) S): the part of theta_P(t)
    fitted to f_c, in the Sigma_X norm.
    """
    if sigma2 < 0:
        raise DomainError("sigma2 must be >= 0")
    if f_c is not None:
        f_c = np.asarray(f_c, dtype=float)
        if f_c.shape != (design.n,):
            raise DomainError("f_c must have shape (n,)")
    if t_grid is not None:
        t_grid = np.asarray(t_grid, dtype=float)
        if t_grid.size == 0:
            raise DomainError("t_grid must be nonempty")
        if np.any(t_grid < 0) or np.any(np.diff(t_grid) < 0):
            raise DomainError("t_grid must be sorted and nonnegative")
    st = _theta_eigs(design, theta)
    sx = design.sigma_x_eigs
    X = design.X
    flow = _flow(design, P)
    XP, lam, Q, Ah = flow.XP, flow.lam, flow.Q, flow.Ah
    if t_grid is None:
        t_grid = default_time_grid(design, flow)

    Bm = (X * st) @ X.T
    Cm = (X * (st * sx)) @ XP.T
    Bh = Q.T @ Bm @ Q
    ch = np.einsum("ij,ij->j", Q, Cm @ Q)
    AB = Ah * Bh
    dA = np.diag(Ah).copy()
    c0 = float(np.sum(st * sx))
    fh = None if f_c is None else Q.T @ f_c

    points = []
    for t in t_grid:
        # spectral filter of W(t) S^-1 = (1 - exp(-t lam / n)) / lam
        g = -np.expm1(-t * lam / design.n) / lam
        bias = (c0 - 2.0 * float(ch @ g) + float(g @ (AB @ g))) / design.d
        variance = sigma2 * float(np.sum(g * g * dA))
        bias = max(bias, 0.0)
        if fh is not None:
            z = g * fh
            bias += float(z @ (Ah @ z))
        points.append(TrajectoryPoint(t=float(t), bias=bias,
                                      variance=variance,
                                      risk=bias + variance))
    return points


def optimal_early_stopping(points: Sequence[TrajectoryPoint]
                           ) -> EarlyStopping:
    """Grid minima of risk and, separately, of bias."""
    if len(points) == 0:
        raise DomainError("trajectory must be nonempty")
    risks = np.array([p.risk for p in points])
    biases = np.array([p.bias for p in points])
    i = int(np.argmin(risks))
    j = int(np.argmin(biases))
    return EarlyStopping(t_risk=points[i].t, risk=points[i].risk,
                         bias=points[i].bias, variance=points[i].variance,
                         t_bias=points[j].t, bias_opt=points[j].bias)


def min_norm_check(design: Design, P, y: np.ndarray,
                   theta_hat: np.ndarray) -> float:
    """First-order certificate that theta_hat minimizes ||.||_{P^-1}.

    Over interpolants of X theta = y the minimizer satisfies
    P^-1 theta_hat orthogonal to ker(X); the defect is the largest
    normalized violation over an orthonormal kernel basis.
    """
    diag, dense = _precond_parts(design, P)
    if diag is not None:
        if np.any(diag <= 0):
            raise NumericalError("finite_sim", "min_norm_check",
                                 "singular preconditioner")
        pinv_theta = theta_hat / diag
    else:
        try:
            pinv_theta = np.linalg.solve(dense, theta_hat)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("finite_sim", "min_norm_check",
                                 f"singular preconditioner: {exc}") from exc
    norm = math.sqrt(float(theta_hat @ pinv_theta))
    if norm == 0:
        return 0.0
    _, _, vt = np.linalg.svd(design.X, full_matrices=True)
    kernel_basis = vt[design.n:]
    return float(np.max(np.abs(kernel_basis @ pinv_theta))) / norm


def yky_diagnostic(design: Design, y: np.ndarray):
    """sqrt(y^T (X X^T)^-1 y / n), the label-noise diagnostic.

    ``y`` is one label vector of shape (n,), giving a float, or k label
    vectors as the columns of an (n, k) array, giving k values.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim not in (1, 2) or y.shape[0] != design.n:
        raise DomainError("labels must have shape (n,) or (n, k)")
    flow = gram_flow(design, np.ones(design.d))
    z = flow.Q.T @ y
    values = np.sqrt((1.0 / flow.lam) @ (z * z) / design.n)
    return float(values) if y.ndim == 1 else values


def simulate_risk(designs: Sequence[Design], P, model: LabelModel
                  ) -> SimulationSummary:
    """Exact risk given X over design replicates under a label model.

    theta* and the noise are averaged out in closed form for every label
    model, so only X fluctuates across seeds.  Bias is B(X) and variance
    sigma^2 V0(X), both at t = inf.  A misspecified teacher adds label
    variance q that the linear model cannot fit: the unobserved block's
    trace term, or q = Var f_c(x) = 2 alpha_q^2 sum s_i^2 of the quadratic
    term at a Gaussian x.  It enters the bias as q (1 + V0), the
    convention of ``misspecified_bias``.  The quadratic teacher's training
    noise has variance sigma^2 + q, and the fit of its training values
    f_c(X) adds ``trajectory``'s f_c term; odd moments of a Gaussian x
    vanish, so no cross term remains.  On a Rademacher design ||x||^2 is
    constant, so the quadratic teacher is linear there and is refused.
    """
    if len(designs) == 0:
        raise DomainError("need at least one design replicate")
    rows = []
    for design in designs:
        f_c, q = None, 0.0
        if model.kind == "quadratic":
            if design.entry_dist != "gaussian":
                raise DomainError("the quadratic teacher needs a Gaussian "
                                  f"design, got {design.entry_dist}")
            sx = design.sigma_x_eigs
            f_c = model.alpha_q * (np.sum(design.X * design.X, axis=1)
                                   - float(np.sum(sx)))
            q = 2.0 * model.alpha_q**2 * float(np.sum(sx * sx))
        elif model.kind == "unobserved":
            q = model.trace_term
        point = trajectory(design, P, model.prior_map, 1.0, [math.inf],
                           f_c)[0]
        v0 = point.variance
        bias = point.bias + q * (1.0 + v0)
        variance = model.sigma**2 * v0
        rows.append((design.seed, bias, variance, bias + variance))

    table = np.array([r[1:] for r in rows])
    (mb, mv, mr), (sb, sv, sr) = table.mean(axis=0), table.std(axis=0)
    return SimulationSummary(
        mean_bias=float(mb), std_bias=float(sb), mean_variance=float(mv),
        std_variance=float(sv), mean_risk=float(mr), std_risk=float(sr),
        per_seed=tuple(rows))
