"""Discrete spectral models for covariance, prior, and preconditioner.

Everything downstream works under a co-diagonalizability assumption: the
feature covariance ``Sigma_X``, the teacher prior ``Sigma_theta``, and a
population preconditioner ``P`` share one eigenbasis, so each is fully
described by how its eigenvalues sit over the eigenvalues of
``Sigma_X``.  Spectra are finite lists of weighted atoms; limiting
expectations then become exact finite sums, which keeps every
theoretical quantity computable to solver precision.

The main objects:

* ``SpectralMeasure``: weighted atoms ``(value, weight)``, optionally
  Frobenius-normalized so that ``E[value^2] = 1``.
* ``PreconditionerSpec``: a named preconditioner kind.  Population kinds
  act on a covariance eigenvalue ``x`` through a scalar map ``f(x)``;
  sample kinds (built from ``X^T X``) have no population spectrum and
  are rejected by the spectral operations.
* ``JointSpectrum``: per-atom triples ``(v_x, v_theta, v_xp)`` with
  ``v_xp = v_x * f(v_x)``, the inputs of the bias formula.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, NoPopulationSpectrumError

__all__ = [
    "SpectralMeasure",
    "PreconditionerSpec",
    "JointSpectrum",
    "make_two_atom",
    "make_uniform",
    "make_poly_decay",
    "precondition_spectrum",
    "make_joint",
]

_WEIGHT_TOL = 1e-12
_FROBENIUS_TOL = 1e-10

# Kinds whose preconditioner is a deterministic function of Sigma_X.
POPULATION_KINDS = (
    "identity",
    "inverse_pop_fisher",
    "power",
    "additive_interp",
    "damped_inverse",
    "prior_match",
)
# Kinds built from the realized design matrix.
SAMPLE_KINDS = ("sample_pseudo_inverse", "sample_damped")


def _merge_atoms(values: np.ndarray, weights: np.ndarray):
    """Sort atoms by value and combine exactly equal values."""
    order = np.argsort(values, kind="stable")
    values = values[order]
    weights = weights[order]
    out_v, out_w = [values[0]], [weights[0]]
    for v, w in zip(values[1:], weights[1:]):
        if v == out_v[-1]:
            out_w[-1] += w
        else:
            out_v.append(v)
            out_w.append(w)
    return np.asarray(out_v, dtype=float), np.asarray(out_w, dtype=float)


@dataclass(frozen=True, eq=False)
class SpectralMeasure:
    """A discrete probability measure on nonnegative eigenvalues.

    Atoms with exactly equal values are merged at construction, so a
    point mass is always represented by a single atom.  Arrays are
    frozen after validation.
    """

    values: np.ndarray
    weights: np.ndarray
    normalized_frobenius: bool = False

    def __post_init__(self):
        values = np.atleast_1d(np.asarray(self.values, dtype=float))
        weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if values.shape != weights.shape or values.ndim != 1:
            raise DomainError("atoms need matching 1-d value/weight arrays")
        if values.size == 0:
            raise DomainError("a spectral measure needs at least one atom")
        if not np.all(np.isfinite(values)) or not np.all(np.isfinite(weights)):
            raise DomainError("atom values and weights must be finite")
        if np.any(values < 0):
            raise DomainError("atom values must be >= 0")
        if np.any(weights <= 0):
            raise DomainError("atom weights must be > 0")
        if abs(weights.sum() - 1.0) > _WEIGHT_TOL:
            raise DomainError(
                f"weights must sum to 1 within {_WEIGHT_TOL:g}; "
                f"got {weights.sum()!r}")
        values, weights = _merge_atoms(values, weights)
        if self.normalized_frobenius:
            second = float(np.sum(weights * values**2))
            if abs(second - 1.0) > _FROBENIUS_TOL:
                raise DomainError(
                    f"normalized_frobenius requires E[value^2] = 1 within "
                    f"{_FROBENIUS_TOL:g}; got {second!r}")
        values.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)

    @property
    def n_atoms(self) -> int:
        return self.values.size

    @property
    def is_point_mass(self) -> bool:
        return self.values.size == 1

    def expect(self, fn: Callable[[np.ndarray], np.ndarray]) -> float:
        """E[fn(value)] under the measure."""
        return float(np.sum(self.weights * fn(self.values)))

    def mean(self) -> float:
        return float(np.sum(self.weights * self.values))

    def second_moment(self) -> float:
        return float(np.sum(self.weights * self.values**2))

    def condition_number(self) -> float:
        """max(value) / min(positive value); inf only if all atoms are 0."""
        positive = self.values[self.values > 0]
        if positive.size == 0:
            return math.inf
        return float(self.values.max() / positive.min())

    def scaled(self, c: float) -> "SpectralMeasure":
        """The pushforward under value -> c * value (weights unchanged)."""
        if c <= 0:
            raise DomainError("scale factor must be > 0")
        return SpectralMeasure(self.values * c, self.weights)

    def to_record(self) -> dict:
        return {
            "atoms": [[float(v), float(w)]
                      for v, w in zip(self.values, self.weights)],
            "normalized": bool(self.normalized_frobenius),
        }

    @classmethod
    def from_record(cls, record: dict) -> "SpectralMeasure":
        atoms = np.asarray(record["atoms"], dtype=float).reshape(-1, 2)
        return cls(atoms[:, 0], atoms[:, 1],
                   normalized_frobenius=bool(record.get("normalized", False)))

    def to_json(self) -> str:
        return json.dumps(self.to_record(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SpectralMeasure":
        return cls.from_record(json.loads(text))


@dataclass(frozen=True)
class PreconditionerSpec:
    """A named preconditioner.

    Population kinds map a covariance eigenvalue ``x`` to the
    preconditioner eigenvalue ``f(x)``:

    ==================  =========================
    identity            1
    inverse_pop_fisher  1/x
    power(alpha)        x**(-alpha)
    additive_interp(a)  a/x + (1-a)
    damped_inverse(a)   1/(a*x + 1-a)
    prior_match         v_theta(x) (the prior map)
    ==================  =========================

    All three interpolating families recover identity at alpha=0 and
    the inverse population Fisher at alpha=1.  Sample kinds
    (``sample_pseudo_inverse``, ``sample_damped``) are realized from the
    design matrix and expose no population eigenvalue map.
    """

    kind: str
    alpha: float | None = None
    lam: float | None = None
    prior_map: Callable[[np.ndarray], np.ndarray] | None = field(
        default=None, compare=False)

    def __post_init__(self):
        if self.kind not in POPULATION_KINDS + SAMPLE_KINDS:
            raise DomainError(f"unknown preconditioner kind {self.kind!r}")
        if self.kind in ("power", "additive_interp", "damped_inverse"):
            if self.alpha is None or not 0.0 <= self.alpha <= 1.0:
                raise DomainError(
                    f"{self.kind} needs an interpolation alpha in [0, 1]")
        if self.kind == "sample_damped":
            if self.lam is None or self.lam <= 0:
                raise DomainError("sample_damped needs a damping lam > 0")

    # constructors

    @classmethod
    def identity(cls):
        return cls("identity")

    @classmethod
    def inverse_pop_fisher(cls):
        return cls("inverse_pop_fisher")

    @classmethod
    def power(cls, alpha: float):
        return cls("power", alpha=float(alpha))

    @classmethod
    def additive_interp(cls, alpha: float):
        return cls("additive_interp", alpha=float(alpha))

    @classmethod
    def damped_inverse(cls, alpha: float):
        return cls("damped_inverse", alpha=float(alpha))

    @classmethod
    def sample_pseudo_inverse(cls):
        return cls("sample_pseudo_inverse")

    @classmethod
    def sample_damped(cls, lam: float):
        return cls("sample_damped", lam=float(lam))

    @classmethod
    def prior_match(cls, prior_map=None):
        """P = Sigma_theta; with no map given, the ambient prior is used."""
        return cls("prior_match", prior_map=prior_map)

    @property
    def is_population(self) -> bool:
        return self.kind in POPULATION_KINDS

    @property
    def label(self) -> str:
        return self.kind

    def _require_population(self):
        if not self.is_population:
            raise NoPopulationSpectrumError(
                f"{self.kind} is a sample-based preconditioner with no "
                "limiting population spectrum; its interpolant coincides "
                "with gradient descent, so use the identity kind for "
                "asymptotics")

    def _resolve_prior(self, prior_map=None):
        prior = self.prior_map if self.prior_map is not None else prior_map
        if prior is None:
            raise DomainError("prior_match needs a prior map")
        return prior

    def eig_map(self, x, prior_map=None):
        """Preconditioner eigenvalue f(x) over covariance eigenvalues x."""
        self._require_population()
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0):
            raise DomainError(
                "population preconditioners need strictly positive "
                "covariance eigenvalues")
        if self.kind == "identity":
            out = np.ones_like(x)
        elif self.kind == "inverse_pop_fisher":
            out = 1.0 / x
        elif self.kind == "power":
            out = x ** (-self.alpha)
        elif self.kind == "additive_interp":
            out = self.alpha / x + (1.0 - self.alpha)
        elif self.kind == "damped_inverse":
            out = 1.0 / (self.alpha * x + (1.0 - self.alpha))
        else:  # prior_match
            out = np.asarray(self._resolve_prior(prior_map)(x), dtype=float)
        if np.any(~np.isfinite(out)) or np.any(out <= 0):
            raise DomainError(
                f"{self.kind} produced a nonpositive preconditioner "
                "eigenvalue on the support")
        return out

    def xp_map(self, x, prior_map=None):
        """Eigenvalue of Sigma_X * P, i.e. x * f(x), simplified per kind.

        The simplifications keep algebraic identities exact in floating
        point: the inverse Fisher always yields exactly 1, so its
        preconditioned spectrum is the exact point mass at 1.
        """
        self._require_population()
        x = np.asarray(x, dtype=float)
        if self.kind == "identity":
            return x.copy()
        if self.kind == "inverse_pop_fisher":
            return np.ones_like(x)
        if self.kind == "power":
            return x ** (1.0 - self.alpha)
        if self.kind == "additive_interp":
            return self.alpha + (1.0 - self.alpha) * x
        if self.kind == "damped_inverse":
            return x / (self.alpha * x + (1.0 - self.alpha))
        return x * self.eig_map(x, prior_map=prior_map)


@dataclass(frozen=True, eq=False)
class JointSpectrum:
    """Per-atom triples (v_x, v_theta, v_xp) with shared weights."""

    ux: np.ndarray
    utheta: np.ndarray
    uxp: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        ux = np.atleast_1d(np.asarray(self.ux, dtype=float))
        ut = np.atleast_1d(np.asarray(self.utheta, dtype=float))
        uxp = np.atleast_1d(np.asarray(self.uxp, dtype=float))
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if not (ux.shape == ut.shape == uxp.shape == w.shape):
            raise DomainError("joint spectrum arrays must share one shape")
        if abs(w.sum() - 1.0) > _WEIGHT_TOL:
            raise DomainError("joint weights must sum to 1")
        if np.any(w <= 0):
            raise DomainError("joint weights must be > 0")
        if np.any(ux <= 0):
            raise DomainError("covariance eigenvalues must be > 0")
        if np.any(ut < 0) or np.any(uxp < 0):
            raise DomainError("joint spectrum entries must be >= 0")
        for name, arr in (("ux", ux), ("utheta", ut), ("uxp", uxp),
                          ("weights", w)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_atoms(self) -> int:
        return self.ux.size

    def xp_measure(self) -> SpectralMeasure:
        """The marginal spectrum of Sigma_X * P (input to the solver)."""
        return SpectralMeasure(self.uxp, self.weights)

    def x_measure(self) -> SpectralMeasure:
        return SpectralMeasure(self.ux, self.weights)


def make_two_atom(kappa: float, frobenius_normalize: bool = True
                  ) -> SpectralMeasure:
    """Two equally weighted atoms {a, kappa*a} with condition number kappa.

    With Frobenius normalization ``a = sqrt(2 / (1 + kappa^2))`` so that
    ``E[value^2] = 1``.  ``kappa = 1`` degenerates to the point mass at 1.
    """
    if kappa < 1:
        raise DomainError("kappa must be >= 1")
    a = math.sqrt(2.0 / (1.0 + kappa**2)) if frobenius_normalize else 1.0
    return SpectralMeasure(
        np.array([a, kappa * a]), np.array([0.5, 0.5]),
        normalized_frobenius=frobenius_normalize)


def make_uniform(kappa: float, n_atoms: int, frobenius_normalize: bool = True
                 ) -> SpectralMeasure:
    """Equally weighted, equally spaced atoms spanning [a, kappa*a]."""
    if kappa < 1:
        raise DomainError("kappa must be >= 1")
    if n_atoms < 2:
        raise DomainError("n_atoms must be >= 2")
    values = np.linspace(1.0, kappa, n_atoms)
    weights = np.full(n_atoms, 1.0 / n_atoms)
    if frobenius_normalize:
        values = values / math.sqrt(float(np.sum(weights * values**2)))
    return SpectralMeasure(values, weights,
                           normalized_frobenius=frobenius_normalize)


def make_poly_decay(exponent: float, kappa: float, n_atoms: int
                    ) -> SpectralMeasure:
    """Polynomially decaying atoms i**(-exponent), rescaled to kappa.

    The raw values are mapped affinely onto [1, kappa] (preserving the
    decay ordering) and then Frobenius-normalized, which leaves the
    condition number at exactly kappa.
    """
    if exponent <= 0:
        raise DomainError("exponent must be > 0")
    if kappa < 1:
        raise DomainError("kappa must be >= 1")
    if n_atoms < 2:
        raise DomainError("n_atoms must be >= 2")
    raw = np.arange(1, n_atoms + 1, dtype=float) ** (-exponent)
    lo, hi = raw.min(), raw.max()
    if hi == lo:
        raise DomainError("exponent too small: the atoms coincide")
    values = 1.0 + (kappa - 1.0) * (raw - lo) / (hi - lo)
    weights = np.full(n_atoms, 1.0 / n_atoms)
    values = values / math.sqrt(float(np.sum(weights * values**2)))
    return SpectralMeasure(values, weights, normalized_frobenius=True)


def precondition_spectrum(fx: SpectralMeasure, spec: PreconditionerSpec,
                          prior_map=None) -> SpectralMeasure:
    """Pushforward of fx under x -> x * f(x): the spectrum of Sigma_X*P.

    Only population kinds have such a limit; sample kinds raise
    ``NoPopulationSpectrumError``.  Weights are carried over unchanged
    (the map is applied atomwise), and coinciding images are merged, so
    the inverse population Fisher gives the exact point mass at 1.
    """
    uxp = spec.xp_map(fx.values, prior_map=prior_map)
    return SpectralMeasure(uxp, fx.weights)


def make_joint(fx: SpectralMeasure, prior_map, spec: PreconditionerSpec
               ) -> JointSpectrum:
    """Per-atom triples (v_x, prior_map(v_x), v_x * f(v_x)).

    ``prior_map`` gives the prior eigenvalue co-indexed with each
    covariance eigenvalue (assumption A3 makes all three diagonal in one
    basis).  It must be nonnegative on the support.
    """
    ux = fx.values
    if np.any(ux <= 0):
        raise DomainError(
            "joint spectra need strictly positive covariance eigenvalues")
    utheta = np.asarray(prior_map(ux), dtype=float)
    if utheta.shape != ux.shape:
        utheta = np.broadcast_to(utheta, ux.shape).astype(float)
    if np.any(utheta < 0) or np.any(~np.isfinite(utheta)):
        raise DomainError("prior_map must be finite and >= 0 on the support")
    uxp = spec.xp_map(ux, prior_map=prior_map)
    return JointSpectrum(ux, utheta, uxp, fx.weights)
