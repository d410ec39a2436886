"""Statistical experiments reduced to sufficient-statistic samplers.

Three models share one informal protocol: ``contains`` /
``require_member``, ``sample_statistic(theta, rng, size, coordinate=None)``,
``central_sequence``, ``information_matrix`` and ``log_likelihood_ratio``.
Every model's statistic is d-dimensional. All are immutable after
construction and sampling takes an explicit generator, so concurrent
sampling is safe whenever each worker owns its own stream.

``sample_statistic`` draws all d coordinates, shape (size, d), or with a
0-based ``coordinate`` only that one, shape (size, 1). The column has that
coordinate's marginal law (it is a different draw from the same generator),
which is all a test that reads one coordinate needs; the coordinates of a
full draw are independent except in a regression with a non-orthogonal
design. A row's value depends only on the normals drawn for it, never on how
many rows are drawn together. ``theta`` is checked in full either way.

- GaussianLocationModel: n i.i.d. N_d(theta, I_d) observations, sufficient
  statistic Z = n^{-1/2} * sum(X_i) ~ N_d(sqrt(n) theta, I_d). Also exposes
  per-observation sampling for tests that consume raw data: shape
  (size, n, d), with coordinate-major memory (a transposed view).
- ScaledGaussianModel: n i.i.d. N_d(theta, d^3 I_d) observations with the
  open cube (-1, 1)^d as parameter space; the sufficient statistic (the
  sample mean ~ N_d(theta, (d^3/n) I_d)) is sampled directly since the law
  is exact and costs O(d) per draw.
- FixedDesignRegression: y = X theta + noise with known noise scale. The
  likelihood depends on y only through X'y, so the statistic is the scaled
  OLS estimate sqrt(n) theta_hat ~ N_d(sqrt(n) theta, noise_sd^2 (X'X/n)^{-1}),
  d normals per draw through a d x d factor computed once per model.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError, ParameterError
from .rng import substream

_MAX_DESIGN_COND = 1e6


def as_theta(theta, dim: int) -> np.ndarray:
    """Coerce to a 1-d float vector of length ``dim``."""
    arr = np.atleast_1d(np.asarray(theta, dtype=float))
    if arr.ndim != 1 or arr.shape[0] != dim:
        raise DomainError(f"parameter must be a vector of length {dim}, got shape {arr.shape}")
    return arr


def embed(theta, d2: int) -> np.ndarray:
    """Pad a parameter vector with zeros up to dimension ``d2``.

    This is the canonical embedding of a low-dimensional testing problem into
    a higher-dimensional one; it maps the null to the null and preserves the
    Euclidean norm.
    """
    arr = np.atleast_1d(np.asarray(theta, dtype=float))
    if arr.ndim != 1:
        raise DomainError("theta must be a vector")
    if d2 <= arr.shape[0]:
        raise DomainError(f"target dimension {d2} must exceed len(theta) = {arr.shape[0]}")
    out = np.zeros(d2)
    out[: arr.shape[0]] = arr
    return out


@dataclass(frozen=True)
class SpikeAlternative:
    """Single-coordinate alternative theta = magnitude * e_coordinate with
    magnitude max(sqrt(log(d)/2), 1) / sqrt(n).

    ``coordinate`` is 1-based. The floor keeps the magnitude well defined for
    small d; it is inactive once log(d) >= 2, where the magnitude equals
    sqrt(log(d) / (2 n)).
    """

    coordinate: int
    magnitude: float
    n: int
    d: int

    @property
    def theta(self) -> np.ndarray:
        out = np.zeros(self.d)
        out[self.coordinate - 1] = self.magnitude
        return out

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SpikeAlternative":
        return cls(**data)


def spike_magnitude(n: int, d: int) -> float:
    if n < 1 or d < 1:
        raise DomainError(f"n and d must be >= 1, got n={n}, d={d}")
    return max(math.sqrt(math.log(d) / 2.0), 1.0) / math.sqrt(n)


def spike_alternative(n: int, d: int, i: int) -> SpikeAlternative:
    """The i-th coordinate spike (1-based) at scale max(sqrt(log d / 2), 1)/sqrt(n)."""
    if not 1 <= i <= d:
        raise DomainError(f"spike coordinate must be in [1, {d}], got {i}")
    return SpikeAlternative(coordinate=i, magnitude=spike_magnitude(n, d), n=n, d=d)


class _ModelBase:
    n: int
    d: int

    def contains(self, theta) -> bool:
        raise NotImplementedError

    def require_member(self, theta) -> np.ndarray:
        arr = as_theta(theta, self.d)
        if not self.contains(arr):
            raise ParameterError(self._membership_message(arr))
        return arr

    def _membership_message(self, theta: np.ndarray) -> str:
        return f"theta outside the parameter space of {type(self).__name__}"

    def _columns(self, coordinate: int | None) -> slice:
        """Every statistic coordinate, or only the 0-based ``coordinate``."""
        if coordinate is None:
            return slice(None)
        if not 0 <= coordinate < self.d:
            raise DomainError(f"statistic coordinate must be in [0, {self.d}), got {coordinate!r}")
        return slice(coordinate, coordinate + 1)


@dataclass(frozen=True)
class GaussianLocationModel(_ModelBase):
    """n i.i.d. d-variate unit-covariance Gaussians with unknown mean."""

    n: int
    d: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.d < 1:
            raise DomainError(f"n and d must be >= 1, got n={self.n}, d={self.d}")

    def contains(self, theta) -> bool:
        arr = as_theta(theta, self.d)
        return bool(np.all(np.isfinite(arr)))

    def _membership_message(self, theta: np.ndarray) -> str:
        return "theta must be finite"

    def sample_statistic(
        self, theta, rng: np.random.Generator, size: int = 1, coordinate: int | None = None
    ) -> np.ndarray:
        """Draws of Z ~ N_d(sqrt(n) theta, I_d), shape (size, d), or of its
        one ``coordinate``, shape (size, 1)."""
        shift = math.sqrt(self.n) * self.require_member(theta)[self._columns(coordinate)]
        z = rng.standard_normal((size, shift.shape[0]))
        if np.any(shift != 0.0):
            z += shift
        return z

    def sample_observations(self, theta, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Raw data X ~ N_d(theta, I_d)^n, shape (size, n, d) with
        coordinate-major memory: the (size, n, d) view of a (size, d, n)
        draw, so each coordinate's n values in a row are contiguous. Row i
        uses the normals drawn for it alone, coordinate by coordinate."""
        arr = self.require_member(theta)
        x = rng.standard_normal((size, self.d, self.n))
        if np.any(arr != 0.0):
            x += arr[:, np.newaxis]
        return x.transpose(0, 2, 1)

    def central_sequence(self, stats: np.ndarray) -> np.ndarray:
        return np.asarray(stats, dtype=float)

    def information_matrix(self) -> np.ndarray:
        return np.eye(self.d)

    def log_likelihood_ratio(self, stats: np.ndarray, theta) -> np.ndarray:
        """log dP_theta/dP_0 evaluated on statistic draws (batch-friendly)."""
        arr = self.require_member(theta)
        z = np.atleast_2d(np.asarray(stats, dtype=float))
        mean = math.sqrt(self.n) * arr
        out = z @ mean - 0.5 * float(mean @ mean)
        return out if np.asarray(stats).ndim > 1 else out[0]


@dataclass(frozen=True)
class ScaledGaussianModel(_ModelBase):
    """n i.i.d. N_d(theta, d^3 I_d) observations restricted to the open cube.

    The inflating d^3 covariance makes the problem asymptotically
    non-testable along d = n, which is what the non-testability diagnostic
    demonstrates.
    """

    n: int
    d: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.d < 1:
            raise DomainError(f"n and d must be >= 1, got n={self.n}, d={self.d}")

    @property
    def statistic_sd(self) -> float:
        """Per-coordinate standard deviation of the mean statistic."""
        return math.sqrt(self.d**3 / self.n)

    def contains(self, theta) -> bool:
        arr = as_theta(theta, self.d)
        return bool(np.all(np.isfinite(arr)) and np.all(np.abs(arr) < 1.0))

    def _membership_message(self, theta: np.ndarray) -> str:
        bad = int(np.argmax(~(np.abs(theta) < 1.0)))
        return (
            f"theta[{bad}] = {float(theta[bad])!r} violates the parameter space "
            f"(-1, 1)^{self.d}: every coordinate must lie strictly inside (-1, 1)"
        )

    def sample_statistic(
        self, theta, rng: np.random.Generator, size: int = 1, coordinate: int | None = None
    ) -> np.ndarray:
        """Draws of the sample mean ~ N_d(theta, (d^3/n) I_d), shape (size, d),
        or of its one ``coordinate``, shape (size, 1)."""
        arr = self.require_member(theta)[self._columns(coordinate)]
        return arr + self.statistic_sd * rng.standard_normal((size, arr.shape[0]))

    def central_sequence(self, stats: np.ndarray) -> np.ndarray:
        x = np.asarray(stats, dtype=float)
        return math.sqrt(self.n) * x / self.d**3

    def information_matrix(self) -> np.ndarray:
        return np.eye(self.d) / self.d**3

    def log_likelihood_ratio(self, stats: np.ndarray, theta) -> np.ndarray:
        arr = self.require_member(theta)
        x = np.atleast_2d(np.asarray(stats, dtype=float))
        scale = self.n / self.d**3
        out = scale * (x @ arr - 0.5 * float(arr @ arr))
        return out if np.asarray(stats).ndim > 1 else out[0]


@dataclass(frozen=True)
class FixedDesignRegression(_ModelBase):
    """Gaussian linear regression y = X theta + noise_sd * u with a fixed
    design and known noise scale.

    The statistic is z = sqrt(n) (X'X)^{-1} X'y, the scaled OLS estimate.
    """

    n: int
    d: int
    design: np.ndarray
    noise_sd: float = 1.0
    gram: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        x = np.asarray(self.design, dtype=float)
        if x.shape != (self.n, self.d):
            raise DomainError(f"design must have shape ({self.n}, {self.d}), got {x.shape}")
        if self.n < self.d:
            raise DomainError(f"need n >= d, got n={self.n}, d={self.d}")
        if not np.all(np.isfinite(x)):
            raise DomainError("design must be finite")
        if self.noise_sd <= 0.0:
            raise DomainError(f"noise_sd must be > 0, got {self.noise_sd!r}")
        object.__setattr__(self, "design", x)
        object.__setattr__(self, "gram", x.T @ x)
        # X'X/n is symmetric, so its condition number is the ratio of its
        # extreme eigenvalues; eigvalsh finds them without a full SVD
        eig = np.linalg.eigvalsh(self.gram / self.n)
        cond = eig[-1] / eig[0] if eig[0] > 0.0 else np.inf
        if not cond <= _MAX_DESIGN_COND:
            raise DomainError(f"design is rank deficient or ill conditioned (cond={cond:.3g})")

    @classmethod
    def default_design(
        cls, n: int, d: int, noise_sd: float = 1.0, design_seed: int = 0
    ) -> "FixedDesignRegression":
        """Deterministic orthonormalized design scaled so X'X = n I.

        Columns come from QR on a seeded Gaussian matrix with a fixed sign
        convention, so the design (and every closed-form null law built on
        it) is reproducible from the seed alone.
        """
        if n < d:
            raise DomainError(f"need n >= d, got n={n}, d={d}")
        raw = substream(design_seed, "regression-design").standard_normal((n, d))
        q, r = np.linalg.qr(raw)
        signs = np.sign(np.diag(r))
        signs[signs == 0.0] = 1.0
        q = q * signs
        return cls(n=n, d=d, design=math.sqrt(n) * q, noise_sd=noise_sd)

    @cached_property
    def _factor(self) -> np.ndarray:
        """Lower Cholesky factor L of the statistic's covariance
        noise_sd^2 (X'X/n)^{-1} = L L'."""
        return np.linalg.cholesky(self.n * self.noise_sd**2 * np.linalg.inv(self.gram))

    def contains(self, theta) -> bool:
        arr = as_theta(theta, self.d)
        return bool(np.all(np.isfinite(arr)))

    def _membership_message(self, theta: np.ndarray) -> str:
        return "theta must be finite"

    def sample_statistic(
        self, theta, rng: np.random.Generator, size: int = 1, coordinate: int | None = None
    ) -> np.ndarray:
        """Draws of z = sqrt(n) theta + L u with u ~ N_d(0, I_d), shape
        (size, d), or of its one ``coordinate``, shape (size, 1).

        The product runs through einsum rather than a BLAS matrix product,
        whose rounding can depend on how many rows it multiplies at once."""
        shift = math.sqrt(self.n) * self.require_member(theta)[self._columns(coordinate)]
        if coordinate is None:
            z = np.einsum("ij,kj->ik", rng.standard_normal((size, self.d)), self._factor)
        else:  # coordinate k has standard deviation ||row k of L||
            z = float(np.linalg.norm(self._factor[coordinate])) * rng.standard_normal((size, 1))
        if np.any(shift != 0.0):
            z += shift
        return z

    def ols_estimate(self, y: np.ndarray) -> np.ndarray:
        """(X'X)^{-1} X'y for a single response vector or a batch of them."""
        arr = np.asarray(y, dtype=float)
        single = arr.ndim == 1
        arr = np.atleast_2d(arr)
        if arr.shape[1] != self.n:
            raise DomainError(f"response must have length {self.n}, got {arr.shape[1]}")
        coef = np.linalg.solve(self.gram, self.design.T @ arr.T).T
        return coef[0] if single else coef

    def central_sequence(self, stats: np.ndarray) -> np.ndarray:
        """Score at the null: n^{-1/2} X'y / noise_sd^2 = (X'X/n) z / noise_sd^2."""
        z = np.asarray(stats, dtype=float)
        return z @ self.gram / (self.n * self.noise_sd**2)

    def information_matrix(self) -> np.ndarray:
        return self.gram / (self.n * self.noise_sd**2)

    def log_likelihood_ratio(self, stats: np.ndarray, theta) -> np.ndarray:
        """Log density ratio of the statistic's laws N_d(sqrt(n) theta, L L') and
        N_d(0, L L'), computed on the whitened w = L^{-1} z and v = L^{-1}
        sqrt(n) theta as w'v - v'v / 2 (the cancellation-prone
        ||w||^2 - ||w - v||^2 form is avoided). It uses the sampling factor,
        not the Gram matrix of ``central_sequence``."""
        v = np.linalg.solve(self._factor, math.sqrt(self.n) * self.require_member(theta))
        z = np.atleast_2d(np.asarray(stats, dtype=float))
        out = np.linalg.solve(self._factor, z.T).T @ v - 0.5 * float(v @ v)
        return out if np.asarray(stats).ndim > 1 else out[0]


Model = GaussianLocationModel | ScaledGaussianModel | FixedDesignRegression
