"""Constructors for the concrete tests plus the power enhancement combinator.

Every test is a ``TestFunction``: a deterministic map from an observed
statistic to a rejection value in [0, 1], carrying enough metadata (name,
input dimension and kind) for the Monte Carlo engine to treat it as a black
box. Tests return values rather than booleans so randomized tests are
representable; the engine averages the values directly, which is an
unbiased, lower-variance estimate of the same rejection probability.

The string mini-grammar ``name(:key=value,...)`` with ``enhance(a,b)``
composition is parsed here as well (see ``make_test``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .distributions import (
    chi2_cdf,
    chi2_quantile,
    clamp01,
    noncentral_chi2_cdf,
    std_normal_cdf,
    std_normal_quantile,
)
from .errors import DomainError, SpecError
from .models import FixedDesignRegression, GaussianLocationModel, spike_magnitude
from .rng import substream

_RANGE_SLACK = 1e-12

# (z, shift) -> cols(lo, hi); see TestFunction
SpikeKernel = Callable[[np.ndarray, float], Callable[[int, int], np.ndarray]]


def _unit_values(name: str, vals) -> np.ndarray:
    vals = np.asarray(vals, dtype=float)
    # written so that a NaN (which min/max propagate) fails the bound too
    if not (vals.min(initial=0.0) >= -_RANGE_SLACK and vals.max(initial=0.0) <= 1.0 + _RANGE_SLACK):
        raise DomainError(f"test {name!r} produced rejection values that are NaN or outside [0, 1]")
    return np.clip(vals, 0.0, 1.0)


@dataclass(frozen=True)
class TestFunction:
    """A measurable test phi: statistic -> [0, 1].

    ``consumes`` is "statistic" for tests of the model's sufficient
    statistic and "observations" for tests that need raw per-observation
    data (one batch element is then an (n_obs, dim) matrix). Construction
    rejects any other value, so the sampling loops need not. An observation
    batch may be a non-contiguous view: the model draws it coordinate-major
    (see ``GaussianLocationModel.sample_observations``).

    ``batch`` maps rows independently: a row's value depends only on that
    row, never on the other rows or on the batch size. The Monte Carlo
    engine relies on this when it evaluates a block in row chunks. The
    built-in tests hold it bit for bit; a user-supplied test built on a BLAS
    product holds it only up to rounding of a statistic that lands on its
    threshold, since such a product may round differently for another batch
    shape.

    ``spike_kernel`` is optional and serves the spike scan. Built from an
    (m, dim) row chunk of statistics ``z`` (not a whole block: the scan
    builds one kernel per chunk) and a shift ``s`` in O(m * dim), it
    returns ``cols(lo, hi)``: an (m, hi - lo) array whose column ``j`` holds
    the rejection values of ``z`` with coordinate ``lo + j`` increased by
    ``s``. It must agree with ``batch`` on those shifted statistics (up to
    floating-point rounding of a statistic that lands on its threshold), so
    a test whose ``batch`` is replaced must drop or replace its kernel. It
    may modify ``z`` while it builds if it restores it before returning.

    ``coordinate`` is optional and serves the Monte Carlo engine. It is the
    0-based index of the only statistic coordinate ``batch`` reads: the test
    must give the same values on any two statistics that agree there. The
    engine then draws that one column and evaluates its zero-copy broadcast
    to full width, so ``batch`` must not write to its input. A test whose
    ``batch`` is replaced must drop or replace its coordinate too.
    """

    name: str
    dim: int
    batch: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    consumes: str = "statistic"
    spike_kernel: SpikeKernel | None = field(default=None, repr=False)
    coordinate: int | None = None

    def __post_init__(self) -> None:
        if self.consumes not in ("statistic", "observations"):
            raise DomainError(f"test {self.name!r}: unknown input kind {self.consumes!r}")
        if self.coordinate is not None:
            if self.consumes != "statistic" or not 0 <= self.coordinate < self.dim:
                raise DomainError(
                    f"test {self.name!r}: coordinate {self.coordinate!r} is not a statistic "
                    f"coordinate in [0, {self.dim})"
                )

    def evaluate(self, z) -> float:
        """Rejection value for a single observed statistic."""
        arr = np.asarray(z, dtype=float)
        vals = self.evaluate_batch(arr[np.newaxis, ...])
        return float(vals[0])

    def evaluate_batch(self, draws: np.ndarray) -> np.ndarray:
        """Vectorized evaluation over the leading axis; validates range."""
        return _unit_values(self.name, self.batch(np.asarray(draws, dtype=float)))

    def spike_columns(self, z: np.ndarray, shift: float) -> Callable[[int, int], np.ndarray] | None:
        """The ``spike_kernel`` column function for statistics ``z``, with the
        range check and clipping of ``evaluate_batch``; None without a kernel."""
        if self.spike_kernel is None:
            return None
        cols = self.spike_kernel(z, shift)
        return lambda lo, hi: _unit_values(self.name, cols(lo, hi))


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must be in (0, 1), got {alpha!r}")
    return alpha


def chi2_euclidean_test(n: int, d: int, alpha: float) -> TestFunction:
    """Reject when the squared Euclidean norm of the statistic exceeds the
    1 - alpha central chi-square quantile. Exact size alpha for every n."""
    alpha = _check_alpha(alpha)
    threshold = chi2_quantile(d, 1.0 - alpha)

    def batch(z: np.ndarray) -> np.ndarray:
        return (np.einsum("ij,ij->i", z, z) > threshold).astype(float)

    def spike_kernel(z: np.ndarray, shift: float):
        # ||z + s e_i||^2 = ||z||^2 + 2 s z_i + s^2
        base = np.einsum("ij,ij->i", z, z)[:, np.newaxis] + shift * shift
        return lambda lo, hi: (base + 2.0 * shift * z[:, lo:hi] > threshold).astype(float)

    return TestFunction(name=f"chi2(alpha={alpha:g})", dim=d, batch=batch, spike_kernel=spike_kernel)


def chi2_exact_power(n: int, d: int, alpha: float, theta) -> float:
    """Closed-form power of the chi-square test: noncentrality n * ||theta||^2."""
    alpha = _check_alpha(alpha)
    arr = np.asarray(theta, dtype=float)
    lam = n * float(arr @ arr)
    return clamp01(1.0 - noncentral_chi2_cdf(d, lam, chi2_quantile(d, 1.0 - alpha)))


def _truncation_efficiency(d: int, C: float) -> float:
    """v = chi2_cdf(d + 2, C^2): the share of the score variance that
    truncation at radius C keeps (1 for C = inf)."""
    if not C > 0.0:
        raise DomainError(f"truncation radius must be > 0, got {C!r}")
    return 1.0 if math.isinf(C) else chi2_cdf(d + 2, C * C)


def tscore_limit_power(n: int, d: int, alpha: float, C: float, theta) -> float:
    """Limiting local power of ``truncated_score_test`` at radius ``C``.

    With h = sqrt(n) theta held fixed as n grows, the truncated score has
    mean v h + O(||h||^3 / n) and covariance tending to v I_d, where
    v = chi2_cdf(d + 2, C^2) is the efficiency the truncation costs (v = 1
    for C = inf). The power then tends to 1 - F(chi2_quantile(d, 1 - alpha))
    for F the noncentral chi-square law with d degrees of freedom and
    noncentrality v ||h||^2: the chi-square test's power with its
    noncentrality scaled by v. This is a limit, not the finite-n power.
    """
    # the chi-square test's power at v * n observations
    return chi2_exact_power(_truncation_efficiency(d, float(C)) * n, d, alpha, theta)


def _spike_threshold(n: int, d: int) -> float:
    # (sqrt(n) * a_n)^(1/2); the floored magnitude keeps it >= 1 for small d
    return math.sqrt(math.sqrt(n) * spike_magnitude(n, d))


def spike_z_test(n: int, d: int, i: int) -> TestFunction:
    """Two-sided z-test on coordinate ``i`` (1-based) at the spike threshold
    (log(d)/2)^{1/4}; its size tends to 0 while it stays consistent against
    the matching coordinate spike."""
    if not 1 <= i <= d:
        raise DomainError(f"spike coordinate must be in [1, {d}], got {i}")
    threshold = _spike_threshold(n, d)
    idx = i - 1

    def batch(z: np.ndarray) -> np.ndarray:
        return (np.abs(z[:, idx]) > threshold).astype(float)

    def spike_kernel(z: np.ndarray, shift: float):
        # a shift elsewhere leaves the value unchanged
        base = batch(z)[:, np.newaxis]
        hit = np.abs(z[:, idx] + shift) > threshold

        def cols(lo: int, hi: int) -> np.ndarray:
            out = np.repeat(base, hi - lo, axis=1)
            if lo <= idx < hi:
                out[:, idx - lo] = hit
            return out

        return cols

    return TestFunction(
        name=f"spike(i={i})",
        dim=d,
        batch=batch,
        spike_kernel=spike_kernel,
        coordinate=idx,
    )


def spike_z_exact_size(n: int, d: int) -> float:
    """Exact null rejection probability of the spike z-test."""
    return clamp01(2.0 * std_normal_cdf(-_spike_threshold(n, d)))


def spike_z_exact_power_at_spike(n: int, d: int) -> float:
    """Exact power of the spike z-test against its own coordinate spike."""
    shift = math.sqrt(n) * spike_magnitude(n, d)
    thr = _spike_threshold(n, d)
    return clamp01(std_normal_cdf(shift - thr) + std_normal_cdf(-shift - thr))


def sup_norm_test(n: int, d: int) -> TestFunction:
    """Reject when max_i |z_i| exceeds sqrt(2 log d); the union bound puts the
    size below 2 d Phi(-sqrt(2 log d)), which decreases in d."""
    if d < 2:
        raise DomainError(f"sup-norm test requires d >= 2, got {d}")
    threshold = math.sqrt(2.0 * math.log(d))

    def batch(z: np.ndarray) -> np.ndarray:
        return (np.abs(z).max(axis=1) > threshold).astype(float)

    def spike_kernel(z: np.ndarray, shift: float):
        # max_j |z_j + s 1{j = i}| = max(|z_i + s|, largest |z_j| over j != i),
        # which is the runner-up at the row's top coordinate, the top elsewhere;
        # found without an |z| copy of the block
        rows = np.arange(z.shape[0])
        up, down = z.argmax(axis=1), z.argmin(axis=1)
        top_idx = np.where(z[rows, up] >= -z[rows, down], up, down)
        saved = z[rows, top_idx]
        top = np.abs(saved)[:, np.newaxis]
        z[rows, top_idx] = 0.0
        try:
            runner_up = np.maximum(z.max(axis=1), -z.min(axis=1))[:, np.newaxis]
        finally:
            z[rows, top_idx] = saved
        top_idx = top_idx[:, np.newaxis]

        def cols(lo: int, hi: int) -> np.ndarray:
            others = np.where(top_idx == np.arange(lo, hi), runner_up, top)
            return (np.maximum(np.abs(z[:, lo:hi] + shift), others) > threshold).astype(float)

        return cols

    return TestFunction(name="supnorm", dim=d, batch=batch, spike_kernel=spike_kernel)


def sup_norm_exact_size(d: int) -> float:
    """Exact size under independent standard normal coordinates,
    1 - (1 - 2 Phi(-t))^d at t = sqrt(2 log d), in the expm1/log1p form that
    keeps full relative accuracy where (1 - 2 Phi(-t))^d rounds near 1."""
    threshold = math.sqrt(2.0 * math.log(d))
    return clamp01(-math.expm1(d * math.log1p(-2.0 * std_normal_cdf(-threshold))))


def halfspace_test(n: int, d: int, alpha: float = 0.05, seed: int = 0) -> TestFunction:
    """Reject when the projection on a seeded random unit direction exceeds the
    1 - alpha normal quantile; exact size alpha. A stand-in for an arbitrary
    user-supplied test in the gap-bound checks."""
    alpha = _check_alpha(alpha)
    direction = substream(seed, "halfspace-direction").standard_normal(d)
    direction /= np.linalg.norm(direction)
    threshold = std_normal_quantile(1.0 - alpha)

    # a per-row reduction rather than a BLAS product, whose rounding can
    # depend on how many rows it multiplies at once
    def project(z: np.ndarray) -> np.ndarray:
        return (z * direction).sum(axis=1)

    def batch(z: np.ndarray) -> np.ndarray:
        return (project(z) > threshold).astype(float)

    def spike_kernel(z: np.ndarray, shift: float):
        # (z + s e_i) . u = z . u + s u_i
        proj = project(z)[:, np.newaxis]
        return lambda lo, hi: (proj + shift * direction[lo:hi] > threshold).astype(float)

    return TestFunction(
        name=f"halfspace(alpha={alpha:g},seed={seed})",
        dim=d,
        batch=batch,
        spike_kernel=spike_kernel,
    )


def constant_test(d: int, value: float = 1.0) -> TestFunction:
    """The trivial test phi = value (phi = 1 is never enhanceable)."""
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise DomainError(f"constant test value must be in [0, 1], got {value!r}")

    def batch(z: np.ndarray) -> np.ndarray:
        return np.full(z.shape[0], value)

    def spike_kernel(z: np.ndarray, shift: float):
        return lambda lo, hi: np.full((z.shape[0], hi - lo), value)

    return TestFunction(
        name="one" if value == 1.0 else f"const({value:g})",
        dim=d,
        batch=batch,
        spike_kernel=spike_kernel,
    )


def enhance(phi: TestFunction, nu: TestFunction) -> TestFunction:
    """Power enhancement combinator psi = min(phi + nu, 1).

    psi dominates both components pointwise, so it has nowhere smaller power,
    and its size is at most size(phi) + size(nu). The dominance is asserted
    on every evaluated batch and spike-kernel column block. psi has a spike
    kernel when both components do, and reads a single coordinate when both
    components read the same one.
    """
    if phi.dim != nu.dim:
        raise DomainError(f"statistic dimensions differ: {phi.dim} vs {nu.dim}")
    if phi.consumes != nu.consumes:
        raise DomainError("cannot combine tests consuming different inputs")

    def combine(base: np.ndarray, comp: np.ndarray) -> np.ndarray:
        vals = np.minimum(base + comp, 1.0)
        if np.any(vals < base) or np.any(vals < comp):
            raise DomainError("enhancement dominance violated")
        return vals

    def batch(z: np.ndarray) -> np.ndarray:
        return combine(phi.evaluate_batch(z), nu.evaluate_batch(z))

    spike_kernel = None
    if phi.spike_kernel is not None and nu.spike_kernel is not None:

        def spike_kernel(z: np.ndarray, shift: float):
            phi_cols, nu_cols = phi.spike_columns(z, shift), nu.spike_columns(z, shift)
            return lambda lo, hi: combine(phi_cols(lo, hi), nu_cols(lo, hi))

    return TestFunction(
        name=f"enhance({phi.name},{nu.name})",
        dim=phi.dim,
        batch=batch,
        consumes=phi.consumes,
        spike_kernel=spike_kernel,
        coordinate=phi.coordinate if phi.coordinate == nu.coordinate else None,
    )


def truncated_score_test(
    model: GaussianLocationModel, alpha: float, C: float | None = None
) -> TestFunction:
    """Norm test of the truncated, centered score.

    The per-observation score of the Gaussian location model at the null is
    the observation itself, truncated to L_C(x) = x * 1{||x|| <= C}. The test
    statistic is ||n^{-1/2} sum_i L_C(X_i)|| (the null expectation of L_C is
    exactly zero by symmetry). Its limiting null law is the norm of
    N_d(0, M) with the truncated-score covariance M = c I_d,
    c = chi2_cdf(d + 2, C^2). That norm is sqrt(c) times a chi variable with
    d degrees of freedom, so the critical value
    sqrt(c * chi2_quantile(d, 1 - alpha)) is the exact 1 - alpha quantile of
    the limiting law.

    Default C = 3 sqrt(d) keeps more than 98% of the score mass untruncated
    at desk-scale d, so M stays well conditioned.
    """
    alpha = _check_alpha(alpha)
    d = model.d
    n = model.n
    if C is None:
        C = 3.0 * math.sqrt(d)
    C = float(C)
    cov_coef = _truncation_efficiency(d, C)
    if cov_coef < 1e-8:
        raise DomainError(
            f"truncated-score covariance is numerically singular: C={C:g} keeps "
            f"only a {cov_coef:.3g} fraction of the score variance; increase C"
        )
    q_alpha = math.sqrt(cov_coef * chi2_quantile(d, 1.0 - alpha))

    def batch(x: np.ndarray) -> np.ndarray:
        if x.ndim != 3 or x.shape[1] != n or x.shape[2] != d:
            raise DomainError(f"expected observation batches of shape (m, {n}, {d}), got {x.shape}")
        # numpy orders a reduction by memory layout, so every batch is read
        # coordinate-major, the layout the model draws (no copy then)
        xt = np.ascontiguousarray(x.transpose(0, 2, 1))
        if math.isinf(C):
            scores = xt.sum(axis=2)
        else:
            keep = np.einsum("ikj,ikj->ij", xt, xt) <= C * C
            scores = np.einsum("ikj,ij->ik", xt, keep.astype(float))
        stat = np.linalg.norm(scores, axis=1) / math.sqrt(n)
        return (stat >= q_alpha).astype(float)

    return TestFunction(
        name=f"tscore(alpha={alpha:g},C={C:g})",
        dim=d,
        batch=batch,
        consumes="observations",
    )


def wald_test(model: FixedDesignRegression, C: float) -> TestFunction:
    """Reject when ||z|| >= C for the model's statistic z = sqrt(n) * OLS
    estimate; C = 0 gives the constant test 1. With the orthonormal default
    design and unit noise z is N_d(sqrt(n) theta, I_d), so size and power
    reduce to noncentral chi-square closed forms."""
    C = float(C)
    if C < 0.0:
        raise DomainError(f"wald threshold must be >= 0, got {C!r}")

    def batch(z: np.ndarray) -> np.ndarray:
        return (np.linalg.norm(z, axis=1) >= C).astype(float)

    return TestFunction(name=f"wald(C={C:g})", dim=model.d, batch=batch)


def wald_test_at_level(model: FixedDesignRegression, alpha: float) -> TestFunction:
    """Wald test with C = sqrt(chi2_quantile(d, 1 - alpha)); exact size alpha
    under the orthonormal default design with unit noise."""
    alpha = _check_alpha(alpha)
    test = wald_test(model, math.sqrt(chi2_quantile(model.d, 1.0 - alpha)))
    return replace(test, name=f"wald(alpha={alpha:g})")


# ---------------------------------------------------------------------------
# test-spec mini-grammar:  name(:key=value(,key=value)*)?  |  enhance(a,b)
# ---------------------------------------------------------------------------

_INT_KEYS = {"i", "seed"}


def _parse_kv(args: str, allowed: set[str], spec: str) -> dict:
    out: dict = {}
    if not args:
        return out
    for part in args.split(","):
        if "=" not in part:
            raise SpecError(f"malformed option {part!r} in test spec {spec!r}")
        key, _, raw = part.partition("=")
        key = key.strip()
        if key not in allowed:
            raise SpecError(f"unknown option {key!r} for test spec {spec!r}")
        try:
            out[key] = int(raw) if key in _INT_KEYS else float(raw)
        except ValueError as exc:
            raise SpecError(f"bad value {raw!r} for option {key!r} in {spec!r}") from exc
    return out


def _split_top_level(body: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for pos, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise SpecError(f"unbalanced parentheses in {body!r}")
        elif ch == "," and depth == 0:
            parts.append(body[start:pos])
            start = pos + 1
    parts.append(body[start:])
    return parts


def make_test(spec: str, n: int, d: int, *, model=None) -> TestFunction:
    """Build a TestFunction from its string specification.

    Examples: ``chi2:alpha=0.05``, ``spike:i=3``, ``supnorm``,
    ``halfspace:alpha=0.05,seed=7``, ``tscore:alpha=0.05,C=4.2``, ``one``,
    ``wald:alpha=0.05`` (regression model required),
    ``enhance(chi2:alpha=0.05,supnorm)``.
    """
    spec = spec.strip()
    if not spec:
        raise SpecError("empty test spec")
    if spec.startswith("enhance(") and spec.endswith(")"):
        inner = _split_top_level(spec[len("enhance(") : -1])
        if len(inner) != 2:
            raise SpecError(f"enhance(...) takes exactly two components, got {spec!r}")
        return enhance(
            make_test(inner[0], n, d, model=model),
            make_test(inner[1], n, d, model=model),
        )

    name, _, args = spec.partition(":")
    name = name.strip()
    if name == "chi2":
        opts = _parse_kv(args, {"alpha"}, spec)
        return chi2_euclidean_test(n, d, opts.get("alpha", 0.05))
    if name == "spike":
        opts = _parse_kv(args, {"i"}, spec)
        return spike_z_test(n, d, opts.get("i", 1))
    if name == "supnorm":
        _parse_kv(args, set(), spec)
        return sup_norm_test(n, d)
    if name == "halfspace":
        opts = _parse_kv(args, {"alpha", "seed"}, spec)
        return halfspace_test(n, d, opts.get("alpha", 0.05), opts.get("seed", 0))
    if name == "one":
        _parse_kv(args, set(), spec)
        return constant_test(d)
    if name == "tscore":
        opts = _parse_kv(args, {"alpha", "C"}, spec)
        base = model if isinstance(model, GaussianLocationModel) else GaussianLocationModel(n=n, d=d)
        return truncated_score_test(base, opts.get("alpha", 0.05), opts.get("C"))
    if name == "wald":
        opts = _parse_kv(args, {"alpha", "C"}, spec)
        if not isinstance(model, FixedDesignRegression):
            raise SpecError("wald test requires a fixed-design regression model (--model regression)")
        if "C" in opts:
            return wald_test(model, opts["C"])
        return wald_test_at_level(model, opts.get("alpha", 0.05))
    raise SpecError(f"unknown test name {name!r} in spec {spec!r}")
