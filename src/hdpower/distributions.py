"""Distribution kernel: normal and chi-square CDFs and quantiles, the
noncentral chi-square CDF, Gaussian total-variation distance, and a stable
log-sum-exp.

Everything here is a pure double-precision function built on stdlib ``math``
(erfc, lgamma); the package has no special-function dependency beyond numpy
arrays elsewhere. Conventions:

- The chi-square CDF is the regularized lower incomplete gamma function
  P(dof/2, x/2), computed by the classic series / continued-fraction split
  at x < dof + 1, iterated to a 1e-14 relative tolerance.
- Quantiles are solved by bracketed bisection refined with Newton steps;
  the returned value satisfies |cdf(result) - p| <= 1e-10.
- The noncentral chi-square CDF is the Poisson mixture of central CDFs,
  summed outward from the modal Poisson index until the remaining Poisson
  tail mass is below 1e-12.
- Results that are probabilities are clamped to [0, 1] after arithmetic to
  guard rounding at extreme tails.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .errors import ConvergenceError, DomainError

_SQRT2 = math.sqrt(2.0)
_GAMMA_EPS = 1e-15
_GAMMA_ITMAX = 500
_FPMIN = 1e-300
_POISSON_TAIL = 1e-12
# steps outward from the Poisson mode before noncentral_chi2_cdf gives up
_POISSON_MAX_STEPS = 10_000_000
_QUANTILE_TOL = 1e-10


def clamp01(value: float) -> float:
    """Clamp a nearly-in-range probability into [0, 1]."""
    if value < 0.0:
        return 0.0
    if value > 1.0:
        return 1.0
    return value


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF via erfc, accurate to well below 1e-12 absolute.

    erfc keeps full relative accuracy in the lower tail, where the naive
    0.5 * (1 + erf(.)) form would cancel.
    """
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"std_normal_cdf requires finite input, got {x!r}")
    return clamp01(0.5 * math.erfc(-x / _SQRT2))


def std_normal_pdf(x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"std_normal_pdf requires finite input, got {x!r}")
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def std_normal_quantile(p: float) -> float:
    """Inverse standard normal CDF on (0, 1).

    Bisection on [-40, 40] down to a tight bracket, then Newton polishing
    while the density is large enough to trust.
    """
    p = float(p)
    if not (0.0 < p < 1.0):
        raise DomainError(f"std_normal_quantile requires p in (0, 1), got {p!r}")
    lo, hi = -40.0, 40.0
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if std_normal_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12 * max(1.0, abs(mid)):
            break
    x = 0.5 * (lo + hi)
    for _ in range(3):
        dens = std_normal_pdf(x)
        if dens < 1e-280:
            break
        x -= (std_normal_cdf(x) - p) / dens
    return x


def _lower_gamma_series(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) by its power series."""
    term = 1.0 / a
    total = term
    k = a
    for _ in range(_GAMMA_ITMAX):
        k += 1.0
        term *= x / k
        total += term
        if abs(term) < abs(total) * _GAMMA_EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _upper_gamma_cf(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) by Lentz's continued fraction."""
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _GAMMA_ITMAX + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _GAMMA_EPS:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _reg_lower_gamma(a: float, x: float) -> float:
    if x <= 0.0:
        return 0.0
    if x < a + 1.0:
        return clamp01(_lower_gamma_series(a, x))
    return clamp01(1.0 - _upper_gamma_cf(a, x))


def _check_dof(dof: int) -> int:
    if not isinstance(dof, (int,)) or isinstance(dof, bool):
        raise DomainError(f"degrees of freedom must be an integer, got {dof!r}")
    if dof < 1:
        raise DomainError(f"degrees of freedom must be >= 1, got {dof}")
    return dof


def chi2_cdf(dof: int, x: float) -> float:
    """Chi-square CDF with ``dof`` degrees of freedom; 0 for x <= 0."""
    dof = _check_dof(dof)
    x = float(x)
    if math.isnan(x):
        raise DomainError("chi2_cdf requires a non-NaN evaluation point")
    if x <= 0.0:
        return 0.0
    if math.isinf(x):
        return 1.0
    return _reg_lower_gamma(0.5 * dof, 0.5 * x)


def chi2_pdf(dof: int, x: float) -> float:
    dof = _check_dof(dof)
    x = float(x)
    if x <= 0.0:
        return 0.0
    a = 0.5 * dof
    return math.exp((a - 1.0) * math.log(x) - 0.5 * x - a * math.log(2.0) - math.lgamma(a))


def chi2_quantile(dof: int, p: float) -> float:
    """Inverse chi-square CDF; satisfies chi2_cdf(dof, result) = p within 1e-10."""
    dof = _check_dof(dof)
    p = float(p)
    if not (0.0 < p < 1.0):
        raise DomainError(f"chi2_quantile requires p in (0, 1), got {p!r}")
    hi = dof + 10.0 * math.sqrt(2.0 * dof) + 10.0
    while chi2_cdf(dof, hi) < p:
        hi *= 2.0
        if hi > 1e12:
            raise DomainError(f"chi2_quantile bracket search failed for p={p!r}")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if chi2_cdf(dof, mid) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13 * max(1.0, mid):
            break
    x = 0.5 * (lo + hi)
    for _ in range(3):
        dens = chi2_pdf(dof, x)
        if dens < 1e-280:
            break
        step = (chi2_cdf(dof, x) - p) / dens
        candidate = x - step
        if candidate <= 0.0:
            break
        x = candidate
        if abs(step) < _QUANTILE_TOL * max(1.0, x):
            break
    return x


def noncentral_chi2_cdf(dof: int, noncentrality: float, x: float) -> float:
    """Noncentral chi-square CDF as a Poisson mixture of central CDFs.

    Terms are accumulated outward from the modal Poisson index and the sum
    stops once the uncovered Poisson mass drops below 1e-12, which bounds
    the truncation error by that mass.
    """
    dof = _check_dof(dof)
    lam = float(noncentrality)
    if not math.isfinite(lam) or lam < 0.0:
        raise DomainError(f"noncentrality must be finite and >= 0, got {noncentrality!r}")
    x = float(x)
    if math.isnan(x):
        raise DomainError("noncentral_chi2_cdf requires a non-NaN evaluation point")
    if lam == 0.0:
        return chi2_cdf(dof, x)
    if x <= 0.0:
        return 0.0

    half = 0.5 * lam
    k0 = int(half)
    log_w0 = -half + k0 * math.log(half) - math.lgamma(k0 + 1.0)
    w0 = math.exp(log_w0)

    total = w0 * chi2_cdf(dof + 2 * k0, x)
    covered = w0

    w_up = w0
    k_up = k0
    w_down = w0
    k_down = k0
    while covered < 1.0 - _POISSON_TAIL:
        k_up += 1
        w_up *= half / k_up
        total += w_up * chi2_cdf(dof + 2 * k_up, x)
        covered += w_up
        if k_down > 0:
            w_down *= k_down / half
            k_down -= 1
            total += w_down * chi2_cdf(dof + 2 * k_down, x)
            covered += w_down
        if k_up - k0 > _POISSON_MAX_STEPS:
            raise ConvergenceError(
                f"noncentral_chi2_cdf series failed to converge in {_POISSON_MAX_STEPS} steps "
                f"(dof={dof}, noncentrality={lam!r}, x={x!r})"
            )
    return clamp01(total)


def gaussian_tv(mean_shift_norm: float) -> float:
    """Total variation distance between N(mu1, I) and N(mu2, I) with
    ||mu1 - mu2|| equal to the given norm: 2 * Phi(norm / 2) - 1."""
    delta = float(mean_shift_norm)
    if not math.isfinite(delta) or delta < 0.0:
        raise DomainError(f"mean shift norm must be finite and >= 0, got {mean_shift_norm!r}")
    return clamp01(2.0 * std_normal_cdf(0.5 * delta) - 1.0)


def log_sum_exp(values: Sequence[float]) -> float:
    """log(sum(exp(v))) with the maximum factored out; exact for one element."""
    vals = [float(v) for v in values]
    if not vals:
        raise DomainError("log_sum_exp requires a nonempty sequence")
    if len(vals) == 1:
        return vals[0]
    m = max(vals)
    if math.isinf(m) and m < 0:
        return m
    return m + math.log(math.fsum(math.exp(v - m) for v in vals))
