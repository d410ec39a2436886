"""Distribution kernel: normal and chi-square CDFs and quantiles, the
noncentral chi-square CDF, Gaussian total-variation distance, and a stable
log-sum-exp.

Everything here is a pure double-precision function built on stdlib ``math``
(erfc, lgamma); the package has no special-function dependency beyond numpy
arrays elsewhere. Conventions:

- The chi-square CDF is the regularized lower incomplete gamma function
  P(dof/2, x/2), computed by the classic series / continued-fraction split
  at x < dof + 1, iterated to a 1e-14 relative tolerance under a cap of
  500 + 20 sqrt(dof/2) iterations (a sum near the mean needs about
  9 sqrt(dof/2)); reaching the cap raises ConvergenceError. The factor
  x^a e^{-x} / Gamma(a) is taken from lgamma up to a = 2e4 and in Loader's
  saddle-point form above, where lgamma's cancellation would cost 1e-8 at
  dof = 1e7.
- Quantiles are solved by bracketed bisection refined with Newton steps;
  the returned value satisfies |cdf(result) - p| <= 1e-10. The chi-square
  quantile first finds its root by Newton steps from a Wilson-Hilferty
  start, then replays the bisection: a midpoint outside a band around the
  root, wide enough to hold every crossing of p that the CDF's rounding can
  produce, is decided without evaluating the CDF, so the result keeps the
  plain bisection's bits at about a third of the CDF calls. If the root
  search fails (the density underflows or Newton does not converge), every
  midpoint is evaluated.
- The noncentral chi-square CDF is the Poisson mixture of central CDFs,
  summed outward from the modal Poisson index by recurrence from a single
  central evaluation, until a bound on the uncovered Poisson mass is below
  1e-12 of the covered mass; the sum is normalized by the covered mass.
- Chi-square and noncentral chi-square values agree with an independent
  oracle within 1e-9 absolute for dof and noncentrality up to 1e7 (the
  oracle sweep in the tests); beyond that the kernels stay convergent and
  time grows like sqrt(dof) and sqrt(noncentrality).
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
_GAMMA_ITERS_PER_SQRT_A = 20
# largest a whose x^a e^{-x} / Gamma(a) is taken in the lgamma form: its
# cancellation error, about a log a ulps, is 6e-11 relative there
_LGAMMA_A_MAX = 20_000.0
_FPMIN = 1e-300
_POISSON_TAIL = 1e-12
# steps outward from the Poisson mode before noncentral_chi2_cdf gives up
_POISSON_MAX_STEPS = 10_000_000
_QUANTILE_TOL = 1e-10
# chi2_quantile's root search: Newton steps before it gives up, the relative
# part of its band, and one ulp of the CDF's scale
_ROOT_ITERS = 50
_BAND_RTOL = 1e-11
_CDF_ULPS = 2.0**-52
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# Stirling series coefficients 1/12, 1/360, 1/1260, 1/1680, 1/1188
_S0, _S1, _S2, _S3, _S4 = 1.0 / 12.0, 1.0 / 360.0, 1.0 / 1260.0, 1.0 / 1680.0, 1.0 / 1188.0


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


def _stirlerr(a: float) -> float:
    """log Gamma(a + 1) - (a + 1/2) log a + a - log sqrt(2 pi): the error of
    Stirling's formula, by its asymptotic series once a > 15 (Loader 2000)."""
    if a <= 15.0:
        return math.lgamma(a + 1.0) - (a + 0.5) * math.log(a) + a - _LOG_SQRT_2PI
    a2 = a * a
    return (_S0 - (_S1 - (_S2 - (_S3 - _S4 / a2) / a2) / a2) / a2) / a


def _bd0(a: float, y: float) -> float:
    """a log(a / y) + y - a without the cancellation of its three terms
    when a is close to y (Loader 2000)."""
    if abs(a - y) >= 0.1 * (a + y):
        return a * math.log(a / y) + y - a
    v = (a - y) / (a + y)
    s = (a - y) * v
    ej = 2.0 * a * v
    v2 = v * v
    j = 3
    while True:
        ej *= v2
        s_next = s + ej / j
        if s_next == s:
            return s
        s = s_next
        j += 2


def _poisson_pmf(a: float, y: float) -> float:
    """y^a e^{-y} / Gamma(a + 1) for a >= 0 and y > 0, in Loader's saddle-point
    form, which keeps full relative accuracy where a log y - y - lgamma(a + 1)
    loses about a log a ulps, some 1e-8 at a = 5e6."""
    if a == 0.0:
        return math.exp(-y)
    return math.exp(-_stirlerr(a) - _bd0(a, y)) / math.sqrt(2.0 * math.pi * a)


def _gamma_cap(a: float) -> int:
    # a sum at x near a needs about 9 sqrt(a) terms
    return _GAMMA_ITMAX + int(_GAMMA_ITERS_PER_SQRT_A * math.sqrt(a))


def _gamma_prefactor(a: float, x: float) -> float:
    """x^a e^{-x} / Gamma(a), the factor both central sums are scaled by.

    Up to a = _LGAMMA_A_MAX the lgamma form, which the kernel has always
    used, keeps its values bit for bit; past it that form loses about
    a log a ulps to cancellation, so the saddle-point form takes over.
    """
    if a <= _LGAMMA_A_MAX:
        return math.exp(-x + a * math.log(x) - math.lgamma(a))
    return a * _poisson_pmf(a, x)


def _gamma_unconverged(method: str, a: float, x: float, cap: int) -> ConvergenceError:
    return ConvergenceError(
        f"incomplete gamma {method} failed to converge in {cap} iterations (a={a!r}, x={x!r})"
    )


def _lower_gamma_series(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) by its power series."""
    term = 1.0 / a
    total = term
    k = a
    cap = _gamma_cap(a)
    for _ in range(cap):
        k += 1.0
        term *= x / k
        total += term
        if abs(term) < abs(total) * _GAMMA_EPS:
            return total * _gamma_prefactor(a, x)
    raise _gamma_unconverged("series", a, x, cap)


def _upper_gamma_cf(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) by Lentz's continued fraction."""
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    cap = _gamma_cap(a)
    for i in range(1, cap + 1):
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
            return h * _gamma_prefactor(a, x)
    raise _gamma_unconverged("continued fraction", a, x, cap)


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


def _normal_quantile_start(p: float) -> float:
    """Closed-form standard normal quantile within 4.5e-4 (Abramowitz and
    Stegun 26.2.23); a starting point, not a result."""
    t = math.sqrt(-2.0 * math.log(min(p, 1.0 - p)))
    z = t - (2.515517 + t * (0.802853 + t * 0.010328)) / (
        1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308))
    )
    return z if p > 0.5 else -z


def _chi2_crossing(dof: int, p: float, hi: float) -> tuple[float, float]:
    """An interval outside which ``chi2_cdf(dof, x) < p`` is known without
    evaluating the CDF: true at or below it, false at or above it.

    The root of chi2_cdf(dof, x) = p is found by Newton steps on
    chi2_cdf / chi2_pdf, kept inside (0, hi), from the larger of the
    Wilson-Hilferty cube and the lower-tail start 2 (p Gamma(a + 1))^(1/a),
    a = dof / 2, which never exceeds the root. Newton stops once its step
    is within 1e-12 relative plus the reach of the CDF's rounding: an error
    bound of 2^-52 (64 + a max(1, log x)) on the CDF (its prefactor's
    exponent carries about a log x ulps) over the density. Around the root
    the interval reaches out by a band of ten times the first part and a
    hundred times the second, which bounds with a wide margin how far in x
    the computed CDF's rounding can move its crossing of p. When the start
    is not below hi, the density underflows or Newton does not converge,
    the interval is the whole line.
    """
    a = 0.5 * dof
    h = 2.0 / (9.0 * dof)
    x = max(
        dof * (1.0 - h + _normal_quantile_start(p) * math.sqrt(h)) ** 3,
        2.0 * math.exp((math.log(p) + math.lgamma(a + 1.0)) / a),
    )
    if not x < hi:
        return -math.inf, math.inf
    for _ in range(_ROOT_ITERS):
        dens = chi2_pdf(dof, x)
        if dens < 1e-280:
            break
        # how far in x the CDF's rounding reaches
        noise = _CDF_ULPS * (64.0 + a * max(1.0, math.log(x))) / dens
        step = (chi2_cdf(dof, x) - p) / dens
        if abs(step) <= 0.1 * _BAND_RTOL * max(1.0, x) + noise:
            root = x - step
            band = _BAND_RTOL * max(1.0, root) + 100.0 * noise
            return root - band, root + band
        x = min(max(x - step, 0.5 * x), 0.5 * (x + hi))
    return -math.inf, math.inf


def chi2_quantile(dof: int, p: float) -> float:
    """Inverse chi-square CDF; satisfies chi2_cdf(dof, result) = p within 1e-10.

    The result is that of bracket doubling from dof + 10 sqrt(2 dof) + 10,
    bisection of [0, hi] down to 1e-13 relative and at most three Newton
    steps, each comparison chi2_cdf(dof, x) < p made on the computed CDF.
    The bisection is replayed from the root that ``_chi2_crossing`` finds
    first: a bracket end or midpoint outside the band around that root,
    which holds every crossing of p the CDF's rounding can produce, is
    decided without evaluating the CDF. Only the last dozen or so midpoints
    fall inside the band, so the result is the plain bisection's double at
    about a third of its CDF calls (13 to 23 against 46 to 48 at p = 0.95
    for dof up to 1e7). Where the root search fails, every point is
    evaluated.
    """
    dof = _check_dof(dof)
    p = float(p)
    if not (0.0 < p < 1.0):
        raise DomainError(f"chi2_quantile requires p in (0, 1), got {p!r}")
    hi = dof + 10.0 * math.sqrt(2.0 * dof) + 10.0
    cut_lo, cut_hi = _chi2_crossing(dof, p, hi)

    def below(x: float) -> bool:
        if x <= cut_lo:
            return True
        if x >= cut_hi:
            return False
        return chi2_cdf(dof, x) < p

    while below(hi):
        hi *= 2.0
        if hi > 1e12:
            raise DomainError(f"chi2_quantile bracket search failed for p={p!r}")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if below(mid):
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


def _poisson_unconverged(dof: int, lam: float, x: float) -> ConvergenceError:
    return ConvergenceError(
        f"noncentral_chi2_cdf series failed to converge in {_POISSON_MAX_STEPS} steps "
        f"(dof={dof}, noncentrality={lam!r}, x={x!r})"
    )


def noncentral_chi2_cdf(dof: int, noncentrality: float, x: float) -> float:
    """Noncentral chi-square CDF: the Poisson(noncentrality / 2) mixture of
    central chi-square CDFs with dof + 2k degrees of freedom.

    One central P(dof/2 + k0, x/2) is evaluated at the Poisson mode k0; the
    other terms follow from it by the O(1) recurrences
    P(a + 1, y) = P(a, y) - g(a) and g(a + 1) = g(a) y / (a + 1), with
    g(a) = y^a e^{-y} / Gamma(a + 1), walking up and down from the mode
    (Ding 1992, AS 275; Benton and Krishnamoorthy 2003). Each direction stops
    once a geometric bound on its remaining Poisson mass is below 1e-12 of
    the mass covered so far, and the sum is divided by that covered mass, so
    the rounding of the mode weight cancels. The cost is O(sqrt(noncentrality)) steps plus one
    central evaluation; values agree with scipy within 1e-9 for dof and
    noncentrality up to 1e7. A walk longer than _POISSON_MAX_STEPS in either
    direction raises ConvergenceError.
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
    if math.isinf(x):
        return 1.0

    half = 0.5 * lam
    y = 0.5 * x
    k0 = int(half)
    a0 = 0.5 * dof + k0
    w0 = _poisson_pmf(k0, half)
    p0 = _reg_lower_gamma(a0, y)
    g0 = _poisson_pmf(a0, y)
    total = w0 * p0
    covered = w0

    # upward: from (w_k, P(a, y), g(a)) to k + 1, a + 1; the weights past k
    # shrink by at most half / (k + 1) < 1 a step, so they sum to at most
    # w_k (k + 1) / (k + 1 - half)
    w, p, g, a, k = w0, p0, g0, a0, k0
    while True:
        k += 1
        w *= half / k
        if w * (k + 1) < _POISSON_TAIL * covered * (k + 1 - half):
            break
        p -= g
        a += 1.0
        g *= y / a
        total += w * p
        covered += w
        if k - k0 > _POISSON_MAX_STEPS:
            raise _poisson_unconverged(dof, lam, x)

    # downward: from (w_k, P(a, y), g(a)) to k - 1, a - 1; the weights from
    # k down sum to at most w_k half / (half - k)
    w, p, g, a, k = w0, p0, g0, a0, k0
    while k > 0:
        w *= k / half
        k -= 1
        if w * half < _POISSON_TAIL * covered * (half - k):
            break
        g *= a / y
        a -= 1.0
        p += g
        total += w * p
        covered += w
        if k0 - k > _POISSON_MAX_STEPS:
            raise _poisson_unconverged(dof, lam, x)
    return clamp01(total / covered)


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
