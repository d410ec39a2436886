"""Monte Carlo harness: regime runner and the diagnostic demonstrations
(consistency criterion, LAN remainder, embedding equivalence, the scaled
model's non-testability curve, and the end-to-end enhanceability demo).

Every operation is deterministic given the McConfig master seed and produces
identical results for any worker count: replication blocks own substreams
keyed by (seed, tag, block) and all reductions happen in block order.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .distributions import chi2_quantile, gaussian_tv, noncentral_chi2_cdf
from .errors import DomainError, SpecError
from .mc import McConfig, estimate_rejection_prob, estimate_rejection_probs, map_blocks
from .mixture import find_blind_spot
from .models import FixedDesignRegression, GaussianLocationModel, embed
from .testfuncs import (
    enhance,
    make_test,
    spike_z_exact_power_at_spike,
    spike_z_exact_size,
    spike_z_test,
)

__all__ = [
    "RegimeSpec",
    "ResultRow",
    "consistency_diagnostic",
    "embedding_equivalence_check",
    "enhanceability_demo",
    "example2_nontestability_curve",
    "ks_two_sample",
    "lan_remainder_check",
    "rows_to_csv",
    "run_regime",
]

RESULT_COLUMNS = (
    "n",
    "d",
    "test",
    "theta",
    "size",
    "power",
    "enhanced_power",
    "gap_bound",
)


@dataclass(frozen=True)
class RegimeSpec:
    """Dimension rule, sample-size grid, and level for one experiment sweep.

    ``d_rule`` is one of ``fixed:<d>``, ``linear``, ``power:<gamma>`` or
    ``ceil_log:<c>``; all produce non-decreasing dimension sequences.
    """

    d_rule: str
    n_grid: tuple[int, ...]
    alpha: float = 0.05

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        if any(n < 1 for n in self.n_grid):
            raise SpecError(f"sample sizes must be >= 1, got {self.n_grid}")
        if list(self.n_grid) != sorted(self.n_grid):
            raise SpecError("n_grid must be non-decreasing")
        if not (0.0 < self.alpha < 1.0):
            raise SpecError(f"alpha must be in (0, 1), got {self.alpha!r}")
        self._parse_rule()

    def _parse_rule(self) -> tuple[str, float]:
        kind, _, arg = self.d_rule.partition(":")
        kind = kind.strip()
        if kind == "linear":
            if arg:
                raise SpecError("d-rule 'linear' takes no argument")
            return kind, 0.0
        if kind not in ("fixed", "power", "ceil_log"):
            raise SpecError(f"unknown d-rule {self.d_rule!r}")
        try:
            value = float(arg)
        except ValueError as exc:
            raise SpecError(f"d-rule {self.d_rule!r} needs a numeric argument") from exc
        if kind == "fixed" and (value < 1 or value != int(value)):
            raise SpecError(f"fixed d-rule needs a positive integer, got {arg!r}")
        if kind in ("power", "ceil_log") and value <= 0:
            raise SpecError(f"d-rule {self.d_rule!r} needs a positive argument")
        return kind, value

    def d_of(self, n: int) -> int:
        kind, value = self._parse_rule()
        if kind == "fixed":
            return int(value)
        if kind == "linear":
            return n
        if kind == "power":
            return max(1, math.ceil(n**value))
        return max(1, math.ceil(value * math.log(n)))

    @property
    def unbounded(self) -> bool:
        kind, _ = self._parse_rule()
        return kind != "fixed"


@dataclass(frozen=True)
class ResultRow:
    n: int
    d: int
    test: str
    theta: str
    size: float
    power: float
    enhanced_power: float | None
    gap_bound: float | None
    wall_time_s: float | None = None

    def __post_init__(self) -> None:
        for label in ("size", "power", "enhanced_power"):
            value = getattr(self, label)
            if value is not None and not 0.0 <= value <= 1.0:
                raise DomainError(f"{label} = {value!r} outside [0, 1]")


def rows_to_csv(rows: list[dict[str, Any]], columns) -> str:
    """RFC-4180 CSV with a header row: one line per row, cells in ``columns``
    order. ``None`` is an empty cell, a float is written with ``repr`` (so it
    round-trips exactly), anything else with ``str``."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(columns)
    for row in rows:
        cells = []
        for column in columns:
            value = row[column]
            if value is None:
                cells.append("")
            elif isinstance(value, float):
                cells.append(repr(float(value)))
            else:
                cells.append(str(value))
        writer.writerow(cells)
    return buf.getvalue()


def _enhanced_at_blind_spot(test_spec: str, n: int, d: int, mc: McConfig):
    """(model, test, blind-spot report, spike z-test, enhanced test) at (n, d)
    on the Gaussian location model. The spike z-test reads the statistic, so
    a test of raw observations is refused before the costly scan."""
    model = GaussianLocationModel(n=n, d=d)
    phi = make_test(test_spec, n, d, model=model)
    if phi.consumes != "statistic":
        raise DomainError("cannot combine tests consuming different inputs")
    report = find_blind_spot(phi, model, mc)
    nu = spike_z_test(n, d, report.coordinate)
    return model, phi, report, nu, enhance(phi, nu)


def run_regime(
    regime: RegimeSpec,
    test_spec: str,
    mc: McConfig,
    model_kind: str = "gaussian",
    theta=None,
    timings: bool = False,
) -> list[ResultRow]:
    """Sweep the sample-size grid: build the test at each (n, d(n)), locate
    its blind spot, attach the suggested spike enhancement, and record
    size / power / enhanced-power rows.

    For the regression model (Wald-type tests) the power column is evaluated
    at the supplied ``theta`` instead, and the enhancement columns are left
    empty since the spike pipeline targets the Gaussian location statistic.
    """
    rows: list[ResultRow] = []
    for n in regime.n_grid:
        t0 = time.perf_counter()
        d = regime.d_of(n)
        if model_kind == "gaussian":
            if theta is not None:
                raise SpecError("the Gaussian regime evaluates power at the found blind spot; --theta applies to the regression regime")
            model, test, report, _, psi = _enhanced_at_blind_spot(test_spec, n, d, mc)
            enhanced = estimate_rejection_prob(
                psi, model, report.spike.theta, mc, tag=f"enhanced-power:n={n}"
            )
            rows.append(
                ResultRow(
                    n=n,
                    d=d,
                    test=test.name,
                    theta=f"spike(i={report.coordinate},magnitude={report.spike.magnitude:.6g})",
                    size=report.size.mean,
                    power=report.power_at_spike.mean,
                    enhanced_power=enhanced.mean,
                    gap_bound=report.gap_bound,
                    wall_time_s=time.perf_counter() - t0 if timings else None,
                )
            )
        elif model_kind == "regression":
            if theta is None:
                raise SpecError("regression regime rows need an explicit --theta")
            model = FixedDesignRegression.default_design(n=n, d=d)
            test = make_test(test_spec, n, d, model=model)
            point = np.asarray(theta, dtype=float)
            if point.shape[0] < d:
                point = embed(point, d)
            size = estimate_rejection_prob(
                test, model, np.zeros(d), mc, tag=f"regression-size:n={n}"
            )
            power = estimate_rejection_prob(
                test, model, point, mc, tag=f"regression-power:n={n}"
            )
            rows.append(
                ResultRow(
                    n=n,
                    d=d,
                    test=test.name,
                    theta="(" + ",".join(f"{v:.6g}" for v in point) + ")",
                    size=size.mean,
                    power=power.mean,
                    enhanced_power=None,
                    gap_bound=None,
                    wall_time_s=time.perf_counter() - t0 if timings else None,
                )
            )
        else:
            raise SpecError(f"unknown model kind {model_kind!r} for run_regime")
    return rows


def consistency_diagnostic(
    theta_rule: Callable[[int, int], np.ndarray],
    regime: RegimeSpec,
) -> list[dict[str, Any]]:
    """Trajectory of the consistency criterion d^{-1/2} n ||theta_n||^2 next
    to the exact chi-square-test power (noncentral closed form): the power
    tends to 1 exactly when the criterion diverges."""
    out = []
    thresholds: dict[int, float] = {}
    for n in regime.n_grid:
        d = regime.d_of(n)
        theta = np.asarray(theta_rule(n, d), dtype=float)
        GaussianLocationModel(n=n, d=d).require_member(theta)
        lam = n * float(theta @ theta)
        criterion = lam / math.sqrt(d)
        if d not in thresholds:
            thresholds[d] = chi2_quantile(d, 1.0 - regime.alpha)
        power = 1.0 - noncentral_chi2_cdf(d, lam, thresholds[d])
        out.append({"n": n, "d": d, "criterion": criterion, "exact_chi2_power": power})
    return out


def lan_remainder_check(
    model_factory: Callable[[int], Any],
    h,
    n_grid: list[int],
    mc: McConfig,
) -> list[dict[str, Any]]:
    """Empirical check of the quadratic log-likelihood expansion at local
    parameter h: samples the exact log-likelihood ratio of theta = h/sqrt(n)
    against the null under the null, subtracts h'Z - h'I h/2, and reports the
    95th percentile of the absolute remainder (identically 0, up to rounding,
    for the exactly-quadratic Gaussian families here)."""
    h = np.asarray(h, dtype=float)
    if h.ndim != 1:
        raise DomainError("local parameter h must be a vector")
    out = []
    for n in n_grid:
        model = model_factory(n)
        if model.d != h.shape[0]:
            raise DomainError(f"h has dimension {h.shape[0]}, model has {model.d}")
        theta = model.require_member(h / math.sqrt(n))
        info = model.information_matrix()
        quad = 0.5 * float(h @ info @ h)

        def remainder(rng: np.random.Generator, m: int) -> np.ndarray:
            stats = model.sample_statistic(np.zeros(model.d), rng, m)
            loglr = model.log_likelihood_ratio(stats, theta)
            expansion = model.central_sequence(stats) @ h - quad
            return np.abs(loglr - expansion)

        remainders = np.concatenate(map_blocks(mc, f"lan-check:n={n}", model.d, remainder))
        out.append(
            {
                "n": n,
                "d": model.d,
                "remainder_p95": float(np.quantile(remainders, 0.95)),
                "remainder_max": float(remainders.max()),
            }
        )
    return out


def ks_two_sample(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Two-sample Kolmogorov-Smirnov statistic with the asymptotic p-value."""
    x = np.sort(np.asarray(x, dtype=float))
    y = np.sort(np.asarray(y, dtype=float))
    n1, n2 = x.shape[0], y.shape[0]
    if n1 == 0 or n2 == 0:
        raise DomainError("KS test requires nonempty samples")
    grid = np.concatenate([x, y])
    cdf_x = np.searchsorted(x, grid, side="right") / n1
    cdf_y = np.searchsorted(y, grid, side="right") / n2
    stat = float(np.abs(cdf_x - cdf_y).max())
    ne = n1 * n2 / (n1 + n2)
    lam = (math.sqrt(ne) + 0.12 + 0.11 / math.sqrt(ne)) * stat
    terms = []
    for k in range(1, 2001):
        term = math.exp(-2.0 * k * k * lam * lam)
        terms.append((-1.0) ** (k - 1) * term)
        if term < 1e-16 and k > 8:
            break
    p = 2.0 * math.fsum(terms)
    return stat, min(max(p, 0.0), 1.0)


def embedding_equivalence_check(
    d1: int, d2: int, theta, n: int, mc: McConfig
) -> dict[str, Any]:
    """Compare the law of the first d1 coordinates of the d2-dimensional
    statistic at the zero-padded parameter against the d1-dimensional
    statistic at the original parameter: per-coordinate two-sample KS over
    mc.reps draws plus the exact total variation (0, the closed-form laws
    coincide coordinate by coordinate)."""
    if d1 >= d2:
        raise DomainError(f"need d1 < d2, got d1={d1}, d2={d2}")
    theta = np.asarray(theta, dtype=float)
    small = GaussianLocationModel(n=n, d=d1)
    big = GaussianLocationModel(n=n, d=d2)
    theta_small = small.require_member(theta)
    theta_big = big.require_member(embed(theta_small, d2))

    def draw(model, point, tag):
        # full-width blocks keep the stream; only the d1 columns read are kept
        # (a copy, since a view would keep the whole block alive)
        return np.concatenate(
            map_blocks(
                mc, tag, model.d, lambda rng, m: model.sample_statistic(point, rng, m)[:, :d1].copy()
            )
        )

    stats_small = draw(small, theta_small, "embed-check:small")
    stats_big = draw(big, theta_big, "embed-check:big")

    ks_rows = []
    for j in range(d1):
        stat, p_value = ks_two_sample(stats_small[:, j], stats_big[:, j])
        ks_rows.append({"coordinate": j + 1, "statistic": stat, "p_value": p_value})
    return {
        "n": n,
        "d1": d1,
        "d2": d2,
        "theta": [float(v) for v in theta_small],
        "exact_tv_per_coordinate": [gaussian_tv(0.0)] * d1,
        "ks": ks_rows,
        "mean_small": [float(v) for v in stats_small.mean(axis=0)],
        "mean_big": [float(v) for v in stats_big.mean(axis=0)],
        "reps": mc.reps,
        "seed": mc.master_seed,
    }


def example2_nontestability_curve(n_grid: list[int]) -> list[dict[str, Any]]:
    """Worst-case total variation between the scaled model's statistic laws at
    any admissible alternative and at the null, along d = n: exactly
    gaussian_tv(n^{-1/2}), which vanishes, so no test separates the
    hypotheses asymptotically."""
    out = []
    for n in n_grid:
        if n < 1:
            raise DomainError(f"sample sizes must be >= 1, got {n}")
        out.append({"n": int(n), "tv_bound": gaussian_tv(1.0 / math.sqrt(n))})
    return out


def enhanceability_demo(test_spec: str, regime: RegimeSpec, mc: McConfig) -> dict[str, Any]:
    """End-to-end composition at the largest grid point: estimate the supplied
    test's size, find its blind spot, build the spike z-test on that
    coordinate, enhance, and report the three size/power pairs together with
    the empirical enhanceability signature (small component size, large
    component power at the spike, base power within the gap bound of base
    size, pointwise dominance of the enhanced test).

    Pointwise dominance is checked on the 2 * reps rows the two estimates
    evaluate, at zero and at the spike: ``enhance`` raises ``DomainError``
    on any row where psi falls below phi or nu, so a returned report always
    has it true.

    Exact component size/power columns are reported along the whole grid;
    their strict trends stand in for the asymptotic statements (size to 0,
    power to 1), which are not observable at desk scale.
    """
    if not regime.unbounded:
        raise DomainError("the enhanceability demo needs an unbounded dimension rule")
    if not regime.n_grid:
        raise DomainError("the enhanceability demo needs a nonempty n grid")

    trend_rows = []
    for n in regime.n_grid:
        d = regime.d_of(n)
        trend_rows.append(
            {
                "n": n,
                "d": d,
                "component_exact_size": spike_z_exact_size(n, d),
                "component_exact_power_at_spike": spike_z_exact_power_at_spike(n, d),
            }
        )

    sizes = [row["component_exact_size"] for row in trend_rows]
    powers = [row["component_exact_power_at_spike"] for row in trend_rows]
    dims = [row["d"] for row in trend_rows]
    growing = all(b > a for a, b in zip(dims, dims[1:]))

    n = regime.n_grid[-1]
    d = regime.d_of(n)
    model, phi, report, nu, psi = _enhanced_at_blind_spot(test_spec, n, d, mc)

    # common random numbers across the three tests: the pointwise relations
    # psi >= phi, psi >= nu, psi <= phi + nu then hold in the estimates too
    tests = (phi, nu, psi)
    phi_size, nu_size, psi_size = estimate_rejection_probs(tests, model, np.zeros(d), mc, tag="demo:size")
    phi_power, nu_power, psi_power = estimate_rejection_probs(
        tests, model, report.spike.theta, mc, tag="demo:power-at-spike"
    )

    power_slack = 3.0 * (report.size.se + report.power_at_spike.se)
    checks = {
        # enhance() raised on any violating row of the estimates (see above)
        "pointwise_dominance": True,
        "size_subadditive": psi_size.mean <= phi_size.mean + nu_size.mean + 1e-12,
        "base_power_within_gap_bound": abs(report.power_at_spike.mean - report.size.mean)
        <= report.gap_bound + power_slack,
        "component_size_trend_decreasing": growing and all(b < a for a, b in zip(sizes, sizes[1:])),
        "component_power_trend_increasing": growing and all(b > a for a, b in zip(powers, powers[1:])),
        "enhanceable_signature": report.size.mean + 3.0 * report.size.se < 1.0
        and report.power_at_spike.mean + 3.0 * report.power_at_spike.se < 1.0,
    }

    return {
        "test_spec": test_spec,
        "d_rule": regime.d_rule,
        "n_grid": list(regime.n_grid),
        "alpha": regime.alpha,
        "trend": trend_rows,
        "at_n": n,
        "at_d": d,
        "blind_spot": report.to_dict(),
        "base": {"size": phi_size.to_dict(), "power_at_spike": phi_power.to_dict()},
        "component": {"size": nu_size.to_dict(), "power_at_spike": nu_power.to_dict()},
        "enhanced": {"size": psi_size.to_dict(), "power_at_spike": psi_power.to_dict()},
        "checks": checks,
        "seed": mc.master_seed,
        "reps": mc.reps,
    }
