"""Distribution kernel tests against independent oracles.

Frozen expected values were computed from adaptive quadrature of the normal
density (scipy.integrate.quad), closed forms (1 - e^{-x/2} for two degrees
of freedom, erf identities for one degree), seeded Monte Carlo, and a
40-digit mpmath series; the sweep compares against scipy live. The oracles
never call the code paths they check.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from hdpower import (
    ConvergenceError,
    DomainError,
    chi2_cdf,
    chi2_quantile,
    gaussian_tv,
    log_sum_exp,
    noncentral_chi2_cdf,
    std_normal_cdf,
    std_normal_quantile,
)
from hdpower import distributions

# quad of the standard normal density over (-40, x], limit=200
PHI_QUAD_1_959964 = 0.9750000009035575
PHI_QUAD_NEG_SQRT2 = 0.0786496035251426
PHI_QUAD_0_05 = 0.5199388058383724


class TestStdNormalCdf:
    def test_zero_is_half(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_quadrature_oracle_values(self):
        assert abs(std_normal_cdf(1.959964) - PHI_QUAD_1_959964) < 1e-12
        assert abs(std_normal_cdf(-math.sqrt(2)) - PHI_QUAD_NEG_SQRT2) < 1e-12
        assert abs(std_normal_cdf(0.05) - PHI_QUAD_0_05) < 1e-12

    def test_symmetry_grid(self):
        for x in np.linspace(-8, 8, 161):
            assert abs(std_normal_cdf(x) + std_normal_cdf(-x) - 1.0) < 1e-14

    def test_monotone(self):
        grid = np.linspace(-10, 10, 401)
        vals = [std_normal_cdf(x) for x in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            std_normal_cdf(float("nan"))
        with pytest.raises(DomainError):
            std_normal_cdf(float("inf"))


class TestStdNormalQuantile:
    def test_median(self):
        assert abs(std_normal_quantile(0.5)) < 1e-12

    def test_bisection_oracle_values(self):
        assert abs(std_normal_quantile(0.975) - 1.959963984540054) < 1e-8
        assert abs(std_normal_quantile(0.0786496) - (-1.414213586392437)) < 1e-8

    def test_round_trip(self):
        for p in np.linspace(0.001, 0.999, 97):
            assert abs(std_normal_cdf(std_normal_quantile(p)) - p) < 1e-10

    def test_domain(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(DomainError):
                std_normal_quantile(bad)


class TestChi2Cdf:
    def test_mass_below_zero(self):
        assert chi2_cdf(2, 0.0) == 0.0
        assert chi2_cdf(7, -3.0) == 0.0

    def test_two_dof_closed_form(self):
        # F(x) = 1 - e^{-x/2} when dof = 2
        for x in (0.5, 1.0, 2.0, 5.0, 20.0):
            assert abs(chi2_cdf(2, x) - (1.0 - math.exp(-x / 2.0))) < 1e-13

    def test_one_dof_erf_oracle(self):
        # F(x) = 2 Phi(sqrt(x)) - 1 = erf(sqrt(x/2)) when dof = 1
        for x in (0.1, 1.0, 3.841459, 10.0):
            assert abs(chi2_cdf(1, x) - math.erf(math.sqrt(x / 2.0))) < 1e-13
        assert abs(chi2_cdf(1, 3.841459) - 0.95) < 1e-7

    def test_domain(self):
        with pytest.raises(DomainError):
            chi2_cdf(0, 1.0)
        with pytest.raises(DomainError):
            chi2_cdf(3, float("nan"))


def _bisection_chi2_quantile(dof, p):
    """chi2_quantile as it was before the replay: every bracket end and
    midpoint evaluates the CDF. The reference the replay must match bit for
    bit."""
    hi = dof + 10.0 * math.sqrt(2.0 * dof) + 10.0
    while chi2_cdf(dof, hi) < p:
        hi *= 2.0
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
        dens = distributions.chi2_pdf(dof, x)
        if dens < 1e-280:
            break
        step = (chi2_cdf(dof, x) - p) / dens
        candidate = x - step
        if candidate <= 0.0:
            break
        x = candidate
        if abs(step) < 1e-10 * max(1.0, x):
            break
    return x


REPLAY_DOFS = (1, 2, 3, 5, 17, 64, 256, 1000, 4096, 10**5, 10**7)
REPLAY_PS = (1e-12, 1e-6, 1e-3, 0.05, 0.5, 0.95, 0.999, 1.0 - 1e-9, 1.0 - 1e-14)


def _replay_points():
    points = [(dof, p) for dof in REPLAY_DOFS for p in REPLAY_PS]
    rng = np.random.default_rng(20261021)
    for _ in range(300):
        dof = int(10 ** rng.uniform(0.0, 4.0))
        kind, u = rng.integers(3), rng.uniform()
        p = (10 ** (-12 * u), 1.0 - 10 ** (-14 * u), u)[kind]
        if 0.0 < p < 1.0:
            points.append((dof, float(p)))
    return points


def _count_cdf_calls(monkeypatch):
    calls = []
    cdf = distributions.chi2_cdf

    def counting(dof, x):
        calls.append(x)
        return cdf(dof, x)

    monkeypatch.setattr(distributions, "chi2_cdf", counting)
    return calls


class TestChi2Quantile:
    def test_frozen_values(self):
        assert abs(chi2_quantile(1, 0.95) - 3.841458820694124) < 1e-7
        assert abs(chi2_quantile(2, 1.0 - math.exp(-1.0)) - 2.0) < 1e-10

    def test_round_trip_small_grid(self):
        for dof in (1, 2, 5, 17, 64):
            for p in (0.01, 0.1, 0.5, 0.9, 0.99):
                assert abs(chi2_cdf(dof, chi2_quantile(dof, p)) - p) < 1e-10

    def test_replay_keeps_the_bisection_bits(self):
        for dof, p in _replay_points():
            assert chi2_quantile(dof, p) == _bisection_chi2_quantile(dof, p), (dof, p)

    def test_replay_saves_cdf_calls(self, monkeypatch):
        # the full bisection makes 46 to 48 calls at these points
        calls = _count_cdf_calls(monkeypatch)
        for dof in (1, 5, 256, 1024, 10**4, 10**6, 10**7):
            calls.clear()
            chi2_quantile(dof, 0.95)
            assert len(calls) <= 24, (dof, len(calls))

    def test_failed_root_search_evaluates_every_midpoint(self, monkeypatch):
        monkeypatch.setattr(distributions, "_ROOT_ITERS", 0)
        calls = _count_cdf_calls(monkeypatch)
        for dof, p in [(1, 0.95), (5, 0.05), (256, 0.95), (10**4, 1e-6), (30, 1.0 - 1e-12)]:
            want = _bisection_chi2_quantile(dof, p)
            calls.clear()
            assert chi2_quantile(dof, p) == want, (dof, p)
            assert len(calls) >= 45, (dof, p)

    def test_domain(self):
        with pytest.raises(DomainError):
            chi2_quantile(2, 0.0)
        with pytest.raises(DomainError):
            chi2_quantile(0, 0.5)


class TestNoncentralChi2:
    def test_zero_noncentrality_degenerates(self):
        for dof in (1, 2, 10):
            for x in (0.5, 3.0, 12.0):
                assert abs(noncentral_chi2_cdf(dof, 0.0, x) - chi2_cdf(dof, x)) < 1e-12

    def test_monte_carlo_oracle(self):
        # ||N_2((1,0), I)||^2 <= 2, one million seeded draws
        rng = np.random.default_rng(20240211)
        z = rng.standard_normal((1_000_000, 2))
        z[:, 0] += 1.0
        hits = (np.einsum("ij,ij->i", z, z) <= 2.0).mean()
        se = math.sqrt(hits * (1 - hits) / 1_000_000)
        assert abs(noncentral_chi2_cdf(2, 1.0, 2.0) - hits) < 3 * se

    def test_monotone_decreasing_in_noncentrality(self):
        vals = [noncentral_chi2_cdf(4, lam, 9.0) for lam in (0.0, 0.5, 1.0, 2.0, 5.0, 20.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_negative_noncentrality_rejected(self):
        with pytest.raises(DomainError):
            noncentral_chi2_cdf(3, -0.1, 1.0)

    def test_step_cap_is_a_runtime_error(self, monkeypatch):
        # the Poisson(500) weights need far more than 10 steps to drain
        monkeypatch.setattr(distributions, "_POISSON_MAX_STEPS", 10)
        with pytest.raises(ConvergenceError) as info:
            noncentral_chi2_cdf(5, 1000.0, 1000.0)
        assert not isinstance(info.value, ValueError)


    def test_matches_direct_poisson_mixture(self):
        # reference: every Poisson term's central CDF evaluated on its own,
        # summed until the uncovered weight is below 1e-15
        def direct(dof, lam, x):
            total = covered = 0.0
            k = 0
            while covered < 1.0 - 1e-15:
                w = math.exp(-lam / 2 + k * math.log(lam / 2) - math.lgamma(k + 1.0))
                total += w * chi2_cdf(dof + 2 * k, x)
                covered += w
                k += 1
            return total

        for dof in (1, 2, 7, 64):
            for lam in (0.01, 1.0, 9.5, 60.0):
                for x in (0.5, dof + lam, 3.0 * (dof + lam)):
                    assert abs(noncentral_chi2_cdf(dof, lam, x) - direct(dof, lam, x)) < 1e-11


# chi2_quantile values frozen before the kernel's iteration cap grew with
# sqrt(dof): wherever the old 500-iteration sums converged, central values
# keep their bits, so test thresholds and Monte Carlo outputs keep theirs
FROZEN_QUANTILES = {
    (1, 0.95): 3.8414588206941187,
    (5, 0.95): 11.070497693516346,
    (256, 0.95): 294.3206688843066,
    (1024, 0.95): 1099.5571458647241,
    (2981, 0.95): 3109.132532255613,
    (10000, 0.95): 10233.748897678039,
    (40000, 0.95): 40466.36911247154,
    (2, 0.99): 9.210340371976189,
    (64, 0.99): 93.21685966023847,
    (4096, 0.99): 4309.493570490008,
    # frozen before chi2_quantile replayed its bisection from a Newton root
    (10**6, 0.95): 1002327.310781219,
    (10**7, 0.95): 10007357.145899259,
    (5, 0.05): 1.1454762260617697,
    (1, 1e-3): 1.5707971492624917e-06,
}

SWEEP_DOFS = sorted({round(10 ** (k / 2)) for k in range(15)})  # 1 .. 1e7
SWEEP_LAMS = [0.0] + [10.0**k for k in range(-3, 8)]  # 0, 1e-3 .. 1e7
SWEEP_SDS = (-5, -3, -1, 0, 1, 3, 5)
SWEEP_TOL = 1e-9
CALL_BUDGET_S = 0.5


def _oracle_cdf(dof, lam, x):
    # scipy's chi2.cdf (Cephes) is off by up to 2e-9 in the lower tail at
    # dof >= 1e6 (see test_deep_lower_tail_at_dof_1e7); its Boost-based ncx2
    # holds there, and at noncentrality 1e-300 it is the central CDF
    return float(stats.ncx2.cdf(x, dof, max(lam, 1e-300)))


def _timed(fn, *args):
    start = time.perf_counter()
    value = fn(*args)
    elapsed = time.perf_counter() - start
    assert elapsed < CALL_BUDGET_S, f"{fn.__name__}{args} took {elapsed:.3f} s"
    return value


class TestOracleSweep:
    """Log grid of dof and noncentrality up to 1e7, x at the mean +- 0, 1,
    3 and 5 standard deviations, against scipy."""

    @pytest.mark.parametrize("dof", SWEEP_DOFS)
    def test_noncentral_chi2_cdf(self, dof):
        for lam in SWEEP_LAMS:
            mean, sd = dof + lam, math.sqrt(2.0 * (dof + 2.0 * lam))
            for z in SWEEP_SDS:
                x = mean + z * sd
                if x <= 0.0:
                    continue
                got = _timed(noncentral_chi2_cdf, dof, lam, x)
                assert abs(got - _oracle_cdf(dof, lam, x)) <= SWEEP_TOL, (dof, lam, z)

    @pytest.mark.parametrize("dof", SWEEP_DOFS)
    def test_chi2_cdf(self, dof):
        for z in SWEEP_SDS:
            x = dof + z * math.sqrt(2.0 * dof)
            if x <= 0.0:
                continue
            got = _timed(chi2_cdf, dof, x)
            assert abs(got - _oracle_cdf(dof, 0.0, x)) <= SWEEP_TOL, (dof, z)

    def test_deep_lower_tail_at_dof_1e7(self):
        # 40-digit mpmath power series of P(5e6, x/2); scipy's chi2.cdf gives
        # 2.7954121917792986e-07 here
        x = 1e7 - 5.0 * math.sqrt(2e7)
        assert abs(chi2_cdf(10**7, x) - 2.8137275693898227e-07) < 1e-15

    def test_thresholds_keep_their_bits(self):
        for (dof, p), want in FROZEN_QUANTILES.items():
            assert chi2_quantile(dof, p) == want, (dof, p)


class TestConvergenceCaps:
    def test_series_cap_is_a_runtime_error(self, monkeypatch):
        monkeypatch.setattr(distributions, "_GAMMA_ITMAX", 10)
        monkeypatch.setattr(distributions, "_GAMMA_ITERS_PER_SQRT_A", 0)
        with pytest.raises(ConvergenceError, match="series failed to converge"):
            chi2_cdf(1000, 1000.0)

    def test_continued_fraction_cap_is_a_runtime_error(self, monkeypatch):
        monkeypatch.setattr(distributions, "_GAMMA_ITMAX", 10)
        monkeypatch.setattr(distributions, "_GAMMA_ITERS_PER_SQRT_A", 0)
        with pytest.raises(ConvergenceError, match="continued fraction failed to converge"):
            chi2_cdf(1000, 1010.0)


class TestGaussianTv:
    def test_identical_distributions(self):
        assert gaussian_tv(0.0) == 0.0

    def test_small_shift_oracle(self):
        assert abs(gaussian_tv(0.1) - (2.0 * PHI_QUAD_0_05 - 1.0)) < 1e-12

    def test_strictly_increasing(self):
        vals = [gaussian_tv(x) for x in np.linspace(0.0, 5.0, 51)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_acceptance_region_identity(self):
        # TV(N(delta,1), N(0,1)) = P_0(X < delta/2) - P_delta(X < delta/2),
        # estimated from draws of both laws
        rng = np.random.default_rng(7)
        n = 200_000
        for delta in (0.1, 0.5, 1.0):
            x0 = rng.standard_normal(n)
            x1 = rng.standard_normal(n) + delta
            p0 = (x0 < delta / 2).mean()
            p1 = (x1 < delta / 2).mean()
            se = math.sqrt((p0 * (1 - p0) + p1 * (1 - p1)) / n)
            assert abs(gaussian_tv(delta) - (p0 - p1)) < 3 * se

    def test_domain(self):
        with pytest.raises(DomainError):
            gaussian_tv(-0.1)


class TestLogSumExp:
    def test_single_element_exact(self):
        assert log_sum_exp([0.0]) == 0.0
        assert log_sum_exp([-123.456]) == -123.456

    def test_pair_of_equal_terms(self):
        a = 3.7
        assert abs(log_sum_exp([a, a]) - (a + math.log(2.0))) < 1e-14

    def test_no_overflow(self):
        assert abs(log_sum_exp([1000.0, 1000.0]) - (1000.0 + math.log(2.0))) < 1e-10

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            log_sum_exp([])

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=20))
    def test_bounds(self, values):
        out = log_sum_exp(values)
        assert out >= max(values) - 1e-12
        assert out <= max(values) + math.log(len(values)) + 1e-12

    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=10))
    def test_permutation_invariant(self, values):
        assert abs(log_sum_exp(values) - log_sum_exp(sorted(values))) < 1e-12
