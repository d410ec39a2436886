"""Tests for the test constructors, the enhancement combinator, and the
string spec grammar."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

from hdpower import (
    DomainError,
    FixedDesignRegression,
    GaussianLocationModel,
    McConfig,
    SpecError,
    chi2_exact_power,
    chi2_euclidean_test,
    chi2_quantile,
    constant_test,
    enhance,
    estimate_rejection_prob,
    estimate_rejection_probs,
    halfspace_test,
    make_test,
    noncentral_chi2_cdf,
    spike_alternative,
    spike_z_exact_power_at_spike,
    spike_z_exact_size,
    spike_z_test,
    std_normal_cdf,
    substream,
    sup_norm_exact_size,
    sup_norm_test,
    truncated_score_test,
    tscore_limit_power,
    wald_test,
    wald_test_at_level,
)
from hdpower import testfuncs


def binom_3se(p: float, reps: int) -> float:
    return 3.0 * math.sqrt(p * (1.0 - p) / reps)


class TestChi2EuclideanTest:
    def test_zero_statistic_accepts(self):
        test = chi2_euclidean_test(100, 10, 0.05)
        assert test.evaluate(np.zeros(10)) == 0.0

    def test_mc_size(self):
        n, d, alpha = 100, 10, 0.05
        test = chi2_euclidean_test(n, d, alpha)
        model = GaussianLocationModel(n=n, d=d)
        est = estimate_rejection_prob(test, model, np.zeros(d), McConfig(reps=20_000, master_seed=5))
        assert abs(est.mean - alpha) < binom_3se(alpha, est.reps)

    def test_mc_power_matches_noncentral_form(self):
        n, d, alpha = 64, 6, 0.05
        theta = np.array([0.3, -0.2, 0.0, 0.1, 0.0, 0.25])
        exact = chi2_exact_power(n, d, alpha, theta)
        test = chi2_euclidean_test(n, d, alpha)
        model = GaussianLocationModel(n=n, d=d)
        est = estimate_rejection_prob(test, model, theta, McConfig(reps=20_000, master_seed=6))
        assert abs(est.mean - exact) < binom_3se(exact, est.reps)

    def test_exact_power_is_noncentral_complement(self):
        lam = 64 * 0.09
        expected = 1.0 - noncentral_chi2_cdf(4, lam, chi2_quantile(4, 0.95))
        theta = np.array([0.3, 0.0, 0.0, 0.0])
        assert abs(chi2_exact_power(64, 4, 0.05, theta) - expected) < 1e-14

    def test_rejection_monotone_in_scaling(self):
        test = chi2_euclidean_test(50, 4, 0.1)
        rng = substream(3, "chi2-scaling")
        for z in rng.standard_normal((200, 4)) * 3:
            if test.evaluate(z) == 1.0:
                for c in (1.0, -1.5, 4.0):
                    assert test.evaluate(c * z) == 1.0

    def test_alpha_domain(self):
        with pytest.raises(DomainError):
            chi2_euclidean_test(10, 2, 1.0)


class TestSpikeZTest:
    def test_exact_size_at_log_d_eight(self):
        # d = ceil(e^8): threshold is (log d / 2)^{1/4} ~ sqrt(2)
        d = math.ceil(math.exp(8))
        assert abs(spike_z_exact_size(100, d) - 0.15729902422575417) < 1e-12
        assert abs(spike_z_exact_size(100, d) - 2.0 * std_normal_cdf(-math.sqrt(2))) < 1e-4

    def test_exact_power_at_log_d_eight(self):
        d = math.ceil(math.exp(8))
        assert abs(spike_z_exact_power_at_spike(100, d) - 0.7213106925645111) < 1e-12
        assert abs(spike_z_exact_power_at_spike(100, d) - 0.7214) < 1e-4

    def test_floor_threshold_small_d(self):
        # d < 3: sqrt(n) a_n = 1, threshold 1, size 2 Phi(-1)
        assert abs(spike_z_exact_size(25, 2) - 2.0 * std_normal_cdf(-1.0)) < 1e-14

    def test_exact_formulas_monotone_along_exp_grid(self):
        dims = [math.ceil(math.exp(k)) for k in range(2, 13)]
        sizes = [spike_z_exact_size(100, d) for d in dims]
        powers = [spike_z_exact_power_at_spike(100, d) for d in dims]
        assert all(b < a for a, b in zip(sizes, sizes[1:]))
        assert all(b > a for a, b in zip(powers, powers[1:]))

    def test_mc_matches_exact(self):
        n, d = 100, 55
        model = GaussianLocationModel(n=n, d=d)
        test = spike_z_test(n, d, 3)
        size = estimate_rejection_prob(test, model, np.zeros(d), McConfig(reps=20_000, master_seed=8))
        assert abs(size.mean - spike_z_exact_size(n, d)) < binom_3se(spike_z_exact_size(n, d), size.reps)
        power = estimate_rejection_prob(
            test, model, spike_alternative(n, d, 3).theta, McConfig(reps=20_000, master_seed=9)
        )
        exact = spike_z_exact_power_at_spike(n, d)
        assert abs(power.mean - exact) < binom_3se(exact, power.reps)

    def test_permutation_equivariance(self):
        # permuting coordinates of the statistic and the tested index together
        # leaves the rejection value unchanged
        n, d = 50, 6
        rng = substream(4, "spike-permutation")
        for _ in range(20):
            perm = rng.permutation(d)
            z = rng.standard_normal(d) * 2
            w = np.empty(d)
            w[perm] = z
            for i in range(1, d + 1):
                direct = spike_z_test(n, d, i).evaluate(z)
                mapped = spike_z_test(n, d, int(perm[i - 1]) + 1).evaluate(w)
                assert mapped == direct

    def test_coordinate_domain(self):
        with pytest.raises(DomainError):
            spike_z_test(10, 4, 5)


# 1 - (1 - erfc(t / sqrt(2)))^d at t = sqrt(2 log d), from 50-digit mpmath
SUP_NORM_SIZES = {
    10**3: 0.1826475287007380536440424,
    10**5: 0.1477179477404167187711352,
    10**7: 0.127614537867439922228118,
    10**9: 0.1140894520349183356931927,
    10**12: 0.1001129886433193761840716,
}


class TestSupNormTest:
    def test_exact_size_frozen(self):
        assert abs(sup_norm_exact_size(100) - 0.21411277625128955) < 1e-12

    def test_exact_size_at_large_d(self):
        # the (2 Phi(t) - 1)^d form was off by 1.3e-5 at d = 1e12
        for d, want in SUP_NORM_SIZES.items():
            assert abs(sup_norm_exact_size(d) - want) < 1e-13, d

    def test_mc_matches_exact(self):
        n, d = 100, 100
        model = GaussianLocationModel(n=n, d=d)
        test = sup_norm_test(n, d)
        est = estimate_rejection_prob(test, model, np.zeros(d), McConfig(reps=20_000, master_seed=10))
        exact = sup_norm_exact_size(d)
        assert abs(est.mean - exact) < binom_3se(exact, est.reps)

    def test_union_bound_decreasing(self):
        bounds = [2 * d * std_normal_cdf(-math.sqrt(2 * math.log(d))) for d in (100, 1000, 10_000)]
        assert all(b < a for a, b in zip(bounds, bounds[1:]))

    def test_large_coordinate_rejects(self):
        d = 50
        z = np.zeros(d)
        z[17] = 2.0 * math.sqrt(2.0 * math.log(d))
        assert sup_norm_test(10, d).evaluate(z) == 1.0

    def test_needs_two_dimensions(self):
        with pytest.raises(DomainError):
            sup_norm_test(10, 1)


class TestEnhance:
    def test_clamp(self):
        phi = constant_test(3, 0.3)
        nu = constant_test(3, 0.9)
        psi = enhance(phi, nu)
        assert psi.evaluate(np.zeros(3)) == 1.0

    def test_zero_component_is_identity(self):
        phi = chi2_euclidean_test(20, 3, 0.1)
        psi = enhance(phi, constant_test(3, 0.0))
        rng = substream(5, "enhance-identity")
        z = rng.standard_normal((500, 3)) * 2
        assert np.array_equal(psi.evaluate_batch(z), phi.evaluate_batch(z))

    def test_idempotent_on_indicators(self):
        phi = chi2_euclidean_test(20, 3, 0.1)
        psi = enhance(phi, phi)
        rng = substream(6, "enhance-idempotent")
        z = rng.standard_normal((2_000, 3)) * 2
        assert np.array_equal(psi.evaluate_batch(z), phi.evaluate_batch(z))

    def test_monotone_in_component(self):
        phi = constant_test(2, 0.25)
        nu1 = constant_test(2, 0.1)
        nu2 = constant_test(2, 0.6)
        rng = substream(7, "enhance-monotone")
        z = rng.standard_normal((10_000, 2))
        low = enhance(phi, nu1).evaluate_batch(z)
        high = enhance(phi, nu2).evaluate_batch(z)
        assert np.all(low <= high)

    def test_size_subadditive_mc(self):
        n, d = 100, 100
        model = GaussianLocationModel(n=n, d=d)
        phi = chi2_euclidean_test(n, d, 0.05)
        nu = spike_z_test(n, d, 1)
        psi = enhance(phi, nu)
        mc = McConfig(reps=100_000, master_seed=11)
        # one set of draws for all three, so the pointwise inequality transfers
        s_phi, s_nu, s_psi = estimate_rejection_probs((phi, nu, psi), model, np.zeros(d), mc, tag="sub")
        assert s_psi.mean <= s_phi.mean + s_nu.mean + 1e-12
        assert s_psi.mean >= max(s_phi.mean, s_nu.mean) - 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            enhance(constant_test(2), constant_test(3))


class TestCoordinate:
    def test_spike_tests_declare_their_coordinate(self):
        n, d = 64, 8
        assert spike_z_test(n, d, 3).coordinate == 2
        assert make_test("enhance(spike:i=3,spike:i=3)", n, d).coordinate == 2
        for spec in ("chi2", "supnorm", "halfspace", "one", "enhance(spike:i=3,spike:i=4)",
                     "enhance(chi2,spike:i=3)", "enhance(spike:i=3,one)"):
            assert make_test(spec, n, d).coordinate is None, spec

    @pytest.mark.parametrize("spec", ["spike:i=1", "spike:i=5", "enhance(spike:i=5,spike:i=5)"])
    def test_full_draw_equals_broadcast_column(self, spec):
        n, d = 100, 8
        test = make_test(spec, n, d)
        model = GaussianLocationModel(n=n, d=d)
        z = model.sample_statistic(spike_alternative(n, d, test.coordinate + 1).theta,
                                   substream(9, "coordinate-parity"), 5_000)
        column = np.broadcast_to(z[:, [test.coordinate]], z.shape)
        full = test.evaluate_batch(z)
        assert 0.0 < full.mean() < 1.0
        np.testing.assert_array_equal(test.evaluate_batch(column), full)

    def test_coordinate_must_be_a_statistic_coordinate(self):
        batch = lambda z: np.zeros(len(z))  # noqa: E731
        for coordinate in (-1, 4):
            with pytest.raises(DomainError, match="coordinate"):
                testfuncs.TestFunction(name="t", dim=4, batch=batch, coordinate=coordinate)
        with pytest.raises(DomainError, match="coordinate"):
            testfuncs.TestFunction(name="t", dim=4, batch=batch, consumes="observations", coordinate=0)

    def test_input_kind_checked_at_construction(self):
        batch = lambda z: np.zeros(len(z))  # noqa: E731
        with pytest.raises(DomainError, match="input kind"):
            testfuncs.TestFunction(name="t", dim=4, batch=batch, consumes="bogus")


class TestNanRejection:
    @staticmethod
    def _nan_test(d):
        def batch(z):
            vals = np.zeros(len(z))
            vals[-1] = np.nan
            return vals

        def spike_kernel(z, shift):
            return lambda lo, hi: np.full((z.shape[0], hi - lo), np.nan)

        return testfuncs.TestFunction(name="nan-test", dim=d, batch=batch, spike_kernel=spike_kernel)

    def test_evaluate_batch_rejects_nan(self):
        z = np.zeros((4, 3))
        with pytest.raises(DomainError, match="'nan-test'.*NaN"):
            self._nan_test(3).evaluate_batch(z)

    def test_spike_columns_reject_nan(self):
        cols = self._nan_test(3).spike_columns(np.zeros((4, 3)), 1.0)
        with pytest.raises(DomainError, match="'nan-test'.*NaN"):
            cols(0, 3)

    def test_enhance_with_nan_component_names_the_component(self):
        d = 3
        psi = enhance(chi2_euclidean_test(16, d, 0.05), self._nan_test(d))
        z = np.zeros((4, d))
        with pytest.raises(DomainError, match="'nan-test'"):
            psi.evaluate_batch(z)
        with pytest.raises(DomainError, match="'nan-test'"):
            psi.spike_columns(z, 1.0)(0, d)

    def test_estimate_names_the_test_not_the_mean(self):
        d = 3
        model = GaussianLocationModel(n=16, d=d)
        with pytest.raises(DomainError, match="'nan-test'"):
            estimate_rejection_prob(self._nan_test(d), model, np.zeros(d), McConfig(reps=100))


class TestRangeInvariant:
    def test_all_tests_stay_in_unit_interval_on_extremes(self):
        n, d = 64, 8
        tests = [
            chi2_euclidean_test(n, d, 0.05),
            spike_z_test(n, d, 2),
            sup_norm_test(n, d),
            halfspace_test(n, d, 0.05, seed=3),
            constant_test(d),
            enhance(chi2_euclidean_test(n, d, 0.05), spike_z_test(n, d, 1)),
        ]
        rng = substream(8, "range-extremes")
        z = rng.standard_normal((10_000, d))
        z[:100] *= 1e8
        z[100:200] = -1e8
        for test in tests:
            vals = test.evaluate_batch(z)
            assert np.all((vals >= 0.0) & (vals <= 1.0))
            assert np.all(np.isfinite(vals))

    def test_observation_tests_stay_in_unit_interval_on_extremes(self):
        gauss = GaussianLocationModel(n=6, d=3)
        tscore = truncated_score_test(gauss, 0.05)
        reg = FixedDesignRegression.default_design(n=6, d=2)
        wald = wald_test_at_level(reg, 0.05)
        rng = substream(17, "obs-extremes")
        x = rng.standard_normal((2_000, 6, 3))
        x[:50] *= 1e8
        vals = tscore.evaluate_batch(x)
        assert np.all((vals >= 0.0) & (vals <= 1.0))
        z = rng.standard_normal((2_000, 2))
        z[:50] = 1e8
        vals = wald.evaluate_batch(z)
        assert np.all((vals >= 0.0) & (vals <= 1.0))


def _bisect(value, lo: float, hi: float) -> tuple[float, float] | None:
    """Adjacent floats lo, hi with value(lo) != value(hi), or None when the
    ends already agree."""
    v_lo = value(lo)
    if value(hi) == v_lo:
        return None
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if value(mid) == v_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _boundary_rows(test: testfuncs.TestFunction, count: int, seed: int) -> np.ndarray:
    """Rows that sit on the test's rejection boundary as it evaluates all of
    them at once, alternately on its accepting and its rejecting side. Each
    drawn row is scaled, then its largest coordinate moved, by bisection to
    adjacent floats across the boundary; a row the test does not flip that
    way stays."""
    rows = substream(seed, "boundary-rows").standard_normal((count, test.dim))

    def value_at(k: int, row_of):
        def value(x: float) -> float:
            rows[k] = row_of(x)
            return test.batch(rows)[k]

        return value

    for k in range(count):
        drawn = rows[k].copy()
        scale = value_at(k, lambda c: c * drawn)
        found = _bisect(scale, 0.0, 1e6) or _bisect(scale, 0.0, -1e6)
        if found is None:
            rows[k] = drawn
            continue
        base = found[0] * drawn
        j = int(np.argmax(np.abs(base)))
        step = abs(base[j])

        def moved(t: float) -> np.ndarray:
            row = base.copy()
            row[j] += t
            return row

        move = value_at(k, moved)
        fine = _bisect(move, 0.0, step) or _bisect(move, 0.0, -step)
        rows[k] = moved(fine[k % 2]) if fine else found[k % 2] * drawn
    return rows


def _boundary_observations(
    test: testfuncs.TestFunction, n: int, radius: float, count: int, seed: int
) -> np.ndarray:
    """Observation rows for the truncated-score ``test`` at ``radius``, in
    the model's coordinate-major layout, alternately on the accepting and the
    rejecting side of adjacent floats as the test evaluates all of them at
    once. The first half are rows of unit observations scaled until they
    reach the truncation radius; the second half are rows scaled, inside the
    radius, until the statistic reaches the threshold."""
    d = test.dim
    shift = np.zeros(d)
    shift[0] = 2.0
    rows = GaussianLocationModel(n=n, d=d).sample_observations(
        shift, substream(seed, "boundary-observations"), count
    )
    for k in range(count):
        base = rows[k].copy()
        if k < count // 2:
            base /= np.linalg.norm(base, axis=1, keepdims=True)
            lo, hi = 0.5 * radius, 2.0 * radius
        else:
            lo, hi = 0.0, 0.99 * radius / np.linalg.norm(base, axis=1).max()

        def value(c: float) -> float:
            rows[k] = c * base
            return test.batch(rows)[k]

        found = _bisect(value, lo, hi)
        assert found is not None
        rows[k] = found[k % 2] * base
    return rows


class TestRowGrouping:
    """A built-in test's values do not depend on how many rows it evaluates
    at once, even for rows that land on its threshold."""

    SPECS = (
        "chi2",
        "spike:i=3",
        "supnorm",
        "halfspace:seed=7",
        "one",
        "enhance(chi2,supnorm)",
        "enhance(halfspace:seed=7,spike:i=3)",
        "wald",
    )

    @staticmethod
    def _build(spec: str, d: int) -> testfuncs.TestFunction:
        if spec == "wald":
            # the Wald test reads only the model's dimension
            return wald_test_at_level(SimpleNamespace(d=d), 0.05)
        return make_test(spec, 256, d)

    @pytest.mark.parametrize("d", [256, 2981])
    @pytest.mark.parametrize("spec", SPECS)
    def test_grouped_rows_equal_one_batch(self, spec, d):
        test = self._build(spec, d)
        z = _boundary_rows(test, 12, seed=d)
        groups = (slice(0, 1), slice(1, 4), slice(4, 12))
        grouped = np.concatenate([test.batch(z[g]) for g in groups])
        assert np.array_equal(test.batch(z), grouped)
        if test.spike_kernel is None:
            return
        for shift in (0.0, 0.75):
            whole = test.spike_columns(z, shift)(0, d)
            grouped = np.concatenate([test.spike_columns(z[g], shift)(0, d) for g in groups])
            assert np.array_equal(whole, grouped)

    @pytest.mark.parametrize("d", [2, 5, 64])
    def test_tscore_rows_and_layouts(self, d):
        n = 16
        test = make_test("tscore", n, d)
        x = _boundary_observations(test, n, 3.0 * math.sqrt(d), 12, seed=d)
        whole = test.batch(x)
        assert 0.0 < whole.sum() < 12.0
        groups = (slice(0, 1), slice(1, 4), slice(4, 12))
        assert np.array_equal(whole, np.concatenate([test.batch(x[g]) for g in groups]))
        assert np.array_equal(whole, test.batch(np.ascontiguousarray(x)))


class TestTruncatedScore:
    def test_untruncated_d1_is_z_test(self):
        model = GaussianLocationModel(n=20, d=1)
        test = truncated_score_test(model, 0.05, C=math.inf)
        est = estimate_rejection_prob(test, model, np.zeros(1), McConfig(reps=100_000, master_seed=12))
        assert abs(est.mean - 0.05) < 0.003

    def test_default_radius_null_rate(self):
        model = GaussianLocationModel(n=50, d=2)
        test = truncated_score_test(model, 0.05)
        assert "C=4.24264" in test.name
        est = estimate_rejection_prob(test, model, np.zeros(2), McConfig(reps=100_000, master_seed=13))
        assert abs(est.mean - 0.05) < binom_3se(0.05, est.reps)

    @pytest.mark.parametrize("C", [None, math.inf])
    @pytest.mark.parametrize("d", [1, 2, 5, 50])
    def test_threshold_is_limiting_quantile(self, d, C):
        # with n = 1 and one nonzero coordinate the statistic is exactly
        # |x_1|, so rejecting at oracle + 1e-9 but not at oracle - 1e-9 puts
        # the threshold within 1e-9 of the oracle
        radius = 3.0 * math.sqrt(d) if C is None else C
        oracle = math.sqrt(stats.chi2.cdf(radius**2, d + 2) * stats.chi2.ppf(0.95, d))
        test = truncated_score_test(GaussianLocationModel(n=1, d=d), 0.05, C)
        x = np.zeros((1, d))
        for value, expected in ((oracle - 1e-9, 0.0), (oracle + 1e-9, 1.0)):
            x[0, 0] = value
            assert test.evaluate(x) == expected

    def test_tiny_radius_raises_domain_error(self):
        model = GaussianLocationModel(n=20, d=4)
        with pytest.raises(DomainError):
            truncated_score_test(model, 0.05, C=1e-3)

    def test_consumes_observations(self):
        model = GaussianLocationModel(n=10, d=2)
        test = truncated_score_test(model, 0.05)
        assert test.consumes == "observations"
        value = test.evaluate(np.zeros((10, 2)))
        assert value in (0.0, 1.0)

    @pytest.mark.parametrize("d", [1, 2, 5, 20])
    def test_limit_power_is_scaled_noncentral_chi2(self, d):
        n, alpha = 400, 0.05
        crit = stats.chi2.ppf(1.0 - alpha, d)
        for C in (1.0, 2.5, 3.0 * math.sqrt(d), math.inf):
            v = 1.0 if math.isinf(C) else stats.chi2.cdf(C * C, d + 2)
            for h in (0.0, 0.5, 2.0, 6.0):
                theta = np.full(d, h / math.sqrt(n * d))
                oracle = stats.ncx2.sf(crit, d, v * h * h) if h else stats.chi2.sf(crit, d)
                assert abs(tscore_limit_power(n, d, alpha, C, theta) - oracle) < 1e-9

    @pytest.mark.parametrize("d, C", [(2, 3.0 * math.sqrt(2)), (5, 2.5)])
    def test_limit_power_matches_mc(self, d, C):
        n = 1_000
        model = GaussianLocationModel(n=n, d=d)
        test = truncated_score_test(model, 0.05, C)
        for h in (0.0, 3.0):
            theta = np.zeros(d)
            theta[0] = h / math.sqrt(n)
            limit = tscore_limit_power(n, d, 0.05, C, theta)
            est = estimate_rejection_prob(test, model, theta, McConfig(reps=8_000, master_seed=28))
            assert abs(est.mean - limit) <= 4.0 * est.se

    def test_limit_power_rejects_bad_radius(self):
        with pytest.raises(DomainError):
            tscore_limit_power(10, 2, 0.05, 0.0, np.zeros(2))

    def test_truncated_mean_shift_lower_bound(self):
        # the norm of the truncated-score mean shift stays proportional to
        # ||theta|| near the null (verified numerically on a grid; with the
        # default radius the truncation loses almost no mass)
        d = 2
        C = 3.0 * math.sqrt(d)
        rng = substream(16, "truncated-mean-shift")
        for magnitude in (0.1, 0.3, 0.5):
            x = rng.standard_normal((200_000, d))
            x[:, 0] += magnitude
            keep = (np.einsum("ij,ij->i", x, x) <= C * C).astype(float)
            shifted_mean = (x * keep[:, None]).mean(axis=0)
            assert np.linalg.norm(shifted_mean) >= 0.8 * magnitude


class TestWald:
    def test_zero_threshold_always_rejects(self):
        model = FixedDesignRegression.default_design(n=20, d=2)
        test = wald_test(model, 0.0)
        rng = substream(9, "wald-zero")
        z = rng.standard_normal((200, 2))
        assert np.all(test.evaluate_batch(z) == 1.0)

    def test_exact_size(self):
        model = FixedDesignRegression.default_design(n=100, d=5)
        test = wald_test_at_level(model, 0.05)
        est = estimate_rejection_prob(test, model, np.zeros(5), McConfig(reps=100_000, master_seed=14))
        assert abs(est.mean - 0.05) < 0.003

    def test_power_against_strong_signal(self):
        model = FixedDesignRegression.default_design(n=100, d=5)
        test = wald_test_at_level(model, 0.05)
        theta = np.zeros(5)
        theta[0] = 1.0  # sqrt(n) ||theta|| = 10
        exact = 1.0 - noncentral_chi2_cdf(5, 100.0, chi2_quantile(5, 0.95))
        assert exact >= 0.999
        est = estimate_rejection_prob(test, model, theta, McConfig(reps=20_000, master_seed=15))
        assert abs(est.mean - exact) <= 3 * est.se + 1e-6

    def test_negative_threshold_rejected(self):
        model = FixedDesignRegression.default_design(n=10, d=2)
        with pytest.raises(DomainError):
            wald_test(model, -1.0)


class TestSpecGrammar:
    def test_basic_specs(self):
        assert make_test("chi2:alpha=0.05", 100, 10).name == "chi2(alpha=0.05)"
        assert make_test("spike:i=3", 100, 10).name == "spike(i=3)"
        assert make_test("supnorm", 100, 10).name == "supnorm"
        assert make_test("one", 100, 10).name == "one"
        assert make_test("halfspace:alpha=0.1,seed=7", 100, 10).name == "halfspace(alpha=0.1,seed=7)"

    def test_enhance_composition(self):
        test = make_test("enhance(chi2:alpha=0.05,supnorm)", 100, 10)
        assert test.name == "enhance(chi2(alpha=0.05),supnorm)"
        nested = make_test("enhance(enhance(chi2:alpha=0.05,supnorm),spike:i=2)", 100, 10)
        assert nested.dim == 10

    def test_wald_requires_regression_model(self):
        with pytest.raises(SpecError):
            make_test("wald:alpha=0.05", 100, 5)
        model = FixedDesignRegression.default_design(n=100, d=5)
        assert make_test("wald:alpha=0.05", 100, 5, model=model).dim == 5

    def test_unknown_name(self):
        with pytest.raises(SpecError):
            make_test("bonferroni", 100, 10)

    def test_unknown_option(self):
        for spec in ("chi2:beta=0.05", "tscore:cal_seed=0", "tscore:cal_reps=10"):
            with pytest.raises(SpecError):
                make_test(spec, 100, 10)

    def test_malformed_enhance(self):
        with pytest.raises(SpecError):
            make_test("enhance(chi2:alpha=0.05)", 100, 10)

    def test_bad_alpha_is_domain_error(self):
        with pytest.raises(DomainError):
            make_test("chi2:alpha=1.5", 100, 10)
