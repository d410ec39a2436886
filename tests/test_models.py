"""Model tests: sampling laws, membership, information matrices, embedding."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from hdpower import (
    DomainError,
    FixedDesignRegression,
    GaussianLocationModel,
    ParameterError,
    ScaledGaussianModel,
    embed,
    gaussian_tv,
    spike_alternative,
    substream,
)

KS_LEVEL = 1e-3


@pytest.fixture()
def rng():
    return substream(0, "model-tests")


def _skewed_regression(n, d, noise_sd=1.0):
    """Regression on a seeded design whose columns share a common factor, so
    X'X is far from diagonal."""
    raw = substream(0, "skewed-design").standard_normal((n, d))
    return FixedDesignRegression(n=n, d=d, design=raw + raw[:, :1], noise_sd=noise_sd)


class TestGaussianLocation:
    def test_null_mean(self, rng):
        model = GaussianLocationModel(n=4, d=2)
        z = model.sample_statistic(np.zeros(2), rng, 100_000)
        assert np.all(np.abs(z.mean(axis=0)) < 3.0 / math.sqrt(100_000))

    def test_shifted_mean(self, rng):
        model = GaussianLocationModel(n=4, d=2)
        z = model.sample_statistic([1.0, 0.0], rng, 100_000)
        # sqrt(n) * theta = 2 e_1
        assert abs(z[:, 0].mean() - 2.0) < 3.0 / math.sqrt(100_000)
        assert abs(z[:, 1].mean()) < 3.0 / math.sqrt(100_000)

    def test_sufficiency_reduction_ks(self, rng):
        # per-coordinate law of the statistic is N(sqrt(n) theta_i, 1)
        model = GaussianLocationModel(n=100, d=5)
        spike = spike_alternative(100, 5, 2)
        for theta in (np.zeros(5), spike.theta):
            z = model.sample_statistic(theta, rng, 100_000)
            for j in range(5):
                loc = math.sqrt(100) * theta[j]
                p = stats.kstest(z[:, j], "norm", args=(loc, 1.0)).pvalue
                assert p > KS_LEVEL

    def test_observation_sampling_shape_and_mean(self, rng):
        model = GaussianLocationModel(n=7, d=3)
        x = model.sample_observations([0.5, 0.0, -0.5], rng, 20_000)
        assert x.shape == (20_000, 7, 3)
        means = x.mean(axis=(0, 1))
        assert np.all(np.abs(means - [0.5, 0.0, -0.5]) < 3.0 / math.sqrt(20_000 * 7))

    def test_observations_are_drawn_coordinate_major(self):
        n, d = 6, 4
        theta = np.array([0.5, -1.25, 0.0, 2.0])
        x = GaussianLocationModel(n=n, d=d).sample_observations(theta, substream(5, "layout"), 3)
        expected = substream(5, "layout").standard_normal((3, d, n)).transpose(0, 2, 1) + theta
        assert x.shape == (3, n, d)
        assert np.array_equal(x, expected)
        for i in range(3):
            for k in range(d):
                assert x[i, :, k].flags.c_contiguous

    def test_membership(self):
        model = GaussianLocationModel(n=10, d=2)
        assert model.contains([1e8, -1e8])
        assert not model.contains([float("nan"), 0.0])
        with pytest.raises(DomainError):
            model.contains([1.0, 2.0, 3.0])

    def test_information_is_identity(self):
        assert np.array_equal(GaussianLocationModel(n=5, d=3).information_matrix(), np.eye(3))


class TestScaledGaussian:
    def test_statistic_variance(self, rng):
        model = ScaledGaussianModel(n=100, d=4)
        z = model.sample_statistic(np.zeros(4), rng, 100_000)
        target = 4**3 / 100  # d^3 / n
        assert np.all(np.abs(z.var(axis=0) / target - 1.0) < 0.05)

    def test_membership_open_cube(self):
        model = ScaledGaussianModel(n=10, d=2)
        assert model.contains([0.5, -0.5])
        assert not model.contains([1.0, 0.0])
        assert not model.contains([0.0, -1.0])
        with pytest.raises(ParameterError):
            model.require_member([1.0, 0.0])

    def test_information_matrix(self):
        info = ScaledGaussianModel(n=50, d=2).information_matrix()
        assert np.allclose(info, np.eye(2) / 8.0)

    def test_nontestability_tv_scaling(self):
        # exact TV between statistic laws at theta and 0 along d = n equals
        # gaussian_tv(sqrt(n) ||theta|| / n^{3/2}) and is bounded by
        # gaussian_tv(n^{-1/2}) on the admissible cube
        for n in (16, 100, 1024):
            model = ScaledGaussianModel(n=n, d=n)
            theta = np.full(n, 0.9)
            exact = gaussian_tv(float(np.linalg.norm(theta)) / model.statistic_sd)
            alt = gaussian_tv(math.sqrt(n) * float(np.linalg.norm(theta)) / n**1.5)
            assert abs(exact - alt) < 1e-12
            assert exact <= gaussian_tv(n**-0.5) + 1e-12


class TestSpikeAlternative:
    def test_magnitude_large_d(self):
        # log(100) > 2, so the floor is inactive: sqrt(log(100) / 200)
        assert abs(spike_alternative(100, 100, 1).magnitude - 0.15174271293851466) < 1e-12

    def test_magnitude_floor(self):
        assert spike_alternative(100, 1, 1).magnitude == pytest.approx(0.1, abs=1e-15)

    def test_coordinate_symmetry(self):
        mags = {spike_alternative(50, 9, i).magnitude for i in range(1, 10)}
        assert len(mags) == 1

    def test_theta_vector(self):
        spike = spike_alternative(100, 4, 3)
        theta = spike.theta
        assert theta[2] == spike.magnitude
        assert np.count_nonzero(theta) == 1

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            spike_alternative(10, 4, 0)
        with pytest.raises(DomainError):
            spike_alternative(10, 4, 5)


class TestFixedDesignRegressionModel:
    def test_default_design_is_orthonormal(self):
        model = FixedDesignRegression.default_design(n=50, d=4)
        assert np.abs(model.gram / 50 - np.eye(4)).max() < 1e-12

    def test_noiseless_recovery(self, rng):
        model = FixedDesignRegression.default_design(n=30, d=3)
        theta = np.array([0.4, -1.2, 2.0])
        y = model.design @ theta
        assert np.abs(model.ols_estimate(y) - theta).max() < 1e-10

    def test_orthonormal_closed_form(self, rng):
        model = FixedDesignRegression.default_design(n=20, d=2)
        y = rng.standard_normal(20)
        assert np.allclose(model.ols_estimate(y), model.design.T @ y / 20, atol=1e-12)

    def test_ols_sampling_covariance(self, rng):
        model = _skewed_regression(n=40, d=3, noise_sd=0.5)
        theta = np.array([0.3, -0.2, 0.1])
        z = model.sample_statistic(theta, rng, 100_000)
        target = 0.25 * np.linalg.inv(model.gram / 40)  # sigma^2 (X'X/n)^{-1}
        scale = np.sqrt(np.outer(np.diag(target), np.diag(target)))
        assert np.all(np.abs(np.cov(z.T) - target) < 0.05 * scale)
        # each coordinate has the law of sqrt(n) times the OLS estimate of a response
        y = model.design @ theta + 0.5 * rng.standard_normal((100_000, 40))
        coef = math.sqrt(40) * model.ols_estimate(y)
        for j in range(3):
            assert stats.ks_2samp(z[:, j], coef[:, j]).pvalue > KS_LEVEL

    def test_central_sequence_null_law(self, rng):
        model = FixedDesignRegression.default_design(n=60, d=3)
        z = model.central_sequence(model.sample_statistic(np.zeros(3), rng, 100_000))
        cov = np.cov(z.T)
        assert np.abs(cov - np.eye(3)).max() < 0.05
        assert np.allclose(model.central_sequence(np.zeros(3)), np.zeros(3))

    def test_central_sequence_local_shift(self, rng):
        model = FixedDesignRegression.default_design(n=60, d=2)
        h = np.array([1.0, -0.5])
        z = model.central_sequence(model.sample_statistic(h / math.sqrt(60), rng, 100_000))
        target = model.gram / 60 @ h  # Q_d h at sigma = 1
        assert np.all(np.abs(z.mean(axis=0) - target) < 3.0 / math.sqrt(100_000))

    def test_statistic_carries_the_response_likelihood(self, rng):
        # on z = sqrt(n) * OLS estimate, the score and the log-likelihood
        # ratio equal their response forms n^{-1/2} X'y / sigma^2 and
        # (theta'X'y - theta'X'X theta / 2) / sigma^2
        model = _skewed_regression(n=30, d=4, noise_sd=0.5)
        theta = np.array([0.2, -0.1, 0.0, 0.3])
        y = model.design @ theta + 0.5 * rng.standard_normal((50, 30))
        z = math.sqrt(30) * model.ols_estimate(y)
        np.testing.assert_allclose(model.central_sequence(z), y @ model.design / (math.sqrt(30) * 0.25),
                                   rtol=1e-9, atol=1e-9)
        loglr = (y @ (model.design @ theta) - 0.5 * theta @ model.gram @ theta) / 0.25
        np.testing.assert_allclose(model.log_likelihood_ratio(z, theta), loglr, rtol=1e-9, atol=1e-9)

    def test_information_matrix(self):
        model = FixedDesignRegression.default_design(n=25, d=2)
        assert np.abs(model.information_matrix() - np.eye(2)).max() < 1e-12

    def test_rank_deficient_rejected(self):
        bad = np.ones((10, 2))
        with pytest.raises(DomainError):
            FixedDesignRegression(n=10, d=2, design=bad)

    @staticmethod
    def _design_with_cond(cond):
        # X = sqrt(n) U diag(1, cond^{-1/2}) V' gives X'X/n = V diag(1, 1/cond) V'
        n = 3
        u = np.linalg.qr(np.array([[1.0, 2.0], [0.5, -1.0], [2.0, 0.25]]))[0]
        c, s = math.cos(0.3), math.sin(0.3)
        v = np.array([[c, -s], [s, c]])
        design = math.sqrt(n) * u @ np.diag([1.0, cond**-0.5]) @ v.T
        assert np.linalg.cond(design.T @ design / n) == pytest.approx(cond, rel=1e-8)
        return n, design

    def test_condition_just_over_limit_rejected(self):
        n, design = self._design_with_cond(1e6 * (1.0 + 1e-6))
        with pytest.raises(DomainError, match=r"ill conditioned \(cond=1e\+06\)"):
            FixedDesignRegression(n=n, d=2, design=design)

    def test_condition_just_under_limit_builds(self):
        n, design = self._design_with_cond(1e6 * (1.0 - 1e-6))
        assert FixedDesignRegression(n=n, d=2, design=design).d == 2

    def test_wrong_response_length(self):
        model = FixedDesignRegression.default_design(n=10, d=2)
        with pytest.raises(DomainError):
            model.ols_estimate(np.zeros(9))


class TestCoordinateSampling:
    """sample_statistic(..., coordinate=k) draws only statistic coordinate k."""

    MODELS = {
        "gaussian": (GaussianLocationModel(n=100, d=5), [0.0, 0.0, 0.3, -0.1, 0.0]),
        "scaled": (ScaledGaussianModel(n=100, d=5), [0.0, 0.0, 0.3, -0.1, 0.0]),
        "regression": (_skewed_regression(n=6, d=3, noise_sd=0.5), [0.3, -0.1, 0.2]),
    }

    @staticmethod
    def _marginal(model, theta, k):
        """(mean, sd) of statistic coordinate k."""
        theta = np.asarray(theta)
        if isinstance(model, GaussianLocationModel):
            return math.sqrt(model.n) * theta[k], 1.0
        if isinstance(model, ScaledGaussianModel):
            return theta[k], model.statistic_sd
        cov = model.noise_sd**2 * np.linalg.inv(model.gram / model.n)
        return math.sqrt(model.n) * theta[k], math.sqrt(cov[k, k])

    @pytest.mark.parametrize("kind", sorted(MODELS))
    def test_column_is_that_coordinate_from_the_same_stream(self, kind):
        model, theta = self.MODELS[kind]
        k = 2
        col = model.sample_statistic(theta, substream(1, "column"), 1_000, coordinate=k)
        assert col.shape == (1_000, 1)
        mean, sd = self._marginal(model, theta, k)
        np.testing.assert_allclose(col[:, 0], mean + sd * substream(1, "column").standard_normal(1_000),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", sorted(MODELS))
    def test_column_law(self, kind, rng):
        model, theta = self.MODELS[kind]
        for k in (0, 2):
            col = model.sample_statistic(theta, rng, 50_000, coordinate=k)
            mean, sd = self._marginal(model, theta, k)
            assert stats.kstest(col[:, 0], "norm", args=(mean, sd)).pvalue > KS_LEVEL

    @pytest.mark.parametrize("kind", sorted(MODELS))
    def test_coordinate_out_of_range(self, kind, rng):
        model, theta = self.MODELS[kind]
        for k in (-1, model.d):
            with pytest.raises(DomainError, match="coordinate"):
                model.sample_statistic(theta, rng, 10, coordinate=k)

    def test_membership_checked_on_the_full_theta(self, rng):
        model = ScaledGaussianModel(n=10, d=3)
        with pytest.raises(ParameterError, match=r"theta\[2\]"):
            model.sample_statistic([0.0, 0.5, 1.0], rng, 10, coordinate=0)


class TestRowGrouping:
    """A sampler's rows do not depend on how many of them are drawn together,
    which the engine's row chunks rely on."""

    SAMPLERS = {
        "gaussian": (GaussianLocationModel(n=100, d=50), "sample_statistic"),
        "scaled": (ScaledGaussianModel(n=100, d=50), "sample_statistic"),
        "regression-default": (FixedDesignRegression.default_design(n=200, d=50), "sample_statistic"),
        "regression-skewed": (_skewed_regression(n=200, d=50, noise_sd=0.5), "sample_statistic"),
        "observations": (GaussianLocationModel(n=7, d=5), "sample_observations"),
    }

    @pytest.mark.parametrize("kind", sorted(SAMPLERS))
    def test_rows_drawn_in_groups_equal_one_draw(self, kind):
        model, method = self.SAMPLERS[kind]
        sample = getattr(model, method)
        theta = np.linspace(-0.5, 0.5, model.d)
        whole = sample(theta, substream(3, "row-grouping"), 12)
        rng = substream(3, "row-grouping")
        grouped = np.concatenate([sample(theta, rng, m) for m in (1, 3, 8)])
        assert np.array_equal(whole, grouped)


class TestEmbedding:
    def test_definition(self):
        assert np.array_equal(embed([1.0, 2.0], 4), [1.0, 2.0, 0.0, 0.0])

    def test_null_maps_to_null(self):
        assert np.array_equal(embed(np.zeros(2), 5), np.zeros(5))

    @given(
        st.lists(st.floats(min_value=-10, max_value=10), min_size=1, max_size=6),
        st.integers(min_value=1, max_value=5),
    )
    def test_norm_preserved(self, values, extra):
        theta = np.asarray(values)
        padded = embed(theta, len(values) + extra)
        assert math.isclose(
            float(np.linalg.norm(padded)), float(np.linalg.norm(theta)), abs_tol=1e-12
        )

    def test_dimension_must_grow(self):
        with pytest.raises(DomainError):
            embed([1.0, 2.0], 2)

    def test_marginal_equality_ks(self, rng):
        # first d1 coordinates of the embedded experiment's statistic match
        # the d1-dimensional experiment's statistic in law
        n, d1, d2 = 64, 2, 6
        theta = np.array([0.8, -0.3])
        small = GaussianLocationModel(n=n, d=d1)
        big = GaussianLocationModel(n=n, d=d2)
        z_small = small.sample_statistic(theta, substream(1, "embed-a"), 100_000)
        z_big = big.sample_statistic(embed(theta, d2), substream(2, "embed-b"), 100_000)
        for j in range(d1):
            p = stats.ks_2samp(z_small[:, j], z_big[:, j]).pvalue
            assert p > KS_LEVEL
