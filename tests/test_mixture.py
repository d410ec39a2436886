"""Mixture-machinery tests: likelihood ratio, exact second moment, the
power-gap bound, and the blind-spot finder."""

import dataclasses
import json
import math

import numpy as np
import pytest

from hdpower import (
    BlindSpotReport,
    DomainError,
    GaussianLocationModel,
    McConfig,
    PowerEstimate,
    RegimeSpec,
    average_spike_power,
    chi2_euclidean_test,
    constant_test,
    enhance,
    enhanceability_demo,
    find_blind_spot,
    halfspace_test,
    mixture_diagnostics,
    mixture_likelihood_ratio,
    power_gap_bound,
    second_moment_minus_one,
    spike_alternative,
    spike_z_test,
    make_test,
    substream,
    sup_norm_test,
)
from hdpower import mc as mc_module
from hdpower import testfuncs
from hdpower.mixture import MixtureDiagnostics, _spike_scan
from test_harness import CountingGenerator, _traced_peak


class ShrunkMinimum:
    """numpy, except that minimum undercuts its first argument."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def minimum(a, b):
        return np.minimum(a, b) - 0.5


class TestMixtureLikelihoodRatio:
    def test_zero_statistic_d16(self):
        # each term is e^{-n a^2 / 2} = d^{-1/4}
        assert abs(mixture_likelihood_ratio(np.zeros(16), 100, 16) - 0.5) < 1e-12

    def test_single_component(self):
        n, d = 49, 1
        a = 1.0 / math.sqrt(n)  # floored magnitude
        z = np.array([1.3])
        expected = math.exp(math.sqrt(n) * a * z[0] - n * a * a / 2.0)
        assert abs(mixture_likelihood_ratio(z, n, d) - expected) < 1e-12

    def test_strictly_positive_on_extremes(self):
        z = np.full(8, -1e6)
        assert mixture_likelihood_ratio(z, 100, 8) > 0.0

    def test_null_expectation_is_one(self):
        n, d = 100, 64
        rng = substream(21, "mixture-null-mean")
        total = 0.0
        total_sq = 0.0
        reps = 1_000_000
        for _ in range(10):
            z = rng.standard_normal((reps // 10, d))
            vals = mixture_likelihood_ratio(z, n, d)
            total += vals.sum()
            total_sq += (vals * vals).sum()
        mean = total / reps
        se = math.sqrt((total_sq / reps - mean**2) / reps)
        assert abs(mean - 1.0) < 3 * se

    def test_spike_expectation_cross_moment(self):
        # under the spike at coordinate i: E[L] = 1 + (e^{n a^2} - 1)/d
        n, d = 100, 16
        rng = substream(22, "mixture-spike-mean")
        shift = math.sqrt(n) * spike_alternative(n, d, 3).magnitude
        reps = 400_000
        z = rng.standard_normal((reps, d))
        z[:, 2] += shift
        vals = mixture_likelihood_ratio(z, n, d)
        expected = 1.0 + second_moment_minus_one(n, d)
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean() - expected) < 3 * se

    def test_log_domain_matches_naive(self):
        n, d = 100, 8
        rng = substream(23, "mixture-naive")
        mag = spike_alternative(n, d, 1).magnitude
        z = rng.standard_normal((1_000, d)) * 2
        naive = np.exp(math.sqrt(n) * mag * z - n * mag * mag / 2.0).mean(axis=1)
        ours = mixture_likelihood_ratio(z, n, d)
        assert np.all(np.abs(ours - naive) <= 1e-12 * np.abs(naive))

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            mixture_likelihood_ratio(np.zeros(5), 100, 8)


class TestSecondMoment:
    def test_floor_inactive_closed_form(self):
        # d = 16: exp(log(16)/2) = 4, so (4 - 1)/16
        assert second_moment_minus_one(100, 16) == pytest.approx(0.1875, abs=1e-15)
        assert second_moment_minus_one(100, 256) == pytest.approx(1 / 16 - 1 / 256, abs=1e-15)

    def test_single_component_floor(self):
        assert second_moment_minus_one(100, 1) == pytest.approx(math.e - 1.0, abs=1e-12)

    def test_monte_carlo_agreement(self):
        n, d = 100, 16
        rng = substream(24, "second-moment-mc")
        reps = 1_000_000
        total = 0.0
        total_sq = 0.0
        for _ in range(10):
            z = rng.standard_normal((reps // 10, d))
            sq = mixture_likelihood_ratio(z, n, d) ** 2
            total += sq.sum()
            total_sq += (sq * sq).sum()
        mean = total / reps
        se = math.sqrt((total_sq / reps - mean**2) / reps)
        assert abs((mean - 1.0) - 0.1875) < 3 * se


class TestPowerGapBound:
    def test_frozen_values(self):
        assert power_gap_bound(100, 16) == pytest.approx(math.sqrt(0.1875), abs=1e-15)
        assert power_gap_bound(256, 256) == pytest.approx(0.24206145913796354, abs=1e-12)

    def test_decreasing_in_d(self):
        vals = [power_gap_bound(100, d) for d in range(3, 200)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_diagnostics_bound_holds(self):
        for d in (3, 4, 16, 64, 256, 4096):
            diag = mixture_diagnostics(100, d)
            assert diag.second_moment_minus_one <= diag.paper_bound + 1e-12
            assert diag.power_gap_bound == pytest.approx(
                math.sqrt(diag.second_moment_minus_one), abs=1e-15
            )

    def test_inconsistent_diagnostics_rejected(self):
        with pytest.raises(DomainError):
            MixtureDiagnostics(
                n=100, d=16, second_moment_minus_one=0.1875, paper_bound=0.25, power_gap_bound=0.9
            )


class TestAverageSpikePower:
    def test_constant_one(self):
        model = GaussianLocationModel(n=32, d=4)
        est = average_spike_power(constant_test(4), model, McConfig(reps=1_000, master_seed=1))
        assert est.mean == 1.0
        assert est.se == 0.0

    def test_coordinate_symmetry_for_invariant_test(self):
        n, d = 100, 8
        model = GaussianLocationModel(n=n, d=d)
        test = chi2_euclidean_test(n, d, 0.05)
        means, ses, _, _ = _spike_scan(test, model, McConfig(reps=5_000, master_seed=2))
        for i in range(d):
            for j in range(i + 1, d):
                assert abs(means[i] - means[j]) <= 3 * (ses[i] + ses[j])

    def test_gap_bound_across_tests_small_grid(self):
        for n, d in ((100, 16), (100, 64)):
            model = GaussianLocationModel(n=n, d=d)
            tests = [
                chi2_euclidean_test(n, d, 0.05),
                sup_norm_test(n, d),
                spike_z_test(n, d, 1),
                enhance(chi2_euclidean_test(n, d, 0.05), spike_z_test(n, d, 1)),
                halfspace_test(n, d, 0.05, seed=5),
            ]
            mc = McConfig(reps=1_500, master_seed=3)
            for test in tests:
                _, _, pooled, size = _spike_scan(test, model, mc)
                slack = 3.0 * (size.se + pooled.se)
                assert abs(size.mean - pooled.mean) <= power_gap_bound(n, d) + slack


class TestFindBlindSpot:
    def test_constant_one_tie_breaks_to_first_coordinate(self):
        model = GaussianLocationModel(n=20, d=4)
        report = find_blind_spot(constant_test(4), model, McConfig(reps=1_000, master_seed=4))
        assert report.coordinate == 1
        assert report.power_at_spike.mean == 1.0

    def test_spike_test_blind_spot_elsewhere(self):
        # the spike z-test covers its own coordinate; blind spots are the rest
        n, d = 256, 16
        model = GaussianLocationModel(n=n, d=d)
        report = find_blind_spot(spike_z_test(n, d, 1), model, McConfig(reps=3_000, master_seed=5))
        assert report.coordinate != 1

    def test_report_serialization_round_trip(self):
        n, d = 100, 8
        model = GaussianLocationModel(n=n, d=d)
        report = find_blind_spot(
            chi2_euclidean_test(n, d, 0.05), model, McConfig(reps=1_000, master_seed=6)
        )
        payload = json.dumps(report.to_dict())
        restored = BlindSpotReport.from_dict(json.loads(payload))
        assert restored == report
        assert restored.suggested_component == f"spike:i={report.coordinate}"

    def test_minimum_replications_enforced(self):
        model = GaussianLocationModel(n=20, d=4)
        with pytest.raises(DomainError):
            find_blind_spot(constant_test(4), model, McConfig(reps=500, master_seed=0))

    def test_gap_invariant_enforced(self):
        n, d = 100, 8
        model = GaussianLocationModel(n=n, d=d)
        report = find_blind_spot(
            chi2_euclidean_test(n, d, 0.05), model, McConfig(reps=2_000, master_seed=7)
        )
        slack = 3.0 * (report.size.se + report.average_spike_power.se)
        assert abs(report.size.mean - report.average_spike_power.mean) <= report.gap_bound + slack


def _records():
    n, d = 100, 16
    size = PowerEstimate(mean=0.05, se=0.005, reps=1_000, seed=3)
    report = BlindSpotReport(
        test_name="chi2(alpha=0.05)",
        n=n,
        d=d,
        coordinate=4,
        spike=spike_alternative(n, d, 4),
        power_at_spike=PowerEstimate(mean=0.04, se=0.006, reps=1_000, seed=3),
        size=size,
        average_spike_power=PowerEstimate(mean=0.07, se=0.004, reps=1_000, seed=3),
        gap_bound=power_gap_bound(n, d),
        suggested_component="spike:i=4",
    )
    return [size, spike_alternative(n, d, 4), mixture_diagnostics(n, d), report]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_record_json_round_trip(record):
    data = json.loads(json.dumps(record.to_dict()))
    assert type(record).from_dict(data) == record
    with pytest.raises(TypeError):
        type(record).from_dict({**data, "unknown": 0})


KERNEL_SPECS = (
    "chi2",
    "supnorm",
    "halfspace:seed=5",
    "spike:i=3",
    "one",
    "enhance(chi2,supnorm)",
    "enhance(halfspace,spike:i=3)",
)


def _counted(test):
    """The test with its black box wrapped in a call counter."""
    calls = []

    def batch(z):
        calls.append(z.shape[0])
        return test.batch(z)

    return dataclasses.replace(test, batch=batch), calls


def _same_scan(a, b):
    return (
        np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1]) and a[2] == b[2] and a[3] == b[3]
    )


class TestSpikeKernelScan:
    # d = 20 walks 4096-row blocks in column chunks of 8, 8 and 4; the 904-row
    # second block takes all 20 columns in one chunk
    N, D = 64, 20

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("spec", KERNEL_SPECS)
    def test_kernel_path_equals_coordinate_loop(self, spec, workers):
        test = make_test(spec, self.N, self.D)
        assert test.spike_kernel is not None
        model = GaussianLocationModel(n=self.N, d=self.D)
        mc = McConfig(reps=5_000, master_seed=13, workers=workers)
        kernel = _spike_scan(test, model, mc)
        loop = _spike_scan(dataclasses.replace(test, spike_kernel=None), model, mc)
        assert _same_scan(kernel, loop)

    def test_non_dyadic_values_reduce_in_loop_order(self):
        # 0.3-valued rows make the sums order-sensitive
        n, d = self.N, self.D
        test = enhance(spike_z_test(n, d, 2), constant_test(d, 0.3))
        model = GaussianLocationModel(n=n, d=d)
        mc = McConfig(reps=5_000, master_seed=14)
        loop = _spike_scan(dataclasses.replace(test, spike_kernel=None), model, mc)
        assert _same_scan(_spike_scan(test, model, mc), loop)

    @pytest.mark.parametrize("spec", KERNEL_SPECS)
    def test_kernel_columns_match_shifted_batches(self, spec):
        # rows 0 and 1 tie for the largest |z_j| (with equal and opposite
        # signs), row 2 has a single top coordinate
        d = 4
        test = make_test(spec, 100, d)
        z = np.array([
            [1.7, -1.7, 0.1, 0.0],
            [0.2, 1.7, 1.7, -0.3],
            [1.7, 0.1, 0.0, 0.0],
            [-0.4, 2.9, 0.3, 1.1],
        ])
        before = z.copy()
        for shift in (-3.4, -1.7, 0.5, 2.0):
            cols = test.spike_columns(z, shift)
            assert np.array_equal(z, before)
            got = cols(0, d)
            for i in range(d):
                shifted = z.copy()
                shifted[:, i] += shift
                assert np.array_equal(got[:, i], test.evaluate_batch(shifted))
            assert np.array_equal(cols(1, 3), got[:, 1:3])

    @pytest.mark.parametrize("spec", KERNEL_SPECS)
    def test_built_in_test_calls_black_box_once_per_block(self, spec):
        test, calls = _counted(make_test(spec, self.N, self.D))
        model = GaussianLocationModel(n=self.N, d=self.D)
        _spike_scan(test, model, McConfig(reps=5_000, master_seed=15))
        assert calls == [4096, 904]

    def test_black_box_keeps_coordinate_loop(self):
        n, d = 64, 6
        base = chi2_euclidean_test(n, 3, 0.05)
        pulled_back = testfuncs.TestFunction(
            name="pullback", dim=d, batch=lambda z: base.evaluate_batch(z[:, :3])
        )
        test, calls = _counted(pulled_back)
        mc = McConfig(reps=5_000, master_seed=17)
        means, ses, pooled, null = _spike_scan(test, GaussianLocationModel(n=n, d=d), mc)
        assert calls == [4096] * (d + 1) + [904] * (d + 1)
        # the per-coordinate scan's values on this seed
        assert means.tolist() == [0.1212, 0.113, 0.1168, 0.0474, 0.0474, 0.0474]
        assert ses[0] == 0.004615882718901654
        assert (pooled.mean, pooled.se) == (0.0822, 0.0028337674653382415)
        assert (null.mean, null.se) == (0.0474, 0.003005404214227793)

    def test_observation_test_keeps_coordinate_loop(self):
        n, d = 16, 3
        test, calls = _counted(make_test("tscore", n, d))
        assert test.spike_kernel is None
        mc = McConfig(reps=1_500, master_seed=17)
        means, _, pooled, null = _spike_scan(test, GaussianLocationModel(n=n, d=d), mc)
        assert calls == [1_500] * (d + 1)
        assert means.tolist() == [0.116, 0.12, 0.12]
        assert (pooled.mean, pooled.se) == (0.11866666666666664, 0.006326258390840723)
        assert (null.mean, null.se) == (0.038, 0.004938311919716184)
        # brute force: the scan's one block, re-evaluated with each spike added
        draws = GaussianLocationModel(n, d).sample_observations(
            np.zeros(d), substream(17, "spike-scan", 0), 1_500
        )
        assert test.batch(draws).mean() == null.mean
        for i in range(d):
            assert test.batch(draws + spike_alternative(n, d, i + 1).theta).mean() == means[i]

    def test_enhance_without_both_kernels_has_none(self):
        n, d = 16, 3
        tscore = make_test("tscore", n, d)
        assert enhance(tscore, tscore).spike_kernel is None
        base = chi2_euclidean_test(n, d, 0.05)
        assert enhance(base, dataclasses.replace(base, spike_kernel=None)).spike_kernel is None

    @staticmethod
    def _constant_kernel(value):
        return lambda z, shift: (lambda lo, hi: np.full((z.shape[0], hi - lo), value))

    def test_out_of_range_kernel_raises(self):
        bad = testfuncs.TestFunction(
            name="bad", dim=4, batch=lambda z: np.zeros(len(z)), spike_kernel=self._constant_kernel(1.5)
        )
        model = GaussianLocationModel(n=20, d=4)
        with pytest.raises(DomainError, match="outside"):
            _spike_scan(bad, model, McConfig(reps=1_000, master_seed=0))

    def test_kernel_values_within_slack_are_clipped(self):
        near = testfuncs.TestFunction(
            name="near", dim=4, batch=lambda z: np.zeros(len(z)),
            spike_kernel=self._constant_kernel(1.0 + 1e-13),
        )
        means, ses, pooled, _ = _spike_scan(
            near, GaussianLocationModel(n=20, d=4), McConfig(reps=1_000, master_seed=0)
        )
        assert means.tolist() == [1.0] * 4 and ses.tolist() == [0.0] * 4
        assert pooled.mean == 1.0

    def test_enhance_kernel_checks_dominance(self, monkeypatch):
        d = 8
        psi = enhance(chi2_euclidean_test(100, d, 0.05), sup_norm_test(100, d))
        z = substream(0, "dominance").standard_normal((16, d))
        monkeypatch.setattr(testfuncs, "np", ShrunkMinimum())
        with pytest.raises(DomainError, match="dominance"):
            psi.evaluate_batch(z)
        cols = psi.spike_columns(z, 2.0)
        with pytest.raises(DomainError, match="dominance"):
            cols(0, d)

    def test_demo_never_reports_violated_dominance(self, monkeypatch):
        # the demo's pointwise_dominance check rests on enhance() raising
        regime = RegimeSpec("linear", (16, 32))
        monkeypatch.setattr(testfuncs, "np", ShrunkMinimum())
        with pytest.raises(DomainError, match="dominance"):
            enhanceability_demo("chi2:alpha=0.05", regime, McConfig(reps=1_000, master_seed=26))


def _pulled_back(n, d):
    """A black-box test of the first three coordinates, with no spike kernel."""
    base = chi2_euclidean_test(n, 3, 0.05)
    return testfuncs.TestFunction(name="pullback", dim=d, batch=lambda z: base.evaluate_batch(z[:, :3]))


class TestScanRowChunks:
    N, D = 64, 20

    @staticmethod
    def _scan(monkeypatch, test, n, d, mc, three_rows):
        """The scan in three-row chunks (uneven: a 4096-row block leaves a
        one-row tail), or with each block in one chunk."""
        elems = d if test.consumes == "statistic" else n * d
        # a two-block map gets the pool at workers 2, however few its elements
        monkeypatch.setattr(mc_module, "_POOL_MIN_ELEMS", 0)
        monkeypatch.setattr(mc_module, "_CHUNK_ELEMS", 3 * elems + 1 if three_rows else 1 << 23)
        return _spike_scan(test, GaussianLocationModel(n=n, d=d), mc)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("spec", KERNEL_SPECS + ("pullback", "tscore"))
    def test_chunk_size_does_not_move_the_scan(self, monkeypatch, spec, workers):
        n, d, reps = self.N, self.D, 5_000
        if spec == "pullback":
            test = _pulled_back(n, d)
        elif spec.startswith("tscore"):
            n, d, reps = 16, 3, 4_500
            test = make_test(spec, n, d)
        else:
            test = make_test(spec, n, d)
        mc = McConfig(reps=reps, master_seed=19, workers=workers)
        assert len(mc_module.block_layout(reps, d if test.consumes == "statistic" else n * d)) == 2
        chunked, whole = (self._scan(monkeypatch, test, n, d, mc, three_rows) for three_rows in (True, False))
        assert _same_scan(chunked, whole)

    def test_non_dyadic_kernel_equals_loop_in_three_row_chunks(self, monkeypatch):
        n, d = self.N, self.D
        test = enhance(spike_z_test(n, d, 2), constant_test(d, 0.3))
        mc = McConfig(reps=1_000, master_seed=14)
        kernel, loop = (
            self._scan(monkeypatch, t, n, d, mc, True) for t in (test, dataclasses.replace(test, spike_kernel=None))
        )
        assert _same_scan(kernel, loop)

    def test_non_dyadic_sums_are_within_rounding_of_exact_sums(self, monkeypatch):
        # the chunked sums of 0.3-valued rows associate differently from a
        # whole-block sum, but only by rounding
        n, d, reps = self.N, self.D, 1_000
        test = enhance(spike_z_test(n, d, 2), constant_test(d, 0.3))
        means, _, pooled, null = self._scan(monkeypatch, test, n, d, McConfig(reps=reps, master_seed=14), True)
        z = substream(14, "spike-scan", 0).standard_normal((reps, d))
        shift = math.sqrt(n) * spike_alternative(n, d, 1).theta[0]
        spiked = []
        for i in range(d):
            shifted = z.copy()
            shifted[:, i] += shift
            spiked.append(test.evaluate_batch(shifted))
        exact = [math.fsum(v) / reps for v in spiked]
        assert np.allclose(means, exact, rtol=0.0, atol=1e-12)
        assert abs(pooled.mean - math.fsum(np.concatenate(spiked)) / (reps * d)) < 1e-12
        assert abs(null.mean - math.fsum(test.evaluate_batch(z)) / reps) < 1e-12


class TestScanMemory:
    N = D = 4096

    @pytest.mark.parametrize("spec", ["chi2", "supnorm", "halfspace"])
    def test_scan_holds_one_row_chunk(self, spec):
        test = make_test(spec, self.N, self.D)
        model = GaussianLocationModel(n=self.N, d=self.D)
        mc = McConfig(reps=1_024, master_seed=0)
        # the scan's one 1024-row block is 32 MB of draws
        assert _traced_peak(lambda: _spike_scan(test, model, mc)) < 10 << 20

    def test_each_normal_draw_is_at_most_one_chunk(self, monkeypatch):
        n, d, reps = self.N, self.D, 2_500
        draws: dict[tuple, list[int]] = {}
        original = mc_module.substream
        monkeypatch.setattr(
            mc_module, "substream", lambda *key: CountingGenerator(original(*key), draws.setdefault(key, []))
        )
        _spike_scan(make_test("chi2", n, d), GaussianLocationModel(n=n, d=d), McConfig(reps=reps))
        blocks = mc_module.block_layout(reps, d)
        assert sorted(key[-1] for key in draws) == [b for b, _ in blocks]
        for b, m in blocks:
            sizes = draws[(0, "spike-scan", b)]
            assert sum(sizes) == m * d
            assert max(sizes) <= mc_module._CHUNK_ELEMS
