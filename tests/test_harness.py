"""Harness tests: MC engine determinism, regime runner, diagnostics."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from hdpower import (
    DomainError,
    FixedDesignRegression,
    GaussianLocationModel,
    McConfig,
    ParameterError,
    RegimeSpec,
    ResultRow,
    ScaledGaussianModel,
    SpecError,
    chi2_exact_power,
    chi2_euclidean_test,
    chi2_quantile,
    consistency_diagnostic,
    constant_test,
    embedding_equivalence_check,
    enhance,
    enhanceability_demo,
    estimate_rejection_prob,
    estimate_rejection_probs,
    example2_nontestability_curve,
    find_blind_spot,
    gaussian_tv,
    lan_remainder_check,
    make_test,
    rows_to_csv,
    run_regime,
    spike_alternative,
    spike_z_test,
    sup_norm_test,
)
from hdpower import mc as mc_module
from hdpower import harness
from hdpower.cli import main
from hdpower.harness import RESULT_COLUMNS, ks_two_sample
from hdpower.mc import block_layout, map_blocks, mean_se, row_chunks
from hdpower.rng import substream


class TestMapBlocks:
    def test_matches_hand_loop_for_any_worker_count(self):
        reps, elems, seed, tag = 10_000, 2_000, 17, "map-blocks-test"
        layout = block_layout(reps, elems)
        assert len(layout) > 2
        assert layout[-1][1] < layout[0][1]
        # reference: one substream per block, written at the block's offset
        reference = np.empty(reps)
        offset = 0
        for b, m in layout:
            reference[offset : offset + m] = substream(seed, tag, b).standard_normal(m)
            offset += m
        results = {}
        for workers in (1, 3):
            mc = McConfig(reps=reps, master_seed=seed, workers=workers)
            results[workers] = np.concatenate(
                map_blocks(mc, tag, elems, lambda rng, m: rng.standard_normal(m))
            )
        np.testing.assert_array_equal(results[1], reference)
        np.testing.assert_array_equal(results[3], results[1])

    @staticmethod
    def _count_pools(monkeypatch):
        import concurrent.futures

        built = []

        class CountingPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingPool)
        return built

    def test_small_map_runs_without_a_pool(self, monkeypatch):
        # a lone single-coordinate test draws one column: 25 blocks of 4096
        # normals, which a thread pool only slows down
        built = self._count_pools(monkeypatch)
        model = GaussianLocationModel(n=100, d=2981)
        test = spike_z_test(100, 2981, 1)
        theta = np.zeros(2981)
        est = {
            w: estimate_rejection_prob(test, model, theta, McConfig(reps=100_000, master_seed=9, workers=w))
            for w in (1, 2)
        }
        assert built == []
        assert json.dumps(est[2].to_dict()) == json.dumps(est[1].to_dict())

    def test_full_width_map_still_gets_a_pool(self, monkeypatch):
        built = self._count_pools(monkeypatch)
        model = GaussianLocationModel(n=100, d=300)
        mc = McConfig(reps=2 * mc_module.BLOCK_REPS, master_seed=9, workers=2)
        estimate_rejection_prob(chi2_euclidean_test(100, 300, 0.05), model, np.zeros(300), mc)
        assert built == [2]


class TestMeanSe:
    def test_array_call_matches_scalar_calls_bit_for_bit(self):
        rng = substream(4, "mean-se")
        for count in (1, 2, 1_000, 10_007):
            vals = (rng.random((count, 64)) < rng.random(64)).astype(float)
            vals[:, :8] = rng.random((count, 8))
            total, total_sq = vals.sum(axis=0), (vals * vals).sum(axis=0)
            means, ses = mean_se(count, total, total_sq)
            for k in range(vals.shape[1]):
                mean, se = mean_se(count, float(total[k]), float(total_sq[k]))
                assert float(means[k]).hex() == float(mean).hex()
                assert float(ses[k]).hex() == float(se).hex()


class TestEstimateRejectionProb:
    def test_constant_one(self):
        model = GaussianLocationModel(n=10, d=3)
        est = estimate_rejection_prob(constant_test(3), model, np.zeros(3), McConfig(reps=100, master_seed=0))
        assert est.mean == 1.0
        assert est.se == 0.0
        assert est.reps == 100

    def test_power_matches_noncentral_oracle(self):
        n, d, alpha = 100, 10, 0.05
        theta = np.zeros(d)
        theta[0] = math.sqrt(20.0 / n)  # noncentrality 20
        exact = chi2_exact_power(n, d, alpha, theta)
        model = GaussianLocationModel(n=n, d=d)
        est = estimate_rejection_prob(
            chi2_euclidean_test(n, d, alpha), model, theta, McConfig(reps=20_000, master_seed=1)
        )
        assert abs(est.mean - exact) < 3 * est.se

    def test_membership_failure(self):
        model = ScaledGaussianModel(n=10, d=2)
        with pytest.raises(ParameterError):
            estimate_rejection_prob(
                constant_test(2), model, [1.0, 0.0], McConfig(reps=10, master_seed=0)
            )

    def test_worker_count_invariance(self):
        # 10000 reps x 128 coordinates: enough draws to run on a thread pool
        n, d = 100, 128
        model = GaussianLocationModel(n=n, d=d)
        test = chi2_euclidean_test(n, d, 0.05)
        results = [
            estimate_rejection_prob(
                test, model, np.zeros(d), McConfig(reps=10_000, master_seed=3, workers=w)
            )
            for w in (1, 4, 8)
        ]
        assert results[0] == results[1] == results[2]

    def test_estimator_sanity_across_100_seeds(self):
        # the chi-square test has exact size alpha; across 100 independent
        # harness runs the estimate should sit within 4 SE essentially always
        n, d, alpha = 100, 10, 0.05
        model = GaussianLocationModel(n=n, d=d)
        test = chi2_euclidean_test(n, d, alpha)
        failures = 0
        for seed in range(100):
            est = estimate_rejection_prob(
                test, model, np.zeros(d), McConfig(reps=2_000, master_seed=seed)
            )
            se = math.sqrt(alpha * (1 - alpha) / est.reps)
            if abs(est.mean - alpha) > 4 * se:
                failures += 1
        assert failures <= 2


class CountingGenerator:
    """A numpy Generator that records the size of every normal draw."""

    def __init__(self, gen, sizes):
        self._gen, self._sizes = gen, sizes

    def standard_normal(self, size=None, *args, **kwargs):
        out = self._gen.standard_normal(size, *args, **kwargs)
        self._sizes.append(int(np.size(out)))
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


class TestSingleCoordinateSampling:
    @staticmethod
    def _normals_per_block(monkeypatch, test, model, reps):
        sizes = []
        original = mc_module.substream
        monkeypatch.setattr(
            mc_module, "substream", lambda *key: CountingGenerator(original(*key), sizes)
        )
        estimate_rejection_prob(test, model, np.zeros(model.d), McConfig(reps=reps, master_seed=0))
        return sizes

    def test_spike_draws_one_column_chi2_all(self, monkeypatch):
        n, d, reps = 100, 64, 10_000
        model = GaussianLocationModel(n=n, d=d)
        rows = [m for _, m in block_layout(reps, 1)]
        for spec in ("spike:i=7", "enhance(spike:i=7,spike:i=7)"):
            test = make_test(spec, n, d)
            assert self._normals_per_block(monkeypatch, test, model, reps) == rows
        chi2 = chi2_euclidean_test(n, d, 0.05)
        rows = [m * d for _, m in block_layout(reps, d)]
        assert self._normals_per_block(monkeypatch, chi2, model, reps) == rows

    def test_unread_coordinate_outside_the_cube_is_rejected(self):
        model = ScaledGaussianModel(n=10, d=3)
        with pytest.raises(ParameterError):
            estimate_rejection_prob(
                spike_z_test(10, 3, 1), model, [0.0, 0.0, 1.0], McConfig(reps=10, master_seed=0)
            )


class TestEstimateRejectionProbs:
    def test_equals_separate_calls_when_a_test_reads_every_coordinate(self):
        n, d = 64, 16
        model = GaussianLocationModel(n=n, d=d)
        spike = spike_z_test(n, d, 3)
        tests = [chi2_euclidean_test(n, d, 0.05), spike, enhance(chi2_euclidean_test(n, d, 0.05), spike)]
        mc = McConfig(reps=9_000, master_seed=41)
        for theta in (np.zeros(d), spike_alternative(n, d, 3).theta):
            joint = estimate_rejection_probs(tests, model, theta, mc, tag="joint")
            # a full-width draw is shared, so the spike test is estimated as
            # if it read every coordinate
            full_width = [dataclasses.replace(t, coordinate=None) for t in tests]
            assert joint == [estimate_rejection_prob(t, model, theta, mc, tag="joint") for t in full_width]
            assert joint[0] == estimate_rejection_prob(tests[0], model, theta, mc, tag="joint")
            assert joint[2] == estimate_rejection_prob(tests[2], model, theta, mc, tag="joint")

    def test_shared_column_keeps_pointwise_relations(self):
        n, d = 100, 500
        model = GaussianLocationModel(n=n, d=d)
        nu = spike_z_test(n, d, 9)
        psi = enhance(nu, nu)
        mc = McConfig(reps=20_000, master_seed=42)
        joint = estimate_rejection_probs([nu, psi], model, np.zeros(d), mc)
        assert joint == [estimate_rejection_prob(nu, model, np.zeros(d), mc)] * 2

    def test_needs_one_input_kind(self):
        n, d = 6, 2
        model = GaussianLocationModel(n=n, d=d)
        tscore = make_test("tscore", n, d, model=model)
        with pytest.raises(DomainError, match="input kind"):
            estimate_rejection_probs([tscore, constant_test(d)], model, np.zeros(d), McConfig(reps=10))
        with pytest.raises(DomainError):
            estimate_rejection_probs([], model, np.zeros(d), McConfig(reps=10))


def _chunk_parity_cases():
    n, d = 100, 300
    gauss = GaussianLocationModel(n=n, d=d)
    spike = spike_alternative(n, d, 5).theta
    chi2 = chi2_euclidean_test(n, d, 0.05)
    regression = FixedDesignRegression.default_design(400, 5)
    obs = GaussianLocationModel(n=1_000, d=2)
    return {
        "chi2": ([chi2], gauss, np.zeros(d), 5_000),
        "halfspace": ([make_test("halfspace:seed=3", n, d)], gauss, spike, 5_000),
        "spike-column": ([spike_z_test(n, d, 5)], gauss, spike, 5_000),
        "constant-0.3": ([constant_test(d, 0.3)], gauss, np.zeros(d), 5_000),
        "scaled": ([make_test("halfspace:seed=4", n, d)], ScaledGaussianModel(n=n, d=d), np.full(d, 0.5), 5_000),
        "wald": ([make_test("wald", 400, 5, model=regression)], regression, np.full(5, 0.03), 5_000),
        "tscore": ([make_test("tscore", 1_000, 2, model=obs)], obs, [1_000**-0.25, 0.0], 1_000),
        "common": ([chi2, sup_norm_test(n, d), make_test("enhance(chi2,supnorm)", n, d)], gauss, spike, 5_000),
    }


_PARITY_CASES = _chunk_parity_cases()


class TestRowChunks:
    def test_chunks_cover_the_block(self):
        for m, elems in ((4096, 1), (4096, 64), (1407, 2981), (7, 1 << 20), (1, 5)):
            chunks = row_chunks(m, elems)
            assert chunks[0][0] == 0 and chunks[-1][1] == m
            assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
            assert all(1 <= hi - lo and ((hi - lo) * elems <= mc_module._CHUNK_ELEMS or hi - lo == 1)
                       for lo, hi in chunks)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("case", sorted(_PARITY_CASES))
    def test_chunk_size_does_not_move_estimates(self, monkeypatch, case, workers):
        tests, model, theta, reps = _PARITY_CASES[case]
        if tests[0].consumes == "observations":
            elems = model.n * model.d
        else:
            elems = 1 if tests[0].coordinate is not None else model.d
        mc = McConfig(reps=reps, master_seed=17, workers=workers)
        results = []
        # three rows per chunk leaves a one-row tail in a 4096-row block;
        # 2^23 elements exceed any block, so each block is one chunk
        for chunk in (3 * elems, 1 << 23):
            monkeypatch.setattr(mc_module, "_CHUNK_ELEMS", chunk)
            results.append(estimate_rejection_probs(tests, model, theta, mc, tag="chunk-parity"))
        assert results[0] == results[1]
        assert 0.0 < sum(e.mean for e in results[0]) and all(e.reps == reps for e in results[0])


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    def test_chi2_estimate_holds_one_chunk(self):
        n, d = 100, 2981
        model, test = GaussianLocationModel(n=n, d=d), chi2_euclidean_test(n, d, 0.05)
        mc = McConfig(reps=4_096, master_seed=0)
        # a whole 1407-row block is 33.6 MB
        assert _traced_peak(lambda: estimate_rejection_prob(test, model, np.zeros(d), mc)) < 8 << 20

    def test_tscore_estimate_holds_one_chunk(self):
        model = GaussianLocationModel(n=10_000, d=2)
        test = make_test("tscore", 10_000, 2, model=model)
        mc = McConfig(reps=500, master_seed=0)
        # a whole 209-row block of raw observations is 33.4 MB
        assert _traced_peak(lambda: estimate_rejection_prob(test, model, [0.1, 0.0], mc)) < 8 << 20

    def test_demo_dominance_sample_is_chunked(self):
        d = 16_384
        regime = RegimeSpec("linear", (d,))
        peak = _traced_peak(
            lambda: enhanceability_demo("chi2:alpha=0.05", regime, McConfig(reps=1_000, master_seed=3))
        )
        # the one-call dominance sample alone was 2048 * d * 8 = 268 MB
        assert peak < 2048 * d * 8 // 4

    def test_embed_check_keeps_only_read_columns(self):
        d2, reps = 5_000, 5_000
        mc = McConfig(reps=reps, master_seed=3)
        peak = _traced_peak(lambda: embedding_equivalence_check(3, d2, np.zeros(3), 100, mc))
        # the full-width draws were reps * d2 * 8 = 200 MB
        assert peak < reps * d2 * 8 // 4

    def test_each_normal_draw_is_at_most_one_chunk(self, monkeypatch):
        n, d, reps = 100, 2981, 3_000
        draws: dict[tuple, list[int]] = {}
        original = mc_module.substream
        monkeypatch.setattr(
            mc_module, "substream", lambda *key: CountingGenerator(original(*key), draws.setdefault(key, []))
        )
        model = GaussianLocationModel(n=n, d=d)
        estimate_rejection_prob(chi2_euclidean_test(n, d, 0.05), model, np.zeros(d), McConfig(reps=reps))
        blocks = block_layout(reps, d)
        assert sorted(key[-1] for key in draws) == [b for b, _ in blocks]
        for b, m in blocks:
            sizes = draws[(0, "rejection-prob", b)]
            assert sum(sizes) == m * d
            assert max(sizes) <= mc_module._CHUNK_ELEMS
            assert len(sizes) == math.ceil(m / (mc_module._CHUNK_ELEMS // d))


class TestRegimeSpec:
    def test_rules(self):
        assert RegimeSpec("fixed:5", (10, 20)).d_of(17) == 5
        assert RegimeSpec("linear", (10,)).d_of(33) == 33
        assert RegimeSpec("power:0.5", (10,)).d_of(100) == 10
        assert RegimeSpec("ceil_log:2", (10,)).d_of(100) == math.ceil(2 * math.log(100))

    def test_unbounded_flag(self):
        assert not RegimeSpec("fixed:5", (10,)).unbounded
        assert RegimeSpec("linear", (10,)).unbounded

    def test_bad_specs(self):
        with pytest.raises(SpecError):
            RegimeSpec("cubic", (10,))
        with pytest.raises(SpecError):
            RegimeSpec("fixed:0", (10,))
        with pytest.raises(SpecError):
            RegimeSpec("linear", (10, 5))
        with pytest.raises(SpecError):
            RegimeSpec("linear", (10,), alpha=1.5)


class TestRunRegime:
    def test_empty_grid(self):
        rows = run_regime(RegimeSpec("linear", ()), "chi2:alpha=0.05", McConfig(reps=100, master_seed=0))
        assert rows == []

    def test_linear_regime_chi2_within_gap_bound(self):
        regime = RegimeSpec("linear", (32, 64))
        rows = run_regime(regime, "chi2:alpha=0.05", McConfig(reps=1_500, master_seed=1))
        assert [row.d for row in rows] == [32, 64]
        for row in rows:
            # BlindSpotReport construction already enforces the bound; the row
            # records the same quantities
            assert abs(row.power - row.size) <= row.gap_bound + 0.1
            assert row.enhanced_power > row.power

    def test_fixed_regime_wald_power_non_decreasing(self):
        regime = RegimeSpec("fixed:5", (64, 256, 1024))
        theta = np.zeros(5)
        theta[0] = 0.3
        rows = run_regime(
            regime,
            "wald:alpha=0.05",
            McConfig(reps=3_000, master_seed=2),
            model_kind="regression",
            theta=theta,
        )
        powers = [row.power for row in rows]
        assert all(b >= a for a, b in zip(powers, powers[1:]))
        assert all(row.enhanced_power is None and row.gap_bound is None for row in rows)

    def test_regression_needs_theta(self):
        with pytest.raises(SpecError):
            run_regime(
                RegimeSpec("fixed:3", (32,)),
                "wald:alpha=0.05",
                McConfig(reps=100, master_seed=0),
                model_kind="regression",
            )

    def test_gaussian_regime_rejects_fixed_theta(self):
        with pytest.raises(SpecError):
            run_regime(
                RegimeSpec("linear", (32,)),
                "chi2:alpha=0.05",
                McConfig(reps=1_000, master_seed=0),
                theta=np.zeros(32),
            )


class TestConsistencyDiagnostic:
    def test_spike_rule_criterion_vanishes_power_decays(self):
        regime = RegimeSpec("linear", (100, 1_000, 10_000))
        rows = consistency_diagnostic(
            lambda n, d: spike_alternative(n, d, 1).theta, regime
        )
        crits = [row["criterion"] for row in rows]
        powers = [row["exact_chi2_power"] for row in rows]
        assert all(b < a for a, b in zip(crits, crits[1:]))
        assert all(b < a for a, b in zip(powers, powers[1:]))
        assert all(p > regime.alpha for p in powers)
        # criterion value is max(log d / 2, 1) / sqrt(d) for the spike
        for row in rows:
            expected = max(math.log(row["d"]) / 2.0, 1.0) / math.sqrt(row["d"])
            assert row["criterion"] == pytest.approx(expected, rel=1e-12)

    def test_decaying_theta_fixed_d_power_to_one(self):
        regime = RegimeSpec("fixed:5", (100, 1_000, 10_000))

        def rule(n, d):
            theta = np.zeros(d)
            theta[0] = n**-0.25
            return theta

        rows = consistency_diagnostic(rule, regime)
        crits = [row["criterion"] for row in rows]
        powers = [row["exact_chi2_power"] for row in rows]
        assert all(b > a for a, b in zip(crits, crits[1:]))
        assert all(b > a for a, b in zip(powers, powers[1:]))
        assert powers[-1] > 0.99

    def test_fixed_d_threshold_computed_once(self, monkeypatch):
        regime = RegimeSpec("fixed:5", tuple(round(10 ** (1 + k / 8)) for k in range(41)))

        def rule(n, d):
            theta = np.zeros(d)
            theta[0] = n**-0.5
            return theta

        want = consistency_diagnostic(rule, regime)
        calls = []

        def counting(dof, p):
            calls.append((dof, p))
            return chi2_quantile(dof, p)

        monkeypatch.setattr(harness, "chi2_quantile", counting)
        assert consistency_diagnostic(rule, regime) == want
        assert calls == [(5, 0.95)]

    def test_zero_theta(self):
        rows = consistency_diagnostic(lambda n, d: np.zeros(d), RegimeSpec("linear", (50,)))
        assert rows[0]["criterion"] == 0.0
        assert rows[0]["exact_chi2_power"] == pytest.approx(0.05, abs=1e-10)


class TestLanRemainder:
    def test_gaussian_location_exact(self):
        rows = lan_remainder_check(
            lambda n: GaussianLocationModel(n=n, d=2),
            [1.0, -0.5],
            [100, 400, 1600],
            McConfig(reps=4_000, master_seed=4),
        )
        assert all(row["remainder_p95"] < 1e-12 for row in rows)

    def test_regression_exact(self):
        rows = lan_remainder_check(
            lambda n: FixedDesignRegression.default_design(n=n, d=2),
            [1.0, -0.5],
            [100, 400],
            McConfig(reps=4_000, master_seed=5),
        )
        assert all(row["remainder_p95"] < 1e-12 for row in rows)

    def test_scaled_model_exact_once_member(self):
        rows = lan_remainder_check(
            lambda n: ScaledGaussianModel(n=n, d=2),
            [1.5, 0.0],
            [9, 100],
            McConfig(reps=2_000, master_seed=6),
        )
        assert all(row["remainder_p95"] < 1e-12 for row in rows)

    def test_membership_violation_small_n(self):
        with pytest.raises(ParameterError):
            lan_remainder_check(
                lambda n: ScaledGaussianModel(n=n, d=2),
                [1.5, 0.0],
                [1],
                McConfig(reps=100, master_seed=0),
            )

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            lan_remainder_check(
                lambda n: GaussianLocationModel(n=n, d=3),
                [1.0],
                [100],
                McConfig(reps=100, master_seed=0),
            )


class TestEmbeddingCheck:
    def test_null_parameter(self):
        report = embedding_equivalence_check(2, 5, np.zeros(2), 64, McConfig(reps=20_000, master_seed=7))
        assert all(item["p_value"] > 1e-3 for item in report["ks"])
        assert report["exact_tv_per_coordinate"] == [0.0, 0.0]

    def test_shifted_parameter_means(self):
        n = 100
        report = embedding_equivalence_check(2, 6, [1.0, 0.0], n, McConfig(reps=20_000, master_seed=8))
        tol = 3.0 / math.sqrt(20_000)
        assert abs(report["mean_small"][0] - math.sqrt(n)) < tol
        assert abs(report["mean_big"][0] - math.sqrt(n)) < tol
        assert all(item["p_value"] > 1e-3 for item in report["ks"])

    def test_dimension_order_enforced(self):
        with pytest.raises(DomainError):
            embedding_equivalence_check(5, 5, np.zeros(5), 10, McConfig(reps=10, master_seed=0))

    def test_pulled_back_test_has_identical_rejection_rate(self):
        # a test of the first d1 coordinates applied in the embedded
        # experiment has the same power function as in the small experiment
        n, d1, d2 = 64, 3, 7
        theta = np.array([0.2, 0.0, -0.1])
        small = GaussianLocationModel(n=n, d=d1)
        big = GaussianLocationModel(n=n, d=d2)
        base = chi2_euclidean_test(n, d1, 0.05)
        from hdpower import TestFunction, embed

        pulled_back = TestFunction(
            name="pullback", dim=d2, batch=lambda z: base.evaluate_batch(z[:, :d1])
        )
        mc = McConfig(reps=40_000, master_seed=9)
        direct = estimate_rejection_prob(base, small, theta, mc, tag="pullback-small")
        through = estimate_rejection_prob(
            pulled_back, big, embed(theta, d2), mc, tag="pullback-big"
        )
        assert abs(direct.mean - through.mean) <= 3 * (direct.se + through.se)


class TestNontestabilityCurve:
    def test_frozen_values(self):
        rows = example2_nontestability_curve([100, 10_000])
        assert rows[0]["tv_bound"] == pytest.approx(0.03987761167674497, abs=1e-15)
        assert rows[1]["tv_bound"] == pytest.approx(0.003989406181481581, abs=1e-15)

    def test_matches_erf_oracle_and_decreases(self):
        rows = example2_nontestability_curve([100, 1_000, 10_000])
        values = [row["tv_bound"] for row in rows]
        for row in rows:
            oracle = math.erf(row["n"] ** -0.5 / (2.0 * math.sqrt(2.0)))
            assert abs(row["tv_bound"] - oracle) < 1e-12
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_limit_is_zero(self):
        assert example2_nontestability_curve([10**8])[0]["tv_bound"] < 1e-3


class TestKsTwoSample:
    def test_same_distribution_high_p(self):
        rng = substream(9, "ks-same")
        x = rng.standard_normal(5_000)
        y = rng.standard_normal(5_000)
        stat, p = ks_two_sample(x, y)
        assert p > 1e-3

    def test_shifted_distribution_low_p(self):
        rng = substream(10, "ks-shift")
        x = rng.standard_normal(5_000)
        y = rng.standard_normal(5_000) + 0.5
        stat, p = ks_two_sample(x, y)
        assert p < 1e-6


class TestCsvEmission:
    def test_header_and_quoting(self):
        row = ResultRow(
            n=10, d=5, test="chi2(alpha=0.05)", theta="spike(i=1,magnitude=0.1)",
            size=0.05, power=0.1, enhanced_power=0.6, gap_bound=0.3,
        )
        text = rows_to_csv([vars(row)], RESULT_COLUMNS)
        lines = text.split("\r\n")
        assert lines[0] == "n,d,test,theta,size,power,enhanced_power,gap_bound"
        assert '"spike(i=1,magnitude=0.1)"' in lines[1]

    def test_cells(self):
        text = rows_to_csv([{"a": None, "b": 0.1, "c": 3, "d": "x"}], ["a", "b", "c", "d"])
        assert text == "a,b,c,d\r\n,0.1,3,x\r\n"

    def test_timings_column_opt_in(self, capsys):
        argv = ["power-curve", "--model", "regression", "--test", "wald", "--d-rule", "fixed:2",
                "--n-grid", "50", "--theta", "0.2", "--reps", "200", "--format", "csv"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert "wall_time_s" not in plain
        assert main(argv + ["--timings"]) == 0
        header, row, _ = capsys.readouterr().out.split("\r\n")
        assert header.endswith(",wall_time_s")
        # enhancement columns are empty for regression rows; time has three decimals
        cells = row.split(",")
        assert cells[-3:-1] == ["", ""]
        integer, fraction = cells[-1].split(".")
        assert integer.isdigit() and len(fraction) == 3 and fraction.isdigit()

    def test_probability_validation(self):
        with pytest.raises(DomainError):
            ResultRow(n=1, d=1, test="t", theta="zero", size=1.5, power=0.1,
                      enhanced_power=None, gap_bound=None)


class TestEnhanceabilityDemo:
    def test_chi2_demo_signature(self):
        regime = RegimeSpec("linear", (32, 64, 128))
        report = enhanceability_demo("chi2:alpha=0.05", regime, McConfig(reps=1_500, master_seed=11))
        checks = report["checks"]
        assert checks["pointwise_dominance"]
        assert checks["size_subadditive"]
        assert checks["base_power_within_gap_bound"]
        assert checks["component_size_trend_decreasing"]
        assert checks["component_power_trend_increasing"]
        assert checks["enhanceable_signature"]
        assert report["enhanced"]["power_at_spike"]["mean"] >= report["base"]["power_at_spike"]["mean"]

    def test_supnorm_demo_within_gap_bound(self):
        regime = RegimeSpec("linear", (64, 128))
        report = enhanceability_demo("supnorm", regime, McConfig(reps=1_500, master_seed=12))
        assert report["checks"]["base_power_within_gap_bound"]
        assert report["checks"]["enhanceable_signature"]

    def test_constant_one_not_enhanceable(self):
        regime = RegimeSpec("linear", (32, 64))
        report = enhanceability_demo("one", regime, McConfig(reps=1_000, master_seed=13))
        assert not report["checks"]["enhanceable_signature"]

    def test_spike_demo_shares_one_draw(self):
        # the blind spot of spike:i=2 is another coordinate, so psi reads two
        # and the three tests share one full-width draw, as separate
        # full-width estimates on the same tag would
        regime = RegimeSpec("linear", (16, 32))
        mc = McConfig(reps=2_000, master_seed=43)
        report = enhanceability_demo("spike:i=2", regime, mc)
        assert report["checks"]["size_subadditive"]
        assert report["blind_spot"]["coordinate"] != 2
        model = GaussianLocationModel(n=32, d=32)
        for key, test in (("base", make_test("spike:i=2", 32, 32)),
                          ("component", spike_z_test(32, 32, report["blind_spot"]["coordinate"]))):
            full = dataclasses.replace(test, coordinate=None)
            assert report[key]["size"] == estimate_rejection_prob(
                full, model, np.zeros(32), mc, tag="demo:size"
            ).to_dict()

    def test_fixed_regime_rejected(self):
        with pytest.raises(DomainError):
            enhanceability_demo("chi2:alpha=0.05", RegimeSpec("fixed:5", (32,)), McConfig(reps=100, master_seed=0))

    def test_demo_deterministic_across_workers(self):
        regime = RegimeSpec("linear", (16, 32))
        reports = [
            enhanceability_demo("chi2:alpha=0.05", regime, McConfig(reps=1_000, master_seed=14, workers=w))
            for w in (1, 4, 8)
        ]
        texts = [json.dumps(r, sort_keys=True) for r in reports]
        assert texts[0] == texts[1] == texts[2]

    def test_blind_spot_deterministic_across_workers(self):
        model = GaussianLocationModel(n=64, d=16)
        test = chi2_euclidean_test(64, 16, 0.05)
        reports = [
            find_blind_spot(test, model, McConfig(reps=2_000, master_seed=15, workers=w))
            for w in (1, 4, 8)
        ]
        assert reports[0] == reports[1] == reports[2]


class TestTvHelperConsistency:
    def test_curve_equals_gaussian_tv(self):
        for n in (100, 400):
            row = example2_nontestability_curve([n])[0]
            assert row["tv_bound"] == gaussian_tv(n**-0.5)
