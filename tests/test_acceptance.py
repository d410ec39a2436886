"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Tolerances are pinned here: binomial/empirical 3-SE bands
for Monte Carlo comparisons, 1e-10/1e-12/1e-14 for the deterministic kernel
checks, strict inequalities for exact-formula trend sequences.
"""

import functools
import json
import math
import time

import numpy as np

from hdpower import (
    FixedDesignRegression,
    GaussianLocationModel,
    McConfig,
    chi2_cdf,
    chi2_euclidean_test,
    chi2_quantile,
    enhance,
    estimate_rejection_prob,
    example2_nontestability_curve,
    find_blind_spot,
    halfspace_test,
    lan_remainder_check,
    mixture_likelihood_ratio,
    noncentral_chi2_cdf,
    power_gap_bound,
    second_moment_minus_one,
    spike_z_exact_power_at_spike,
    spike_z_exact_size,
    spike_z_test,
    std_normal_cdf,
    substream,
    sup_norm_test,
    truncated_score_test,
    wald_test_at_level,
)
from hdpower.cli import main
from hdpower.mixture import _spike_scan


def criterion(number: int, description: str):
    def decorator(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number}: FAIL - {description}")
                raise
            elapsed = time.perf_counter() - start
            print(f"ACCEPTANCE {number}: PASS - {description} ({elapsed:.1f}s)")

        return wrapper

    return decorator


@criterion(1, "chi-square test exact size at (n=100, d=10, alpha=0.05)")
def test_criterion_1_chi2_exact_size():
    start = time.perf_counter()
    n, d, alpha = 100, 10, 0.05
    model = GaussianLocationModel(n=n, d=d)
    test = chi2_euclidean_test(n, d, alpha)
    est = estimate_rejection_prob(test, model, np.zeros(d), McConfig(reps=100_000, master_seed=101))
    assert abs(est.mean - alpha) <= 0.0021, f"size {est.mean:.5f} off alpha by > 3 binomial SE"
    assert time.perf_counter() - start < 10.0


@criterion(2, "mixture second moment E0[L^2]-1 = 0.1875 at (n=100, d=16), <= d^{-1/2}")
def test_criterion_2_mixture_second_moment():
    start = time.perf_counter()
    n, d, reps = 100, 16, 1_000_000
    analytic = second_moment_minus_one(n, d)
    assert analytic == 0.1875
    assert analytic <= d**-0.5
    total = 0.0
    total_sq = 0.0
    chunks = 20
    for b in range(chunks):
        rng = substream(102, "acceptance-second-moment", b)
        z = rng.standard_normal((reps // chunks, d))
        sq = mixture_likelihood_ratio(z, n, d) ** 2
        total += sq.sum()
        total_sq += (sq * sq).sum()
    mean = total / reps
    se = math.sqrt(max(0.0, total_sq / reps - mean**2) / reps)
    assert abs((mean - 1.0) - analytic) <= 3 * se, f"MC {mean - 1.0:.5f} vs analytic {analytic}"
    assert mean - 1.0 <= 0.25
    assert time.perf_counter() - start < 60.0


@criterion(3, "power-gap bound for 5 tests at (n=256, d=256)")
def test_criterion_3_power_gap_bound_five_tests():
    start = time.perf_counter()
    n, d = 256, 256
    model = GaussianLocationModel(n=n, d=d)
    bound = power_gap_bound(n, d)
    assert abs(bound - math.sqrt(d**-0.5 - 1.0 / d)) < 1e-12
    tests = [
        chi2_euclidean_test(n, d, 0.05),
        sup_norm_test(n, d),
        spike_z_test(n, d, 1),
        enhance(chi2_euclidean_test(n, d, 0.05), spike_z_test(n, d, 1)),
        halfspace_test(n, d, 0.05, seed=17),
    ]
    mc = McConfig(reps=3_000, master_seed=103)
    for test in tests:
        _, _, pooled, size = _spike_scan(test, model, mc)
        slack = 3.0 * (size.se + pooled.se)
        gap = abs(size.mean - pooled.mean)
        assert gap <= bound + slack, f"{test.name}: gap {gap:.4f} > {bound:.4f} + {slack:.4f}"
    assert time.perf_counter() - start < 300.0


@criterion(4, "spike z-test closed forms at log d = 8 and exact monotone trends")
def test_criterion_4_spike_z_closed_forms():
    n = 100
    d = math.ceil(math.exp(8))
    exact_size = spike_z_exact_size(n, d)
    exact_power = spike_z_exact_power_at_spike(n, d)
    assert abs(exact_size - 2.0 * std_normal_cdf(-math.sqrt(2.0))) < 1e-4
    assert abs(exact_power - 0.7214) < 1e-4

    model = GaussianLocationModel(n=n, d=d)
    test = spike_z_test(n, d, 1)
    reps = 100_000
    size = estimate_rejection_prob(test, model, np.zeros(d), McConfig(reps=reps, master_seed=104))
    se = math.sqrt(exact_size * (1 - exact_size) / reps)
    assert abs(size.mean - exact_size) <= 3 * se

    from hdpower import spike_alternative

    theta = spike_alternative(n, d, 1).theta
    power = estimate_rejection_prob(test, model, theta, McConfig(reps=reps, master_seed=105))
    se = math.sqrt(exact_power * (1 - exact_power) / reps)
    assert abs(power.mean - exact_power) <= 3 * se

    dims = [math.ceil(math.exp(k)) for k in range(2, 13)]
    sizes = [spike_z_exact_size(n, dd) for dd in dims]
    powers = [spike_z_exact_power_at_spike(n, dd) for dd in dims]
    assert all(b < a for a, b in zip(sizes, sizes[1:])), "exact size not strictly decreasing"
    assert all(b > a for a, b in zip(powers, powers[1:])), "exact power not strictly increasing"


@criterion(5, "enhancement combinator: dominance, size subadditivity, >= 0.3 power gain")
def test_criterion_5_enhancement():
    n, d = 256, 256
    model = GaussianLocationModel(n=n, d=d)
    phi = chi2_euclidean_test(n, d, 0.05)
    report = find_blind_spot(phi, model, McConfig(reps=2_000, master_seed=106))
    nu = spike_z_test(n, d, report.coordinate)
    psi = enhance(phi, nu)
    theta = report.spike.theta

    # pointwise dominance on every sampled statistic, null and spike
    rng = substream(107, "acceptance-dominance")
    for point in (np.zeros(d), theta):
        sample = model.sample_statistic(point, rng, 10_000)
        assert np.all(psi.evaluate_batch(sample) >= phi.evaluate_batch(sample))

    mc = McConfig(reps=20_000, master_seed=108)
    zero = np.zeros(d)
    phi_size = estimate_rejection_prob(phi, model, zero, mc, tag="acc5-size")
    nu_size = estimate_rejection_prob(nu, model, zero, mc, tag="acc5-size")
    psi_size = estimate_rejection_prob(psi, model, zero, mc, tag="acc5-size")
    slack = 3.0 * (phi_size.se + nu_size.se + psi_size.se)
    assert psi_size.mean <= phi_size.mean + nu_size.mean + slack

    phi_power = estimate_rejection_prob(phi, model, theta, mc, tag="acc5-power")
    psi_power = estimate_rejection_prob(psi, model, theta, mc, tag="acc5-power")
    gain = psi_power.mean - phi_power.mean
    assert gain >= 0.3, f"enhancement gain {gain:.3f} < 0.3"


@criterion(6, "non-testability curve equals the normal-CDF oracle and decreases")
def test_criterion_6_nontestability_curve():
    rows = example2_nontestability_curve([100, 1_000, 10_000])
    values = [row["tv_bound"] for row in rows]
    for row in rows:
        # independent oracle: 2 Phi(x) - 1 = erf(x / sqrt(2)) at x = n^{-1/2}/2
        oracle = math.erf(row["n"] ** -0.5 / (2.0 * math.sqrt(2.0)))
        assert abs(row["tv_bound"] - oracle) <= 1e-12
    assert values[0] > values[1] > values[2]


@criterion(7, "fixed-d signature: Wald power > 0.999, truncated-score power climbing to >= 0.99")
def test_criterion_7_fixed_d_unenhanceable_signature():
    start = time.perf_counter()
    # Wald at sqrt(n)||theta|| = 10, d = 5
    model = FixedDesignRegression.default_design(n=100, d=5)
    wald = wald_test_at_level(model, 0.05)
    theta = np.zeros(5)
    theta[0] = 1.0
    exact = 1.0 - noncentral_chi2_cdf(5, 100.0, chi2_quantile(5, 0.95))
    assert exact > 0.999
    est = estimate_rejection_prob(wald, model, theta, McConfig(reps=20_000, master_seed=109))
    assert abs(est.mean - exact) <= 3 * est.se + 1e-6

    # truncated-score power along theta_n = e_1 n^{-1/4}, d = 2
    powers = []
    for n in (100, 1_000, 10_000):
        loc = GaussianLocationModel(n=n, d=2)
        test = truncated_score_test(loc, 0.05)
        theta_n = np.array([n**-0.25, 0.0])
        power = estimate_rejection_prob(test, loc, theta_n, McConfig(reps=20_000, master_seed=110))
        powers.append(power.mean)
    assert powers[0] < powers[1] < powers[2], f"not strictly increasing: {powers}"
    assert powers[-1] >= 0.99
    assert time.perf_counter() - start < 300.0


@criterion(8, "LAN remainder 95th percentile below 1e-12 (Gaussian location and regression)")
def test_criterion_8_lan_remainder():
    mc = McConfig(reps=4_000, master_seed=111)
    h = [1.0, -0.5]
    for factory in (
        lambda n: GaussianLocationModel(n=n, d=2),
        lambda n: FixedDesignRegression.default_design(n=n, d=2),
    ):
        rows = lan_remainder_check(factory, h, [100, 400, 1600], mc)
        for row in rows:
            assert row["remainder_p95"] < 1e-12, f"remainder {row}"


@criterion(9, "byte-identical outputs across worker counts 1/4/8 for every subcommand")
def test_criterion_9_reproducibility(tmp_path, capsys):
    cases = {
        "simulate": ["simulate", "--test", "chi2:alpha=0.05", "--n", "64", "--d", "8",
                      "--reps", "2000", "--seed", "21"],
        "power-curve": ["power-curve", "--test", "chi2:alpha=0.05", "--d-rule", "linear",
                         "--n-grid", "16,32", "--reps", "1000", "--seed", "22"],
        "blind-spot": ["blind-spot", "--test", "supnorm", "--n", "32", "--d", "8",
                        "--reps", "1000", "--seed", "23"],
        "bounds": ["bounds", "--n", "100", "--d", "16"],
        "lan-check": ["lan-check", "--model", "regression", "--h", "1.0,-0.5",
                       "--n-grid", "64,128", "--reps", "1000", "--seed", "24"],
        "embed-check": ["embed-check", "--d1", "2", "--d2", "4", "--theta", "1.0,0",
                         "--n", "32", "--reps", "2000", "--seed", "25"],
        "nontestability": ["nontestability", "--n-grid", "100,1000"],
        "demo": ["demo", "--test", "chi2:alpha=0.05", "--d-rule", "linear",
                  "--n-grid", "16,32", "--reps", "1000", "--seed", "26"],
        "simulate-tscore": ["simulate", "--test", "tscore", "--n", "200", "--d", "2",
                             "--theta=0.1,0.0", "--reps", "2000", "--seed", "27"],
    }
    for name, argv in cases.items():
        outputs = []
        for workers in ("1", "4", "8"):
            target = tmp_path / f"{name}-{workers}.out"
            code = main(argv + ["--workers", workers, "--out", str(target)])
            assert code == 0, f"{name} failed with workers={workers}"
            outputs.append(target.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2], f"{name} output differs across workers"


@criterion(10, "distribution kernel oracle suite at 1e-10/1e-12/1e-14 tolerances")
def test_criterion_10_oracle_suite():
    start = time.perf_counter()
    # quantile round trip over dof 1..64 and 99 centiles
    centiles = [k / 100.0 for k in range(1, 100)]
    for dof in range(1, 65):
        for p in centiles:
            err = abs(chi2_cdf(dof, chi2_quantile(dof, p)) - p)
            assert err <= 1e-10, f"round trip dof={dof} p={p}: err {err:.2e}"

    # zero-noncentrality degeneration
    for dof in (1, 2, 8, 32, 64):
        for x in (0.1, 1.0, float(dof), 3.0 * dof):
            assert abs(noncentral_chi2_cdf(dof, 0.0, x) - chi2_cdf(dof, x)) <= 1e-12

    # normal symmetry on a grid
    for x in np.linspace(-8.0, 8.0, 321):
        assert abs(std_normal_cdf(x) + std_normal_cdf(-x) - 1.0) <= 1e-14

    # TV acceptance-region identity by Monte Carlo, one million draws per law
    from hdpower import gaussian_tv

    for i, delta in enumerate((0.1, 0.5, 1.0)):
        rng = substream(112, "acceptance-tv", i)
        x0 = rng.standard_normal(1_000_000)
        x1 = rng.standard_normal(1_000_000) + delta
        p0 = (x0 < delta / 2).mean()
        p1 = (x1 < delta / 2).mean()
        se = math.sqrt((p0 * (1 - p0) + p1 * (1 - p1)) / 1_000_000)
        assert abs(gaussian_tv(delta) - (p0 - p1)) <= 3 * se
    assert time.perf_counter() - start < 30.0


def test_acceptance_report_is_json_serializable(tmp_path):
    """The demo and blind-spot reports re-parse and validate (round-trip)."""
    from hdpower import BlindSpotReport

    model = GaussianLocationModel(n=64, d=8)
    report = find_blind_spot(
        chi2_euclidean_test(64, 8, 0.05), model, McConfig(reps=1_000, master_seed=113)
    )
    restored = BlindSpotReport.from_dict(json.loads(json.dumps(report.to_dict())))
    assert restored == report
