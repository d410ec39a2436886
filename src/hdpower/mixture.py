"""Spike-mixture machinery: the likelihood-ratio statistic of the uniform
mixture over coordinate spikes, its exact second moment with the d^{-1/2}
bound, the induced size-vs-average-spike-power gap bound, and a blind-spot
finder for arbitrary black-box tests.

The chain of facts implemented here: with L the likelihood ratio of the
spike mixture against the null, Jensen's inequality and E_0[L] = 1 give

    |size - average spike power|^2 <= E_0[L^2] - 1,

and the second moment has the closed form (e^{n a^2} - 1) / d with
n a^2 = max(log(d)/2, 1), which is at most d^{-1/2} once d >= 3. Any test
therefore has near-size power against at least one coordinate spike, and
that coordinate is a removable blind spot: the matching one-coordinate
z-test has vanishing size and full power against it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Any

import numpy as np

from .errors import DomainError
from .mc import McConfig, PowerEstimate, block_sums, map_blocks, mean_se, row_chunks, summarize
from .models import GaussianLocationModel, SpikeAlternative, spike_alternative, spike_magnitude
from .testfuncs import TestFunction

# elements per (rows, columns) value block of the scan: a row chunk of r rows
# is walked _SCAN_CHUNK // r columns at a time, large enough for numpy to
# release the GIL, small enough to keep the temporaries out of peak memory
_SCAN_CHUNK = 1 << 15


def mixture_likelihood_ratio(z, n: int, d: int):
    """L(z) = d^{-1} sum_i exp(sqrt(n) a z_i - n a^2 / 2), a the spike magnitude.

    Evaluated in the log domain (max factored out) so large coordinates do
    not overflow; statistics so negative that the true value drops below the
    smallest positive double clamp there instead of underflowing to zero.
    Accepts a single length-d vector or an (m, d) batch.
    """
    arr = np.asarray(z, dtype=float)
    single = arr.ndim == 1
    arr = np.atleast_2d(arr)
    if arr.shape[1] != d:
        raise DomainError(f"statistic must have dimension {d}, got {arr.shape[1]}")
    mag = spike_magnitude(n, d)
    root_n_a = math.sqrt(n) * mag
    exponents = root_n_a * arr - 0.5 * n * mag * mag
    peak = exponents.max(axis=1, keepdims=True)
    log_l = peak[:, 0] + np.log(np.exp(exponents - peak).sum(axis=1)) - math.log(d)
    out = np.maximum(np.exp(log_l), math.ulp(0.0))
    return float(out[0]) if single else out


def second_moment_minus_one(n: int, d: int) -> float:
    """Exact E_0[L^2] - 1 = (e^{n a^2} - 1) / d.

    Expanding E_0[L^2] = d^{-2} sum_{i,j} E_0 e^{sqrt(n) a (z_i + z_j) - n a^2}
    gives e^{n a^2} on the d diagonal terms and 1 off the diagonal.
    """
    if n < 1 or d < 1:
        raise DomainError(f"n and d must be >= 1, got n={n}, d={d}")
    n_a_sq = max(math.log(d) / 2.0, 1.0)
    return (math.exp(n_a_sq) - 1.0) / d


def power_gap_bound(n: int, d: int) -> float:
    """sqrt(E_0[L^2] - 1): bounds |size - average spike power| for every test."""
    return math.sqrt(second_moment_minus_one(n, d))


@dataclass(frozen=True)
class MixtureDiagnostics:
    """Exact mixture second moment next to the d^{-1/2} bound it satisfies."""

    n: int
    d: int
    second_moment_minus_one: float
    paper_bound: float
    power_gap_bound: float

    def __post_init__(self) -> None:
        if abs(self.power_gap_bound - math.sqrt(self.second_moment_minus_one)) > 1e-12:
            raise DomainError("power_gap_bound must equal sqrt(second_moment_minus_one)")
        # the d^{-1/2} bound presumes the un-floored spike scale; it holds for
        # d >= 3 but the floored magnitude exceeds it at d in {1, 2}
        if self.d >= 3 and self.second_moment_minus_one > self.paper_bound + 1e-12:
            raise DomainError("second moment exceeds the d^{-1/2} bound")

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "MixtureDiagnostics":
        return cls(**data)


def mixture_diagnostics(n: int, d: int) -> MixtureDiagnostics:
    smm1 = second_moment_minus_one(n, d)
    return MixtureDiagnostics(
        n=n,
        d=d,
        second_moment_minus_one=smm1,
        paper_bound=1.0 / math.sqrt(d),
        power_gap_bound=math.sqrt(smm1),
    )


def _spike_scan(
    test: TestFunction,
    model: GaussianLocationModel,
    mc: McConfig,
    tag: str = "spike-scan",
) -> tuple[np.ndarray, np.ndarray, PowerEstimate, PowerEstimate]:
    """Stratified spike power scan with common random numbers.

    One pass draws null noise per block and reuses it for the null column and
    for every coordinate spike (the spike only shifts one coordinate's mean),
    so the size and per-coordinate power estimates are maximally correlated
    and the gap bound is checkable at desk-scale replication counts.

    Each block is drawn and evaluated in consecutive row chunks
    (``row_chunks``) from the block's one substream, so a worker holds one
    chunk of draws plus (r, k) value blocks of about ``_SCAN_CHUNK``
    elements, whatever the block size. A test with a spike kernel that
    consumes statistics fills each (r, k) block of r chunk rows and k
    coordinates in O(r * k); any other test fills it one coordinate at a
    time by re-evaluating the shifted chunk, O(r * d) per coordinate. Both
    paths share one reduction of each block into the per-coordinate sums and
    the per-row pooled sums, so they agree bit for bit. Values of 0 and 1 sum
    to exact integers in any order, so such tests do not depend on the chunk
    sizes either.

    Returns (per-coordinate means, per-coordinate ses, pooled average-power
    estimate, null size estimate); each coordinate sees exactly mc.reps
    evaluations.
    """
    if mc.reps < 1_000:
        raise DomainError(f"spike power scans need at least 1000 replications, got {mc.reps}")
    d = model.d
    n = model.n
    mag = spike_magnitude(n, d)
    if test.dim != d:
        raise DomainError(f"test dimension {test.dim} does not match model dimension {d}")
    if test.consumes == "statistic":
        elems, shift = d, math.sqrt(n) * mag
    else:
        elems, shift = n * d, mag

    def loop_columns(draws: np.ndarray):
        def cols(lo: int, hi: int) -> np.ndarray:
            out = np.empty((len(draws), hi - lo))
            for j in range(hi - lo):
                col = draws[..., lo + j]
                saved = col.copy()
                col += shift
                out[:, j] = test.evaluate_batch(draws)
                col[:] = saved
            return out

        return cols

    def work(rng: np.random.Generator, m: int):
        null_vals = np.empty(m)
        pooled = np.zeros(m)
        coord_sum = np.zeros(d)
        coord_sumsq = np.zeros(d)
        for r_lo, r_hi in row_chunks(m, elems):
            if test.consumes == "statistic":
                draws = rng.standard_normal((r_hi - r_lo, d))
            else:
                draws = model.sample_observations(np.zeros(d), rng, r_hi - r_lo)
            null_vals[r_lo:r_hi] = test.evaluate_batch(draws)
            cols = test.spike_columns(draws, shift) if test.consumes == "statistic" else None
            if cols is None:
                cols = loop_columns(draws)
            step = max(1, _SCAN_CHUNK // (r_hi - r_lo))
            for lo in range(0, d, step):
                hi = min(d, lo + step)
                vals = cols(lo, hi)
                coord_sum[lo:hi] += vals.sum(axis=0)
                coord_sumsq[lo:hi] += (vals * vals).sum(axis=0)
                pooled[r_lo:r_hi] += vals.sum(axis=1)
        pooled /= d
        return block_sums((null_vals, pooled)), coord_sum, coord_sumsq

    parts = map_blocks(mc, tag, elems, work)
    null_est, pooled_est = summarize(mc.reps, [p[0] for p in parts], mc.master_seed)
    # added in block order, without stacking the parts into a (blocks, d) array
    coord_sum = np.zeros(d)
    coord_sumsq = np.zeros(d)
    for _, block_sum, block_sumsq in parts:
        coord_sum += block_sum
        coord_sumsq += block_sumsq
    means, ses = mean_se(mc.reps, coord_sum, coord_sumsq)
    return means, ses, pooled_est, null_est


def average_spike_power(
    test: TestFunction, model: GaussianLocationModel, mc: McConfig
) -> PowerEstimate:
    """Unbiased estimate of d^{-1} sum_i Power(test, spike_i), with the pooled
    standard error of the per-replication coordinate average."""
    _, _, pooled, _ = _spike_scan(test, model, mc)
    return pooled


@dataclass(frozen=True)
class BlindSpotReport:
    """Where a test's spike power bottoms out, with the matching enhancement.

    ``suggested_component`` is the spec string of the one-coordinate z-test at
    the blind-spot coordinate: a vanishing-size test that is consistent
    against the spike the reported test nearly ignores.
    """

    test_name: str
    n: int
    d: int
    coordinate: int
    spike: SpikeAlternative
    power_at_spike: PowerEstimate
    size: PowerEstimate
    average_spike_power: PowerEstimate
    gap_bound: float
    suggested_component: str

    def __post_init__(self) -> None:
        slack = 3.0 * (self.size.se + self.average_spike_power.se)
        gap = abs(self.size.mean - self.average_spike_power.mean)
        if gap > self.gap_bound + slack:
            raise DomainError(
                f"size vs average spike power gap {gap:.6f} exceeds the mixture bound "
                f"{self.gap_bound:.6f} plus Monte Carlo slack {slack:.6f}"
            )
        if not 1 <= self.coordinate <= self.d:
            raise DomainError(f"coordinate {self.coordinate} outside [1, {self.d}]")

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "BlindSpotReport":
        return cls(
            **{
                **data,
                "spike": SpikeAlternative.from_dict(data["spike"]),
                "power_at_spike": PowerEstimate.from_dict(data["power_at_spike"]),
                "size": PowerEstimate.from_dict(data["size"]),
                "average_spike_power": PowerEstimate.from_dict(data["average_spike_power"]),
            }
        )


def find_blind_spot(
    test: TestFunction, model: GaussianLocationModel, mc: McConfig
) -> BlindSpotReport:
    """Estimate the test's power at every coordinate spike and report the
    coordinate with minimal estimated power (lowest index on ties), bundled
    with the spike z-test on that coordinate as the enhancement suggestion."""
    means, ses, pooled, null_est = _spike_scan(test, model, mc)
    idx = int(np.argmin(means))
    coord = idx + 1
    return BlindSpotReport(
        test_name=test.name,
        n=model.n,
        d=model.d,
        coordinate=coord,
        spike=spike_alternative(model.n, model.d, coord),
        power_at_spike=PowerEstimate(
            mean=float(means[idx]), se=float(ses[idx]), reps=mc.reps, seed=mc.master_seed
        ),
        size=null_est,
        average_spike_power=pooled,
        gap_bound=power_gap_bound(model.n, model.d),
        suggested_component=f"spike:i={coord}",
    )
