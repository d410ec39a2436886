"""Block-parallel Monte Carlo engine.

Replications are partitioned into fixed-size blocks; block ``b`` of an
operation draws from the substream keyed by (master_seed, tag, b) and block
results are reduced in block order. Both facts together make every estimate
bit-identical for any worker count. ``map_blocks`` is the one place that
applies this rule; every sampling loop in the package goes through it.

Every estimate, the spike scan's too, takes one reduction path: ``block_sums``
gives a block's per-row (sum, sum of squares), ``summarize`` merges them with
``math.fsum`` in block order, and ``mean_se`` is the one mean and
standard-error formula, for scalars and arrays alike.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Any, Callable

import numpy as np

from .errors import DomainError
from .rng import substream

BLOCK_REPS = 4096
# cap on elements per block: it fixes the block layout and so the random
# stream layout; memory is bounded by the chunk below, not by this
_BLOCK_ELEMS = 1 << 22
# elements drawn and evaluated at a time within a block (2 MB of doubles, an
# L2-sized working set); changing it moves no bytes, see row_chunks
_CHUNK_ELEMS = 1 << 18
# a map that draws fewer elements than this in total runs on the calling
# thread: a pool costs more than it saves (a 100000-rep single-column estimate
# took 0.012 s with two threads and 0.006 s with one on a 2-core Xeon VM)
_POOL_MIN_ELEMS = 1 << 20


@dataclass(frozen=True)
class McConfig:
    """Replication budget, master seed, and worker count for one MC run."""

    reps: int
    master_seed: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        if self.reps < 1:
            raise DomainError(f"reps must be >= 1, got {self.reps}")
        if self.workers < 1:
            raise DomainError(f"workers must be >= 1, got {self.workers}")
        if not 0 <= self.master_seed < 1 << 64:
            raise DomainError(f"master_seed must be in [0, 2^64), got {self.master_seed}")


@dataclass(frozen=True)
class PowerEstimate:
    """Monte Carlo rejection probability with its standard error and provenance."""

    mean: float
    se: float
    reps: int
    seed: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.mean <= 1.0:
            raise DomainError(f"estimate mean {self.mean!r} outside [0, 1]")
        if self.se < 0.0:
            raise DomainError(f"standard error must be >= 0, got {self.se!r}")

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "PowerEstimate":
        return cls(**data)


def block_layout(reps: int, elems_per_rep: int = 1) -> list[tuple[int, int]]:
    """(block_index, block_size) pairs covering ``reps`` replications.

    The layout depends only on (reps, elems_per_rep), never on the worker
    count, so streams line up across runs.
    """
    block = BLOCK_REPS
    if elems_per_rep > 1:
        block = max(1, min(block, _BLOCK_ELEMS // elems_per_rep))
    out = []
    b = 0
    left = reps
    while left > 0:
        m = min(block, left)
        out.append((b, m))
        left -= m
        b += 1
    return out


def row_chunks(m: int, elems_per_rep: int) -> list[tuple[int, int]]:
    """Consecutive ``(lo, hi)`` row ranges covering ``m`` rows, each of at
    most ``_CHUNK_ELEMS`` elements (and at least one row).

    A numpy Generator fills sequentially, so drawing the chunks in order
    from one generator gives the same numbers as one (m, ...) draw; a caller
    that evaluates row-wise then sees the same values with chunk-sized
    temporaries.
    """
    step = max(1, _CHUNK_ELEMS // elems_per_rep)
    return [(lo, min(lo + step, m)) for lo in range(0, m, step)]


def run_blocks(
    work: Callable[[int, int], Any],
    blocks: list[tuple[int, int]],
    workers: int,
) -> list[Any]:
    """Run ``work(block_index, block_size)`` over all blocks, returning
    results in block order regardless of execution order."""
    if workers <= 1 or len(blocks) <= 1:
        return [work(b, m) for b, m in blocks]
    # imported here: it pulls in logging, which a serial run never needs
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(work, b, m) for b, m in blocks]
        return [f.result() for f in futures]


def map_blocks(
    mc: McConfig,
    tag: str,
    elems_per_rep: int,
    fn: Callable[[np.random.Generator, int], Any],
) -> list[Any]:
    """Run ``fn(rng, m)`` on every block of ``mc.reps`` replications and
    return the results in block order.

    Block ``b`` of size ``m`` gets ``rng = substream(mc.master_seed, tag, b)``,
    so the results depend on the seed and the tag, never on ``mc.workers``.
    A map that draws fewer than ``_POOL_MIN_ELEMS`` elements in total runs
    on the calling thread, whatever ``mc.workers`` says.
    """

    def work(b: int, m: int) -> Any:
        return fn(substream(mc.master_seed, tag, b), m)

    workers = mc.workers if mc.reps * elems_per_rep >= _POOL_MIN_ELEMS else 1
    return run_blocks(work, block_layout(mc.reps, elems_per_rep), workers)


def mean_se(count: int, total, total_sq):
    """Mean and sample-variance standard error of ``count`` values from their
    sum and sum of squares; on arrays of sums, the scalar results' bits."""
    mean = total / count
    if count == 1:  # one value has no sample variance
        return mean, 0.0 * mean
    var = np.maximum(0.0, (total_sq - total * total / count) / (count - 1))
    return mean, np.sqrt(var / count)


def block_sums(rows) -> list[tuple[float, float]]:
    """(sum, sum of squares) of each row of a block's values."""
    return [(float(v.sum()), float((v * v).sum())) for v in rows]


def summarize(count: int, parts: list[list[tuple[float, float]]], seed: int) -> list[PowerEstimate]:
    """One estimate per row from every block's ``block_sums`` (``parts``, in
    block order), the blocks' sums added by ``math.fsum`` in that order."""
    out = []
    for row in zip(*parts):
        sums, sums_sq = zip(*row)
        mean, se = mean_se(count, math.fsum(sums), math.fsum(sums_sq))
        out.append(PowerEstimate(mean=float(np.clip(mean, 0.0, 1.0)), se=float(se), reps=count, seed=seed))
    return out


def estimate_rejection_probs(
    tests, model, theta, mc: McConfig, tag: str = "rejection-prob"
) -> list[PowerEstimate]:
    """Monte Carlo estimates of the rejection probabilities of ``tests`` when
    the data-generating parameter is ``theta``, in the order of ``tests``.

    Every block is drawn once and evaluated by all the tests (common random
    numbers), so a pointwise relation between tests, such as
    psi <= phi + nu, holds in the estimates too. The tests' shared input kind
    decides what gets sampled: the model's sufficient statistic, or raw
    per-observation data for tests that need it. When every test reads the
    same single statistic coordinate (``TestFunction.coordinate``), only that
    column is drawn, and the tests evaluate its zero-copy broadcast to full
    width.

    Each block is drawn and evaluated in consecutive row chunks
    (``row_chunks``) from the block's one substream, and every test's values
    are collected in one (len(tests), m) array before the block's sums are
    taken. The draws are those of one whole-block draw and tests map rows
    independently (see ``TestFunction``), so the estimates do not depend on
    the chunk size, while a worker holds one chunk of draws plus the tests'
    temporaries on it.
    """
    tests = list(tests)
    if not tests:
        raise DomainError("need at least one test to estimate")
    theta = model.require_member(theta)
    kinds = {test.consumes for test in tests}
    if len(kinds) > 1:
        raise DomainError(f"tests sharing draws must consume one input kind, got {sorted(kinds)}")
    kind = kinds.pop()
    for test in tests:
        if test.dim != model.d:
            raise DomainError(f"test dimension {test.dim} does not match model dimension {model.d}")
    if kind == "statistic":
        coordinates = {test.coordinate for test in tests}
        coordinate = coordinates.pop() if len(coordinates) == 1 else None
        if coordinate is None:
            elems, sample = model.d, model.sample_statistic
        else:
            elems = 1

            def sample(theta, rng: np.random.Generator, m: int) -> np.ndarray:
                column = model.sample_statistic(theta, rng, m, coordinate=coordinate)
                return np.broadcast_to(column, (m, model.d))

    else:
        if not hasattr(model, "sample_observations"):
            raise DomainError(f"model {model!r} does not expose per-observation sampling")
        elems = model.n * model.d
        sample = model.sample_observations

    def work(rng: np.random.Generator, m: int) -> list[tuple[float, float]]:
        vals = np.empty((len(tests), m))
        for lo, hi in row_chunks(m, elems):
            draws = sample(theta, rng, hi - lo)
            for k, test in enumerate(tests):
                vals[k, lo:hi] = test.evaluate_batch(draws)
        return block_sums(vals)

    return summarize(mc.reps, map_blocks(mc, tag, elems, work), mc.master_seed)


def estimate_rejection_prob(test, model, theta, mc: McConfig, tag: str = "rejection-prob") -> PowerEstimate:
    """Monte Carlo estimate of the rejection probability of ``test`` when the
    data-generating parameter is ``theta``: the one-test case of
    ``estimate_rejection_probs``."""
    return estimate_rejection_probs([test], model, theta, mc, tag)[0]


__all__ = [
    "BLOCK_REPS",
    "McConfig",
    "PowerEstimate",
    "block_layout",
    "block_sums",
    "estimate_rejection_prob",
    "estimate_rejection_probs",
    "map_blocks",
    "mean_se",
    "row_chunks",
    "run_blocks",
    "summarize",
]
