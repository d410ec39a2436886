"""Seeded workload generator.

``generate(workload, seed)`` returns the list of ``Op`` records a workload
runs. The seed fixes every op's ``--seed``, the halfspace test's direction
seed and the Wald alternative's direction; it never changes how much work
an op does, so run time is comparable across seeds. The program sees only
the generated argv.

Work units come from op arguments alone: one Monte Carlo replication at one
estimated parameter point (a blind-spot scan at dimension d estimates d + 1
points per replication), or one closed-form value.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

MC_BUDGET_S = 60.0
# several times what any exact-curve op needs
EXACT_BUDGET_S = 5.0
# four points a converging kernel sums in well under a second; the known
# non-converging op is killed here instead of running its ~27 s
HANG_BUDGET_S = 2.0

WHY = {
    "spike-scan": "blind-spot scans at n=d=256 and 1024 plus demo; the per-coordinate scan loop and test evaluation dominate",
    "wide-simulate": "simulate at n=100, d=ceil(e^8)=2981; bound by normal draws, no scan; spike reads 1 of 2981 columns, chi2 all",
    "obs-regime": "tall-n tiny-d: tscore on raw n x d observations at n=1e3 and 1e4 plus a Wald regression power curve",
    "exact-curves": "closed-form consistency, non-testability and bounds curves checked against scipy; the distribution kernels dominate",
}
WORKLOADS = tuple(WHY)

# Ops whose failure is a recorded program defect. They stay in the workload
# and count as failed ops; ``correct`` only turns false on other failures.
KNOWN_DEFECTS = {
    "linear-decay1.7": "chi2_cdf series capped at 500 terms: 0.789 at n=1e6 (scipy 0.654), 0.657 at n=1e5 (scipy 0.652)",
    "fixed5-decay10": "noncentral_chi2_cdf does not converge at lambda=3e4 and exits 3 after ~27 s",
}


@dataclass(frozen=True)
class Op:
    """One hdpower invocation with what the benchmark needs to judge it."""

    name: str
    argv: tuple[str, ...]
    units: int
    kind: str  # simulate | blind-spot | demo | regime | consistency | nontestability | bounds
    budget_s: float
    params: dict = field(default_factory=dict)
    # (model kind, n, d, test spec) built before any replication runs
    setup: tuple[tuple[str, int, int, str], ...] = ()

    @property
    def known_defect(self) -> str | None:
        return KNOWN_DEFECTS.get(self.name)


def log_grid(lo_exp: int, hi_exp: int, per_decade: int) -> list[int]:
    """Integer sample sizes 10^lo_exp .. 10^hi_exp, ``per_decade`` per decade."""
    steps = (hi_exp - lo_exp) * per_decade
    pts = {round(10 ** (lo_exp + k / per_decade)) for k in range(steps + 1)}
    return sorted(pts)


def _grid_arg(grid) -> str:
    return ",".join(str(n) for n in grid)


def _vec_arg(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _spike_scan(rng: random.Random) -> list[Op]:
    ops = []
    halfspace_seed = rng.randrange(1, 1 << 20)
    cases = [
        # two full 4096-row blocks at d=256, one block at d=1024
        ("chi2", "chi2", 256, 8_192),
        ("supnorm", "supnorm", 256, 8_192),
        ("halfspace", f"halfspace:seed={halfspace_seed}", 256, 8_192),
        ("enhance", "enhance(chi2,supnorm)", 256, 8_192),
        ("chi2-d1024", "chi2", 1024, 2_048),
    ]
    for name, spec, d, reps in cases:
        seed = rng.randrange(1, 1 << 31)
        ops.append(Op(
            name=f"blind-spot-{name}",
            argv=("blind-spot", "--test", spec, "--n", str(d), "--d", str(d),
                  "--reps", str(reps), "--seed", str(seed)),
            units=reps * (d + 1),
            kind="blind-spot",
            budget_s=MC_BUDGET_S,
            params={"test": spec, "n": d, "d": d, "reps": reps, "seed": seed},
            setup=(("gaussian", d, d, spec),),
        ))
    seed = rng.randrange(1, 1 << 31)
    reps, grid = 8_192, [64, 128, 256]
    n = d = grid[-1]
    ops.append(Op(
        name="demo-linear",
        argv=("demo", "--test", "chi2:alpha=0.05", "--d-rule", "linear", "--n-grid",
              _grid_arg(grid), "--reps", str(reps), "--seed", str(seed)),
        # the scan at the largest n, then size and power of base, component
        # and enhanced test
        units=reps * (d + 1) + 6 * reps,
        kind="demo",
        budget_s=MC_BUDGET_S,
        params={"test": "chi2:alpha=0.05", "grid": grid, "n": n, "d": d, "reps": reps, "seed": seed},
        setup=(("gaussian", n, d, "chi2:alpha=0.05"),),
    ))
    return ops


def _wide_simulate(rng: random.Random) -> list[Op]:
    n, d, reps = 100, math.ceil(math.exp(8)), 27_000
    ops = []
    for name, spec, theta in (
        ("spike-at-zero", "spike:i=1", "zero"),
        ("spike-at-spike", "spike:i=1", "spike:i=1"),
        ("chi2-at-zero", "chi2", "zero"),
    ):
        seed = rng.randrange(1, 1 << 31)
        ops.append(Op(
            name=name,
            argv=("simulate", "--test", spec, "--n", str(n), "--d", str(d), f"--theta={theta}",
                  "--reps", str(reps), "--seed", str(seed)),
            units=reps,
            kind="simulate",
            budget_s=MC_BUDGET_S,
            params={"test": spec, "model": "gaussian", "n": n, "d": d, "theta": theta,
                    "reps": reps, "seed": seed},
            setup=(("gaussian", n, d, spec),),
        ))
    return ops


def _obs_regime(rng: random.Random) -> list[Op]:
    ops = []
    for n, reps in ((1_000, 10_000), (10_000, 5_000)):
        seed = rng.randrange(1, 1 << 31)
        theta = [n**-0.25, 0.0]  # the criterion-7 shape theta_n = n^{-1/4} e_1
        ops.append(Op(
            name=f"tscore-n{n}",
            argv=("simulate", "--test", "tscore", "--n", str(n), "--d", "2",
                  f"--theta={_vec_arg(theta)}", "--reps", str(reps), "--seed", str(seed)),
            units=reps,
            kind="simulate",
            budget_s=MC_BUDGET_S,
            params={"test": "tscore", "model": "gaussian", "n": n, "d": 2, "theta": theta,
                    "reps": reps, "seed": seed},
            setup=(("gaussian", n, 2, "tscore"),),
        ))
    seed = rng.randrange(1, 1 << 31)
    d, reps, grid = 5, 5_000, [100, 400, 1600]
    direction = [rng.gauss(0.0, 1.0) for _ in range(d)]
    norm = math.sqrt(sum(v * v for v in direction))
    theta = [0.1 * v / norm for v in direction]  # n ||theta||^2 = 1, 4, 16 along the grid
    ops.append(Op(
        name="wald-regime",
        argv=("power-curve", "--model", "regression", "--test", "wald", "--d-rule", f"fixed:{d}",
              "--n-grid", _grid_arg(grid), f"--theta={_vec_arg(theta)}", "--reps", str(reps),
              "--seed", str(seed)),
        units=2 * reps * len(grid),
        kind="regime",
        budget_s=MC_BUDGET_S,
        params={"test": "wald", "d": d, "grid": grid, "theta": theta, "reps": reps, "seed": seed},
        setup=tuple(("regression", n, d, "wald") for n in grid),
    ))
    return ops


def _exact_curves(rng: random.Random) -> list[Op]:
    # No random inputs: every grid point is fixed, because where the kernel
    # stops converging (lambda of a few 1e3) is erratic, and a seeded grid
    # would move points in and out of the known defects.
    ops = []
    curves = [
        ("linear-decay1", "linear", "decay:c=1", log_grid(1, 6, 12)),
        ("linear-spike", "linear", "spike", log_grid(1, 6, 8)),
        ("sqrt-spike", "power:0.5", "spike", log_grid(1, 8, 8)),
        ("fixed5-decay1", "fixed:5", "decay:c=1", log_grid(1, 6, 8)),
        ("linear-decay1.7", "linear", "decay:c=1.7", [1_000, 10_000, 100_000, 1_000_000]),
        ("fixed5-decay10", "fixed:5", "decay:c=10", [100, 1_000, 10_000, 90_000]),
    ]
    for name, d_rule, theta_rule, grid in curves:
        ops.append(Op(
            name=name,
            argv=("power-curve", "--curve", "consistency", "--d-rule", d_rule,
                  "--theta-rule", theta_rule, "--n-grid", _grid_arg(grid)),
            units=len(grid),
            kind="consistency",
            budget_s=HANG_BUDGET_S if name == "fixed5-decay10" else EXACT_BUDGET_S,
            params={"d_rule": d_rule, "theta_rule": theta_rule, "grid": grid, "alpha": 0.05},
        ))
    grid = log_grid(0, 7, 8)
    ops.append(Op(
        name="nontestability",
        argv=("nontestability", "--n-grid", _grid_arg(grid)),
        units=len(grid),
        kind="nontestability",
        budget_s=EXACT_BUDGET_S,
        params={"grid": grid},
    ))
    n, d = 100, math.ceil(math.exp(8))
    ops.append(Op(
        name="bounds",
        argv=("bounds", "--n", str(n), "--d", str(d)),
        units=1,
        kind="bounds",
        budget_s=EXACT_BUDGET_S,
        params={"n": n, "d": d},
    ))
    return ops


_BUILDERS = {
    "spike-scan": _spike_scan,
    "wide-simulate": _wide_simulate,
    "obs-regime": _obs_regime,
    "exact-curves": _exact_curves,
}


def generate(workload: str, seed: int) -> list[Op]:
    """The ops of ``workload`` for ``seed``; equal seeds give equal ops."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
