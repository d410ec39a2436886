"""Command-line front end.

Exit codes: 0 success, 1 runtime failure, 2 usage error (argparse),
3 semantic violation (bad parameter values, spec strings, memberships).
Outputs are deterministic for a fixed --seed, for any --workers count.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .errors import DomainError, ParameterError, SpecError
from .harness import (
    RESULT_COLUMNS,
    RegimeSpec,
    consistency_diagnostic,
    embedding_equivalence_check,
    enhanceability_demo,
    example2_nontestability_curve,
    lan_remainder_check,
    rows_to_csv,
    run_regime,
)
from .mc import McConfig, estimate_rejection_prob
from .mixture import find_blind_spot, mixture_diagnostics
from .models import (
    FixedDesignRegression,
    GaussianLocationModel,
    ScaledGaussianModel,
    spike_alternative,
)
from .testfuncs import make_test

_SEMANTIC_ERRORS = (DomainError, ParameterError, SpecError)


def _add_mc_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--reps", type=int, default=10_000, help="Monte Carlo replications (default 10000)")
    sub.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    sub.add_argument("--workers", type=int, default=1, help="worker threads (default 1)")


def _add_io_flags(sub: argparse.ArgumentParser, default_format: str) -> None:
    sub.add_argument(
        "--format", choices=("csv", "json"), default=default_format,
        help=f"output format (default {default_format})",
    )
    sub.add_argument("--out", default="-", help="output path, '-' for stdout (default)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdpower",
        description=(
            "Power enhancement diagnostics for high-dimensional tests: "
            "Monte Carlo size/power estimation, blind-spot search via the "
            "spike mixture bound, and the enhancement demo."
        ),
    )
    parser.add_argument("--version", action="version", version=f"hdpower {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("simulate", help="estimate a test's rejection probability at a parameter point")
    p.add_argument("--test", required=True, help="test spec, e.g. chi2:alpha=0.05 or enhance(chi2:alpha=0.05,supnorm)")
    p.add_argument("--model", choices=("gaussian", "scaled", "regression"), default="gaussian")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--theta", default="zero", help="comma-separated vector, 'zero', or 'spike:i=K'")
    _add_mc_flags(p)
    _add_io_flags(p, "json")

    p = subs.add_parser("power-curve", help="size/power rows along a dimension regime")
    p.add_argument("--test", default="chi2:alpha=0.05")
    p.add_argument("--model", choices=("gaussian", "regression"), default="gaussian")
    p.add_argument("--d-rule", required=True, help="fixed:<d> | linear | power:<gamma> | ceil_log:<c>")
    p.add_argument("--n-grid", required=True, help="comma-separated sample sizes")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--theta", default=None, help="fixed parameter vector (regression rows)")
    p.add_argument(
        "--curve", choices=("regime", "consistency"), default="regime",
        help="'regime': MC blind-spot pipeline rows; 'consistency': exact criterion trajectory",
    )
    p.add_argument(
        "--theta-rule", default="spike",
        help="consistency curve parameter rule: spike | decay:<c> | zero",
    )
    p.add_argument("--timings", action="store_true", help="append a wall_time_s column (not byte-reproducible)")
    _add_mc_flags(p)
    _add_io_flags(p, "csv")

    p = subs.add_parser("blind-spot", help="find the spike coordinate a test is weakest against")
    p.add_argument("--test", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    _add_mc_flags(p)
    _add_io_flags(p, "json")

    p = subs.add_parser("bounds", help="exact mixture second moment and power-gap bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    _add_mc_flags(p)
    _add_io_flags(p, "json")

    p = subs.add_parser("lan-check", help="empirical quadratic-expansion remainder along an n grid")
    p.add_argument("--model", choices=("gaussian", "scaled", "regression"), default="gaussian")
    p.add_argument("--h", required=True, help="comma-separated local parameter vector")
    p.add_argument("--n-grid", required=True)
    _add_mc_flags(p)
    _add_io_flags(p, "json")

    p = subs.add_parser("embed-check", help="distributional equality of embedded experiments")
    p.add_argument("--d1", type=int, required=True)
    p.add_argument("--d2", type=int, required=True)
    p.add_argument("--theta", default="zero")
    p.add_argument("--n", type=int, required=True)
    _add_mc_flags(p)
    _add_io_flags(p, "json")

    p = subs.add_parser("nontestability", help="exact vanishing TV bound curve for the scaled model, d = n")
    p.add_argument("--n-grid", required=True)
    _add_mc_flags(p)
    _add_io_flags(p, "csv")

    p = subs.add_parser("demo", help="end-to-end enhanceability demonstration")
    p.add_argument("--test", default="chi2:alpha=0.05")
    p.add_argument("--d-rule", default="linear")
    p.add_argument("--n-grid", default="64,128,256")
    p.add_argument("--alpha", type=float, default=0.05)
    _add_mc_flags(p)
    _add_io_flags(p, "json")

    return parser


def _parse_grid(text: str) -> list[int]:
    try:
        grid = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise SpecError(f"bad n grid {text!r}: expected comma-separated integers") from exc
    if not grid:
        raise SpecError("n grid is empty")
    return grid


def _parse_theta(text: str, n: int, d: int) -> np.ndarray:
    text = text.strip()
    if text in ("zero", ""):
        return np.zeros(d)
    if text.startswith("spike"):
        _, _, args = text.partition(":")
        i = 1
        if args:
            key, _, raw = args.partition("=")
            if key.strip() != "i":
                raise SpecError(f"unknown spike option in theta spec {text!r}")
            try:
                i = int(raw)
            except ValueError as exc:
                raise SpecError(f"bad spike coordinate {raw!r}") from exc
        return spike_alternative(n, d, i).theta
    try:
        values = np.asarray([float(part) for part in text.split(",")], dtype=float)
    except ValueError as exc:
        raise SpecError(f"bad theta {text!r}: expected comma-separated floats") from exc
    return values


def _build_model(kind: str, n: int, d: int):
    if kind == "gaussian":
        return GaussianLocationModel(n=n, d=d)
    if kind == "scaled":
        return ScaledGaussianModel(n=n, d=d)
    if kind == "regression":
        return FixedDesignRegression.default_design(n=n, d=d)
    raise SpecError(f"unknown model {kind!r}")


def _mc(args: argparse.Namespace) -> McConfig:
    return McConfig(reps=args.reps, master_seed=args.seed, workers=args.workers)


def _regime(args: argparse.Namespace) -> RegimeSpec:
    return RegimeSpec(d_rule=args.d_rule, n_grid=tuple(_parse_grid(args.n_grid)), alpha=args.alpha)


def _theta_rule(spec: str):
    spec = spec.strip()
    if spec == "spike":
        return lambda n, d: spike_alternative(n, d, 1).theta
    if spec == "zero":
        return lambda n, d: np.zeros(d)
    if spec.startswith("decay"):
        _, _, arg = spec.partition(":")
        scale = 1.0
        if arg:
            key, _, raw = arg.partition("=")
            if key.strip() != "c":
                raise SpecError(f"unknown decay option in {spec!r}")
            try:
                scale = float(raw)
            except ValueError as exc:
                raise SpecError(f"bad decay scale {raw!r} in {spec!r}: expected a float") from exc

        def rule(n: int, d: int) -> np.ndarray:
            theta = np.zeros(d)
            theta[0] = scale / n**0.25
            return theta

        return rule
    raise SpecError(f"unknown theta rule {spec!r}")


# Subcommand handlers: each returns (JSON payload, CSV rows, CSV columns).

def _simulate(args: argparse.Namespace):
    mc = _mc(args)
    model = _build_model(args.model, args.n, args.d)
    test = make_test(args.test, args.n, args.d, model=model)
    theta = _parse_theta(args.theta, args.n, args.d)
    estimate = estimate_rejection_prob(test, model, theta, mc)
    payload = {
        "test": test.name,
        "model": args.model,
        "n": args.n,
        "d": args.d,
        "theta": [float(v) for v in np.atleast_1d(theta)],
        "estimate": estimate.to_dict(),
    }
    row = {"test": test.name, "model": args.model, "n": args.n, "d": args.d, **estimate.to_dict()}
    return payload, [row], list(row)


def _power_curve(args: argparse.Namespace):
    regime = _regime(args)
    if args.curve == "consistency":
        rows = consistency_diagnostic(_theta_rule(args.theta_rule), regime)
        return rows, rows, ["n", "d", "criterion", "exact_chi2_power"]
    mc = _mc(args)
    theta = None
    if args.theta is not None:
        theta = _parse_theta(args.theta, regime.n_grid[0], regime.d_of(regime.n_grid[0]))
    results = run_regime(regime, args.test, mc, model_kind=args.model, theta=theta,
                         timings=args.timings)
    rows = [vars(row) for row in results]
    if not args.timings:
        return rows, rows, list(RESULT_COLUMNS)
    timed = [{**row, "wall_time_s": f"{row['wall_time_s']:.3f}"} for row in rows]
    return rows, timed, [*RESULT_COLUMNS, "wall_time_s"]


def _blind_spot(args: argparse.Namespace):
    mc = _mc(args)
    model = GaussianLocationModel(n=args.n, d=args.d)
    test = make_test(args.test, args.n, args.d, model=model)
    report = find_blind_spot(test, model, mc)
    row = {"test": report.test_name, "n": report.n, "d": report.d,
           "coordinate": report.coordinate, "power_at_spike": report.power_at_spike.mean,
           "size": report.size.mean, "average_spike_power": report.average_spike_power.mean,
           "gap_bound": report.gap_bound}
    return report.to_dict(), [row], list(row)


def _bounds(args: argparse.Namespace):
    diag = mixture_diagnostics(args.n, args.d).to_dict()
    return diag, [diag], list(diag)


def _lan_check(args: argparse.Namespace):
    mc = _mc(args)
    try:
        h = np.asarray([float(part) for part in args.h.split(",")], dtype=float)
    except ValueError as exc:
        raise SpecError(f"bad local parameter {args.h!r}: expected comma-separated floats") from exc
    d = h.shape[0]
    rows = lan_remainder_check(lambda n: _build_model(args.model, n, d), h, _parse_grid(args.n_grid), mc)
    payload = {"model": args.model, "h": [float(v) for v in h], "rows": rows,
               "reps": mc.reps, "seed": mc.master_seed}
    return payload, rows, ["n", "d", "remainder_p95", "remainder_max"]


def _embed_check(args: argparse.Namespace):
    mc = _mc(args)
    theta = _parse_theta(args.theta, args.n, args.d1)
    report = embedding_equivalence_check(args.d1, args.d2, theta, args.n, mc)
    return report, report["ks"], ["coordinate", "statistic", "p_value"]


def _nontestability(args: argparse.Namespace):
    rows = example2_nontestability_curve(_parse_grid(args.n_grid))
    return rows, rows, ["n", "tv_bound"]


def _demo(args: argparse.Namespace):
    # fail before any Monte Carlo work: the report has no flat CSV form
    if args.format == "csv":
        raise SpecError("the demo report is nested; only --format json is supported")
    mc = _mc(args)
    return enhanceability_demo(args.test, _regime(args), mc), None, None


_COMMANDS = {
    "simulate": _simulate,
    "power-curve": _power_curve,
    "blind-spot": _blind_spot,
    "bounds": _bounds,
    "lan-check": _lan_check,
    "embed-check": _embed_check,
    "nontestability": _nontestability,
    "demo": _demo,
}


def render(args: argparse.Namespace) -> str:
    """Execute the parsed command and return the serialized output."""
    payload, rows, columns = _COMMANDS[args.subcommand](args)
    if args.format == "csv":
        return rows_to_csv(rows, columns)
    return json.dumps(payload, indent=2) + "\n"


def _write_output(text: str, out: str) -> None:
    if out in ("-", ""):
        sys.stdout.write(text)
        return
    with open(out, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = render(args)
    except _SEMANTIC_ERRORS as exc:
        print(f"hdpower: error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit 1
        print(f"hdpower: error: {exc}", file=sys.stderr)
        return 1
    try:
        _write_output(text, args.out)
    except OSError as exc:
        print(f"hdpower: error: cannot write output: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
