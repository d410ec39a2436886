"""Output checks for op stdouts, run as its own process.

Usage: python3 bench/checks.py BATCH_JSON

BATCH_JSON holds {"items": [{"kind", "params", "stdout"}, ...]}; the verdicts
and the numeric stack's versions go to stdout as one JSON object. The checks
run apart from run.py so that run.py, which spawns every op, stays a small
stdlib-only process: a spawned child's peak resident size starts from its
parent's.

Closed forms are computed here with scipy, never with hdpower's own kernels,
so a kernel defect shows as a failed op. Monte Carlo estimates must lie
within ``SE_BAND`` standard errors of the closed form where one exists;
closed-form values printed by the program must match scipy to ``EXACT_TOL``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys

import numpy
import scipy
from scipy import stats

SE_BAND = 4.0
EXACT_TOL = 1e-9
ALPHA = 0.05


class Verdict:
    """Problems found in one output, plus the exact-value comparisons made."""

    def __init__(self) -> None:
        self.problems: list[str] = []
        self.abs_errs: list[float] = []

    @property
    def oracle_fail(self) -> int:
        return sum(1 for e in self.abs_errs if not e <= EXACT_TOL)

    def require(self, cond: bool, what: str) -> None:
        if not cond:
            self.problems.append(what)

    def exact(self, label: str, got: float, want: float) -> None:
        err = abs(float(got) - float(want))
        self.abs_errs.append(err)
        self.require(err <= EXACT_TOL, f"{label}: {got!r} vs scipy {want!r} (|err|={err:.3g})")

    def near(self, label: str, est: float, se: float, want: float) -> None:
        self.require(
            abs(est - want) <= SE_BAND * se + 1e-12,
            f"{label}: estimate {est!r} is {abs(est - want) / se if se else math.inf:.2f} se from {want!r}",
        )


# -- closed forms -----------------------------------------------------------


def spike_scale(n: int, d: int) -> tuple[float, float]:
    """(mean shift sqrt(n) a, z-test threshold) of the coordinate spike."""
    shift = max(math.sqrt(math.log(d) / 2.0), 1.0)
    return shift, math.sqrt(shift)


def spike_size(n: int, d: int) -> float:
    _, thr = spike_scale(n, d)
    return 2.0 * stats.norm.sf(thr)


def spike_power(n: int, d: int) -> float:
    shift, thr = spike_scale(n, d)
    return stats.norm.cdf(shift - thr) + stats.norm.cdf(-shift - thr)


def supnorm_size(d: int) -> float:
    return -math.expm1(d * math.log1p(-2.0 * stats.norm.sf(math.sqrt(2.0 * math.log(d)))))


def chi2_power(d: int, lam: float, alpha: float = ALPHA) -> float:
    q = stats.chi2.isf(alpha, d)
    return float(stats.ncx2.sf(q, d, lam) if lam > 0 else stats.chi2.sf(q, d))


def null_size(spec: str, n: int, d: int) -> float | None:
    """Exact size of a test spec at theta = 0, where a closed form exists."""
    if spec.startswith(("chi2", "halfspace")):
        return ALPHA
    if spec.startswith("supnorm"):
        return supnorm_size(d)
    if spec.startswith("spike"):
        return spike_size(n, d)
    return None


def d_of(rule: str, n: int) -> int:
    kind, _, arg = rule.partition(":")
    if kind == "fixed":
        return int(arg)
    if kind == "linear":
        return n
    return max(1, math.ceil(n ** float(arg)))


def consistency_lambda(theta_rule: str, n: int, d: int) -> float:
    if theta_rule == "spike":
        return max(math.log(d) / 2.0, 1.0)
    if theta_rule == "zero":
        return 0.0
    c = float(theta_rule.partition("=")[2])
    return n * (c / n**0.25) ** 2


# -- per-kind checks --------------------------------------------------------


def _simulate(v: Verdict, p: dict, text: str) -> None:
    out = json.loads(text)
    est = out["estimate"]
    v.require(est["reps"] == p["reps"] and est["seed"] == p["seed"], "estimate reps/seed not echoed")
    v.require(out["n"] == p["n"] and out["d"] == p["d"], "n/d not echoed")
    n, d, spec = p["n"], p["d"], p["test"]
    if p["theta"] == "zero":
        want = null_size(spec, n, d)
    elif spec.startswith("spike") and p["theta"] == spec:
        want = spike_power(n, d)
    else:
        want = None
    if want is not None:
        v.near(f"{spec} at {p['theta']}", est["mean"], est["se"], want)


def _blind_spot_report(v: Verdict, report: dict, spec: str, n: int, d: int, reps: int) -> None:
    from hdpower.mixture import BlindSpotReport

    try:
        BlindSpotReport.from_dict(report)
    except Exception as exc:  # noqa: BLE001 - any parse failure is a failed check
        v.problems.append(f"BlindSpotReport.from_dict rejected the output: {exc}")
        return
    coord = report["coordinate"]
    v.require(1 <= coord <= d, f"coordinate {coord} outside [1, {d}]")
    v.require(report["suggested_component"] == f"spike:i={coord}", "suggested component mismatch")
    v.require(report["size"]["reps"] == reps, "size reps not echoed")
    v.exact("gap_bound", report["gap_bound"],
            math.sqrt(math.expm1(max(math.log(d) / 2.0, 1.0)) / d))
    want = null_size(spec, n, d)
    if want is not None:
        v.near(f"{spec} size", report["size"]["mean"], report["size"]["se"], want)


def _blind_spot(v: Verdict, p: dict, text: str) -> None:
    _blind_spot_report(v, json.loads(text), p["test"], p["n"], p["d"], p["reps"])


def _demo(v: Verdict, p: dict, text: str) -> None:
    out = json.loads(text)
    n, d = p["n"], p["d"]
    _blind_spot_report(v, out["blind_spot"], p["test"], n, d, p["reps"])
    v.require(all(out["checks"].values()), f"demo checks failed: {out['checks']}")
    v.require([row["n"] for row in out["trend"]] == p["grid"], "trend grid mismatch")
    for row in out["trend"]:
        v.exact(f"component size n={row['n']}", row["component_exact_size"], spike_size(row["n"], row["d"]))
        v.exact(f"component power n={row['n']}", row["component_exact_power_at_spike"],
                spike_power(row["n"], row["d"]))
    for label, block, want in (
        ("base size", out["base"]["size"], ALPHA),
        ("component size", out["component"]["size"], spike_size(n, d)),
        ("component power", out["component"]["power_at_spike"], spike_power(n, d)),
    ):
        v.near(label, block["mean"], block["se"], want)


def _regime(v: Verdict, p: dict, text: str) -> None:
    rows = list(csv.DictReader(io.StringIO(text)))
    v.require([int(r["n"]) for r in rows] == p["grid"], "regime grid mismatch")
    reps = p["reps"]
    sq = sum(t * t for t in p["theta"])
    for r in rows:
        n = int(r["n"])
        v.require(int(r["d"]) == p["d"], f"d mismatch at n={n}")
        for label, est, want in (
            ("wald size", float(r["size"]), ALPHA),
            ("wald power", float(r["power"]), chi2_power(p["d"], n * sq)),
        ):
            v.near(f"{label} n={n}", est, math.sqrt(want * (1.0 - want) / reps), want)


def _consistency(v: Verdict, p: dict, text: str) -> None:
    rows = list(csv.DictReader(io.StringIO(text)))
    v.require([int(r["n"]) for r in rows] == p["grid"], f"{len(rows)} of {len(p['grid'])} rows")
    for r in rows:
        n, d = int(r["n"]), int(r["d"])
        v.require(d == d_of(p["d_rule"], n), f"d={d} at n={n}")
        lam = consistency_lambda(p["theta_rule"], n, d)
        crit = float(r["criterion"])
        v.require(math.isclose(crit, lam / math.sqrt(d), rel_tol=1e-12), f"criterion at n={n}")
        v.exact(f"exact_chi2_power n={n} d={d}", float(r["exact_chi2_power"]), chi2_power(d, lam, p["alpha"]))


def _nontestability(v: Verdict, p: dict, text: str) -> None:
    rows = list(csv.DictReader(io.StringIO(text)))
    v.require([int(r["n"]) for r in rows] == p["grid"], "nontestability grid mismatch")
    for r in rows:
        n = int(r["n"])
        v.exact(f"tv_bound n={n}", float(r["tv_bound"]), 1.0 - 2.0 * stats.norm.sf(0.5 / math.sqrt(n)))


def _bounds(v: Verdict, p: dict, text: str) -> None:
    out = json.loads(text)
    n, d = p["n"], p["d"]
    smm1 = math.expm1(max(math.log(d) / 2.0, 1.0)) / d
    v.require(out["n"] == n and out["d"] == d, "n/d not echoed")
    v.exact("second_moment_minus_one", out["second_moment_minus_one"], smm1)
    v.exact("paper_bound", out["paper_bound"], 1.0 / math.sqrt(d))
    v.exact("power_gap_bound", out["power_gap_bound"], math.sqrt(smm1))


_CHECKS = {
    "simulate": _simulate,
    "blind-spot": _blind_spot,
    "demo": _demo,
    "regime": _regime,
    "consistency": _consistency,
    "nontestability": _nontestability,
    "bounds": _bounds,
}


def check_output(kind: str, params: dict, text: str) -> Verdict:
    """Judge one successful run's stdout against the op's closed forms."""
    verdict = Verdict()
    try:
        _CHECKS[kind](verdict, params, text)
    except (ValueError, KeyError, TypeError) as exc:
        verdict.problems.append(f"unparseable output: {type(exc).__name__}: {exc}")
    return verdict


def versions() -> dict:
    info = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    return info


def main(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        items = json.load(fh)["items"]
    verdicts = []
    for item in items:
        v = check_output(item["kind"], item["params"], item["stdout"])
        verdicts.append({"problems": v.problems, "abs_errs": v.abs_errs, "oracle_fail": v.oracle_fail})
    json.dump({"verdicts": verdicts, "versions": versions()}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
