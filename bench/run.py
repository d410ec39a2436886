"""End-to-end benchmark of the hdpower CLI.

Usage (from the repository root):

    python3 bench/run.py --workload spike-scan --seed 1 --seconds 25 --trace 0

Each op of the seeded workload runs as its own ``python3 -m hdpower.cli``
process, one process at a time, at ``--workers 1`` and at ``--workers 2``,
with BLAS and OpenMP pinned to one thread. Every output is checked (see
checks.py). The workload runs in as many passes as the first pass says fill
``--seconds``; each op's times are medians over passes.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each op once
untraced and then through traced_cli.py (at both worker counts for Monte
Carlo ops) and prints the per-layer metrics.
``--workload all`` runs every workload in turn. The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

sys.path.insert(0, BENCH)

import workloads  # noqa: E402

THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 5
# stop starting passes after this long, so a run ends well inside 180 s
MAX_MEASURE_S = 120.0
EXACT_KINDS = ("consistency", "nontestability", "bounds")

END_TO_END = {
    "wall_s": "s",
    "work_per_s": "units/s",
    "setup_s": "s",
    "wall_w2_s": "s",
    "speedup_w2": "x",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


@dataclass
class Proc:
    code: int | None  # None when killed at the time budget
    wall_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


def _env() -> dict[str, str]:
    env = dict(os.environ, **THREAD_PINS)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(args: list[str], budget_s: float, tag: str) -> Proc:
    """Run ``python3 <args>`` to exit, or kill it once ``budget_s`` passes.

    Wall time runs from just before spawn to the moment wait4 returns; the
    peak resident size is the child's own ``ru_maxrss``.
    """
    out_path = os.path.join(WORK, f"{tag}.out")
    err_path = os.path.join(WORK, f"{tag}.err")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o600),
        (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o600),
    ]
    done: dict = {}

    def reap() -> None:
        _, status, usage = os.wait4(pid, 0)
        done["t1"] = time.perf_counter()
        done["status"], done["usage"] = status, usage

    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], _env(), file_actions=actions)
    waiter = threading.Thread(target=reap, daemon=True)
    waiter.start()
    try:
        waiter.join(budget_s)
    finally:
        killed = waiter.is_alive()
        if killed:
            os.kill(pid, signal.SIGKILL)
        waiter.join()
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    os.unlink(out_path)
    os.unlink(err_path)
    code = None if killed else os.waitstatus_to_exitcode(done["status"])
    return Proc(code, done["t1"] - t0, done["usage"].ru_maxrss / 1024.0, stdout, stderr)


def cli_args(op: workloads.Op, workers: int) -> list[str]:
    return ["-m", "hdpower.cli", *op.argv, "--workers", str(workers)]


def precheck(op: workloads.Op, runs: list[Proc]) -> list[str]:
    """Problems visible without parsing: a kill, a non-zero exit, or
    stdout that differs between runs that must agree byte for byte."""
    for r in runs:
        if r.code is None:
            return [f"killed after the {op.budget_s:g} s budget"]
        if r.code != 0:
            tail = r.stderr.decode(errors="replace").strip().splitlines()[-1:] or [""]
            return [f"exit {r.code}: {tail[0]}"]
    if any(r.stdout != runs[0].stdout for r in runs[1:]):
        return ["stdout differs across worker counts or tracing"]
    return []


@dataclass
class OpResult:
    op: workloads.Op
    problems: list[str]
    abs_errs: list[float]
    oracle_fail: int


def judge(checked: list[tuple[workloads.Op, list[Proc], list[str]]]) -> tuple[list[OpResult], dict]:
    """Content checks for every op that passed its precheck, in one
    checks.py process; returns the results and the checker's versions."""
    batch = [{"kind": op.kind, "params": op.params, "stdout": runs[0].stdout.decode()}
             for op, runs, problems in checked if not problems]
    path = os.path.join(WORK, "checks.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"items": batch}, fh)
    r = spawn([os.path.join(BENCH, "checks.py"), path], 600.0, "checks")
    os.unlink(path)
    if r.code != 0:
        raise RuntimeError(f"checks.py failed: {r.stderr.decode(errors='replace')}")
    out = json.loads(r.stdout)
    verdicts = iter(out["verdicts"])
    results = []
    for op, _, problems in checked:
        v = {"problems": [], "abs_errs": [], "oracle_fail": 0} if problems else next(verdicts)
        results.append(OpResult(op, problems + v["problems"], v["abs_errs"], v["oracle_fail"]))
    return results, out["versions"]


def probe_setup(specs: list) -> tuple[float, list[float]]:
    """One set-up probe: its wall time, and the build time of each spec.

    With no specs the probe only starts the interpreter and imports the
    CLI; with specs it also builds each (model, test), timed inside.
    """
    r = spawn([os.path.join(BENCH, "setup_probe.py"), json.dumps(specs)], 120.0, "setup")
    if r.code != 0:
        raise RuntimeError(f"set-up probe failed: {r.stderr.decode(errors='replace')}")
    return r.wall_s, json.loads(r.stdout)


def run_pass(ops: list[workloads.Op], index: int) -> tuple[list[tuple[float, float, float, float]], list]:
    """Each op at --workers 1 and 2, then an import-only probe:
    (w1 wall, w2 wall, w1 peak RSS, probe wall) per op.

    Pass ``index`` starts at a different op and flips which worker count
    runs first, so each op is sampled at other times and in other order.
    """
    samples: list = [None] * len(ops)
    checked = []
    for k in range(len(ops)):
        i = (k + index) % len(ops)
        op = ops[i]
        first, second = (1, 2) if index % 2 == 0 else (2, 1)
        runs = {w: spawn(cli_args(op, w), op.budget_s, f"op{i}-w{w}") for w in (first, second)}
        samples[i] = (runs[1].wall_s, runs[2].wall_s, runs[1].rss_mb, probe_setup([])[0])
        checked.append((op, [runs[1], runs[2]], precheck(op, [runs[1], runs[2]])))
    return samples, checked


def run_trace(ops: list[workloads.Op]):
    """One untraced and one traced pass at --workers 1, plus traced
    --workers 2 runs of the Monte Carlo ops for the busy fraction."""
    import layers

    tracer = os.path.join(BENCH, "traced_cli.py")
    plain_s = traced_s = 0.0
    checked, traces, w2_traces = [], [], []
    for i, op in enumerate(ops):
        plain = spawn(cli_args(op, 1), op.budget_s, f"op{i}-plain")
        plain_s += plain.wall_s
        runs, span_problems = [plain], []
        for workers in (1,) if op.kind in EXACT_KINDS else (1, 2):
            spans = os.path.join(WORK, f"op{i}-w{workers}.spans.json")
            r = spawn([tracer, spans, "--", *op.argv, "--workers", str(workers)], op.budget_s, f"op{i}-t{workers}")
            runs.append(r)
            if workers == 1:
                traced_s += r.wall_s
            if os.path.exists(spans):
                with open(spans, encoding="utf-8") as fh:
                    trace = layers.Trace(json.load(fh))
                os.unlink(spans)
                span_problems += trace.block_rows_problems()
                (traces if workers == 1 else w2_traces).append(trace)
        checked.append((op, runs, precheck(op, runs) + span_problems))
    metrics = layers.layer_metrics(traces, w2_traces)
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
    return metrics, checked


def provenance(versions: dict) -> dict:
    info = {"nproc": os.cpu_count(), "python": sys.version.split()[0], **versions,
            "thread_pins": THREAD_PINS, "git_sha": _git_sha(),
            "bytes": "eval_bytes_computed = rows x elements x 8, computed not measured"}
    info["cpu"] = _read_first("/proc/cpuinfo", "model name")
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        if _read(f"{base}/level") == "3":
            info["llc"] = _read(f"{base}/size")
    return info


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _read_first(path: str, key: str) -> str | None:
    for line in (_read(path) or "").splitlines():
        if line.startswith(key):
            return line.split(":", 1)[1].strip()
    return None


def _git_sha() -> str | None:
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = _read(os.path.join(ROOT, ".git", ref))
    if sha is None:
        for line in (_read(os.path.join(ROOT, ".git", "packed-refs")) or "").splitlines():
            if line.endswith(" " + ref):
                sha = line.split()[0]
    return sha


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    ops = workloads.generate(name, seed)
    spawn(["-c", "import hdpower.cli"], 120.0, "warmup")
    if trace:
        metrics, checked = run_trace(ops)
        extra = {}
    else:
        specs = sorted({tuple(spec) for op in ops for spec in op.setup})
        builds = [probe_setup(specs)[1] for _ in range(SETUP_REPEATS)] if specs else []
        build_s = {spec: statistics.median(b[j] for b in builds) for j, spec in enumerate(specs)}
        passes, checked = [], []
        target = 1
        while len(passes) < target:
            t = time.perf_counter()
            samples, pass_checked = run_pass(ops, len(passes))
            passes.append(samples)
            checked += pass_checked
            if len(passes) == 1:
                # as many passes as fill --seconds, counted from the first,
                # so the count stays put when pass times wobble
                first = time.perf_counter() - t
                target = max(1, min(round(seconds / first), int(MAX_MEASURE_S // first)))
        # per-op medians over passes, summed over ops
        n = len(ops)
        wall = sum(statistics.median(p[i][0] for p in passes) for i in range(n))
        wall_w2 = sum(statistics.median(p[i][1] for p in passes) for i in range(n))
        start_s = statistics.median(x[3] for p in passes for x in p)
        setup_s = sum(start_s + sum(build_s[tuple(spec)] for spec in op.setup) for op in ops)
        total_units = sum(op.units for op in ops)
        metrics = {
            "wall_s": wall,
            "work_per_s": total_units / (wall - setup_s),
            "setup_s": setup_s,
            "wall_w2_s": wall_w2,
            "speedup_w2": wall / wall_w2,
            "peak_rss_mb": statistics.median(max(x[2] for x in p) for p in passes),
        }
        extra = {"passes": len(passes)}
    results, versions = judge(checked)
    failed = [r for r in results if r.problems]
    if not trace:
        metrics["ok_frac"] = 1.0 - len(failed) / len(results)
    else:
        errs = [e for r in results for e in r.abs_errs]
        metrics["distributions.max_abs_err"] = max(errs, default=0.0)
        metrics["distributions.oracle_fail"] = float(sum(r.oracle_fail for r in results))
    unexpected = [r for r in failed if not r.op.known_defect]
    return {
        "workload": name,
        "why": workloads.WHY[name],
        "seed": seed,
        **extra,
        "provenance": provenance(versions),
        "failures": [
            {"op": op_name, "known_defect": workloads.KNOWN_DEFECTS.get(op_name),
             "times": sum(1 for r in failed if r.op.name == op_name),
             "problems": next(r.problems[:3] for r in failed if r.op.name == op_name)}
            for op_name in dict.fromkeys(r.op.name for r in failed)
        ],
        "result": {
            "correct": not unexpected,
            "attempted": len(results),
            "failed": len(failed),
            "metrics": metrics,
        },
    }


def _units(trace: bool) -> dict[str, str]:
    if trace:
        import layers

        return layers.PER_LAYER
    return END_TO_END


def report(out: dict, trace: bool) -> None:
    res = out["result"]
    print(f"== {out['workload']} (seed {out['seed']}): {out['why']}")
    passes = f" in {out['passes']} passes" if "passes" in out else ""
    print(f"   ok {res['attempted'] - res['failed']}/{res['attempted']} ops{passes}, correct={res['correct']}")
    for f in out["failures"]:
        tag = f"known defect: {f['known_defect']}" if f["known_defect"] else "UNEXPECTED"
        print(f"   FAILED {f['op']} x{f['times']} ({tag}): {'; '.join(f['problems'])}")
    units = _units(trace)
    for key, value in res["metrics"].items():
        print(f"   {key:<44} {value:>16.6g} {units[key]}")


def _result_json(res: dict, trace: bool) -> dict:
    units = _units(trace)
    return {**res, "metrics": {k: {"value": v, "unit": units[k]} for k, v in res["metrics"].items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hdpower", "cli.py")):
        print(f"bench: no hdpower sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("bench: --seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2
    # a terminated run still kills and reaps the op it is waiting on
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.makedirs(WORK, exist_ok=True)
    trace = bool(args.trace)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        outs = [run_workload(name, args.seed, args.seconds, trace) for name in names]
    finally:
        for leftover in os.listdir(WORK):
            os.unlink(os.path.join(WORK, leftover))
        os.rmdir(WORK)
    print("provenance: " + json.dumps(outs[0]["provenance"]))
    for out in outs:
        report(out, trace)
    if len(outs) == 1:
        final = _result_json(outs[0]["result"], trace)
    else:
        final = {
            "correct": all(o["result"]["correct"] for o in outs),
            "attempted": sum(o["result"]["attempted"] for o in outs),
            "failed": sum(o["result"]["failed"] for o in outs),
            "metrics": {o["workload"]: _result_json(o["result"], trace)["metrics"] for o in outs},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
