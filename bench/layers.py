"""Per-layer metrics from the span files ``traced_cli.py`` writes.

A span is (id, parent, name, start ns, end ns, attributes). Its self time is
its duration minus the part of its interval that its children cover (the
union of child intervals, so parallel children are not counted twice). The
layer of a span is the part of its name before the first dot.

A block that ``run_blocks`` hands out runs its caller's work function, so
the self time of a block inside a blind-spot scan is scan work (mixture),
and the self time of any other block is estimator work (mc).
"""

from __future__ import annotations

from collections import defaultdict

CONSTRUCTORS = ("chi2", "spike", "supnorm", "halfspace", "enhance", "tscore", "wald")
KERNELS = ("chi2_quantile", "chi2_cdf", "noncentral_chi2_cdf", "std_normal_cdf",
           "std_normal_quantile", "gaussian_tv")

# name -> unit, in the order the benchmark reports them
PER_LAYER = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "rng.substreams": "count",
    "rng.substream_s": "s",
    "rng.normals": "count",
    "rng.draw_s": "s",
    "models.sample_calls": "count",
    "models.sample_s": "s",
    "models.sample_self_s": "s",
    "models.elems_sampled": "count",
    "models.ols_s": "s",
    "models.useful_elem_frac": "frac",
    "testfuncs.build_s": "s",
    "testfuncs.calibration_normals": "count",
    **{f"testfuncs.{m}.{c}": u for c in CONSTRUCTORS for m, u in (
        ("eval_calls", "count"), ("eval_rows", "count"), ("eval_s", "s"),
        ("eval_ns_per_elem", "ns/elem"), ("eval_bytes_computed", "bytes"))},
    "mixture.scan_s": "s",
    "mixture.scan_self_s": "s",
    "mixture.scan_eval_frac": "frac",
    "mixture.evals_per_block": "count",
    "mc.blocks": "count",
    "mc.mean_block_rows": "count",
    "mc.estimate_s": "s",
    "mc.self_s": "s",
    "mc.w2_busy_frac": "frac",
    "harness.regime_s": "s",
    "harness.demo_s": "s",
    "harness.self_s": "s",
    **{f"distributions.{m}.{k}": u for k in KERNELS for m, u in (("calls", "count"), ("s", "s"))},
    "distributions.max_abs_err": "abs",
    "distributions.oracle_fail": "count",
    "trace.overhead_frac": "frac",
}


class Trace:
    """One op's spans with parent/child lookups."""

    def __init__(self, data: dict) -> None:
        self.import_s = float(data["import_s"])
        self.spans = {s[0]: s for s in data["spans"]}
        self.children: dict[int, list[int]] = defaultdict(list)
        for sid, parent, *_ in data["spans"]:
            self.children[parent].append(sid)

    def named(self, prefix: str):
        return [s for s in self.spans.values() if s[2] == prefix or s[2].startswith(prefix + ".")]

    @staticmethod
    def dur(span) -> float:
        return (span[4] - span[3]) * 1e-9

    def self_time(self, span) -> float:
        t0, t1 = span[3], span[4]
        ivs = sorted((max(self.spans[c][3], t0), min(self.spans[c][4], t1)) for c in self.children[span[0]])
        covered, cur_lo, cur_hi = 0, None, None
        for lo, hi in ivs:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        return (t1 - t0 - covered) * 1e-9

    def ancestors(self, span):
        parent = span[1]
        while parent in self.spans:
            span = self.spans[parent]
            yield span
            parent = span[1]

    def under(self, span, prefix: str) -> bool:
        return any(a[2].startswith(prefix) for a in self.ancestors(span))

    def descendants(self, span):
        todo = list(self.children[span[0]])
        while todo:
            sid = todo.pop()
            yield self.spans[sid]
            todo.extend(self.children[sid])

    def outer_evals(self, root=None):
        """Test evaluations not nested in another evaluation (an enhanced
        test's components are nested in it)."""
        pool = self.descendants(root) if root is not None else self.spans.values()
        return [s for s in pool if s[2].startswith("testfuncs.eval.")
                and not self.under(s, "testfuncs.eval.")]

    def block_rows_problems(self) -> list[str]:
        """Sum of block rows must equal the replication count of every
        estimate and scan that hands blocks out."""
        out = []
        for s in self.named("mc.estimate") + self.named("mixture.scan"):
            rows = [self.spans[b][5]["rows"] for rb in self.children[s[0]]
                    if self.spans[rb][2] == "mc.run_blocks" for b in self.children[rb]]
            if s[5] is not None and rows and sum(rows) != s[5]["reps"]:
                out.append(f"{s[2]}: block rows {sum(rows)} != reps {s[5]['reps']}")
        return out

    def scan_counts(self) -> tuple[int, int]:
        """(outermost evaluations, blocks) inside blind-spot scans."""
        evals = blocks = 0
        for scan in self.named("mixture.scan"):
            desc = list(self.descendants(scan))
            blocks += sum(1 for s in desc if s[2] == "mc.block")
            evals += len(self.outer_evals(scan))
        return evals, blocks


def layer_metrics(traces: list[Trace], w2_traces: list[Trace]) -> dict[str, float]:
    """Totals over one workload's traced ops (``--workers 1``); the busy
    fraction comes from the ``--workers 2`` traces."""
    m: dict[str, float] = defaultdict(float)
    eval_elems: dict[str, int] = defaultdict(int)
    drawn = useful = scan_eval_s = 0.0
    scan_evals = scan_blocks = 0
    block_rows = block_count = 0
    for t in traces:
        m["cli.import_s"] += t.import_s
        for s in t.spans.values():
            name, d, attrs = s[2], t.dur(s), s[5] or {}
            if name == "cli.main":
                m["cli.self_s"] += t.self_time(s)
            elif name == "rng.substream":
                m["rng.substreams"] += 1
                m["rng.substream_s"] += d
            elif name == "rng.draw":
                m["rng.normals"] += attrs["n"]
                m["rng.draw_s"] += d
                if t.under(s, "testfuncs.build.tscore"):
                    m["testfuncs.calibration_normals"] += attrs["n"]
            elif name == "models.sample":
                m["models.sample_calls"] += 1
                m["models.sample_s"] += d
                m["models.sample_self_s"] += t.self_time(s)
                m["models.elems_sampled"] += attrs["elems"]
            elif name == "models.ols":
                m["models.ols_s"] += d
            elif name.startswith("testfuncs.build"):
                if not t.under(s, "testfuncs.build"):
                    m["testfuncs.build_s"] += d
            elif name.startswith("testfuncs.eval."):
                c = name.rsplit(".", 1)[1]
                m[f"testfuncs.eval_calls.{c}"] += 1
                m[f"testfuncs.eval_rows.{c}"] += attrs["rows"]
                m[f"testfuncs.eval_s.{c}"] += t.self_time(s) if c == "enhance" else d
                eval_elems[c] += attrs["elems"]
            elif name == "mixture.scan":
                m["mixture.scan_s"] += d
                eval_s = sum(t.dur(x) for x in t.outer_evals(s))
                draw_s = sum(t.dur(x) for x in t.descendants(s)
                             if x[2].startswith("rng.") and not t.under(x, "testfuncs.eval."))
                m["mixture.scan_self_s"] += t.dur(s) - eval_s - draw_s
                scan_eval_s += eval_s
            elif name == "mc.block":
                block_rows += attrs["rows"]
                block_count += 1
                if not t.under(s, "mixture.scan"):
                    m["mc.self_s"] += t.self_time(s)
                n_drawn = sum(x[5]["n"] for x in t.descendants(s) if x[2] == "rng.draw")
                fracs = [x[5]["frac"] for x in t.outer_evals(s)]
                drawn += n_drawn
                useful += n_drawn * (max(fracs) if fracs else 1.0)
            elif name in ("mc.estimate", "mc.run_blocks"):
                if name == "mc.estimate":
                    m["mc.estimate_s"] += d
                m["mc.self_s"] += t.self_time(s)
            elif name.startswith("harness."):
                if name == "harness.regime":
                    m["harness.regime_s"] += d
                elif name == "harness.demo":
                    m["harness.demo_s"] += d
                m["harness.self_s"] += t.self_time(s)
            elif name.startswith("distributions."):
                k = name.split(".", 1)[1]
                m[f"distributions.calls.{k}"] += 1
                m[f"distributions.s.{k}"] += t.self_time(s)
        e, b = t.scan_counts()
        scan_evals += e
        scan_blocks += b
    for c in CONSTRUCTORS:
        m[f"testfuncs.eval_bytes_computed.{c}"] = 8.0 * eval_elems[c]
        if eval_elems[c]:
            m[f"testfuncs.eval_ns_per_elem.{c}"] = m[f"testfuncs.eval_s.{c}"] * 1e9 / eval_elems[c]
    m["models.useful_elem_frac"] = useful / drawn if drawn else 0.0
    m["mixture.scan_eval_frac"] = scan_eval_s / m["mixture.scan_s"] if m["mixture.scan_s"] else 0.0
    m["mixture.evals_per_block"] = scan_evals / scan_blocks if scan_blocks else 0.0
    m["mc.blocks"] = block_count
    m["mc.mean_block_rows"] = block_rows / block_count if block_count else 0.0
    busy = wall = 0.0
    for t in w2_traces:
        for s in t.named("mc.run_blocks"):
            wall += t.dur(s)
            busy += sum(t.dur(t.spans[c]) for c in t.children[s[0]])
    m["mc.w2_busy_frac"] = busy / (2.0 * wall) if wall else 0.0
    return {name: float(m.get(name, 0.0)) for name in PER_LAYER}
