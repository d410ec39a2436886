"""Run one hdpower CLI invocation with each layer's public callables timed.

Usage: python3 bench/traced_cli.py SPANS_OUT -- <hdpower arguments>

The program itself is unchanged: after ``import hdpower.cli`` (timed as the
import cost), this script swaps wrappers in for the public callables of
every layer, in their home module and in every hdpower module that imported
them by name, then runs ``hdpower.cli.main``. Stdout and the exit code are
the CLI's own. Spans (id, parent, name, start ns, end ns, attributes) stay
in memory and are written to SPANS_OUT as JSON when the command returns.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import sys
import threading
import time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, parent: int | None = None) -> tuple[int, int, int]:
        stack = self._stack()
        sid = next(self._ids)
        if parent is None:
            parent = stack[-1] if stack else 0
        stack.append(sid)
        return sid, parent, time.perf_counter_ns()

    def end(self, token: tuple[int, int, int], name: str, attrs: dict | None = None) -> None:
        t1 = time.perf_counter_ns()
        self._stack().pop()
        sid, parent, t0 = token
        self.spans.append((sid, parent, name, t0, t1, attrs))

    def wrap(self, name: str, fn, attrs=None):
        """Time ``fn``; ``attrs(args, kwargs, result)`` adds span attributes."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = self.begin()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.end(token, name, attrs(args, kwargs, result) if attrs and result is not None else None)

        return wrapper


class TimedGenerator:
    """Delegates to a numpy Generator, timing and counting normal draws."""

    def __init__(self, tracer: Tracer, gen) -> None:
        self._tracer = tracer
        self._gen = gen

    def standard_normal(self, *args, **kwargs):
        token = self._tracer.begin()
        out = self._gen.standard_normal(*args, **kwargs)
        self._tracer.end(token, "rng.draw", {"n": int(getattr(out, "size", 1))})
        return out

    def __getattr__(self, attr):
        return getattr(self._gen, attr)


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


def instrument(tracer: Tracer) -> None:
    """Swap timed wrappers in for each layer's public callables."""
    from hdpower import distributions, harness, mc, mixture, models, rng, testfuncs

    swaps: dict[int, object] = {}

    def swap(module, attr: str, wrapper) -> None:
        swaps[id(getattr(module, attr))] = wrapper

    # rng: substream construction, and the generator it hands out
    orig_substream = rng.substream

    def substream(*args, **kwargs):
        token = tracer.begin()
        gen = orig_substream(*args, **kwargs)
        tracer.end(token, "rng.substream")
        return TimedGenerator(tracer, gen)

    swap(rng, "substream", functools.wraps(orig_substream)(substream))

    # models: methods wrapped on the classes, so every instance delegates
    def elems(args, kwargs, out):
        return {"elems": int(out.size)}

    for cls in (models.GaussianLocationModel, models.ScaledGaussianModel, models.FixedDesignRegression):
        for meth in ("sample_statistic", "sample_observations"):
            if meth in vars(cls):
                setattr(cls, meth, tracer.wrap("models.sample", vars(cls)[meth], elems))
    models.FixedDesignRegression.ols_estimate = tracer.wrap(
        "models.ols", models.FixedDesignRegression.ols_estimate
    )

    # testfuncs: constructors return a copy whose batch callable is timed
    def timed_batch(label: str, batch, frac: float):
        def run(z):
            token = tracer.begin()
            try:
                return batch(z)
            finally:
                tracer.end(token, f"testfuncs.eval.{label}",
                           {"rows": int(z.shape[0]), "elems": int(z.size), "frac": frac})

        run.support_frac = frac
        return run

    def support_frac(label: str, args, kwargs, tf) -> float:
        if label == "spike":
            return 1.0 / tf.dim
        if label == "enhance":
            phi, nu = _arg(args, kwargs, 0, "phi"), _arg(args, kwargs, 1, "nu")
            fracs = [getattr(t.batch, "support_frac", 1.0) for t in (phi, nu)]
            # two single-coordinate tests read two coordinates, or one if equal
            return min(1.0, sum(fracs)) if max(fracs) < 1.0 else 1.0
        return 1.0

    def constructor(label: str, fn):
        @functools.wraps(fn)
        def build(*args, **kwargs):
            token = tracer.begin()
            try:
                tf = fn(*args, **kwargs)
            finally:
                tracer.end(token, f"testfuncs.build.{label}")
            frac = support_frac(label, args, kwargs, tf)
            return dataclasses.replace(tf, batch=timed_batch(label, tf.batch, frac))

        return build

    for label, attr in (
        ("chi2", "chi2_euclidean_test"),
        ("spike", "spike_z_test"),
        ("supnorm", "sup_norm_test"),
        ("halfspace", "halfspace_test"),
        ("enhance", "enhance"),
        ("tscore", "truncated_score_test"),
        ("wald", "wald_test"),
    ):
        swap(testfuncs, attr, constructor(label, getattr(testfuncs, attr)))
    swap(testfuncs, "make_test", tracer.wrap("testfuncs.build", testfuncs.make_test))

    # mixture: the blind-spot scan and the exact diagnostics
    def scan_attrs(args, kwargs, out):
        return {"reps": _arg(args, kwargs, 2, "mc").reps, "d": _arg(args, kwargs, 1, "model").d}

    swap(mixture, "find_blind_spot", tracer.wrap("mixture.scan", mixture.find_blind_spot, scan_attrs))
    swap(mixture, "mixture_diagnostics", tracer.wrap("mixture.diagnostics", mixture.mixture_diagnostics))

    # mc: estimates, and every block run_blocks hands to a worker
    def estimate_attrs(args, kwargs, out):
        return {"reps": _arg(args, kwargs, 3, "mc").reps}

    swap(mc, "estimate_rejection_prob", tracer.wrap("mc.estimate", mc.estimate_rejection_prob, estimate_attrs))
    orig_run_blocks = mc.run_blocks

    def run_blocks(work, blocks, workers):
        token = tracer.begin()

        def timed_work(b, m):
            inner = tracer.begin(parent=token[0])
            try:
                return work(b, m)
            finally:
                tracer.end(inner, "mc.block", {"rows": int(m)})

        try:
            return orig_run_blocks(timed_work, blocks, workers)
        finally:
            tracer.end(token, "mc.run_blocks")

    swap(mc, "run_blocks", functools.wraps(orig_run_blocks)(run_blocks))

    # harness: the pipelines the CLI runs
    for label, attr in (
        ("regime", "run_regime"),
        ("demo", "enhanceability_demo"),
        ("consistency", "consistency_diagnostic"),
        ("nontestability", "example2_nontestability_curve"),
    ):
        swap(harness, attr, tracer.wrap(f"harness.{label}", getattr(harness, attr)))

    # distributions: kernels, including the names other modules imported
    for k in ("chi2_quantile", "chi2_cdf", "noncentral_chi2_cdf", "std_normal_cdf",
              "std_normal_quantile", "gaussian_tv"):
        swap(distributions, k, tracer.wrap(f"distributions.{k}", getattr(distributions, k)))

    for name, module in list(sys.modules.items()):
        if name == "hdpower" or name.startswith("hdpower."):
            for attr, value in list(vars(module).items()):
                if id(value) in swaps:
                    setattr(module, attr, swaps[id(value)])


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced_cli.py SPANS_OUT -- <hdpower arguments>", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    t0 = time.perf_counter()
    import hdpower.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    instrument(tracer)
    token = tracer.begin()
    try:
        code = hdpower.cli.main(cli_args)
    finally:
        tracer.end(token, "cli.main")
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump({"import_s": import_s, "spans": tracer.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
