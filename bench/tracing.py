"""Layer tracing for the benchmark, attached from outside the program.

The tracer replaces public functions of the samplerlang modules with
wrappers that record a span (id, name, start, end, parent) whenever a call
crosses into another layer, and counts work at the same boundaries.  Calls
that stay inside the layer of the innermost open span (recursion, or one
public function of a layer calling another) open no new span, so a layer's
span covers its whole stay.

Self time is a span's duration minus the time of its child spans.  The
functions that `runtime.compile_fn` returns run up to a million times a
round, so they are not recorded one span each: their calls are counted and
timed in aggregate, and their time is still subtracted from the span that
called them.  Only calls made while the tracer is active are recorded; the
benchmark activates it for whole rounds and never while it checks outputs.
"""
from __future__ import annotations

import json
import sys
from time import perf_counter

#: span name -> the per-layer metric that reports its self time
SELF_METRICS = {
    "cli": "cli.s",
    "parser": "parser.s",
    "typecheck": "typecheck.s",
    "runtime.compile": "runtime.compile_s",
    "runtime.fn": "runtime.fn_s",
    "streams": "streams.s",
    "kernels": "kernels.s",
    "bigstep": "bigstep.s",
    "rewrite.search": "rewrite.search_s",
    "rewrite.normalize": "rewrite.normalize_s",
    "rewrite.replay": "rewrite.replay_s",
    "quadrature": "quadrature.s",
    "empirical": "empirical.s",
    "empirical.columns": "empirical.columns_s",
    "target": "target.s",
}

COUNT_METRICS = (
    "runtime.fns_compiled",
    "runtime.fn_calls",
    "kernels.uniforms",
    "rewrite.search_states",
    "rewrite.normalize_steps",
    "rewrite.replay_steps",
    "quadrature.integrate_calls",
    "quadrature.scalar_evals",
    "target.nodes",
    "streams.samples",
    "bigstep.samples",
)


def self_times(spans) -> dict[str, float]:
    """Per-name self time of (id, name, start, end, parent) spans.

    A span's self time is its duration minus the part of that interval its
    child spans cover.
    """
    children: dict = {}
    for span_id, _name, start, end, parent in spans:
        if parent is not None:
            children[parent] = children.get(parent, 0.0) + (end - start)
    out: dict[str, float] = {}
    for span_id, name, start, end, _parent in spans:
        out[name] = out.get(name, 0.0) + (end - start) - children.get(span_id, 0.0)
    return out


class Tracer:
    """Spans and counts of the calls made while `active` is true."""

    def __init__(self):
        self.active = False
        self.spans: list[tuple] = []  # (id, name, start, end, parent id)
        self.stack: list[list] = []  # open spans: [name, start, child time, id]
        self.self_time: dict[str, float] = {}
        self.incl_time: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.fn_time = 0.0
        self.fn_calls = 0
        self.scalar_evals = 0
        self._next_id = 0
        self._patched: list[tuple] = []
        self._wrappers: dict = {}  # generated function -> its timed wrapper

    # -- rounds -------------------------------------------------------------

    def reset(self) -> None:
        """Clear the per-round totals; spans are kept for the trace file."""
        self.self_time = {}
        self.incl_time = {}
        self.counts = {}
        self.fn_time = 0.0
        self.fn_calls = 0
        self.scalar_evals = 0
        self._wrappers.clear()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def totals(self) -> dict[str, float]:
        """Self times, inclusive times and counts since the last reset."""
        self_time = dict(self.self_time)
        self_time["runtime.fn"] = self.fn_time
        counts = dict(self.counts)
        counts["runtime.fn_calls"] = self.fn_calls
        counts["quadrature.scalar_evals"] = self.scalar_evals
        return {"self": self_time, "incl": dict(self.incl_time), "counts": counts}

    # -- spans ----------------------------------------------------------------

    def call(self, name: str, fn, args, kwargs, on_exit=None):
        """Call fn inside a span named `name`, unless already inside one."""
        stack = self.stack
        if not self.active or (stack and stack[-1][0] == name):
            return fn(*args, **kwargs)
        self._next_id += 1
        span_id = self._next_id
        parent = stack[-1][3] if stack else None
        frame = [name, 0.0, 0.0, span_id]
        stack.append(frame)
        start = frame[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            dur = end - start
            self.self_time[name] = self.self_time.get(name, 0.0) + dur - frame[2]
            self.incl_time[name] = self.incl_time.get(name, 0.0) + dur
            if stack:
                stack[-1][2] += dur
            self.spans.append((span_id, name, start, end, parent))
        if on_exit is not None:
            on_exit(args, result)
        return result

    def timed_leaf(self, fn):
        """A wrapper that times fn's calls in aggregate as runtime.fn."""
        tracer = self

        def leaf(*args):
            if not tracer.active:
                return fn(*args)
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                dt = perf_counter() - t0
                tracer.fn_time += dt
                tracer.fn_calls += 1
                if tracer.stack:
                    tracer.stack[-1][2] += dt

        return leaf

    def counted_scalar(self, fn):
        """A wrapper that counts fn's calls as quadrature scalar evaluations."""
        tracer = self

        def scalar(*args):
            if tracer.active:
                tracer.scalar_evals += 1
            return fn(*args)

        return scalar

    def write(self, path) -> None:
        """Write every recorded span, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")

    # -- patching -------------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def replace_everywhere(self, module, attr: str, new) -> None:
        """Rebind module.attr, and every `from module import attr` copy."""
        old = getattr(module, attr)
        for name, mod in list(sys.modules.items()):
            if name.startswith("samplerlang") and getattr(mod, attr, None) is old:
                self._replace(mod, attr, new)

    def _spanned(self, fn, name: str, on_exit):
        tracer = self

        def spanned(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, on_exit)

        return spanned

    def span_fn(self, module, attr: str, name: str, on_exit=None) -> None:
        """Open a span around module.attr, wherever it was imported."""
        self.replace_everywhere(module, attr, self._spanned(getattr(module, attr), name, on_exit))

    def span_method(self, cls, attr: str, name: str, on_exit=None) -> None:
        self._replace(cls, attr, self._spanned(getattr(cls, attr), name, on_exit))

    def install(self) -> None:
        """Wrap the public functions of every layer (see README.md)."""
        from samplerlang import (
            bigstep, cli, empirical, externs, parser, quadrature, rewrite,
            runtime, streams, target, typecheck,
        )

        tracer = self
        for attr in ("parse_program", "parse_measure", "parse_term"):
            self.span_fn(parser, attr, "parser")
        self.span_fn(typecheck, "check_program", "typecheck")
        self.span_method(typecheck.Checker, "infer", "typecheck")

        # compile_fn caches on the closure; only calls that generate code
        # are spans.  The generated function is handed out wrapped, one
        # wrapper per generated function.
        compile_fn = runtime.compile_fn
        wrappers = self._wrappers

        def traced_compile_fn(clo):
            if not tracer.active:
                return compile_fn(clo)
            if clo._compiled is None:
                fn = tracer.call("runtime.compile", compile_fn, (clo,), {})
                if fn is not None:
                    tracer.count("runtime.fns_compiled")
            else:
                fn = compile_fn(clo)
            if fn is None:
                return None
            wrapped = wrappers.get(fn)
            if wrapped is None:
                wrapped = wrappers[fn] = tracer.timed_leaf(fn)
            return wrapped

        self.replace_everywhere(runtime, "compile_fn", traced_compile_fn)

        def count_arg(metric, index):
            return lambda args, _result: tracer.count(metric, int(args[index]))

        # the sample count is the `n` argument of the outermost call
        self.span_method(streams.RStream, "prefix", "streams", count_arg("streams.samples", 1))
        self.span_fn(streams, "truncate", "streams", count_arg("streams.samples", 1))
        self.span_fn(bigstep, "eval_big", "bigstep", count_arg("bigstep.samples", 1))

        lcg = externs.lcg_uniforms_from
        self._replace(externs, "lcg_uniforms_from", lambda state, n: tracer.call(
            "kernels", lcg, (state, n), {}, count_arg("kernels.uniforms", 1)
        ))

        self.span_fn(rewrite, "prove_equiv", "rewrite.search")
        replace_at = rewrite.replace_at

        def counted_replace_at(*args):
            if tracer.active and tracer.stack and tracer.stack[-1][0] == "rewrite.search":
                tracer.count("rewrite.search_states")
            return replace_at(*args)

        self._replace(rewrite, "replace_at", counted_replace_at)
        self.span_fn(
            rewrite, "normalize", "rewrite.normalize",
            lambda _args, result: tracer.count("rewrite.normalize_steps", len(result[1])),
        )
        self.span_method(
            rewrite.EquivProof, "replay", "rewrite.replay",
            lambda args, _result: tracer.count(
                "rewrite.replay_steps", len(args[0].left_steps) + len(args[0].right_steps)
            ),
        )

        integrate = quadrature.integrate

        def traced_integrate(*args, **kwargs):
            if tracer.active:
                tracer.count("quadrature.integrate_calls")
            return tracer.call("quadrature", integrate, args, kwargs)

        self.replace_everywhere(quadrature, "integrate", traced_integrate)
        self.span_fn(quadrature, "measure_equal", "quadrature")
        term_fn = quadrature.term_fn
        self.replace_everywhere(
            quadrature, "term_fn", lambda fn: tracer.counted_scalar(term_fn(fn))
        )
        self._replace(
            quadrature.TestFn, "__call__", self.counted_scalar(quadrature.TestFn.__call__)
        )

        self.span_fn(empirical, "weak_convergence_test", "empirical")
        self.span_fn(empirical, "k_equidistribution_test", "empirical")
        self.span_fn(empirical, "columns_of", "empirical.columns")

        def count_nodes(_args, outcome):
            # nodes the checker got through, plus the one that rejected
            tracer.count("target.nodes", len(outcome.reports) + (0 if outcome.accepted else 1))

        self.span_method(target.DerivationChecker, "check", "target", count_nodes)
        self.span_fn(cli, "main", "cli")

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patched):
            setattr(owner, attr, old)
        self._patched.clear()
