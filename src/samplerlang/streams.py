"""Demand-driven weighted-stream engine.

A sampler evaluates to an RStream: an affine index view (i -> a*i + b) over a
memoized core, so `tl` and `thin` are O(1) shifts sharing their parent's memo
instead of recomputations.  `truncate` projects any result onto length-N
weighted lists, which must agree bit-exactly with big-step evaluation.

Cores are pulled a block at a time, as the big-step semantics reduces a
sampler layer by layer: `entries(idx)` takes the core indices a view demands
(a `range`, which an affine view maps to a `range`, or an increasing list)
and each layer makes one pass over its parent's block.  Only demanded
indices are computed, so `thin` still skips entries.  A block that hits an
error returns the entries before it together with the error, and callers
cut to their shorter input, so the error raised is the one entry-wise
evaluation would raise: the lowest index's, and at that index the innermost
and then leftmost failing layer's.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .builtins import EvalError, apply_builtin
from .externs import Externs, ExternStream
from .runtime import (
    WEIGHT_ONE,
    VClosure,
    VInj,
    WeightedList,
    compile_fn,
    destructure,
    scrutinee,
)
from .terms import (
    App,
    Builtin,
    Case,
    Cast,
    Const,
    Fst,
    Hd,
    Inj,
    Lam,
    Let,
    Map,
    Pair,
    Prng,
    Prod,
    Reweight,
    Snd,
    Term,
    Thin,
    Tl,
    Var,
    Wt,
)

#: a block: (values, weights, error) for a prefix of the demanded indices;
#: the prefix is all of them unless error is not None
Block = tuple[list, list, Optional[EvalError]]


def _gather(column: list, idx) -> list:
    """column's entries at the 1-based indices idx."""
    if type(idx) is range:
        return column[idx.start - 1 : idx.stop - 1 : idx.step]
    return [column[i - 1] for i in idx]


class StreamCore:
    """Memoized entry source over 1-based indices, stable across calls.

    The memo is a pair of columns indexed by i - 1; a weight of None marks
    an entry not computed yet (weights are always floats).
    """

    def __init__(self):
        self._values: list = []
        self._weights: list = []

    def entries(self, idx) -> Block:
        values, weights = self._values, self._weights
        grow = idx[-1] - len(weights)
        if grow > 0:
            values.extend([None] * grow)
            weights.extend([None] * grow)
        known = _gather(weights, idx)
        holes = known.count(None)
        if not holes:
            return _gather(values, idx), known, None
        if holes == len(known):
            missing = idx  # keeps a range a range for the parents
        else:
            missing = [i for i, w in zip(idx, known) if w is None]
        new_values, new_weights, err = self._compute(missing)
        done = missing[: len(new_weights)]
        if type(done) is range:
            cells = slice(done.start - 1, done.stop - 1, done.step)
            values[cells] = new_values
            weights[cells] = new_weights
        else:
            for i, v, w in zip(done, new_values, new_weights):
                values[i - 1] = v
                weights[i - 1] = w
        if missing is idx:
            return new_values, new_weights, err
        if err is not None:
            # memo hits cannot fail: the block ends at the first failed index
            idx = idx[: idx.index(missing[len(done)])]
        return _gather(values, idx), _gather(weights, idx), err

    def _compute(self, idx) -> Block:
        raise NotImplementedError


class ExternCore(StreamCore):
    def __init__(self, stream: ExternStream):
        super().__init__()
        self.stream = stream

    def entries(self, idx) -> Block:  # extern memoizes internally
        values = _gather(self.stream.column(idx[-1]), idx)
        return values, [WEIGHT_ONE] * len(values), None


class PrngCore(StreamCore):
    """Iterates the step function; values are memoized as a growing list."""

    def __init__(self, apply_fn: Callable, seed_value):
        super().__init__()
        self.apply_fn = apply_fn
        self.values = [seed_value]

    def entries(self, idx) -> Block:
        values, err = self.values, None
        if idx[-1] > len(values):
            step = self.apply_fn
            try:
                for _ in range(idx[-1] - len(values)):
                    values.append(step(values[-1]))
            except EvalError as e:
                err = e
                idx = [i for i in idx if i <= len(values)]
        out = _gather(values, idx)
        return out, [WEIGHT_ONE] * len(out), err


class MapCore(StreamCore):
    def __init__(self, apply_fn: Callable, parent: "RStream"):
        super().__init__()
        self.apply_fn = apply_fn
        self.parent = parent

    def _compute(self, idx) -> Block:
        values, weights, err = self.parent.entries(idx)
        fn = self.apply_fn
        out: list = []
        try:
            for v in values:
                out.append(fn(v))
        except EvalError as e:
            return out, weights[: len(out)], e
        return out, weights, err


class ReweightCore(StreamCore):
    def __init__(self, apply_fn: Callable, parent: "RStream"):
        super().__init__()
        self.apply_fn = apply_fn
        self.parent = parent

    def _compute(self, idx) -> Block:
        values, weights, err = self.parent.entries(idx)
        fn = self.apply_fn
        out: list = []
        try:
            for v, w in zip(values, weights):
                factor = fn(v)
                if factor < 0:
                    raise EvalError(f"negative weight {factor} from reweight")
                out.append(factor * w)
        except EvalError as e:
            return values[: len(out)], out, e
        return values, out, err


class ProdCore(StreamCore):
    def __init__(self, left: "RStream", right: "RStream"):
        super().__init__()
        self.left = left
        self.right = right

    def _compute(self, idx) -> Block:
        lvalues, lweights, lerr = self.left.entries(idx)
        # the right side is evaluated only where the left one succeeded
        rvalues, rweights, rerr = self.right.entries(idx[: len(lvalues)])
        values = list(zip(lvalues, rvalues))
        weights = [lw * rw for lw, rw in zip(lweights, rweights)]
        return values, weights, lerr if rerr is None else rerr


@dataclass(frozen=True)
class RStream:
    """Affine view over a core: entry(i) = core.entry(a*i + b)."""

    core: StreamCore
    a: int = 1
    b: int = 0

    def entries(self, idx) -> Block:
        """The block at the view indices idx (a range or an increasing list)."""
        if not idx:
            return [], [], None
        a, b = self.a, self.b
        if type(idx) is range:
            return self.core.entries(range(a * idx.start + b, a * idx.stop + b, a * idx.step))
        return self.core.entries([a * i + b for i in idx])

    def entry(self, i: int) -> tuple:
        if i < 1:
            raise EvalError(f"stream index {i} out of range (1-based)")
        values, weights, err = self.entries(range(i, i + 1))
        if err is not None:
            raise err
        return values[0], weights[0]

    def tail(self) -> "RStream":
        return RStream(self.core, self.a, self.b + self.a)

    def thinned(self, k: int) -> "RStream":
        return RStream(self.core, self.a * k, self.b + self.a * (1 - k))

    def prefix(self, n: int) -> list[tuple]:
        values, weights, err = self.entries(range(1, n + 1))
        if err is not None:
            raise err
        return list(zip(values, weights))


class StreamEvaluator:
    """Call-by-value evaluation building lazy streams for sampler nodes."""

    def __init__(self, externs: Externs):
        self.externs = externs

    def eval(self, term: Term, env: Optional[dict] = None):
        env = env if env is not None else {}
        match term:
            case Var(name):
                if name in env:
                    return env[name]
                if name in self.externs:
                    return RStream(ExternCore(self.externs.stream(name)))
                raise EvalError(f"unbound variable '{name}'", term.pos)

            case Const(value):
                return value

            case Lam():
                return VClosure(term.params, term.body, dict(env))

            case Builtin(op, args):
                vals = [self.eval(a, env) for a in args]
                return apply_builtin(op, vals, term.pos)

            case Cast(_, body):
                return self.eval(body, env)

            case Inj(index, body):
                return VInj(index, self.eval(body, env))

            case Case(scrut, branches):
                index, payload = scrutinee(self.eval(scrut, env), term.pos)
                binder, body = branches[index]
                if binder == "_":
                    return self.eval(body, env)
                env2 = dict(env)
                env2[binder] = payload
                return self.eval(body, env2)

            case Pair(left, right):
                return (self.eval(left, env), self.eval(right, env))

            case Fst(body):
                v = self.eval(body, env)
                return v[0]

            case Snd(body):
                v = self.eval(body, env)
                return v[1]

            case Let(name, bound, body):
                env2 = dict(env)
                env2[name] = self.eval(bound, env)
                return self.eval(body, env2)

            case App(fn, arg):
                fv = self.eval(fn, env)
                av = self.eval(arg, env)
                return self.apply(fv, av)

            case Hd(body):
                return self._stream(body, env, term).entry(1)[0]

            case Wt(body):
                return self._stream(body, env, term).entry(1)[1]

            case Tl(body):
                return self._stream(body, env, term).tail()

            case Thin(count, sampler):
                return self._stream(sampler, env, term).thinned(count)

            case Prod(left, right):
                ls = self._stream(left, env, term)
                rs = self._stream(right, env, term)
                return RStream(ProdCore(ls, rs))

            case Map(fn, sampler):
                fv = self.eval(fn, env)
                parent = self._stream(sampler, env, term)
                return RStream(MapCore(self._applier(fv), parent))

            case Reweight(fn, sampler):
                fv = self.eval(fn, env)
                parent = self._stream(sampler, env, term)
                return RStream(ReweightCore(self._applier(fv), parent))

            case Prng(step, seed):
                fv = self.eval(step, env)
                seed_v = self.eval(seed, env)
                return RStream(PrngCore(self._applier(fv), seed_v))

        raise EvalError(f"cannot evaluate {term!r}", getattr(term, "pos", None))

    # -- application ----------------------------------------------------------

    def apply(self, fn, arg):
        if isinstance(fn, VClosure):
            fast = compile_fn(fn)
            if fast is not None:
                return fast(arg)
            env2 = dict(fn.env)
            for n, v in destructure(fn.params, arg):
                env2[n] = v
            return self.eval(fn.body, env2)
        if callable(fn):
            return fn(arg)
        raise EvalError(f"cannot apply non-function value {fn!r}")

    def _applier(self, fn) -> Callable:
        if isinstance(fn, VClosure):
            fast = compile_fn(fn)
            if fast is not None:
                return fast
        return lambda v: self.apply(fn, v)

    def _stream(self, term: Term, env, site: Term) -> RStream:
        v = self.eval(term, env)
        if not isinstance(v, RStream):
            raise EvalError(
                f"sampler operation applied to non-stream value {v!r}", site.pos
            )
        return v


def eval_stream(term: Term, externs: Externs):
    """Evaluate a closed term; sampler-typed results come back as RStream."""
    return StreamEvaluator(externs).eval(term)


#: values that embed no stream, left as they are without a call
_SCALARS = (float, int, bool)


def truncate(value, n: int):
    """Replace every embedded stream by its length-n weighted list."""
    if isinstance(value, RStream):
        return WeightedList([
            (v if type(v) in _SCALARS else truncate(v, n), w) for v, w in value.prefix(n)
        ])
    if isinstance(value, WeightedList):
        return WeightedList([(truncate(v, n), w) for v, w in value.entries])
    if isinstance(value, tuple):
        return tuple(truncate(v, n) for v in value)
    if isinstance(value, VInj):
        return VInj(value.index, truncate(value.value, n))
    return value
