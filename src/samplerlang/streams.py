"""Demand-driven weighted-stream engine.

A sampler evaluates to an RStream: an affine index view (i -> a*i + b) over a
memoized core, so `tl` and `thin` are O(1) shifts sharing their parent's memo
instead of recomputations.  `truncate` projects any result onto length-N
weighted lists, which must agree bit-exactly with big-step evaluation.

Cores are pulled a block at a time: `block(idx)` takes the core indices a
view demands (a `range`, which an affine view maps to a `range`, or an
increasing list), and only demanded indices are computed, so `thin` still
skips entries.  A block that hits an error returns the entries before it
together with the error.

A block's values are a typed column (`runtime.column`): a float64 array
where every entry is a float, a bool array where every entry is a Boolean,
an int64 array where every entry is an int within `runtime.INT_BOUND`,
`runtime.Pairs` (one column per side) where a product's pairs were never
built, and a list of runtime values otherwise; its weights are a float64
array.  Columns are made at the extern kernel and stay typed through the
memos, the pipelines and `truncate`, to the CSV writer and the empirical
tests.  Runtime values are made only where entries leave the engine one by
one: `hd`, `wt`, `RStream.entry`, `RStream.prefix` and
`WeightedList.entries`.

The leaves of the engine are extern streams (`ExternCore`) and `prng`
iterations (`PrngCore`, which applies the step once per entry, through
its compile_fn function).  Every `map`, `reweight` and `<*>` is a `PipeCore`, and a chain of
them runs as one pipeline: on its first pull a core absorbs each parent
that is another such core, has never been pulled and that no other term
reaches (a `let`-, parameter- or case-bound sampler is shared
unless its name occurs once in the body and not under a `fun`), through
that parent's view (`tl`, `thin`), which it composes into the views of the
parent's own parents.  The rest are the pipeline's leaves, pulled through
their memos, so that `tl`, `thin` and `let` sharing is kept.  The pipeline
compiles to one columnar function with every layer's body inline
(`runtime.compile_pipeline`), which computes the demanded entries a chunk
of `CHUNK` at a time as exact columns (numpy ufuncs on float64 columns,
the scalar functions entry by entry on other columns, each branch of a case
only on the entries that take it).  A product's pair is built only where
a layer uses it whole; a block of pairs leaves as `Pairs`.  Only the
pipeline's top core keeps a memo.  A block
of one entry (`hd`, `wt`, `RStream.entry`) walks the layer tree instead
(`PipeCore._entry`), in engine order: a product's left side, then its
right side, then the layer above, each layer applied through its closure's
compile_fn function.

Errors are those entry-wise evaluation raises: the lowest index's, and at
that index the innermost and then leftmost failing layer's.  The columnar
function runs over the entries that every leaf has, and gives way where an
entry of its chunk fails: that chunk's entries then run one at a time
through the walk, which raises the first one's error.  Where a leaf's block
ended early, the walk runs the next entry, reading each leaf where engine
order reaches it, so a layer to the left of that leaf still raises first.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Optional

import numpy as np

from .builtins import EvalError, apply_builtin
from .externs import Externs, ExternStream
from .runtime import (
    CHUNK,
    COLUMN_FAULTS,
    WEIGHT_ONE,
    Pairs,
    SamplerValue,
    VClosure,
    VInj,
    WeightedList,
    _tree,
    column,
    column_entry,
    column_values,
    compile_fn,
    compile_pipeline,
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
    children,
    free_vars,
)

#: a block: (values, weights, error) for a prefix of the demanded indices,
#: the prefix being all of them unless error is not None; values are a typed
#: column (`runtime.column`) and weights a float64 array
Block = tuple[object, np.ndarray, Optional[EvalError]]


def _gather(col, idx):
    """A column's entries at the 1-based indices idx."""
    if type(idx) is range:
        return col[idx.start - 1 : idx.stop - 1 : idx.step]
    if type(col) is np.ndarray:
        return col[np.asarray(idx, dtype=np.intp) - 1]
    if type(col) is Pairs:
        return Pairs(_gather(col.left, idx), _gather(col.right, idx))
    return [col[i - 1] for i in idx]


def _concat(cols: list):
    """The column of the columns' entries, one after another."""
    if len(cols) == 1:
        return cols[0]
    kinds = {c.dtype if type(c) is np.ndarray else type(c) for c in cols}
    if len(kinds) == 1 and type(cols[0]) is np.ndarray:
        return np.concatenate(cols)
    if kinds == {Pairs}:
        return Pairs(_concat([c.left for c in cols]), _concat([c.right for c in cols]))
    return list(chain.from_iterable(map(column_values, cols)))


def _put(col, cells, new):
    """col with new's entries at cells (a slice or an index array): col
    itself, set in place, where it can hold them, else a list."""
    if type(col) is np.ndarray and type(new) is np.ndarray and col.dtype == new.dtype:
        col[cells] = new
        return col
    if type(col) is Pairs and type(new) is Pairs:
        return Pairs(_put(col.left, cells, new.left), _put(col.right, cells, new.right))
    out = col if type(col) is list else column_values(col)
    if type(cells) is slice:
        out[cells] = column_values(new)
    else:
        for i, v in zip(cells.tolist(), column_values(new)):
            out[i] = v
    return out


def _unset(like, count: int):
    """A new column of count unset entries that can hold like's."""
    if type(like) is np.ndarray:
        return np.zeros(count, like.dtype)
    if type(like) is Pairs:
        return Pairs(_unset(like.left, count), _unset(like.right, count))
    return [None] * count


class ExternCore:
    def __init__(self, stream: ExternStream):
        self.stream = stream

    def block(self, idx) -> Block:  # extern memoizes internally
        values = _gather(self.stream.column(idx[-1]), idx)
        return values, np.ones(len(values)), None


class PrngCore:
    """Iterates the step function, one call of its application a step
    (`StreamEvaluator._applier`: the closure's compile_fn function where
    its body compiles); values are memoized as a growing list."""

    def __init__(self, apply_fn: Callable, seed_value):
        self.apply_fn = apply_fn
        self.values = [seed_value]

    def block(self, idx) -> Block:
        values, err = self.values, None
        if idx[-1] > len(values):
            step, append, cur = self.apply_fn, values.append, values[-1]
            try:
                for _ in range(idx[-1] - len(values)):
                    cur = step(cur)
                    append(cur)
            except EvalError as e:
                err = e
                idx = [i for i in idx if i <= len(values)]
        out = _gather(values, idx)
        return out, np.ones(len(out)), err


class PipeCore:
    """A map, reweight or product over its parents, and the fused pipeline
    it heads.

    On its first pull the core absorbs every parent that only it can
    reach (`_absorbable`), recursively, and compiles the tree of layers
    down to the other parents, its leaves (`runtime.compile_pipeline`).  A
    pull reads each leaf's block, runs the columnar function over the
    entries every leaf has, a chunk at a time, and walks the layer tree
    (`_walk`) for a block of one entry, for each entry of a chunk where the
    columnar function gave way, and for the next entry if some leaf ended
    early, so that its error is raised in engine order.  The chunks' typed
    columns are joined into the block's.  Only this core keeps a memo;
    absorbed ones are never pulled.

    The memo is over 1-based indices and stable across calls: a typed
    column of values (`runtime.column`), a float64 column of weights, and a
    mask of the entries computed so far, all indexed by i - 1, and all None
    until the first pull (the values until an entry is computed).  An entry
    not computed yet has some value and weight, which the mask says to
    ignore.  A column that the memo returns is never written again: the
    memo writes only entries not computed yet, and grows into new columns.
    """

    def __init__(self, op: str, fn, parents: tuple, apply: Callable):
        self._values = self._weights = self._known = None  # the memo
        self.op = op  # "map", "reweight" or "prod"
        self.fn = fn  # a map's or reweight's function
        self.parents = parents  # RStreams: (parent,) or (left, right)
        # the evaluator's application, for a function value whose body the
        # generator cannot inline (StreamEvaluator.apply)
        self.apply = apply
        # set when more than one term may reach this core, so that it is
        # pulled through its memo rather than absorbed
        self.shared = False
        # the pipeline, made on the first pull: its leaves, which of them
        # carry weights, its layer tree's shape and functions (see _plan)
        # and the tree they make; and its columnar function, made on first use
        self._leaves: list = []
        self._weighted: list = []
        self._shape = None
        self._fns: list = []
        self._layers = None
        self._block: Optional[Callable] = None

    def _plan(self, leaves: list, fns: list, a: int = 1, b: int = 0):
        """The shape of the layer tree of this core read through the view
        i -> a*i + b (see runtime.compile_pipeline), whose layer functions
        are appended to fns, this core's before its parents': an absorbed
        parent is its own tree, read through its view composed with this
        one, and any other parent is appended to leaves, as that composed
        view, and named by its position."""
        if self.fn is not None:
            fns.append(self.fn)
        inputs = []
        for parent in self.parents:
            pa, pb = parent.a * a, parent.a * b + parent.b
            if _absorbable(parent):
                inputs.append(parent.core._plan(leaves, fns, pa, pb))
            else:
                leaves.append(parent if a == 1 and b == 0 else RStream(parent.core, pa, pb))
                inputs.append(len(leaves) - 1)
        return (self.op, id(self.fn), tuple(inputs))

    def block(self, idx) -> Block:
        """The block at the core indices idx (a range or an increasing
        list): the memo's entries, and the others computed (`_compute`)."""
        if self._known is None and type(idx) is range and idx.start == 1 and idx.step == 1:
            # the first pull, of a prefix: the memo is the block
            values, weights, err = self._compute(idx)
            self._values, self._weights = values, weights
            self._known = np.ones(len(weights), bool)
            return values, weights, err
        if self._known is None:
            self._weights, self._known = np.empty(0), np.zeros(0, bool)
        grow = idx[-1] - len(self._known)
        if grow > 0:  # into new columns
            if self._values is not None:
                self._values = _concat([self._values, _unset(self._values, grow)])
            self._weights = np.concatenate((self._weights, np.zeros(grow)))
            self._known = np.concatenate((self._known, np.zeros(grow, bool)))
        known = _gather(self._known, idx)
        if known.all():
            return _gather(self._values, idx), _gather(self._weights, idx), None
        if not known.any():
            missing = idx  # keeps a range a range for the parents
        else:
            missing = [i for i, k in zip(idx, known.tolist()) if not k]
        new_values, new_weights, err = self._compute(missing)
        done = missing[: len(new_weights)]
        if type(done) is range:
            cells = slice(done.start - 1, done.stop - 1, done.step)
        else:
            cells = np.asarray(done, dtype=np.intp) - 1
        if self._values is None:
            self._values = _unset(new_values, len(self._known))
        self._values = _put(self._values, cells, new_values)
        self._weights[cells] = new_weights
        self._known[cells] = True
        if missing is idx:
            return new_values, new_weights, err
        if err is not None:
            # memo hits cannot fail: the block ends at the first failed index
            idx = idx[: idx.index(missing[len(done)])]
        return _gather(self._values, idx), _gather(self._weights, idx), err

    def _compute(self, idx) -> Block:
        if self._shape is None:
            self._shape = self._plan(self._leaves, self._fns)
            self._weighted = [type(leaf.core) not in _UNWEIGHTED for leaf in self._leaves]
            self._layers = _tree(self._shape, iter(self._fns))
        columns, reads, stop = [], [], len(idx)
        for leaf, weighted in zip(self._leaves, self._weighted):
            # a leaf is read only where the leaves left of it have entries
            values, weights, err = leaf.block(idx[:stop])
            columns += [values, weights] if weighted else [values]
            reads.append((values, weights if weighted else None, err))
            stop = min(stop, len(values))
        parts, err = [], None
        for lo in range(0, stop, CHUNK):
            hi = min(lo + CHUNK, stop)
            block = None if stop == 1 else self._columns(columns, lo, hi)
            if block is None:
                *block, err = self._walk(reads, lo, hi)
            parts.append(block)
            if err is not None:
                break
        else:
            if stop < len(idx):
                err = self._walk(reads, stop, stop + 1)[2]
        if not parts:
            return [], np.empty(0), err
        return _concat([v for v, _ in parts]), _concat([w for _, w in parts]), err

    def _walk(self, reads: list, lo: int, hi: int) -> Block:
        """Entries lo to hi - 1 of the leaves' blocks, each through the
        layer tree on its own (`_entry`), up to the first that fails."""
        values, weights, err = [], [], None
        try:
            for i in range(lo, hi):
                value, weight = self._entry(self._layers, reads, i)
                values.append(value)
                weights.append(weight)
        except EvalError as e:
            err = e
        return column(values), np.array(weights, dtype=np.float64), err

    def _entry(self, node, reads: list, i: int) -> tuple:
        """The value and weight of entry i of the leaves' blocks (`reads`:
        each leaf's values, weights or None, and error) through a node of
        the layer tree, in engine order: a product's left input, then its
        right one, then the layer, each layer applied on its own.  A leaf
        whose block ends before i raises its error."""
        if type(node) is int:
            values, weights, err = reads[node]
            if i >= len(values):
                raise err
            return column_entry(values, i), WEIGHT_ONE if weights is None else weights.item(i)
        op, fn, inputs = node
        if op == "prod":
            left, lw = self._entry(inputs[0], reads, i)
            right, rw = self._entry(inputs[1], reads, i)
            return (left, right), lw * rw
        value, weight = self._entry(inputs[0], reads, i)
        out = self.apply(fn, value)
        if op == "map":
            return out, weight
        if out < 0:
            raise EvalError(f"negative weight {out} from reweight")
        return value, out * weight

    def _columns(self, columns: list, lo: int, hi: int) -> Optional[tuple]:
        """The columns of the values and the weights that the columnar
        function computes for entries lo to hi - 1 of the leaves' blocks, or
        None where it gives way: one of them fails, and the caller runs each
        alone."""
        if self._block is None:
            self._block = compile_pipeline(self._shape, self._fns, self._weighted, self.apply)
        try:
            with np.errstate(all="ignore"):
                return self._block(hi - lo, *(column[lo:hi] for column in columns))
        except COLUMN_FAULTS:
            return None


#: leaf cores whose weights are all WEIGHT_ONE
_UNWEIGHTED = (ExternCore, PrngCore)


def _absorbable(parent: "RStream") -> bool:
    """Whether a pipeline may compute this parent inline: a map, reweight
    or product that no other term reaches and that has never been pulled.
    Its view, if it is not the identity, is composed into its leaves' views
    (`tl` and `thin` of it, such as a self-product's `thin`); no one else
    reads its entries, so no memo that anyone shares is bypassed."""
    core = parent.core
    return type(core) is PipeCore and not core.shared and core._known is None


@dataclass(frozen=True, repr=False)
class RStream(SamplerValue):
    """Affine view over a core: entry(i) = core.entry(a*i + b)."""

    core: "ExternCore | PrngCore | PipeCore"
    a: int = 1
    b: int = 0

    def block(self, idx) -> Block:
        """The block at the view indices idx (a range or an increasing list)."""
        if not idx:
            return [], np.empty(0), None
        a, b = self.a, self.b
        if type(idx) is range:
            return self.core.block(range(a * idx.start + b, a * idx.stop + b, a * idx.step))
        return self.core.block([a * i + b for i in idx])

    def entry(self, i: int) -> tuple:
        if i < 1:
            raise EvalError(f"stream index {i} out of range (1-based)")
        values, weights, err = self.block(range(i, i + 1))
        if err is not None:
            raise err
        return column_entry(values, 0), weights.item(0)

    def tail(self) -> "RStream":
        return RStream(self.core, self.a, self.b + self.a)

    def thinned(self, k: int) -> "RStream":
        return RStream(self.core, self.a * k, self.b + self.a * (1 - k))

    def prefix(self, n: int) -> list[tuple]:
        """The first n entries, as (value, weight) pairs of runtime values."""
        values, weights = self._columns(n)
        return list(zip(column_values(values), weights.tolist()))

    def _columns(self, n: int) -> tuple:
        """The typed columns of the values and the weights of the first n
        entries."""
        values, weights, err = self.block(range(1, n + 1))
        if err is not None:
            raise err
        return values, weights


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
                env2[binder] = _bound(payload, binder, body)
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
                env2[name] = _bound(self.eval(bound, env), name, body)
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
                return RStream(PipeCore("prod", None, (ls, rs), self.apply))

            case Map(fn, sampler):
                fv = self.eval(fn, env)
                parent = self._stream(sampler, env, term)
                return RStream(PipeCore("map", fv, (parent,), self.apply))

            case Reweight(fn, sampler):
                fv = self.eval(fn, env)
                parent = self._stream(sampler, env, term)
                return RStream(PipeCore("reweight", fv, (parent,), self.apply))

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
                env2[n] = _bound(v, n, fn.body)
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


def _bound(value, name: str, body: Term):
    """value, bound to name in body: its pipeline cores become shared
    unless the name occurs once in body, outside any function."""
    if type(value) in _SCALARS:
        return value
    cores = list(_pipes(value))
    if cores and _uses(name, body) > 1:
        for core in cores:
            core.shared = True
    return value


def _pipes(value):
    """The pipeline cores of the streams in a value."""
    if isinstance(value, RStream):
        if type(value.core) is PipeCore:
            yield value.core
    elif isinstance(value, tuple):
        for v in value:
            yield from _pipes(v)
    elif isinstance(value, VInj):
        yield from _pipes(value.value)


def _uses(name: str, term: Term) -> int:
    """The free occurrences of name in term, counting one under a lambda as
    many (2): a function may run any number of times."""
    if name not in free_vars(term):
        return 0
    match term:
        case Var():
            return 1
        case Lam():
            return 2
        case Let(bound_name, bound, body):
            return _uses(name, bound) + (0 if bound_name == name else _uses(name, body))
        case Case(scrut, branches):
            return _uses(name, scrut) + sum(
                _uses(name, body) for binder, body in branches if binder != name
            )
    return sum(_uses(name, kid) for kid in children(term))


def eval_stream(term: Term, externs: Externs):
    """Evaluate a closed term; sampler-typed results come back as RStream."""
    return StreamEvaluator(externs).eval(term)


#: types of values that embed no stream
_SCALARS = frozenset((float, int, bool))


def _embeds_stream(values) -> bool:
    """Whether any value of the column embeds a stream."""
    if type(values) is np.ndarray:
        return False
    if type(values) is Pairs:
        return _embeds_stream(values.left) or _embeds_stream(values.right)
    kinds = set(map(type, values))
    if kinds <= _SCALARS:
        return False
    if kinds == {tuple}:  # the tuples' components, all at once
        return _embeds_stream(list(chain.from_iterable(values)))
    return any(map(_embeds, values))


def _embeds(value) -> bool:
    kind = type(value)
    if kind in _SCALARS:
        return False
    if kind is tuple:
        return any(map(_embeds, value))
    if kind is VInj:
        return _embeds(value.value)
    return isinstance(value, (RStream, WeightedList))


def truncate(value, n: int, inner: bool = True):
    """Replace every embedded stream by its length-n weighted list; a
    stream's prefix is kept as its typed columns unless one of its values
    embeds one.  With `inner` unset, a stream's values are kept as they
    are, for the empirical tests, which take only values that are points."""
    if isinstance(value, RStream):
        values, weights = value._columns(n)
        if inner and _embeds_stream(values):
            values = [truncate(v, n) for v in column_values(values)]
        return WeightedList(values, weights)
    if isinstance(value, WeightedList):
        values = [truncate(v, n) for v in column_values(value.values)]
        return WeightedList(values, value.weights)
    if isinstance(value, tuple):
        return tuple(truncate(v, n) for v in value)
    if isinstance(value, VInj):
        return VInj(value.index, truncate(value.value, n))
    return value
