"""Runtime values shared by both evaluation engines.

Grounds are Python bools/ints/floats, pairs are 2-tuples, unit is (),
injections and closures are small wrapper classes, and a finite sampler
evaluation is a WeightedList.  The stream engine keeps a run of entries as
a typed column (`column`, `Pairs`), from which `column_values` and
`column_entry` make runtime values.

`compile_fn` turns a sampler-free closure into a plain Python function by
generating flat Python source for its body and executing it once: let-bound
names become locals, subterms whose operands are all known are folded to
constants, case and if become if/else.  Every mode reads each builtin's
row of the `builtins` table (`BuiltinSig`): a builtin that is a Python
operator (+, -, *, unary -, the comparisons) is spelled as that operator,
and the others are called through the row's function, in call-by-value
order, so a value computed this way is bit-identical to big-step's, and a
domain error is an EvalError at the failing builtin's position.

Builtins are pure, so the generator numbers their values: a builtin call
or a projection with the same op and operand sources as one already emitted
in the same or an enclosing block reuses that call's local.  The earlier
call runs first, so it raises first if either would; calls inside a case/if
branch or a nested function are forgotten when that block ends.  A `let`
substituted into a stated target thus costs one evaluation, not one per
occurrence.

A pair bound to a name stays its parts, so its tuple is built only where
it is used whole.

The stream engine and quadrature reach these functions through
`compile_fn` and `apply_value`.  `compile_pipeline` runs the generator in
columnar mode for the stream engine's fused chains of map/reweight/product
layers, with every layer's body inline (see _PipeGen): its function
computes a block of entries a column at a time.  Columnar mode keeps every
value bit-identical to the layers' compile_fn functions applied entry by
entry: on float64 and bool columns every builtin but pi is its row's numpy
ufunc on whole columns, one that rounds as Python does or the one that the
row's function calls (exp, log, cos and sin); an int64 column (ints
within INT_BOUND), or an object column of floats and such ints, that meets
a float is the floats it converts to exactly; every operation on ints
alone (which are unbounded) or on other values is the `builtins`
function, called entry by entry, and no numpy scalar escapes.  A case
runs each branch only on the entries that take it.  A block does not
locate its errors: where some entry fails (a domain test of
`builtins.BuiltinSig.fails`, a negative reweight factor, or a builtin or
function that raises), the function raises, and the engine runs the
block's entries one at a time, applying each layer on its own, which
raises the error of the first one that fails.

`compile_array_fn` runs the same generator in array mode, for quadrature,
whose functions take nested tuples of numpy arrays and compute a batch of
quadrature nodes per call.  Value numbering and constant folding are the
same (numeric constants enter as floats); a builtin that is no operator is
its row's ufunc, so a domain error gives nan or inf instead of raising, and
no statement is wrapped to locate a failure.
Comparisons are numpy comparisons, and a case (if) on a comparison result
computes both branches at every point, so the calls in a branch stay
reusable after it, and selects one with np.where, componentwise for pairs;
a domain error in the branch not taken is masked.

Each function in array mode also computes its fault mask, where it would
fail, by the rule of the other modes: a builtin's domain test
(`BuiltinSig.fails`) on its arguments counts at the points where the code
that calls it runs (the conjunction of the enclosing branch conditions; a
lambda of the body is inlined where it is applied, as in columnar mode, so
its builtins count where its call site runs), and `compile_array_fn`'s
function puts nan in every component there.  So a domain error that the
scalar function raises shows as nan, even where its value is discarded or
only compared, and one in a branch not taken does not; a value past the
floats that no domain test marks (1 / 1e-320 is inf) is no fault, as the
scalar function returns it too.  A constant whose folding raises stays in
the code, so that it counts where it is reached.

Array mode refuses (returns None for) a body that reaches an injection, a
case on any other scrutinee (an injection, a Boolean parameter), a unit
constant, a builtin whose row names no ufunc, an application of anything but
a lambda defined in the body, or such a lambda used as a value (in a pair,
say) rather than applied.
"""
from __future__ import annotations

import math
import operator
import struct
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, Optional

import numpy as np

from .builtins import BUILTIN_ERRORS, SIGNATURES, EvalError, located_error, signature
from .terms import (
    App,
    Builtin,
    Case,
    Cast,
    Const,
    Fst,
    Inj,
    Lam,
    Let,
    Pair,
    Snd,
    Term,
    Var,
)

WEIGHT_ONE = 1.0


@dataclass
class VInj:
    index: int
    value: object


@dataclass
class VClosure:
    params: tuple[tuple[str, object], ...]
    body: Term
    env: dict
    # compile_fn's result: None before the first attempt, False if the body
    # is not compilable
    _compiled: object = field(default=None, repr=False)
    # compile_pipeline's functions for the pipelines whose first layer
    # function is this closure, by the rest of the pipeline
    _pipelines: Optional[dict] = field(default=None, repr=False)


class SamplerValue:
    """A sampler as a runtime value (streams.RStream, bigstep.Sampler); both
    engines print it alike."""

    __slots__ = ()

    def __repr__(self):
        return "<sampler>"


class Pairs:
    """A column of pairs, kept as the column of their left parts and the
    column of their right parts (see `column`), so that a product's pairs
    are built only where its entries leave the engine.  Slicing slices both
    parts."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def __len__(self):
        return len(self.left)

    def __getitem__(self, cells: slice) -> "Pairs":
        return Pairs(self.left[cells], self.right[cells])


#: the largest |x| of an int that a column holds in an int64 array: every
#: int within it converts to a float64 exactly
INT_BOUND = 2**53


def column(values: list):
    """The typed column of a list of runtime values: a float64 array if
    every value is a float, a bool array if every value is a Boolean, an
    int64 array if every value is an int within INT_BOUND, and the list
    itself otherwise."""
    kinds = set(map(type, values))
    if kinds == {float}:
        return np.array(values, dtype=np.float64)
    if kinds == {bool}:
        return np.array(values, dtype=bool)
    if kinds == {int} and -INT_BOUND <= min(values) and max(values) <= INT_BOUND:
        return np.array(values, dtype=np.int64)
    return values


def column_values(col) -> list:
    """The runtime values of a column, as a list."""
    if type(col) is np.ndarray:
        return col.tolist()
    if type(col) is Pairs:
        return list(zip(column_values(col.left), column_values(col.right)))
    return col


def column_entry(col, i: int):
    """The runtime value at position i of a column."""
    if type(col) is np.ndarray:
        return col.item(i)
    if type(col) is Pairs:
        return column_entry(col.left, i), column_entry(col.right, i)
    return col[i]


@dataclass
class WeightedList:
    """A finite sampler evaluation, as its column of values and its column
    of weights (see `column`; the stream engine's weights are a float64
    array, big-step's a list)."""

    values: object
    weights: object

    @property
    def entries(self) -> list[tuple[object, float]]:
        """The (value, weight) pairs, as runtime values."""
        return list(zip(column_values(self.values), column_values(self.weights)))

    def __len__(self):
        return len(self.values)

    def __repr__(self):
        return f"WeightedList(entries={self.entries!r})"


def destructure(params, value) -> list[tuple[str, object]]:
    """Bind a parameter group against a right-nested tuple value."""
    names = [n for n, _ in params]
    if len(names) == 1:
        return [(names[0], value)]
    out = []
    cur = value
    for name in names[:-1]:
        if not (isinstance(cur, tuple) and len(cur) == 2):
            raise EvalError(f"expected a pair while binding '{name}'")
        out.append((name, cur[0]))
        cur = cur[1]
    out.append((names[-1], cur))
    return out


# ---------------------------------------------------------------------------
# Value equality (bit-exact) and flattening
# ---------------------------------------------------------------------------


def _float_bits(x: float) -> bytes:
    return struct.pack("<d", x)


def value_equal(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool) and a == b
    if isinstance(a, float) or isinstance(b, float):
        return (
            isinstance(a, float)
            and isinstance(b, float)
            and _float_bits(a) == _float_bits(b)
        )
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(value_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, VInj) and isinstance(b, VInj):
        return a.index == b.index and value_equal(a.value, b.value)
    if isinstance(a, WeightedList) and isinstance(b, WeightedList):
        return (
            len(a) == len(b)
            and all(map(value_equal, column_values(a.values), column_values(b.values)))
            and all(map(value_equal, column_values(a.weights), column_values(b.weights)))
        )
    return a is b


def value_coords(v) -> list[float]:
    """The coordinates of a runtime value as a point, in order: a number is
    its float and a Boolean 1.0/0.0, pairs concatenate, and an injection is
    its payload's."""
    if isinstance(v, bool):
        return [1.0 if v else 0.0]
    if isinstance(v, (int, float)):
        return [float(v)]
    if isinstance(v, tuple):
        return [x for part in v for x in value_coords(part)]
    if isinstance(v, VInj):
        return value_coords(v.value)
    raise EvalError(f"value {v!r} has no point representation")


def value_columns(values) -> Optional[list]:
    """Split a non-empty column of uniformly shaped values (see `column`)
    into one column per leaf.

    A typed array is one leaf column and `Pairs` are their parts' leaf
    columns.  In a list, tuples split componentwise and injections into
    their payloads, as in `value_coords`; anything else is a leaf, kept as
    it is.  Returns None when the values do not all have the first one's
    shape; one value alone always has it, so `value_columns([v])` lists v's
    leaves.
    """
    if type(values) is np.ndarray:
        return [values]
    if type(values) is Pairs:
        left, right = value_columns(values.left), value_columns(values.right)
        return None if left is None or right is None else left + right
    kinds = set(map(type, values))
    if kinds == {tuple}:
        width = len(values[0])
        if set(map(len, values)) != {width}:
            return None
        cols: list[list] = []
        for i in range(width):
            sub = value_columns([v[i] for v in values])
            if sub is None:
                return None
            cols += sub
        return cols
    if kinds == {VInj}:
        return value_columns([v.value for v in values])
    if tuple in kinds or VInj in kinds:
        return None
    return [values]


# ---------------------------------------------------------------------------
# Code generation for sampler-free closures
# ---------------------------------------------------------------------------

class _NotCompilable(Exception):
    pass


@dataclass(frozen=True)
class _Known:
    """An operand whose value is known when the code is generated."""

    value: object


@dataclass(frozen=True)
class _Code:
    """An operand computed at run time.

    `expr` is a Python expression that cannot raise: a local name, a tuple
    display or a VInj construction over such operands.  `parts` keeps the
    two operands of a pair built in this function, so projections need no
    indexing; `is_bool` marks values known to be Booleans (comparison
    results: Python bools, or bool arrays in array mode), which case
    analysis may test directly; `is_fn` marks functions defined in the
    scalar code, which are called directly.
    """

    expr: str
    is_bool: bool = False
    parts: Optional[tuple] = None
    is_fn: bool = False


@dataclass(frozen=True)
class _Lam:
    """Columnar and array mode: a lambda of the body, inlined where it is
    applied; one that escapes (is used as a value) is refused."""

    params: tuple
    body: Term
    scope: dict
    env: dict


def _pair(v, op, pos):
    if not (isinstance(v, tuple) and len(v) == 2):
        raise EvalError(f"comparison '{op}' expects a pair", pos)
    return v


def scrutinee(v, pos):
    """(summand index, payload) of a case scrutinee; Bool is Unit + Unit."""
    if isinstance(v, bool):
        return (0, ()) if v else (1, ())
    if isinstance(v, VInj):
        return v.index, v.value
    raise EvalError(f"case scrutinee {v!r} is not a sum value", pos)


def _need_pair(name):
    raise EvalError(f"expected a pair while binding '{name}'")


def _is_bool(operand) -> bool:
    if isinstance(operand, _Known):
        return isinstance(operand.value, bool)
    return operand.is_bool


def _is_known_pair(operand) -> bool:
    return (
        isinstance(operand, _Known)
        and isinstance(operand.value, tuple)
        and len(operand.value) == 2
    )


def _with(scope: dict, binder: str, operand) -> dict:
    """Scope extended by a case binder; '_' binds nothing."""
    return scope if binder == "_" else {**scope, binder: operand}


class _CodeGen:
    """Emits one flat Python function for a sampler-free closure body.

    Let-bound names and lambda parameters become locals; every builtin,
    projection and application is one statement, in call-by-value order,
    and a builtin's statement re-raises its failure through `located_error`
    with the builtin's position; case and if become if/else.  A subterm
    whose operands are all known is evaluated here, once, with the same
    builtin functions, and only when that evaluation succeeds; one that
    raises stays in the code, so it raises when (and only if) it is reached.
    A builtin or comparison already computed from the same operand sources
    in the same or an enclosing block is not emitted again (`calls`).
    With `array` set it emits array mode, with its fault masks (see the
    module docstring); with `columns` set, columnar mode (see _PipeGen).
    """

    def __init__(self, env: dict, array: bool = False, columns: bool = False):
        self.env = env
        self.array = array
        self.columns = columns
        self.lines: list[str] = []
        self.namespace: dict = {
            **(_COLUMN_NAMESPACE if columns else {}),
            "_VInj": VInj,
            "_apply_value": apply_value,
            "_located": located_error,
            "_pair": _pair,
            "_scrutinee": scrutinee,
            "_where": _where,
            "_need_pair": _need_pair,
            "_ERRORS": BUILTIN_ERRORS,
            "_not": np.logical_not,
        }
        self.count = 0
        # (op, operand sources) -> the local holding that call's value, for
        # the calls emitted in the current block and the blocks around it
        self.calls: dict = {}
        # fault masks: the local holding the condition under which the code
        # being emitted runs (None: always), and the (local, path) pairs
        # whose failures the current function has recorded
        self.path: Optional[str] = None
        self.checked: set = set()
        # columnar mode: the frame the code being emitted runs in, named by
        # the local holding its length; each frame's (parent, selection),
        # the selection being the parent's entries that it holds; the frame
        # each local was made in; and the (local, frame) -> local gathers
        self.frame = "_n"
        self.frames: dict = {"_n": (None, None)}
        self.made: dict = {}
        self.gathered: dict = {}
        # the leaves' columns not converted yet: local -> the column it holds
        self.pending: dict = {}

    # -- output ---------------------------------------------------------------

    def fresh(self, stem: str) -> str:
        self.count += 1
        return f"{stem}{self.count}"

    def emit(self, depth: int, line: str) -> None:
        self.lines.append("    " * depth + line)

    def literal(self, value) -> str:
        """Python source for a known value."""
        if isinstance(value, bool) or (isinstance(value, tuple) and not value):
            return repr(value)
        if isinstance(value, int) or (isinstance(value, float) and math.isfinite(value)):
            text = repr(value)
            return f"({text})" if text.startswith("-") else text
        name = self.fresh("_k")
        self.namespace[name] = value
        return name

    def code(self, operand) -> str:
        """Source for the operand's value; in columnar mode, its column in
        the current frame."""
        if isinstance(operand, _Known):
            return self.literal(operand.value)
        if isinstance(operand, _Lam):
            raise _NotCompilable(operand)
        if not self.columns:
            return operand.expr
        if operand.parts is not None:
            left, right = (self.code(p) for p in operand.parts)
            return self.assign(1, f"_each(_tuple, {self.frame}, {left}, {right})").expr
        return self.here(operand.expr)

    def source(self, operand):
        """The operand's identity for value numbering: in columnar mode the
        local it was made as, in whichever frame."""
        if not self.columns or isinstance(operand, (_Known, _Lam)):
            return self.code(operand)
        if operand.parts is not None:
            return tuple(map(self.source, operand.parts))
        return operand.expr

    def here(self, name: str) -> str:
        """Columnar mode: the local name, gathered into the current frame
        through each frame between, if it was made in an enclosing one."""
        if name in self.pending:
            self.emit(1, f"{name} = _column({self.pending.pop(name)})")
        made = self.made.get(name)
        chain, frame = [], self.frame
        while made is not None and frame != made:
            chain.append(frame)
            frame = self.frames[frame][0]
        for frame in reversed(chain):
            key = (name, frame)
            if key not in self.gathered:
                self.gathered[key] = self.fresh("g")
                self.made[self.gathered[key]] = frame
                self.emit(1, f"{self.gathered[key]} = _take({name}, {self.frames[frame][1]})")
            name = self.gathered[key]
        return name

    def assign(self, depth: int, rhs: str, **flags) -> _Code:
        name = self.fresh("t")
        self.emit(depth, f"{name} = {rhs}")
        self.made[name] = self.frame
        return _Code(name, **flags)

    @contextmanager
    def block(self):
        """A nested block: the calls emitted in it are not reused after it."""
        outer = self.calls
        self.calls = dict(outer)
        try:
            yield
        finally:
            self.calls = outer

    def local(self, operand, depth: int):
        """The operand as a known value or a local name (for reuse).  A pair
        built here stays its parts: the tuple is built only where it is
        used whole."""
        if isinstance(operand, (_Known, _Lam)) or operand.expr.isidentifier() or operand.parts:
            return operand
        name = self.fresh("v")
        self.emit(depth, f"{name} = {operand.expr}")
        return _Code(name, operand.is_bool, operand.parts, operand.is_fn)

    # -- terms ----------------------------------------------------------------

    def function(self, name: str, params, body: Term, scope: dict, depth: int) -> None:
        """A def of the function; in array mode it returns (value, fault mask)."""
        arg = self.fresh("a")
        self.emit(depth, f"def {name}({arg}):")
        with self.block():
            if self.array:
                self.emit(depth + 1, "_bad = False")
            inner = self.bind(params, _Code(arg), scope, depth + 1)
            result = self.code(self.term(body, inner, depth + 1))
            self.emit(depth + 1, f"return {result}, _bad" if self.array else f"return {result}")

    def check(self, sig, args: list, value: _Code, depth: int) -> None:
        """Array mode: record that the points where the builtin's domain
        test holds on its arguments fail, where the current code runs (once
        per path)."""
        if (value.expr, self.path) not in self.checked:
            self.checked.add((value.expr, self.path))
            self.namespace[f"_fails_{sig.name}"] = sig.fails
            mask = f"_fails_{sig.name}({', '.join(args)})"
            self.emit(depth, f"_bad = _bad | {mask}" + ("" if self.path is None else f" & {self.path}"))

    def bind(self, params, operand, scope: dict, depth: int) -> dict:
        """Scope extended by a parameter group bound to a right-nested tuple."""
        scope = dict(scope)
        names = [n for n, _ in params]
        cur = self.local(operand, depth)
        for name in names[:-1]:
            if _is_known_pair(cur):
                scope[name], cur = _Known(cur.value[0]), _Known(cur.value[1])
            elif isinstance(cur, _Code) and cur.parts is not None:
                scope[name], cur = (self.local(p, depth) for p in cur.parts)
            elif self.columns:
                first, rest = self.unpair(cur, depth)
                scope[name], cur = first, rest
            else:
                value = self.code(cur)
                check = f"isinstance({value}, tuple) and len({value}) == 2"
                self.emit(depth, f"if not ({check}):")
                self.emit(depth + 1, f"_need_pair({name!r})")
                first, rest = self.fresh("v"), self.fresh("v")
                self.emit(depth, f"{first}, {rest} = {value}")
                scope[name], cur = _Code(first), _Code(rest)
        scope[names[-1]] = cur
        return scope

    def term(self, term: Term, scope: dict, depth: int):
        match term:
            case Var(name):
                if name in scope:
                    return scope[name]
                if name in self.env:
                    return _Known(self.env[name])
                raise _NotCompilable(term)
            case Const(value):
                if self.array and not isinstance(value, bool):
                    if not isinstance(value, (int, float)):
                        raise _NotCompilable(term)
                    value = float(value)
                return _Known(value)
            case Cast(_, body):
                return self.term(body, scope, depth)
            case Builtin(op, args):
                ops = [self.term(a, scope, depth) for a in args]
                sig = signature(op)
                if sig.continuity == "comparison":
                    return self.comparison(sig, ops[0], term.pos, depth)
                return self.builtin(sig, ops, term.pos, depth)
            case Pair(left, right):
                return self.pair(self.term(left, scope, depth), self.term(right, scope, depth))
            case Fst(body):
                return self.project(self.term(body, scope, depth), 0, depth)
            case Snd(body):
                return self.project(self.term(body, scope, depth), 1, depth)
            case Inj(index, body) if not self.array:
                inner = self.term(body, scope, depth)
                if isinstance(inner, _Known):
                    return _Known(VInj(index, inner.value))
                if self.columns:
                    return self.assign(depth, f"_each(_VInj, {self.frame}, {index}, {self.code(inner)})")
                return _Code(f"_VInj({index}, {inner.expr})")
            case Let(name, bound, body):
                value = self.local(self.term(bound, scope, depth), depth)
                return self.term(body, {**scope, name: value}, depth)
            case Case(scrut, branches):
                return self.case(term, self.term(scrut, scope, depth), scope, depth)
            case Lam(params, body) if self.columns or self.array:
                return _Lam(params, body, scope, self.env)
            case Lam(params, body):
                name = self.fresh("f")
                self.function(name, params, body, scope, depth)
                return _Code(name, is_fn=True)
            case App(Lam(params, body), arg):
                value = self.term(arg, scope, depth)
                return self.term(body, self.bind(params, value, scope, depth), depth)
            case App(fn, arg) if self.columns or self.array:
                fo = self.term(fn, scope, depth)
                value = self.term(arg, scope, depth)
                if isinstance(fo, _Lam):
                    return self.inline(fo.params, fo.body, fo.scope, fo.env, value, depth)
                if isinstance(fo, _Known) and isinstance(fo.value, VClosure):
                    clo = fo.value
                    return self.inline(clo.params, clo.body, {}, clo.env, value, depth)
                raise _NotCompilable(term)
            case App(fn, arg):
                fo = self.term(fn, scope, depth)
                ao = self.code(self.term(arg, scope, depth))
                direct = self.direct_callee(fo)
                if direct is not None:
                    return self.assign(depth, f"{direct}({ao})")
                return self.assign(depth, f"_apply_value({self.code(fo)}, {ao})")
        raise _NotCompilable(term)

    def inline(self, params, body: Term, scope: dict, env: dict, value, depth: int):
        """A function's body applied to the value, inline, with the
        function's environment as known values."""
        outer = self.env
        self.env = env
        try:
            return self.term(body, self.bind(params, value, scope, depth), depth)
        finally:
            self.env = outer

    def unpair(self, operand, depth: int) -> tuple:
        """Columnar mode: the two components of a column of pairs."""
        pairs = self.assign(depth, f"_each(_pair_of, {self.frame}, {self.code(operand)})").expr
        return tuple(self.assign(depth, f"_each({part}, {self.frame}, {pairs})") for part in ("_fst", "_snd"))

    def builtin(self, sig, ops: list, pos, depth: int):
        op = sig.name
        if all(isinstance(o, _Known) for o in ops):
            try:
                return _Known(sig.fn(*(o.value for o in ops)))
            except (TypeError, *BUILTIN_ERRORS):
                pass  # left in place: it raises, or faults, where it is reached
        if self.columns:
            key = (op, *map(self.source, ops))
            if key not in self.calls:
                args = ", ".join(self.code(o) for o in ops)
                self.calls[key] = self.assign(depth, f"_op(_op_{op}, {self.frame}, {args})")
            return self.calls[key]
        args = [self.code(o) for o in ops]
        key = (op, *args)
        if key not in self.calls:
            if sig.symbol is not None:
                rhs = f"{sig.symbol}{args[0]}" if sig.arity == 1 else f"{args[0]} {sig.symbol} {args[1]}"
            elif self.array and sig.ufunc is None:
                raise _NotCompilable(op)
            else:
                self.namespace[f"_{op}"] = getattr(np, sig.ufunc) if self.array else sig.fn
                rhs = f"_{op}({', '.join(args)})"
            if self.array:
                self.calls[key] = self.assign(depth, rhs)
            else:
                name = self.fresh("t")
                self.emit(depth, "try:")
                self.emit(depth + 1, f"{name} = {rhs}")
                self.emit(depth, "except _ERRORS as err:")
                self.emit(depth + 1, f"raise _located(err, {op!r}, {pos!r}) from None")
                self.calls[key] = _Code(name)
        if self.array and sig.fails is not None:
            self.check(sig, args, self.calls[key], depth)
        return self.calls[key]

    def comparison(self, sig, operand, pos, depth: int):
        op = sig.name
        if _is_known_pair(operand):
            left, right = map(_Known, operand.value)
            try:
                return _Known(sig.fn(left.value, right.value))
            except TypeError:
                pass
        elif isinstance(operand, _Code) and operand.parts is not None:
            left, right = operand.parts
        elif self.columns:
            left, right = self.unpair(operand, depth)
        else:
            checked = self.assign(depth, f"_pair({self.code(operand)}, {op!r}, {pos!r})")
            left, right = _Code(f"{checked.expr}[0]"), _Code(f"{checked.expr}[1]")
        key = (op, self.source(left), self.source(right))
        if key not in self.calls:
            if self.columns:
                args = f"{self.code(left)}, {self.code(right)}"
                rhs = f"_compare(_cmp_{op}, {args}, {self.frame})"
            else:
                rhs = f"{key[1]} {sig.symbol} {key[2]}"
            self.calls[key] = self.assign(depth, rhs, is_bool=True)
        return self.calls[key]

    def pair(self, lo, ro):
        if isinstance(lo, _Known) and isinstance(ro, _Known):
            return _Known((lo.value, ro.value))
        if self.columns:  # its column is made only where it is used whole
            return _Code("", parts=(lo, ro))
        return _Code(f"({self.code(lo)}, {self.code(ro)})", parts=(lo, ro))

    def project(self, operand, index: int, depth: int):
        if _is_known_pair(operand):
            return _Known(operand.value[index])
        if isinstance(operand, _Code) and operand.parts is not None:
            return operand.parts[index]
        key = (("fst", "snd")[index], self.source(operand))
        if key not in self.calls:
            if self.columns:
                rhs = f"_each({('_fst', '_snd')[index]}, {self.frame}, {self.code(operand)})"
            else:
                rhs = f"{key[1]}[{index}]"
            self.calls[key] = self.assign(depth, rhs)
        return self.calls[key]

    def direct_callee(self, operand) -> Optional[str]:
        """Source naming a Python function for the operand, if it has one."""
        if isinstance(operand, _Code):
            return operand.expr if operand.is_fn else None
        fn = operand.value
        if isinstance(fn, VClosure):
            fn = compile_fn(fn)
        return self.literal(fn) if callable(fn) else None

    def case(self, term: Case, scrut, scope: dict, depth: int):
        branches = term.branches
        if isinstance(scrut, _Known) and isinstance(scrut.value, (bool, VInj)):
            index, payload = scrutinee(scrut.value, term.pos)
            binder, body = branches[index]
            return self.term(body, _with(scope, binder, _Known(payload)), depth)
        if self.array:
            return self.where(scrut, branches, scope, depth)
        if self.columns:
            return self.column_case(term, scrut, scope, depth)
        result = self.fresh("r")
        bools = []
        if isinstance(scrut, _Code) and scrut.is_bool:
            tests = [f"if {scrut.expr}:", "else:"]
            payload = _Known(())
        else:
            index, payload_name = self.fresh("i"), self.fresh("v")
            scrut_code = self.code(scrut)
            self.emit(depth, f"{index}, {payload_name} = _scrutinee({scrut_code}, {term.pos!r})")
            tests = (
                [f"if {index} == 0:"]
                + [f"elif {index} == {i}:" for i in range(1, len(branches) - 1)]
                + ["else:"]
            )
            payload = _Code(payload_name)
        for test, (binder, body) in zip(tests, branches):
            self.emit(depth, test)
            with self.block():
                out = self.term(body, _with(scope, binder, payload), depth + 1)
            self.emit(depth + 1, f"{result} = {self.code(out)}")
            bools.append(_is_bool(out))
        return _Code(result, is_bool=all(bools))

    def column_case(self, term: Case, scrut, scope: dict, depth: int):
        """Columnar mode: each branch runs in a frame of its own, on the
        entries that take it, and the branches' columns are merged."""
        sels = [self.fresh("s") for _ in term.branches]
        payload = self.fresh("p")
        cases = f"_cases({self.code(scrut)}, {len(sels)}, {term.pos!r}, {self.frame})"
        self.emit(depth, f"({', '.join(sels)},), {payload} = {cases}")
        self.made.update(dict.fromkeys([*sels, payload], self.frame))
        outer, parts = self.frame, []
        try:
            for sel, (binder, body) in zip(sels, term.branches):
                self.frame = self.fresh("m")
                self.frames[self.frame] = (outer, sel)
                self.emit(depth, f"{self.frame} = len({sel})")
                with self.block():
                    out = self.term(body, _with(scope, binder, _Code(payload)), depth)
                    parts.append(f"({sel}, {self.code(out)})")
        finally:
            self.frame = outer
        return self.assign(depth, f"_merge({outer}, ({', '.join(parts)},))")

    def where(self, scrut, branches, scope: dict, depth: int):
        """Array mode: a case on a comparison result computes both branches
        at every point and selects per point (`_where`).  Both branches run
        unconditionally, so a call in either stays reusable after it."""
        if not (isinstance(scrut, _Code) and scrut.is_bool):
            raise _NotCompilable(scrut)
        outer, outs = self.path, []
        for (binder, body), test in zip(branches, (scrut.expr, f"_not({scrut.expr})")):
            # a branch's failures count where it is taken
            self.path = self.assign(depth, test if outer is None else f"{outer} & {test}").expr
            outs.append(self.term(body, _with(scope, binder, _Known(())), depth))
        self.path = outer
        rhs = f"_where({scrut.expr}, {', '.join(self.code(o) for o in outs)})"
        return self.assign(depth, rhs, is_bool=all(map(_is_bool, outs)))


class _PipeGen(_CodeGen):
    """The columnar generator for a fused stream pipeline.

    A pipeline is a tree whose nodes are a leaf's number or (op, fn,
    inputs), op being "map", "reweight" or "prod".  A map or reweight
    inlines its closure's body, with the closure's environment as known
    values; a product's value is a pair that keeps its parts.

    The function computes a block of `_n` entries from each leaf's block,
    `_cj` (and weights `_wj`), at once.  Every value is a column: a float64
    array where each entry is a float, a bool array where each is a bool,
    an int64 array where each is an int within INT_BOUND, and an object
    array of the runtime values otherwise; a value that is the same in
    every entry stays a Python value.  A builtin runs as `_op` or
    `_compare` runs it, so each value is bit-identical to the layers'
    compile_fn functions applied entry by entry.
    A case runs each branch in a frame of its own, on the entries that take
    it: the columns it uses are gathered there (`here`), and the branches'
    results are merged (`_merge`), so a branch is evaluated exactly where
    entry-wise evaluation evaluates it.  A known closure that is applied is
    inlined; a layer whose body columnar mode refuses (one that builds
    samplers, or makes a function value per entry) is applied entry by
    entry through `fallback`, the evaluator's application, which calls the
    closure's compile_fn function where it has one.  The function does
    not locate errors: wherever entry-wise evaluation would raise, it
    raises, or, where a domain test (`builtins.BuiltinSig.fails`) or a
    negative reweight factor fails, raises `_Fault`; the stream engine then
    runs the block's entries one at a time, layer by layer.
    """

    def __init__(self, weighted, fallback: Callable):
        super().__init__({}, columns=True)
        self.weighted = weighted
        self.fallback = fallback

    def inputs(self) -> list[str]:
        """The parameters for each leaf's entries, then its weights if it
        has them."""
        names = []
        for j, weighted in enumerate(self.weighted):
            names += [f"_c{j}", f"_w{j}"] if weighted else [f"_c{j}"]
        return names

    def stage(self, node, depth: int) -> tuple:
        """The (value, weight) operands of a pipeline node.  Engine order: a
        product's left input, then its right one, then the layer itself."""
        if isinstance(node, int):
            return self.leaf(node)
        op, fn, inputs = node
        if op == "prod":
            lv, lw = self.stage(inputs[0], depth)
            rv, rw = self.stage(inputs[1], depth)
            return self.pair(lv, rv), self.times(lw, rw, depth)
        value, weight = self.stage(inputs[0], depth)
        out = self.layer(fn, value, depth)
        if op == "map":
            return out, weight
        return value, self.assign(depth, f"_reweigh({self.code(out)}, {self.code(weight)}, _n)")

    def leaf(self, j: int) -> tuple:
        # a leaf's values are made a column where they are first used
        # (`here`); its weights are a float64 array already
        self.pending[f"_x{j}"] = f"_c{j}"
        self.made[f"_x{j}"] = self.made[f"_w{j}"] = self.frame
        return _Code(f"_x{j}"), _Code(f"_w{j}") if self.weighted[j] else _Known(WEIGHT_ONE)

    def times(self, left, right, depth: int):
        """A weight product; never folded unless both factors are known,
        so an integer factor still makes a float weight."""
        if isinstance(left, _Known) and isinstance(right, _Known):
            return _Known(left.value * right.value)
        return self.assign(depth, f"_op(_op_times, _n, {self.code(left)}, {self.code(right)})")

    def listed(self, operand) -> str:
        """Source for the typed column of the operand's entries (see
        `column`); a pair's is the `Pairs` of its parts' columns."""
        if isinstance(operand, _Code) and operand.parts is not None:
            return f"_pairs({', '.join(map(self.listed, operand.parts))})"
        if isinstance(operand, _Code) and operand.expr in self.pending:
            return self.pending[operand.expr]  # a leaf's column, as it came
        return f"_out({self.code(operand)}, _n)"

    def layer(self, fn, value, depth: int):
        """fn applied to the value: its closure's body inline, or a call
        entry by entry where the generator refuses it."""
        if isinstance(fn, VClosure):
            mark, calls = len(self.lines), self.calls
            gathered, pending = dict(self.gathered), dict(self.pending)
            self.calls = dict(calls)
            try:
                out = self.inline(fn.params, fn.body, {}, fn.env, value, depth)
                if _makes_function(out):
                    raise _NotCompilable(out)
                return out
            except _NotCompilable:
                del self.lines[mark:]
                self.calls, self.gathered, self.pending = calls, gathered, pending
        name = self.fresh("_g")
        self.namespace["_fallback"] = self.fallback
        if isinstance(fn, VClosure):
            # weakly, as the function may be kept on a closure that this
            # one's environment holds (see compile_pipeline)
            self.namespace[name] = weakref.ref(fn)
            name += "()"
        else:
            self.namespace[name] = fn
        return self.assign(depth, f"_each(_fallback, _n, {name}, {self.code(value)})")


def _makes_function(operand) -> bool:
    """Whether a columnar operand holds a lambda of the body, which its
    column cannot hold."""
    if isinstance(operand, _Code) and operand.parts is not None:
        return any(map(_makes_function, operand.parts))
    return isinstance(operand, _Lam)


#: compile_pipeline's functions for pipelines without layer functions
_PIPELINES: dict = {}


def compile_pipeline(shape, fns: list, weighted, fallback: Callable) -> Callable:
    """A function of a fused stream pipeline (see _PipeGen).

    The pipeline's tree is given as its shape, a tree whose nodes are a
    leaf's number or (op, id(fn), inputs), and its layer functions fns, each
    node's before its inputs'.  The function is the columnar function
    `_fn(n, *leaves)`, which takes each leaf's block of n entries (its
    column of values, then its float64 weights if it has them) and returns
    the typed columns of the n values and weights (see `column`), or raises
    (see _PipeGen).

    A sampler built per entry of another builds the same pipeline again
    each time, so the function is kept, as compile_fn keeps a closure's:
    on the first layer function, if every layer function is a closure,
    keyed by the shape and the leaves' weights; or in _PIPELINES
    if no layer has a function.  A closure belongs to the one evaluation
    that made it, so its evaluator's fallback is the same on every use.
    """
    key = (shape, tuple(weighted))
    if not fns:
        cache = _PIPELINES
    elif all(type(fn) is VClosure for fn in fns):
        if fns[0]._pipelines is None:
            fns[0]._pipelines = {}
        cache = fns[0]._pipelines
    else:
        return _generate_pipeline(shape, fns, weighted, fallback)
    kept = cache.get(key)
    # the other closures are held weakly, since their environments may hold
    # the first one, and an id in the key is only theirs while they live
    if kept is None or (len(fns) > 1 and any(ref() is not fn for ref, fn in zip(kept[0], fns[1:]))):
        refs = [weakref.ref(fn) for fn in fns[1:]]
        kept = cache[key] = refs, _generate_pipeline(shape, fns, weighted, fallback)
    return kept[1]


def _tree(shape, fns):
    """The pipeline tree of a shape, with the layer functions from the
    iterator fns in place of their ids."""
    if isinstance(shape, int):
        return shape
    op, _, inputs = shape
    fn = None if op == "prod" else next(fns)
    return op, fn, tuple(_tree(i, fns) for i in inputs)


def _generate_pipeline(shape, fns: list, weighted, fallback: Callable) -> Callable:
    gen = _PipeGen(weighted, fallback)
    value, weight = gen.stage(_tree(shape, iter(fns)), 1)
    head = f"def _fn(_n, {', '.join(gen.inputs())}):"
    tail = f"return {gen.listed(value)}, {gen.listed(weight)}"
    source = "\n".join([head, *gen.lines, "    " + tail]) + "\n"
    exec(compile(source, "<samplerlang>", "exec"), gen.namespace)
    # taken out of its own globals, so that the two are not a cycle that
    # keeps the evaluator of `fallback` alive until the cycle collector runs
    return gen.namespace.pop("_fn")


# ---------------------------------------------------------------------------
# Columns: the run-time helpers of columnar mode (see _PipeGen)
# ---------------------------------------------------------------------------

#: entries per call of a columnar function, which bounds its temporaries
CHUNK = 8192


class _Fault(Exception):
    """A columnar block reached an entry that fails."""


#: what a columnar function raises where some entry of its block fails
COLUMN_FAULTS = (_Fault, *BUILTIN_ERRORS)


def _column(values):
    """A leaf's or an entry-wise result's column as a numpy array: a typed
    array as it is, and an object array of the runtime values otherwise."""
    if type(values) is np.ndarray:
        return values
    values = column(column_values(values))
    return values if type(values) is np.ndarray else np.fromiter(values, object, len(values))


def _out(x, n: int):
    """The typed column (see `column`) of a value's n entries."""
    if type(x) is np.ndarray:
        return x.tolist() if x.dtype == object else x
    if type(x) in (float, bool) or _is_ints(x):
        return np.full(n, x)
    return [x] * n


def _seq(x, n: int):
    """A value's n entries as a sequence of runtime values."""
    return x.tolist() if type(x) is np.ndarray else repeat(x, n)


def _each(fn, n: int, *args):
    """fn applied entry by entry."""
    if not any(type(a) is np.ndarray for a in args):
        return fn(*args) if n else None
    return _column(list(map(fn, *(_seq(a, n) for a in args))))


def _as_float(x, compare: bool = False):
    """x as a float64 operand that numpy rounds and compares as Python
    does x, or None: a float64 column, a float, or ints, which Python
    converts to floats for arithmetic with a float, and compares exactly
    (so for a comparison only an int within INT_BOUND, which converts
    exactly; an int64 column holds only those).  An object column of
    floats and such ints (a branch that mixes them) converts too."""
    kind = type(x)
    if kind is np.ndarray:
        if x.dtype == np.float64:
            return x
        if x.dtype == np.int64:
            return x.astype(np.float64)
        return _mixed_floats(x) if x.dtype == object else None
    if kind is float:
        return x
    if kind is int and (not compare or -INT_BOUND <= x <= INT_BOUND):
        try:
            return float(x)
        except OverflowError:
            return None
    return None


def _mixed_floats(x: np.ndarray):
    """An object column as floats, where every entry is a float or an int
    within INT_BOUND (not a bool), or None."""
    values = x.tolist()
    if not set(map(type, values)) <= {float, int}:
        return None
    try:
        floats = x.astype(np.float64)
    except OverflowError:  # an int beyond the floats
        return None
    # an int past INT_BOUND converts to a float of at least INT_BOUND
    edge = np.flatnonzero(np.abs(floats) >= INT_BOUND).tolist()
    if any(type(values[i]) is int and abs(values[i]) > INT_BOUND for i in edge):
        return None
    return floats


def _is_float(x) -> bool:
    return type(x) is float or (type(x) is np.ndarray and x.dtype == np.float64)


def _is_ints(x) -> bool:
    """Whether x is an int64 column or an int it can hold."""
    if type(x) is np.ndarray:
        return x.dtype == np.int64
    return type(x) is int and -INT_BOUND <= x <= INT_BOUND


def _op(spec, n: int, *args):
    """A builtin on columns: spec is (ufunc, fn, fails), fn being the
    builtin's function and fails its domain test.  On float64 arguments
    (ints among them, as `_as_float` makes them, where one is a float), a
    fault where fails holds, else ufunc on the whole columns; on any other
    column, fn entry by entry."""
    ufunc, fn, fails = spec
    floats = [_as_float(a) for a in args]
    columns = any(type(a) is np.ndarray for a in args)
    if not columns or any(f is None for f in floats) or not any(map(_is_float, args)):
        return _each(fn, n, *args)
    if fails is not None and n and np.any(fails(*floats)):
        raise _Fault(fn)
    return ufunc(*floats)


def _compare(spec, a, b, n: int):
    """A comparison on columns: spec is (ufunc, fn, None)."""
    ufunc, fn, _ = spec
    if type(a) is not np.ndarray and type(b) is not np.ndarray:
        return fn(a, b) if n else None
    x, y = _as_float(a, True), _as_float(b, True)
    if x is None or y is None:
        x, y = (v if _is_bools(v) else None for v in (a, b))
    if x is None or y is None:
        return _each(fn, n, a, b)
    return ufunc(x, y)


def _is_bools(x) -> bool:
    return type(x) is bool or (type(x) is np.ndarray and x.dtype == bool)


def _take(x, sel):
    """A value's entries at the positions sel."""
    return x[sel] if type(x) is np.ndarray else x


def _cases(x, count: int, pos, n: int):
    """The positions that take each of a case's count branches, and the
    payloads."""
    if type(x) is np.ndarray and x.dtype == bool:
        return (np.flatnonzero(x), np.flatnonzero(~x)), ()
    if type(x) is not np.ndarray:
        sels = [np.arange(0)] * count
        if not n:
            return sels, None
        index, payload = scrutinee(x, pos)
        sels[index] = np.arange(n)
        return sels, payload
    pairs = [scrutinee(v, pos) for v in x.tolist()]
    index = np.fromiter((i for i, _ in pairs), np.intp, n)
    payloads = _column([p for _, p in pairs])
    return [np.flatnonzero(index == i) for i in range(count)], payloads


_SCALARS = (float, int, bool)


def _merge(n: int, parts):
    """The n entries that each (positions, value) part puts in place."""
    parts = [(sel, v) for sel, v in parts if len(sel)]
    kinds = {float if _is_float(v) else bool if _is_bools(v) else np.int64 if _is_ints(v) else object
             for _, v in parts}
    out = np.empty(n, kinds.pop() if len(kinds) == 1 else object)
    for sel, v in parts:
        if type(v) in _SCALARS or type(v) is np.ndarray:
            out[sel] = v
        else:  # a runtime value, which numpy would take for a sequence
            out[sel] = np.fromiter(repeat(v, len(sel)), object, len(sel))
    return out


def _pair_of(value):
    """The value, if it is a pair."""
    if type(value) is not tuple or len(value) != 2:
        raise _Fault(value)
    return value


def _reweigh(factor, weight, n: int):
    """The weights that a reweight's factors make of the weights, or a
    fault where a factor is negative.  Weights are floats, so an int factor
    may be a float first, as Python's product makes it."""
    floats = _as_float(factor, True)
    factor = factor if floats is None else floats
    if n and np.any(_compare(_SPECS["_cmp_lt"], factor, 0, n)):
        raise _Fault(factor)
    return _op(_SPECS["_op_times"], n, factor, weight)


def _specs() -> dict:
    """The columnar functions' names for each builtin row's (ufunc, fn,
    fails): `_cmp_name` for a comparison (see _compare), else `_op_name`
    (see _op)."""
    return {f"_{'cmp' if sig.continuity == 'comparison' else 'op'}_{sig.name}":
            (getattr(np, sig.ufunc), sig.fn, sig.fails) for sig in SIGNATURES if sig.ufunc}


_SPECS = _specs()
_COLUMN_NAMESPACE = {
    **_SPECS,
    "_column": _column, "_out": _out, "_pairs": Pairs, "_each": _each, "_op": _op,
    "_compare": _compare, "_take": _take, "_cases": _cases, "_merge": _merge, "_reweigh": _reweigh,
    "_pair_of": _pair_of, "_fst": operator.itemgetter(0), "_snd": operator.itemgetter(1),
    "_tuple": lambda a, b: (a, b),
}


def _where(cond, if_true, if_false):
    """np.where, componentwise over pairs."""
    if isinstance(if_true, tuple):
        return tuple(_where(cond, a, b) for a, b in zip(if_true, if_false))
    return np.where(cond, if_true, if_false)


def compile_fn(clo: VClosure) -> Optional[Callable]:
    """A Python function for a sampler-free closure body, or None.

    The body is translated once to flat Python source (see _CodeGen) and
    executed to define the function; the closure's environment values are
    known constants of that source.  Bodies that build samplers, or name
    variables the environment does not bind, are not compiled.
    """
    if clo._compiled is None:
        clo._compiled = _generate(_CodeGen(clo.env), clo.params, clo.body) or False
    return clo._compiled or None


def compile_array_fn(fn: Term) -> Optional[Callable]:
    """A numpy function for a closed lambda term, or None.

    The function maps nested tuples of arrays to nested tuples of arrays
    (or floats, for constant components); see the module docstring for what
    array mode refuses.  Every component is nan at the points where the
    scalar function would fail (`_poison`).
    """
    if not isinstance(fn, Lam):
        return None
    f = _generate(_CodeGen({}, array=True), fn.params, fn.body)
    if f is None:
        return None
    return lambda point: _poison(*f(point))


def _poison(value, bad):
    """value with nan at the points in the mask `bad`, componentwise for
    pairs; a Boolean component becomes floats, 1.0 and 0.0 elsewhere."""
    if not np.any(bad):
        return value
    if isinstance(value, tuple):
        return tuple(_poison(v, bad) for v in value)
    return np.where(bad, np.nan, value)


def _generate(gen: _CodeGen, params, body: Term) -> Optional[Callable]:
    """The function gen generates for the body, or None if it refuses."""
    try:
        gen.function("_fn", params, body, {}, 0)
    except _NotCompilable:
        return None
    source = "\n".join(gen.lines) + "\n"
    exec(compile(source, "<samplerlang>", "exec"), gen.namespace)
    return gen.namespace["_fn"]


def apply_value(fn, arg):
    """Apply a sampler-free runtime function value to a runtime value."""
    if isinstance(fn, VClosure):
        fast = compile_fn(fn)
        if fast is None:
            raise EvalError("closure body builds samplers; not a data function")
        return fast(arg)
    if callable(fn):
        return fn(arg)
    raise EvalError(f"cannot apply non-function value {fn!r}")
