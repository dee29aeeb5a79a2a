"""Runtime values shared by both evaluation engines.

Grounds are Python bools/ints/floats, pairs are 2-tuples, unit is (),
injections and closures are small wrapper classes, and a finite sampler
evaluation is a WeightedList.

`compile_fn` turns a sampler-free closure into a plain Python function by
generating flat Python source for its body and executing it once: let-bound
names become locals, subterms whose operands are all known are folded to
constants, case and if become if/else, and plus/minus/times/neg and the
comparisons are spelled as the Python operators they are.  The other
builtins are called through the same `builtins` functions, in call-by-value
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
block mode for the stream engine: one loop over a block of entries with the
bodies of a chain of map/reweight/product layers inline (see _PipeGen).

`compile_array_fn` runs the same generator in array mode, for quadrature's
array paths, whose functions take nested tuples of numpy arrays and
compute a whole grid, or a batch of quadrature nodes, per call.  Value
numbering and constant folding are the same; numeric constants enter as
floats (folded with numpy's warnings off), and the builtins other than
plus/minus/times/neg are the numpy functions of `_ARRAY_BUILTINS`, which
both fold constants and run in the code, so a domain error gives nan or inf
instead of raising, and no statement is wrapped to locate a failure.
Comparisons are numpy comparisons, and a case (if) on a comparison result
computes both branches at every point, so the calls in a branch stay
reusable after it, and selects one with np.where, componentwise for pairs;
a domain error in the branch not taken is masked.

With fault masks (`faults`), each generated function also computes where
it would fail: a builtin other than plus/minus/times/neg whose value is not
finite counts at the points where the code that calls it runs (the
conjunction of the enclosing branch conditions, in a nested function that
of its call site), and the compiled function puts nan in every component
there.  So a domain error that the scalar function raises shows as nan,
even where its value is discarded or only compared, and one in a branch not
taken does not.  A constant that folds to a non-finite value stays in the
code then, so that it counts where it is reached.

Array mode refuses (returns None for) a body that reaches an injection, a
case on any other scrutinee (an injection, a Boolean parameter), a unit
constant, a builtin outside that table, or an application of anything but
a lambda defined in the body.
"""
from __future__ import annotations

import math
import struct
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .builtins import BUILTIN_ERRORS, EvalError, located_error, signature
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


@dataclass
class WeightedList:
    entries: list[tuple[object, float]]

    def __len__(self):
        return len(self.entries)


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
        return len(a.entries) == len(b.entries) and all(
            value_equal(x, y) and value_equal(u, w)
            for (x, u), (y, w) in zip(a.entries, b.entries)
        )
    return a is b


def value_to_point(v):
    """Flatten a runtime value to a point: floats and nested 2-tuples.

    Booleans embed as 1.0/0.0 for integration; identity-level atom merging
    keeps the original values instead.
    """
    if isinstance(v, bool):
        return 1.0 if v else 0.0
    if isinstance(v, (int, float)):
        return float(v)
    if isinstance(v, tuple):
        return tuple(value_to_point(x) for x in v)
    if isinstance(v, VInj):
        return value_to_point(v.value)
    raise EvalError(f"value {v!r} has no point representation")


def value_columns(values: list) -> Optional[list[list]]:
    """Split non-empty, uniformly shaped values into one list per leaf.

    Tuples split componentwise and injections into their payloads, as in
    `value_to_point`; anything else is a leaf, kept as it is.  Returns None
    when the values do not all have the first one's shape; one value alone
    always has it, so `value_columns([v])` lists v's leaves.
    """
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


def value_to_term(v) -> Term:
    if isinstance(v, (bool, int, float)):
        return Const(v)
    if isinstance(v, tuple):
        if v == ():
            return Const(())
        left, right = v
        return Pair(value_to_term(left), value_to_term(right))
    if isinstance(v, VInj):
        return Inj(v.index, value_to_term(v.value))
    if isinstance(v, Term):
        return v
    raise EvalError(f"value {v!r} cannot be embedded as a term")


# ---------------------------------------------------------------------------
# Code generation for sampler-free closures
# ---------------------------------------------------------------------------

# Builtins that are exactly one Python operator (see builtins._register and
# builtins._CMP_FN), so the generated code spells them inline.
_INFIX = {"plus": "+", "minus": "-", "times": "*"}
_CMP_INFIX = {"lt": "<", "le": "<=", "gt": ">", "ge": ">=", "eq": "==", "ne": "!="}
# The other builtins in array mode: numpy functions that do not raise.
_ARRAY_BUILTINS = {
    "div": np.divide,
    "sqrt": np.sqrt,
    "exp": np.exp,
    "log": np.log,
    "cos": np.cos,
    "sin": np.sin,
    "abs": np.abs,
    "pi": lambda: np.pi,
}


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
    analysis may test directly; `is_fn` marks functions
    defined in the generated code, which are called directly.
    """

    expr: str
    is_bool: bool = False
    parts: Optional[tuple] = None
    is_fn: bool = False


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
    With `array` set it emits array mode, and with `faults` also its
    fault masks (see the module docstring).
    """

    def __init__(self, env: dict, array: bool = False, faults: bool = False):
        self.env = env
        self.array = array
        self.faults = faults
        self.lines: list[str] = []
        self.namespace: dict = {
            "_VInj": VInj,
            "_apply_value": apply_value,
            "_located": located_error,
            "_pair": _pair,
            "_scrutinee": scrutinee,
            "_where": _where,
            "_need_pair": _need_pair,
            "_ERRORS": BUILTIN_ERRORS,
            "_isfinite": np.isfinite,
            "_not": np.logical_not,
        }
        self.count = 0
        self.defs = 0  # nested functions emitted
        # (op, operand sources) -> the local holding that call's value, for
        # the calls emitted in the current block and the blocks around it
        self.calls: dict = {}
        # fault masks: the local holding the condition under which the code
        # being emitted runs (None: always), and the (local, path) pairs
        # whose failures the current function has recorded
        self.path: Optional[str] = None
        self.checked: set = set()

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
        if isinstance(operand, _Known):
            return self.literal(operand.value)
        return operand.expr

    def assign(self, depth: int, rhs: str, **flags) -> _Code:
        name = self.fresh("t")
        self.emit(depth, f"{name} = {rhs}")
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
        if isinstance(operand, _Known) or operand.expr.isidentifier() or operand.parts:
            return operand
        name = self.fresh("v")
        self.emit(depth, f"{name} = {operand.expr}")
        return _Code(name, operand.is_bool, operand.parts, operand.is_fn)

    # -- terms ----------------------------------------------------------------

    def function(self, name: str, params, body: Term, scope: dict, depth: int) -> None:
        """A def of the function; with fault masks it returns (value, mask)."""
        arg = self.fresh("a")
        self.defs += 1
        self.emit(depth, f"def {name}({arg}):")
        outer = self.path, self.checked
        self.path, self.checked = None, set()
        with self.block():
            if self.faults:
                self.emit(depth + 1, "_bad = False")
            inner = self.bind(params, _Code(arg), scope, depth + 1)
            result = self.code(self.term(body, inner, depth + 1))
            self.emit(depth + 1, f"return {result}, _bad" if self.faults else f"return {result}")
        self.path, self.checked = outer

    def fault(self, mask: str, depth: int) -> None:
        """Record that the points in `mask` fail, where the current code runs."""
        where = mask if self.path is None else f"{mask} & {self.path}"
        self.emit(depth, f"_bad = _bad | {where}")

    def check(self, operand: _Code, depth: int) -> _Code:
        """Record a builtin's non-finite values as failures where the
        current code runs (once per path)."""
        if (operand.expr, self.path) not in self.checked:
            self.checked.add((operand.expr, self.path))
            self.fault(f"_not(_isfinite({operand.expr}))", depth)
        return operand

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
                return _Code(f"_VInj({index}, {inner.expr})")
            case Let(name, bound, body):
                value = self.local(self.term(bound, scope, depth), depth)
                return self.term(body, {**scope, name: value}, depth)
            case Case(scrut, branches):
                return self.case(term, self.term(scrut, scope, depth), scope, depth)
            case Lam(params, body):
                name = self.fresh("f")
                self.function(name, params, body, scope, depth)
                return _Code(name, is_fn=True)
            case App(Lam(params, body), arg):
                value = self.term(arg, scope, depth)
                return self.term(body, self.bind(params, value, scope, depth), depth)
            case App(fn, arg):
                fo = self.term(fn, scope, depth)
                ao = self.code(self.term(arg, scope, depth))
                direct = self.direct_callee(fo)
                if direct is not None and self.faults:
                    out, mask = self.fresh("t"), self.fresh("b")
                    self.emit(depth, f"{out}, {mask} = {direct}({ao})")
                    self.fault(mask, depth)
                    return _Code(out)
                if direct is not None:
                    return self.assign(depth, f"{direct}({ao})")
                if self.array:
                    raise _NotCompilable(term)
                return self.assign(depth, f"_apply_value({self.code(fo)}, {ao})")
        raise _NotCompilable(term)

    def builtin(self, sig, ops: list, pos, depth: int):
        op = sig.name
        fn = sig.fn
        if self.array and op not in _INFIX and op != "neg":
            fn = _ARRAY_BUILTINS.get(op)
            if fn is None:
                raise _NotCompilable(op)
        if all(isinstance(o, _Known) for o in ops):
            try:
                with np.errstate(all="ignore"):
                    value = fn(*(o.value for o in ops))
                if not self.array:
                    return _Known(value)
                # with fault masks a failing constant stays in the code too
                if not self.faults or math.isfinite(value):
                    return _Known(float(value))
            except (TypeError, *BUILTIN_ERRORS):
                pass  # left in place: it raises when it is reached
        args = [self.code(o) for o in ops]
        key = (op, *args)
        can_fail = self.faults and op not in _INFIX and op != "neg"
        if key in self.calls:
            return self.check(self.calls[key], depth) if can_fail else self.calls[key]
        if op in _INFIX:
            rhs = f"{args[0]} {_INFIX[op]} {args[1]}"
        elif op == "neg":
            rhs = f"-{args[0]}"
        else:
            self.namespace[f"_{op}"] = fn
            rhs = f"_{op}({', '.join(args)})"
        if self.array:
            self.calls[key] = self.assign(depth, rhs)
            return self.check(self.calls[key], depth) if can_fail else self.calls[key]
        name = self.fresh("t")
        self.emit(depth, "try:")
        self.emit(depth + 1, f"{name} = {rhs}")
        self.emit(depth, "except _ERRORS as err:")
        self.emit(depth + 1, f"raise _located(err, {op!r}, {pos!r}) from None")
        self.calls[key] = _Code(name)
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
        else:
            checked = self.assign(depth, f"_pair({self.code(operand)}, {op!r}, {pos!r})")
            left, right = _Code(f"{checked.expr}[0]"), _Code(f"{checked.expr}[1]")
        key = (op, self.code(left), self.code(right))
        if key not in self.calls:
            rhs = f"{key[1]} {_CMP_INFIX[op]} {key[2]}"
            self.calls[key] = self.assign(depth, rhs, is_bool=True)
        return self.calls[key]

    def pair(self, lo, ro):
        if isinstance(lo, _Known) and isinstance(ro, _Known):
            return _Known((lo.value, ro.value))
        return _Code(f"({self.code(lo)}, {self.code(ro)})", parts=(lo, ro))

    def project(self, operand, index: int, depth: int):
        if _is_known_pair(operand):
            return _Known(operand.value[index])
        if isinstance(operand, _Code) and operand.parts is not None:
            return operand.parts[index]
        key = (("fst", "snd")[index], self.code(operand))
        if key not in self.calls:
            self.calls[key] = self.assign(depth, f"{key[1]}[{index}]")
        return self.calls[key]

    def direct_callee(self, operand) -> Optional[str]:
        """Source naming a Python function for the operand, if it has one."""
        if isinstance(operand, _Code):
            return operand.expr if operand.is_fn else None
        if self.array:
            return None
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

    def where(self, scrut, branches, scope: dict, depth: int):
        """Array mode: a case on a comparison result computes both branches
        at every point and selects per point (`_where`).  Both branches run
        unconditionally, so a call in either stays reusable after it."""
        if not (isinstance(scrut, _Code) and scrut.is_bool):
            raise _NotCompilable(scrut)
        outer, outs = self.path, []
        for (binder, body), test in zip(branches, (scrut.expr, f"_not({scrut.expr})")):
            if self.faults:
                # a branch's failures count where it is taken
                self.path = self.assign(depth, test if outer is None else f"{outer} & {test}").expr
            outs.append(self.term(body, _with(scope, binder, _Known(())), depth))
        self.path = outer
        rhs = f"_where({scrut.expr}, {', '.join(self.code(o) for o in outs)})"
        return self.assign(depth, rhs, is_bool=all(map(_is_bool, outs)))


class _PipeGen(_CodeGen):
    """The generator in block mode: one entry of a fused stream pipeline.

    A pipeline is a tree whose nodes are a leaf's number or (op, fn,
    inputs), op being "map", "reweight" or "prod".  Leaf j's entry is the
    local _xj, and its weight _yj, or the constant WEIGHT_ONE where
    `weighted[j]` is false.  A map or reweight inlines its closure's body,
    with the closure's environment as known values, or calls `fallback(fn, x)`
    where the generator refuses the body; a product's value is a pair that
    keeps its parts.  With `boundary` set, each leaf's entry is read where
    engine order reaches it, from its column `_cj` at the index `_i`, and a
    column that ends before `_i` raises that leaf's error `_errs[j]`.
    """

    def __init__(self, weighted, fallback: Callable, boundary: bool):
        super().__init__({})
        self.weighted = weighted
        self.fallback = fallback
        self.boundary = boundary
        self.namespace["_negative"] = _negative_weight

    def columns(self) -> list[tuple[str, str]]:
        """(column, loop variable) for each leaf's entries, then for its
        weights if it has them."""
        names = []
        for j, weighted in enumerate(self.weighted):
            names.append((f"_c{j}", f"_x{j}"))
            if weighted:
                names.append((f"_w{j}", f"_y{j}"))
        return names

    def stage(self, node, depth: int) -> tuple:
        """The (value, weight) operands of one entry of a pipeline node.
        Engine order: a product's left input, then its right one, then the
        layer itself."""
        if isinstance(node, int):
            return self.leaf(node, depth)
        op, fn, inputs = node
        if op == "prod":
            lv, lw = self.stage(inputs[0], depth)
            rv, rw = self.stage(inputs[1], depth)
            return self.pair(lv, rv), self.times(lw, rw, depth)
        value, weight = self.stage(inputs[0], depth)
        out = self.layer(fn, value, depth)
        if op == "map":
            return out, weight
        factor = self.local(out, depth)
        self.emit(depth, f"if {self.code(factor)} < 0:")
        self.emit(depth + 1, f"raise _negative({self.code(factor)})")
        return value, self.times(factor, weight, depth)

    def leaf(self, j: int, depth: int) -> tuple:
        weighted = self.weighted[j]
        if self.boundary:
            self.emit(depth, f"if _i >= len(_c{j}):")
            self.emit(depth + 1, f"raise _errs[{j}]")
            self.emit(depth, f"_x{j} = _c{j}[_i]")
            if weighted:
                self.emit(depth, f"_y{j} = _w{j}[_i]")
        return _Code(f"_x{j}"), _Code(f"_y{j}") if weighted else _Known(WEIGHT_ONE)

    def times(self, left, right, depth: int):
        """A weight product; never folded unless both factors are known,
        so an integer factor still makes a float weight."""
        if isinstance(left, _Known) and isinstance(right, _Known):
            return _Known(left.value * right.value)
        return self.assign(depth, f"{self.code(left)} * {self.code(right)}")

    def layer(self, fn, value, depth: int):
        """fn applied to the value: its closure's body inline, with the
        closure's environment as known values, as its compiled function
        would run it, or a call where the generator refuses the body."""
        if isinstance(fn, VClosure):
            mark, calls, defs = len(self.lines), self.calls, self.defs
            self.env, self.calls = fn.env, dict(calls)
            try:
                return self.term(fn.body, self.bind(fn.params, value, {}, depth), depth)
            except _NotCompilable:
                del self.lines[mark:]
                self.calls, self.defs = calls, defs
        name = self.fresh("_g")
        self.namespace["_fallback"] = self.fallback
        if isinstance(fn, VClosure):
            # weakly, as the function may be kept on a closure that this
            # one's environment holds (see compile_pipeline)
            self.namespace[name] = weakref.ref(fn)
            name += "()"
        else:
            self.namespace[name] = fn
        return self.assign(depth, f"_fallback({name}, {self.code(value)})")


def _negative_weight(factor) -> EvalError:
    return EvalError(f"negative weight {factor} from reweight")


#: compile_pipeline's functions for pipelines without layer functions
_PIPELINES: dict = {}


def compile_pipeline(tree, weighted, fallback: Callable, boundary: bool = False) -> Callable:
    """The block function of a fused stream pipeline (see _PipeGen).

    `_fn(vs, ws, *columns)` runs one loop over the entries that every leaf
    column has and appends each entry's value to vs and its weight to ws; an
    entry that fails raises its EvalError, and the entries before it are in
    vs and ws.  With `boundary` set it is `_fn(i, errs, *columns)` instead,
    which runs entry i alone in engine order and raises the error of the
    innermost, then leftmost, failing layer or short leaf.

    A sampler built per entry of another builds the same pipeline again
    each time, so the function is kept, as compile_fn keeps a closure's:
    on the first layer function, if every layer function is a closure,
    keyed by the identity of each, the leaves' weights and the mode; or in
    _PIPELINES if no layer has a function.  A closure belongs to the one
    evaluation that made it, so its evaluator's fallback is the same on
    every use.
    """
    fns: list = []
    key = (_shape(tree, fns), tuple(weighted), boundary)
    if not fns:
        cache = _PIPELINES
    elif all(type(fn) is VClosure for fn in fns):
        if fns[0]._pipelines is None:
            fns[0]._pipelines = {}
        cache = fns[0]._pipelines
    else:
        return _generate_pipeline(tree, weighted, fallback, boundary)
    kept = cache.get(key)
    # the other closures are held weakly, since their environments may hold
    # the first one, and an id in the key is only theirs while they live
    if kept is None or any(ref() is not fn for ref, fn in zip(kept[0], fns[1:])):
        refs = [weakref.ref(fn) for fn in fns[1:]]
        kept = cache[key] = refs, _generate_pipeline(tree, weighted, fallback, boundary)
    return kept[1]


def _shape(node, fns: list):
    """The pipeline tree with each layer function replaced by its id, which
    is appended to fns."""
    if isinstance(node, int):
        return node
    op, fn, inputs = node
    if fn is not None:
        fns.append(fn)
    return op, id(fn), tuple(_shape(i, fns) for i in inputs)


def _generate_pipeline(tree, weighted, fallback: Callable, boundary: bool) -> Callable:
    gen = _PipeGen(weighted, fallback, boundary)
    columns, targets = (", ".join(names) for names in zip(*gen.columns()))
    value, weight = gen.stage(tree, 1 if boundary else 2)
    body, v, w = gen.lines, gen.code(value), gen.code(weight)
    if boundary:
        lines = [f"def _fn(_i, _errs, {columns}):", *body]
    else:
        source = f"zip({columns})" if "," in columns else columns
        lines = [f"def _fn(_vs, _ws, {columns}):", "    _av = _vs.append", "    _aw = _ws.append"]
        if gen.defs:
            # a function made for one entry must not see the next entry's locals
            lines += [f"    def _entry({targets}):", *body, f"        return {v}, {w}"]
            lines += [f"    for {targets} in {source}:", f"        _v, _w = _entry({targets})"]
            lines += ["        _av(_v)", "        _aw(_w)"]
        else:
            lines += [f"    for {targets} in {source}:", *body, f"        _av({v})", f"        _aw({w})"]
    exec(compile("\n".join(lines) + "\n", "<samplerlang>", "exec"), gen.namespace)
    # taken out of its own globals, so that the two are not a cycle that
    # keeps the evaluator of `fallback` alive until the cycle collector runs
    return gen.namespace.pop("_fn")


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


def compile_array_fn(fn: Term, faults: bool = False) -> Optional[Callable]:
    """A numpy function for a closed lambda term, or None.

    The function maps nested tuples of arrays to nested tuples of arrays
    (or floats, for constant components); see the module docstring for what
    array mode refuses.  With `faults` set, every component is nan at the
    points where the scalar function would fail (`_poison`).
    """
    if not isinstance(fn, Lam):
        return None
    gen = _CodeGen({}, array=True, faults=faults)
    f = _generate(gen, fn.params, fn.body)
    if f is None or not faults:
        return f
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
