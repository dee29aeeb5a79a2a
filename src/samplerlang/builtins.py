"""Built-in function table: typing signatures and strict IEEE-double evaluation.

Arithmetic is polymorphic over the numeric carriers N, R+ and R with the
promotion order N <= R+ <= R; comparisons are typed over the split domain
f^-1(0) + f^-1(1) and return Bool, which is what lets the type checker track
their discontinuities.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional

from .pretty import pretty_type
from .terms import (
    COMPARISONS,
    NAT,
    POSREAL,
    ProdT,
    REAL,
    SumT,
    Type,
    type_equal,
)


class EvalError(Exception):
    """Runtime evaluation failure (domain errors, unbound names)."""

    def __init__(self, message: str, pos=None):
        super().__init__(message if pos is None else f"{pos[0]}:{pos[1]}: {message}")
        self.message = message
        self.pos = pos


NUMERIC_ORDER = {NAT: 0, POSREAL: 1, REAL: 2}


def is_numeric(ty: Type) -> bool:
    return ty in NUMERIC_ORDER


def numeric_join(a: Type, b: Type) -> Type:
    return a if NUMERIC_ORDER[a] >= NUMERIC_ORDER[b] else b


def numeric_fits(a: Type, b: Type) -> bool:
    """Whether a value of numeric carrier `a` may be used where `b` is expected."""
    return is_numeric(a) and is_numeric(b) and NUMERIC_ORDER[a] <= NUMERIC_ORDER[b]


@dataclass(frozen=True)
class BuiltinSig:
    """One row of the builtin table, which every evaluator reads."""

    name: str
    arity: int
    result: Callable  # arg types -> result type (raises TypeError on misuse)
    continuity: str  # 'continuous' | 'comparison'
    fn: Callable  # evaluation on Python numbers / bools
    # where fn raises its domain error: a test on its arguments, which
    # numpy applies elementwise to float64 columns as well
    fails: Optional[Callable] = None
    # the numpy ufunc that computes fn on float64 arrays, by name, so that
    # this module imports no numpy; and the Python operator fn is, if any
    ufunc: Optional[str] = None
    symbol: Optional[str] = None


def _num_args(name, tys):
    for ty in tys:
        if not is_numeric(ty):
            raise _sig_error(name, tys)
    return tys


def _sig_error(name, tys):
    shown = ", ".join(map(pretty_type, tys))
    return TypeError(f"builtin '{name}' does not accept arguments of type ({shown})")


def _join_result(name):
    def result(*tys):
        _num_args(name, tys)
        out = tys[0]
        for ty in tys[1:]:
            out = numeric_join(out, ty)
        return out

    return result


def _fixed_result(name, out, arg_check=None):
    def result(*tys):
        _num_args(name, tys)
        if arg_check is not None:
            arg_check(name, tys)
        return out

    return result


# The domain tests of the partial builtins, shared by their scalar functions
# below and by the stream engine's columnar functions (runtime._PipeGen).


def _div_fails(a, b):
    return b == 0


def _sqrt_fails(a):
    return a < 0


def _log_fails(a):
    return a <= 0


def _exp_fails(a):  # past the largest float whose exp is finite
    return (a > 709.782712893384) & (a < math.inf)


def _trig_fails(a):
    return abs(a) == math.inf


def _f_div(a, b):
    if _div_fails(a, b):
        raise EvalError("division by zero")
    return a / b


def _f_sqrt(a):
    if _sqrt_fails(a):
        raise EvalError(f"sqrt of negative number {a}")
    return math.sqrt(a)


def _ufunc(name: str, fails=None, error: type = ValueError, message: str = ""):
    """The builtin `name` on one value: numpy's ufunc at its float (an int
    beyond the floats raises OverflowError, as in math), as a float, so that
    a value is the same bits as in the stream engine's columns and in
    quadrature's array mode.  Where fails holds it raises error(message)
    before the call, so numpy warns of nothing.  numpy is imported on first
    use, so that the front end, which reads the signatures, loads none."""
    ufunc = None

    def fn(a):
        nonlocal ufunc
        a = float(a)
        if fails is not None and fails(a):
            raise error(message)
        if ufunc is None:
            ufunc = getattr(__import__("numpy"), name)
        return float(ufunc(a))

    return fn


_log = _ufunc("log")


def _f_log(a):
    if _log_fails(a):
        raise EvalError(f"log of non-positive number {a}")
    try:
        return _log(a)
    except OverflowError:  # an int beyond the floats, which no column holds
        return math.log(a)


_TABLE: dict[str, BuiltinSig] = {}


def _register(name, arity, result, continuity, fn, fails=None, ufunc=None, symbol=None):
    _TABLE[name] = BuiltinSig(name, arity, result, continuity, fn, fails, ufunc, symbol)


_register("plus", 2, _join_result("plus"), "continuous", operator.add, None, "add", "+")
_register("times", 2, _join_result("times"), "continuous", operator.mul, None, "multiply", "*")
_register("minus", 2, _fixed_result("minus", REAL), "continuous", operator.sub, None, "subtract", "-")
_register("div", 2, _join_result("div"), "continuous", _f_div, _div_fails, "divide")
_register("neg", 1, _fixed_result("neg", REAL), "continuous", operator.neg, None, "negative", "-")
_register("sqrt", 1, _fixed_result("sqrt", POSREAL), "continuous", _f_sqrt, _sqrt_fails, "sqrt")
_exp = _ufunc("exp", _exp_fails, OverflowError, "math range error")
_register("exp", 1, _fixed_result("exp", POSREAL), "continuous", _exp, _exp_fails, "exp")
_register("log", 1, _fixed_result("log", REAL), "continuous", _f_log, _log_fails, "log")
for _trig in ("cos", "sin"):
    _fn = _ufunc(_trig, _trig_fails, ValueError, "math domain error")
    _register(_trig, 1, _fixed_result(_trig, REAL), "continuous", _fn, _trig_fails, _trig)
_register("abs", 1, _join_result("abs"), "continuous", abs, None, "absolute")
_register("pi", 0, lambda: POSREAL, "continuous", lambda: math.pi)

# each comparison's ufunc and symbol; its function is `operator`'s of its name
_CMP_ROWS = {"lt": ("less", "<"), "le": ("less_equal", "<="), "gt": ("greater", ">"),
             "ge": ("greater_equal", ">="), "eq": ("equal", "=="), "ne": ("not_equal", "!=")}
for _cmp in COMPARISONS:
    _register(_cmp, 1, None, "comparison", getattr(operator, _cmp), None, *_CMP_ROWS[_cmp])

#: every row of the table
SIGNATURES = tuple(_TABLE.values())


def signature(name: str) -> BuiltinSig:
    sig = _TABLE.get(name)
    if sig is None:
        raise KeyError(f"unknown builtin '{name}'")
    return sig


def is_builtin(name: str) -> bool:
    return name in _TABLE


def is_comparison(name: str) -> bool:
    return name in COMPARISONS


# What evaluating a builtin may raise; each is reported by `located_error`.
BUILTIN_ERRORS = (EvalError, OverflowError, ValueError, ZeroDivisionError)


def located_error(err: Exception, name: str, pos) -> EvalError:
    """The EvalError to raise when builtin `name` at `pos` raised `err`."""
    if isinstance(err, EvalError):
        if err.pos is None and pos is not None:
            return EvalError(err.message, pos)
        return err
    return EvalError(f"builtin '{name}' failed: {err}", pos)


def apply_builtin(name: str, args: list, pos=None):
    """Evaluate a builtin on runtime values (floats/ints/bools, pairs as tuples)."""
    sig = signature(name)
    if sig.continuity == "comparison":
        # the single argument is a pair value
        (pair,) = args
        if not (isinstance(pair, tuple) and len(pair) == 2):
            raise EvalError(f"comparison '{name}' expects a pair", pos)
        return sig.fn(pair[0], pair[1])
    try:
        return sig.fn(*args)
    except BUILTIN_ERRORS as err:
        raise located_error(err, name, pos) from None


def fits(actual: Type, expected: Type) -> bool:
    """Structural compatibility with numeric promotion, covariant everywhere.

    This is the permissive direction only (values of `actual` are usable at
    `expected`); topology-refining conversions go through subtyping instead.
    """
    if type_equal(actual, expected):
        return True
    if is_numeric(actual) and is_numeric(expected):
        return numeric_fits(actual, expected)
    match actual, expected:
        case ProdT(la, ra), ProdT(lb, rb):
            return fits(la, lb) and fits(ra, rb)
        case SumT(sa), SumT(sb):
            return len(sa) == len(sb) and all(fits(x, y) for x, y in zip(sa, sb))
        case _:
            from .terms import FunT, SamplerT

            if isinstance(actual, SamplerT) and isinstance(expected, SamplerT):
                return fits(actual.payload, expected.payload)
            if isinstance(actual, FunT) and isinstance(expected, FunT):
                # domains must agree exactly; codomain may promote
                return type_equal(actual.dom, expected.dom) and fits(
                    actual.cod, expected.cod
                )
    return False
