"""Numeric integration of measure expressions against test functions.

A finitely supported measure is summed exactly.  Any other is integrated
on one walk over its stack (`_stack`, `_walk`): its pushforwards and
reweights over a base that is a product of densities, finitely supported
factors and the stacks of pushed-forward or reweighted factors, each factor
over its own coordinates.  Each pushforward pushes the points through its
function, innermost first, and each reweight multiplies the weights by its
function and divides by its normalizer.  A function is its array function
(`runtime.compile_array_fn`), or, where array mode refuses it (an
injection, a case on a Boolean), its scalar function run node by node in
node order (`_per_node`).  The integrand is a test function (`TestFn`), a
function term (`normalizer`) or a callable on runtime values, run the same
way.

Every integral, in up to three continuous dimensions, is batched adaptive
Gauss-Kronrod (`_gk21`, QUADPACK's G10/K21 bisection with global error
control per integral, abs and rel tol 1e-9 by default), vectorized over
every open interval and iterated over the axes (`_adaptive`): the inner
integrals at each batch of outer nodes are the rows of one batched run,
each converging on its own, and a finitely supported factor is a sum over
its atoms.  A row that would need more than `QUAD_LIMIT` intervals, or an
integral more than `NODE_BUDGET` integrand nodes over all of its rows and
axes, raises IntegrationError.  A test function that is a product of
one-coordinate functions (`TestFn.factors`) over a measure of independent
parts (`_split`) is the product of the parts' integrals (Fubini).  Nothing
here uses scipy: a gamma density's cut-off, its upper quantile, is solved
for by Newton's method on the log of the regularized upper incomplete gamma
function (`gamma_cutoff`).

The jumps of an integrand that is a function term with a comparison in its
body, over a product of densities, come from the type checker (`_jumps`):
the inverse-image types of the function's domain name each comparison's
pair of sides.  Their crossings on the innermost axis (`_crossings`),
probed for every row of a batch at once and bisected to the spacing of
floats, split each row at its own breakpoints (`_gk21`'s `row_points`); a
pair that reads only the innermost axis (`_pair_reads`) is solved once and
splits every row, and one that does not read it is not probed.  A jump the
probes miss is found by the adaptive bisection, as it is where the checker
refuses the function or a parameter's type is `_`.

The array functions carry fault masks, each builtin's domain test where
its code runs, which is where the scalar function raises (see `runtime`),
and a reweight divides by its `normalizer`, the integral of its function
over its own base.  At the first node, in node order, where a scalar
function would raise (a domain error on the branch taken) or a
coordinate, weight or value is not finite (`_check_finite`), the scalar
functions run at that node (`_raise_at`), and raise the EvalError with its
position, or IntegrationError names it.

Test functions are placed over a measure's support box (`support_box`); a
pushforward's is the box around its probe points, the images of its base's
under its scalar function, which nest as its values do (`_probe_points`).

One comparison integrates many test functions against the same measures,
so `measure_equal` threads one cache dict through its integrals, and
`integrate` opens one for its call tree when given none: each reweight
normalizer is integrated once, and each stack and split built once.
"""
from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from . import measures as M
from .builtins import EvalError
from .runtime import apply_value, compile_array_fn, compile_fn, VClosure, VInj, value_coords
from .terms import (
    Case,
    Fst,
    IntersectT,
    Lam,
    Let,
    Pair,
    ProdT,
    PullbackT,
    Snd,
    SumT,
    Term,
    Var,
    alpha_equal,
    children,
    contains_comparison,
    free_vars,
    with_children,
)
from .typecheck import Checker, TypeCheckError


class IntegrationError(Exception):
    pass


class UnsupportedDimension(IntegrationError):
    pass


class SideConditionError(IntegrationError):
    """The reweight normalizer is outside (0, inf)."""

    def __init__(self, value: float):
        super().__init__(f"reweight normalizer {value!r} is not in (0, inf)")
        self.value = value


@dataclass
class QuadSettings:
    abs_tol: float = 1e-9
    rel_tol: float = 1e-9


DEFAULT_SETTINGS = QuadSettings()
#: a gaussian is integrated over its mean ± this many standard deviations
GAUSSIAN_CUT = 10.0
#: a gamma is integrated up to the quantile that leaves this upper tail mass
GAMMA_TAIL = 1e-12
#: subintervals one adaptive integral may use (QUADPACK's `limit`)
QUAD_LIMIT = 400
#: integrand nodes one integral may evaluate, over all of its rows and axes
NODE_BUDGET = 50_000_000


# ---------------------------------------------------------------------------
# Term functions on values
# ---------------------------------------------------------------------------


def term_fn(fn: Term) -> Callable:
    """Scalar application of a closed function term to a runtime value.

    This is the generated function itself; a body that does not compile
    gets a function that raises `apply_value`'s EvalError when applied.
    """
    if not isinstance(fn, Lam):
        raise IntegrationError(f"measure function {fn!r} is not a lambda")
    clo = VClosure(fn.params, fn.body, {})
    return compile_fn(clo) or (lambda v: apply_value(clo, v))


# ---------------------------------------------------------------------------
# Discrete reduction
# ---------------------------------------------------------------------------


def _value_key(v):
    if isinstance(v, bool):
        return ("b", v)
    if isinstance(v, (int, float)):
        return ("f", float(v))
    if isinstance(v, tuple):
        return ("t",) + tuple(_value_key(x) for x in v)
    if isinstance(v, VInj):
        return ("i", v.index, _value_key(v.value))
    raise IntegrationError(f"atom {v!r} has no key")


def reduce_discrete(m: M.MeasureExpr) -> Optional[M.FiniteDiscrete]:
    """Exact atom form of a finitely supported measure, or None."""
    atoms = _reduce(m)
    if atoms is None:
        return None
    merged: dict = {}
    order: list = []
    for value, mass in atoms:
        key = _value_key(value)
        if key not in merged:
            merged[key] = [value, 0.0]
            order.append(key)
        merged[key][1] += mass
    out = tuple((merged[k][0], merged[k][1]) for k in order)
    return M.FiniteDiscrete(out)


def _reduce(m: M.MeasureExpr) -> Optional[list]:
    match m:
        case M.Dirac(point):
            return [(point, 1.0)]
        case M.Bernoulli(p):
            return [(True, p), (False, 1.0 - p)]
        case M.FiniteDiscrete(atoms):
            return list(atoms)
        case M.PowerM():
            return _reduce(M.expand_power(m))
        case M.ProductM(left, right):
            la, ra = _reduce(left), _reduce(right)
            if la is None or ra is None:
                return None
            return [((lv, rv), lm * rm) for lv, lm in la for rv, rm in ra]
        case M.PushforwardM(fn, base):
            atoms = _reduce(base)
            if atoms is None:
                return None
            f = term_fn(fn)
            return [(f(v), mass) for v, mass in atoms]
        case M.ReweightM(fn, base):
            atoms = _reduce(base)
            if atoms is None:
                return None
            f = term_fn(fn)
            weighted = [(v, mass * float(f(v))) for v, mass in atoms]
            total = sum(mass for _, mass in weighted)
            if not (total > 0.0 and math.isfinite(total)):
                raise SideConditionError(total)
            return [(v, mass / total) for v, mass in weighted]
        case _:
            return None


# ---------------------------------------------------------------------------
# Continuous building blocks
# ---------------------------------------------------------------------------


@dataclass
class _Density1D:
    lo: float
    hi: float
    #: the density on an array of points inside (lo, hi)
    pdfs: Callable[[np.ndarray], np.ndarray]
    breakpoints: tuple[float, ...] = ()


@dataclass
class _Atoms:
    """A finitely supported factor: its atoms' values as nested arrays
    (`_node_arrays`) and their masses.  On an integration axis its
    coordinate is the index of an atom."""

    values: object
    masses: np.ndarray


def gamma_cutoff(shape: float, scale: float) -> float:
    """The upper end of a gamma density's integration range: its quantile
    p = 1 - GAMMA_TAIL, the x where Q(shape, x) = 1 - p, times the scale, as
    scipy.stats.gamma.ppf(p, shape, scale=scale) defines it.

    Newton's method on log Q (`_log_upper_gamma`) from a bracket found by
    doubling, kept inside the bracket by bisection, until a step no longer
    moves x or the bracket is two adjacent floats."""
    # the tail of the float p = 1 - GAMMA_TAIL, which gamma.ppf(p) solves for
    log_tail = math.log(1.0 - (1.0 - GAMMA_TAIL))
    lo, hi = 0.0, shape + 1.0
    while _log_upper_gamma(shape, hi)[0] > log_tail:
        lo, hi = hi, 2.0 * hi
    x = hi
    while True:
        log_q, front = _log_upper_gamma(shape, x)
        f = log_q - log_tail
        if f == 0.0:
            break
        if f > 0.0:
            lo = x
        else:
            hi = x
        # d log Q / dx = -x^(a-1) e^-x / (Gamma(a) Q)
        step = x + f * x * math.exp(log_q - front)
        if step == x:
            break
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
            if not lo < step < hi:
                break
        x = step
    return x * scale


#: Stirling's series for log Gamma(a) - ((a - 1/2) log a - a + log sqrt(2 pi)),
#: in powers of 1/a^2; seven terms reach double precision from a = 10
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


def _log_gamma_front(a: float, x: float) -> float:
    """log(x^a e^-x / Gamma(a)).  From a = 10 on, it is taken in terms of
    t = x / a - 1 and Stirling's series, whose terms are small: the plain
    a log x - x - log Gamma(a) cancels terms near a log a, and moved the
    cut-off by up to 21 ulp at a = 1e4."""
    if a < 10.0:
        return a * math.log(x) - x - math.lgamma(a)
    t = (x - a) / a
    series = 0.0
    for c in reversed(_STIRLING):
        series = series / (a * a) + c
    return -a * (t - math.log1p(t)) + 0.5 * math.log(a / (2.0 * math.pi)) - series / a


def _log_upper_gamma(a: float, x: float) -> tuple[float, float]:
    """(log Q(a, x), `_log_gamma_front(a, x)`), where Q is the regularized
    upper incomplete gamma function: below x = a + 1 by the series of
    P = 1 - Q, above it by Q's continued fraction, evaluated by the modified
    Lentz method (Numerical Recipes, 3rd ed., section 6.2)."""
    front = _log_gamma_front(a, x)
    if x < a + 1.0:
        term = total = 1.0 / a
        n = a
        while term > total * sys.float_info.epsilon:
            n += 1.0
            term *= x / n
            total += term
        return math.log1p(-math.exp(front) * total), front
    tiny = sys.float_info.min
    b = x + 1.0 - a
    c, d = 1.0 / tiny, 1.0 / b
    h, i = d, 0
    while True:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = b + an / c
        c = c if abs(c) > tiny else tiny
        h *= d * c
        if abs(d * c - 1.0) <= sys.float_info.epsilon:
            return front + math.log(h), front


def _density_of(m: M.MeasureExpr) -> Optional[_Density1D]:
    match m:
        case M.UniformM(a, b):
            h = 1.0 / (b - a)
            return _Density1D(a, b, lambda x: np.full(np.shape(x), h))
        case M.TriangularM(a, b):
            mid = (a + b) / 2.0
            peak = 2.0 / (b - a)

            def pdfs(x):
                return peak * (1.0 - np.abs(x - mid) / ((b - a) / 2.0))

            return _Density1D(a, b, pdfs, (mid,))
        case M.GaussianM(mean, std):
            lo = mean - GAUSSIAN_CUT * std
            hi = mean + GAUSSIAN_CUT * std
            norm = 1.0 / (std * math.sqrt(2.0 * math.pi))

            def pdfs(x):
                z = (x - mean) / std
                return norm * np.exp(-0.5 * z * z)

            return _Density1D(lo, hi, pdfs)
        case M.GammaM(shape, scale):
            hi = gamma_cutoff(shape, scale)
            lognorm = shape * math.log(scale) + math.lgamma(shape)
            return _Density1D(
                0.0, hi, lambda x: np.exp((shape - 1.0) * np.log(x) - x / scale - lognorm)
            )
        case _:
            return None


def cont_dim(m: M.MeasureExpr) -> int:
    """Continuous coordinates to be integrated numerically."""
    match m:
        case M.Dirac() | M.Bernoulli() | M.FiniteDiscrete():
            return 0
        case M.ProductM(left, right):
            return cont_dim(left) + cont_dim(right)
        case M.PowerM(base, k):
            return cont_dim(base) * k
        case M.PushforwardM(_, base) | M.ReweightM(_, base):
            return cont_dim(base)
        case _:  # a density
            return 1


# ---------------------------------------------------------------------------
# Integration
# ---------------------------------------------------------------------------


def integrate(
    m: M.MeasureExpr,
    g: Callable,
    settings: QuadSettings = DEFAULT_SETTINGS,
    cache: Optional[dict] = None,
) -> float:
    """The pairing of the measure with g: a test function (`TestFn`), a
    closed function term, or a callable on runtime values.

    g gets runtime values of the measure's payload (floats, Booleans,
    injections, pairs), which test functions read as their coordinates
    (`runtime.value_coords`).  A finitely supported measure is summed
    exactly.  A test function with factors over a measure of several parts
    (`_parts`) is the product of the parts' integrals of its factors
    (`_part_fn`); any other integral runs on m's stack (`_array_integral`).
    Callers that integrate one measure against many functions pass the same
    `cache` dict (empty at first) to each call, so that each reweight
    normalizer is integrated once and each stack and split built once;
    without one, the call opens one for its own call tree.
    """
    disc = reduce_discrete(m)
    if disc is not None:
        f = term_fn(g) if isinstance(g, Term) else g
        return math.fsum(mass * float(f(v)) for v, mass in disc.atoms)
    dim = cont_dim(m)
    if dim > 3:
        raise UnsupportedDimension(f"continuous dimension {dim} exceeds 3")
    cache = {} if cache is None else cache
    parts = _parts(m, cache) if isinstance(g, TestFn) and g.factors is not None else None
    if parts is not None and all(j < parts[-1][2] for j, _ in g.factors):
        fns = [(part, _part_fn(g.factors, lo, hi)) for part, lo, hi in parts]
        return math.prod(integrate(part, f, settings, cache) for part, f in fns)
    return _array_integral(m, g, settings, cache)


def normalizer(
    fn: Term, base: M.MeasureExpr, settings: QuadSettings = DEFAULT_SETTINGS, cache=None
) -> float:
    """The integral of fn over base (`integrate`), the normalizer of
    reweight(fn, base).  Raises SideConditionError unless it is in (0, inf).
    It is looked up in `cache`, or computed and added to it under the
    identities of fn, base and settings, which the entry keeps alive so that
    no other object can take their ids.
    """
    if cache is None:
        cache = {}
    key = (id(fn), id(base), id(settings))
    if key in cache:
        return cache[key][0]
    value = integrate(base, fn, settings, cache=cache)
    if not (value > 0.0 and math.isfinite(value)):
        raise SideConditionError(value)
    cache[key] = (value, fn, base, settings)
    return value


def _parts(m, cache: dict) -> Optional[list]:
    """(part, lo, hi) for each of m's parts (`_split`), which holds m's
    coordinates lo to hi - 1, or None where m is one part or probing
    (`support_box`) cannot count a part's coordinates.  Cached under the
    identity of m, which the entry keeps alive, so that the other caches
    see each part as one measure."""
    key = ("parts", id(m))
    if key not in cache:
        parts, ranges = _split(m), None
        try:
            widths = [len(support_box(part)) for part in parts] if len(parts) > 1 else [0]
        except (IntegrationError, EvalError):
            widths = [0]
        if min(widths) > 0:
            edges = np.cumsum([0, *widths]).tolist()
            ranges = list(zip(parts, edges[:-1], edges[1:]))
        cache[key] = (ranges, m)
    return cache[key][0]


def _split(m) -> list:
    """m as independent measures whose points, in order, hold m's
    coordinates: a product's factors, and a pushforward of left * right by
    a function that splits (`_halves`) as the pushforwards of left and of
    right by its halves, each split again."""
    match m:
        case M.ProductM(left, right):
            return _split(left) + _split(right)
        case M.PowerM():
            return _split(M.expand_power(m))
        case M.PushforwardM(fn, base):
            base, halves = M.expand_power(base), _halves(fn)
            if isinstance(base, M.ProductM) and halves is not None:
                left, right = (M.PushforwardM(f, b) for f, b in zip(halves, (base.left, base.right)))
                return _split(left) + _split(right)
    return [m]


def _halves(fn: Term) -> Optional[tuple[Lam, Lam]]:
    """fun w => L and fun w => R for fn = fun w => (L, R), where L reads w
    only as fst(w) and R only as snd(w), with those reads made w; else
    None."""
    if not (isinstance(fn, Lam) and len(fn.params) == 1 and isinstance(fn.body, Pair)):
        return None
    [(w, ty)] = fn.params
    left, right = _unproject(fn.body.left, w, Fst), _unproject(fn.body.right, w, Snd)
    if left is None or right is None:
        return None
    tys = (ty.left, ty.right) if isinstance(ty, ProdT) else (None, None)
    return Lam(((w, tys[0]),), left, pos=fn.pos), Lam(((w, tys[1]),), right, pos=fn.pos)


def _unproject(t: Term, w: str, proj: type) -> Optional[Term]:
    """t with each proj(w) made w, or None where t reads w in another way,
    or binds w again in a subterm where it is free."""
    if w not in free_vars(t):
        return t
    match t:
        case Fst(Var(name)) | Snd(Var(name)) if name == w:
            return Var(w, pos=t.body.pos) if isinstance(t, proj) else None
        case Var():
            return None
        case Let(name) if name == w:
            return None
        case Case(_, branches) if any(binder == w for binder, _ in branches):
            return None
    kids = [_unproject(kid, w, proj) for kid in children(t)]
    return None if any(kid is None for kid in kids) else with_children(t, kids)


def _part_fn(factors, lo: int, hi: int) -> "TestFn":
    """The product of the factors on coordinates lo to hi - 1, as a test
    function of those coordinates with no stated Lipschitz constant, or 1
    (`_ONE`) where there are none."""
    own = [(j - lo, f) for j, f in factors if lo <= j < hi]
    if not own:
        return _ONE
    product = lambda cols: math.prod(f.cols_fn([cols[j]]) for j, f in own)  # noqa: E731
    bound, breakpoints = math.prod(f.bound for _, f in own), sum((f.breakpoints for _, f in own), ())
    return TestFn("*".join(f.name for _, f in own), product, bound, math.inf, breakpoints)


# ---------------------------------------------------------------------------
# The measure stack and batched Gauss-Kronrod
# ---------------------------------------------------------------------------


@dataclass
class _Stack:
    """Pushforwards and reweights, innermost first, each with its function
    on nested arrays, over a base."""

    base: object
    layers: list[tuple[Callable, M.MeasureExpr]]


def _stack(m, cache: dict):
    """m as a tree (`_tree`).  Cached under the identity of m, which the
    entry keeps alive."""
    key = ("stack", id(m))
    if key not in cache:
        cache[key] = (_tree(m), m)
    return cache[key][0]


def _tree(m):
    """m as a density, a finitely supported measure (`_Atoms`), a pair of
    trees for a product, or a `_Stack` over a tree."""
    disc = reduce_discrete(m)
    if disc is not None:
        values = _node_arrays([v for v, _ in disc.atoms], (len(disc.atoms),))
        return _Atoms(values, np.array([mass for _, mass in disc.atoms]))
    match m:
        case M.ProductM(left, right):
            return (_tree(left), _tree(right))
        case M.PowerM():
            return _tree(M.expand_power(m))
        case M.PushforwardM() | M.ReweightM():
            layers = []
            while isinstance(m, (M.PushforwardM, M.ReweightM)):
                layers.append((_layer_fn(m.fn), m))
                m = m.base
            return _Stack(_tree(m), layers[::-1])
    density = _density_of(m)
    if density is None:
        raise IntegrationError(f"cannot integrate {m!r}")
    return density


def _axes(tree) -> list:
    """The densities and finitely supported measures of a tree, in order:
    one integration axis each."""
    if isinstance(tree, tuple):
        return [a for part in tree for a in _axes(part)]
    if isinstance(tree, _Stack):
        return _axes(tree.base)
    return [tree]


def _layer_fn(fn: Term) -> Callable:
    """fn's array function, with fault masks; where array mode refuses fn,
    its scalar function node by node (`_per_node`)."""
    return compile_array_fn(fn) or _per_node(term_fn(fn))


def _array_values(g) -> Callable:
    """`values(point, cols)`: g, a test function (on `cols`, the point's
    coordinates), a function term (`_layer_fn`) or a callable on runtime
    values (`_per_node`), on the point's nested arrays."""
    if isinstance(g, TestFn):
        return lambda _point, cols: g.cols_fn(cols)
    f = _layer_fn(g) if isinstance(g, Term) else _per_node(g)
    return lambda point, _cols: f(point)


def _walk(node, coords, weights, settings, cache: dict, scalar: bool = False):
    """(point, weights) of a tree (`_tree`) at the coordinates that the
    iterator `coords` gives, one per axis (`_axes`), with the weights
    pushed through it.  A finitely supported measure's coordinate indexes
    its atoms, and a product pairs the points of its factors.  Each
    pushforward maps the point by its function, and each reweight multiplies
    the weights by its function's values and divides by its `normalizer`.
    Each function is evaluated once: its array function, or with `scalar`
    its scalar function node by node."""
    if isinstance(node, tuple):
        left, weights = _walk(node[0], coords, weights, settings, cache, scalar)
        right, weights = _walk(node[1], coords, weights, settings, cache, scalar)
        return (left, right), weights
    if not isinstance(node, _Stack):
        c = next(coords)
        return (_take(node.values, c) if isinstance(node, _Atoms) else c), weights
    point, weights = _walk(node.base, coords, weights, settings, cache, scalar)
    for f, layer in node.layers:
        values = _per_node(term_fn(layer.fn))(point) if scalar else f(point)
        if isinstance(layer, M.PushforwardM):
            point = values
        else:
            weights = weights * values / normalizer(layer.fn, layer.base, settings, cache)
    return point, weights


def _check_finite(arrays, coords, shape, fault: Callable) -> None:
    """At the first node of `shape`, in node order, where one of the arrays
    (each broadcast to `shape`) is not finite, call `fault` with that
    node's coordinates, one one-element array per axis of `coords`."""
    bad = np.zeros(shape, dtype=bool)
    for a in arrays:
        bad |= ~np.isfinite(a)
    if bad.any():
        k = np.flatnonzero(bad)[0]
        fault([np.broadcast_to(c, shape).ravel()[k:k + 1] for c in coords])


def _array_integral(m, g, settings, cache: dict) -> float:
    """The integral over m, which is not finitely supported, of g, a test
    function, a function term or a callable on runtime values, on m's axes
    (`_adaptive`), split at a test function's breakpoints and at the jumps
    of a function term placed by its type (`_jumps`).  At the first node
    where a coordinate, a weight or a value is not finite, m's and g's
    scalar functions run (`_raise_at`).  numpy's warnings are off: an `if`
    computes both branches, and a domain error in the one not taken is no
    fault.  An integral split at jumps that meets a fault runs again without
    them, and faults as it would have."""
    tree = _stack(m, cache)
    # the breakpoints of g reach only a density at the top of m
    breakpoints = g.breakpoints if isinstance(g, TestFn) and isinstance(tree, _Density1D) else ()
    jumps = _jumps(g, tree) if isinstance(g, Term) else ([], [])
    fault = lambda node: _raise_at(m, g, node, settings, cache)  # noqa: E731
    with np.errstate(all="ignore"):
        values = _array_values(g)
        if any(jumps):
            try:
                return _adaptive(tree, values, settings, breakpoints, cache, _jump_fault, jumps)
            except _JumpFault:
                pass  # raised below where the rule without the jumps meets it first
        return _adaptive(tree, values, settings, breakpoints, cache, fault)


class _JumpFault(Exception):
    """A fault in an integral split at its jumps, which runs again without
    them, so that the node it names does not depend on the jumps."""


def _jump_fault(_node):
    raise _JumpFault


def _raise_at(m, g, node: list, settings, cache: dict):
    """Run m's and g's scalar functions at a node, one one-element array per
    axis: an EvalError propagates, else IntegrationError names the point."""
    point, _ = _walk(_stack(m, cache), iter(node), np.ones(1), settings, cache, scalar=True)
    _per_node(term_fn(g) if isinstance(g, Term) else g)(point)
    value = _node_values(point, (1,))[0]
    raise IntegrationError(f"integrand or weight not finite at the point {value!r}")


def _adaptive(tree, values, settings, breakpoints, cache, fault, jumps=([], [])) -> float:
    """The integral of `values` over the tree's measure, iterated over its
    axes (`_axes`): a density by batched adaptive Gauss-Kronrod (`_gk21`),
    a finitely supported measure by the sum over its atoms.

    The outer axis is one integral.  Each batch of its nodes is a batch of
    rows of the next axis, one row per node, and the innermost axis
    evaluates the tree (`_walk`) and the integrand once per batch for all
    of its rows.  Its weights start as its density or masses; each outer
    axis multiplies the row integrals at its nodes by its own.  The
    innermost axis counts the nodes it evaluates, and past `NODE_BUDGET` of
    them raises IntegrationError, naming the ranges of the axes.  `fault`
    gets the coordinates of the first node, in node order, where a point
    coordinate or a weight is not finite, or else where an integrand value
    times its weight is not (`_check_finite`).

    `jumps` are the integrand's comparisons over a product of densities
    (`_jumps`): those that read only the innermost axis, whose crossings
    (`_crossings`) are found once and split every row there, and the
    others, whose crossings are found for each batch of rows at once and
    split each row at its own.
    """
    axes = _axes(tree)
    last = len(axes) - 1
    nodes = 0
    shared, per_row = jumps
    point_at = lambda coords: _walk(tree, iter(coords), None, settings, cache)[0]  # noqa: E731
    inner_points = ()
    if shared:
        # the outer coordinates are not read: any inside their axes will do
        outer = [np.array([0.5 * (d.lo + d.hi)]) for d in axes[:-1]]
        inner_points = tuple(_crossings(shared, point_at, outer, axes[-1])[1].tolist())

    def axis(i: int, outer: list) -> np.ndarray:
        d = axes[i]
        rows = len(outer[0]) if outer else 1

        def f(row, x):
            nonlocal nodes
            coords = [c[row][:, None] for c in outer] + [x]
            w = d.masses[x] if isinstance(d, _Atoms) else d.pdfs(x)
            if i < last:
                inner = axis(i + 1, [np.broadcast_to(c, x.shape).ravel() for c in coords])
                return w * inner.reshape(x.shape)
            nodes += x.size
            if nodes > NODE_BUDGET:
                box = " x ".join(
                    f"[{a.lo:g}, {a.hi:g}]" if isinstance(a, _Density1D) else f"{len(a.masses)} atoms"
                    for a in axes
                )
                raise IntegrationError(
                    f"the integral over {box} needs more than {NODE_BUDGET:,} integrand nodes"
                )
            point, weights = _walk(tree, iter(coords), w, settings, cache)
            cols = _flatten_array_point(point, x.shape)
            _check_finite([*cols, weights], coords, x.shape, fault)
            fx = values(point, cols) * weights
            _check_finite([fx], coords, x.shape, fault)
            return fx

        if isinstance(d, _Atoms):
            atoms = np.arange(len(d.masses))
            return f(np.arange(rows), np.broadcast_to(atoms, (rows, len(atoms)))).sum(axis=1)
        points, row_points = (*d.breakpoints, *breakpoints), None
        if i == last:
            points = (*points, *inner_points)
            row_points = _crossings(per_row, point_at, outer, d) if per_row else None
        return _gk21(f, rows, d.lo, d.hi, points, settings, row_points)

    return float(axis(0, [])[0])


#: cells across an axis in which an integrand's comparisons are probed for a
#: change of sign (`_crossings`)
_JUMP_PROBES = 64
#: the most halvings of a probe cell: 64 leave a bracket narrower than the
#: spacing of floats at any crossing farther than 2^-12 cells from zero
_BISECTIONS = 64


def _jumps(fn, tree) -> tuple[list, list]:
    """The comparisons at which fn, a function term whose body has one
    (`contains_comparison`), may jump over a tree that is a product of
    densities, as the checker places them: each pair of sides of the
    inverse-image types of fn's domain (`typecheck.Checker`), once, as an
    array function of fn's point to the pair.  They come as (those that read
    only the innermost axis, the others; `_pair_reads`); a pair that does
    not read it cannot change sign along it and is left out.  There are none
    where the tree has a stack or atoms, a parameter's type is `_`, the
    checker refuses fn, or a pair reads a name that is not a parameter;
    array mode may refuse a pair, which is then left out."""
    if not (isinstance(fn, Lam) and contains_comparison(fn.body)):
        return [], []
    if any(ty is None for _, ty in fn.params):
        return [], []
    nests = _param_nests(fn.params, _nest(tree, itertools.count()))
    if nests is None:
        return [], []
    try:
        ty, _ = Checker({}).infer(fn)
    except TypeCheckError:
        return [], []
    last = len(_axes(tree)) - 1
    shared, per_row, seen = [], [], []
    for t in _pullback_pairs(ty.dom):
        if not free_vars(t) <= nests.keys() or any(alpha_equal(t, s) for s in seen):
            continue
        seen.append(t)
        reads = _pair_reads(t, nests)
        pair = compile_array_fn(Lam(fn.params, t, pos=fn.pos)) if last in reads else None
        if pair is not None:
            (shared if reads == {last} else per_row).append(pair)
    return shared, per_row


def _nest(tree, index):
    """The axis numbers of a product of densities, nested as its points
    are, taken from the iterator `index`; None where the tree has a stack
    or atoms."""
    if isinstance(tree, tuple):
        parts = tuple(_nest(part, index) for part in tree)
        return None if None in parts else parts
    return next(index) if isinstance(tree, _Density1D) else None


def _param_nests(params, nest) -> Optional[dict]:
    """The nested axes of each parameter of a lambda, where its point has
    the nested axes `nest`: a group of several takes the right-nested parts
    of the point in turn; None where they do not fit it."""
    if nest is None:
        return None
    nests = {}
    for k, (name, _) in enumerate(params):
        part = nest
        if k < len(params) - 1:
            if not isinstance(nest, tuple):
                return None
            part, nest = nest
        nests[name] = part
    return nests


def _pair_reads(t: Term, nests: dict) -> set:
    """The axes t reads of the parameters with the nested axes `nests`: fst
    or snd of a parameter, or of its projection, reads that part, and any
    other use all of it.  A name bound again in t counts as the parameter,
    which can only add axes."""
    projections, inner = [], t
    while isinstance(inner, (Fst, Snd)):
        projections.append(inner)
        inner = inner.body
    if isinstance(inner, Var) and inner.name in nests:
        part = nests[inner.name]
        for proj in reversed(projections):
            if not isinstance(part, tuple):
                break
            part = part[0] if isinstance(proj, Fst) else part[1]
        return set(_leaves(part))
    return set().union(*(_pair_reads(kid, nests) for kid in children(t)))


def _pullback_pairs(ty) -> list:
    """The pair terms of the inverse-image types in a domain type."""
    match ty:
        case PullbackT(_, t):
            return [t]
        case SumT(summands):
            return [t for s in summands for t in _pullback_pairs(s)]
        case IntersectT(left, right):
            return _pullback_pairs(left) + _pullback_pairs(right)
    return []


def _crossings(pairs, point_at, outer: list, d: _Density1D) -> tuple[np.ndarray, np.ndarray]:
    """(row, x): where the two sides a and b of each pair cross on d's axis,
    at each row's outer coordinates (`outer`, one array per outer axis).

    a - b is probed at `_JUMP_PROBES` + 1 evenly spaced points across the
    axis, for every row at once; each change of sign between two finite
    values is a bracket, and all brackets of a pair are bisected together
    until each midpoint equals an end, which places the crossing to the
    spacing of floats there (or for at most `_BISECTIONS` halvings, next to
    zero, where floats are denser).  G10/K21 never evaluates an interval's ends,
    so a breakpoint off its jump would hide the jump from the error
    estimate.  A crossing the probes miss (two in one cell, or next to a
    side that is not finite) is left to the adaptive bisection."""
    rows = len(outer[0]) if outer else 1
    xs = np.linspace(d.lo, d.hi, _JUMP_PROBES + 1)
    found_rows, found_xs = [np.empty(0, dtype=int)], [np.empty(0)]
    for pair in pairs:
        diff = _side_difference(pair, point_at, [c[:, None] for c in outer] + [xs])
        diff = np.broadcast_to(diff, (rows, len(xs)))
        above, finite = diff > 0, np.isfinite(diff)
        r, k = np.nonzero(finite[:, :-1] & finite[:, 1:] & (above[:, :-1] != above[:, 1:]))
        lo, hi, left, cols = xs[k], xs[k + 1], above[r, k], [c[r] for c in outer]
        for _ in range(_BISECTIONS):
            mid = 0.5 * (lo + hi)
            open_ = (lo < mid) & (mid < hi)
            if not open_.any():
                break
            same = (_side_difference(pair, point_at, cols + [mid]) > 0) == left
            lo, hi = np.where(open_ & same, mid, lo), np.where(open_ & ~same, mid, hi)
        found_rows.append(r)
        found_xs.append(lo)
    return np.concatenate(found_rows), np.concatenate(found_xs)


def _side_difference(pair, point_at, coords) -> np.ndarray:
    """a - b for the pair (a, b) of sides at the point of the coordinates."""
    a, b = pair(point_at(coords))
    return np.subtract(a, b, dtype=np.float64)


# QUADPACK's 21-point Gauss-Kronrod rule (qk21): the nonnegative Kronrod
# nodes on [-1, 1] in descending order, their weights, and the weights of
# the 10-point Gauss rule, whose nodes are every other Kronrod node
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208292238300, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
#: the 21 nodes in ascending order, and the Kronrod and Gauss weights on them
_GK_NODES = np.array([-x for x in _XGK[:10]] + list(_XGK[::-1]))
_GK_KRONROD = np.array(_WGK[:10] + _WGK[::-1])
_GK_GAUSS = np.zeros(21)
_GK_GAUSS[1:10:2] = _WG
_GK_GAUSS[19:10:-2] = _WG
_EPS = np.finfo(float).eps


def _gk21(f, rows: int, lo: float, hi: float, points, settings, row_points=None) -> np.ndarray:
    """The integrals over [lo, hi] of `rows` integrands, by QUADPACK's
    adaptive G10/K21 bisection vectorized over every open interval.

    `f(row, x)` gets the row of each interval and its 21 nodes, shape
    (intervals, 21), and returns the values there.  Each row starts from
    [lo, hi] split at `points`, shared by every row, and at its own
    breakpoints among `row_points`, a pair of arrays (row, x).  Each row
    converges on its own: its error estimate (qk21's) summed over its
    intervals must reach max(abs_tol, rel_tol * |integral|).  Until it
    does, each iteration bisects every interval of the row whose error
    exceeds the row's tolerance shared evenly among its intervals.  Raises
    IntegrationError where an interval's integral or error is not finite,
    or where a row would need more than `QUAD_LIMIT` intervals.
    """
    edges = np.array([lo, *sorted({p for p in points if lo < p < hi}), hi], dtype=float)
    row, x = np.repeat(np.arange(rows), len(edges)), np.tile(edges, rows)
    if row_points is not None:
        r, p = row_points
        inside = (lo < p) & (p < hi)
        row, x = np.concatenate((row, r[inside])), np.concatenate((x, p[inside]))
        order = np.lexsort((x, row))
        row, x = row[order], x[order]
    # consecutive edges of a row bound an interval, unless they are equal
    edge = (row[1:] == row[:-1]) & (x[1:] > x[:-1])
    row, a, b = row[:-1][edge], x[:-1][edge], x[1:][edge]
    result = np.zeros(rows)
    old = (np.empty(0, dtype=int), np.empty(0), np.empty(0), np.empty(0), np.empty(0))
    while True:
        centre, half = 0.5 * (a + b), 0.5 * (b - a)
        fx = f(row, centre[:, None] + half[:, None] * _GK_NODES)
        val, err = _qk21_sums(fx, half)
        if not (np.isfinite(val).all() and np.isfinite(err).all()):
            raise IntegrationError(f"an integral over [{lo:g}, {hi:g}] is not finite")
        row, a, b, val, err = (np.concatenate(p) for p in zip(old, (row, a, b, val, err)))
        total = np.bincount(row, val, rows)
        error = np.bincount(row, err, rows)
        count = np.bincount(row, minlength=rows)
        tol = np.maximum(settings.abs_tol, settings.rel_tol * np.abs(total))
        done = (count > 0) & (error <= tol)
        result[done] = total[done]
        open_ = ~done[row]
        if not open_.any():
            return result
        row, a, b, val, err = row[open_], a[open_], b[open_], val[open_], err[open_]
        split = err > tol[row] / count[row]
        over = count + np.bincount(row[split], minlength=rows) > QUAD_LIMIT
        if over.any():
            r = np.argmax(over)
            raise IntegrationError(
                f"the integral over [{lo:g}, {hi:g}] does not converge within {QUAD_LIMIT} "
                f"subintervals: error estimate {error[r]:.3g}, tolerance {tol[r]:.3g}"
            )
        keep = ~split
        old = (row[keep], a[keep], b[keep], val[keep], err[keep])
        mid = 0.5 * (a[split] + b[split])
        row = np.tile(row[split], 2)
        a, b = np.concatenate((a[split], mid)), np.concatenate((mid, b[split]))


def _qk21_sums(fx: np.ndarray, half: np.ndarray) -> tuple:
    """The G10/K21 integrals of each row of fx, the values at the nodes of
    intervals of half-width `half`, with QUADPACK's error estimate."""
    resk = fx @ _GK_KRONROD
    resg = fx @ _GK_GAUSS
    resabs = np.abs(fx) @ _GK_KRONROD * np.abs(half)
    resasc = np.abs(fx - 0.5 * resk[:, None]) @ _GK_KRONROD * np.abs(half)
    err = np.abs((resk - resg) * half)
    scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
    return resk * half, np.maximum(50.0 * _EPS * resabs, err)


def _flatten_array_point(point, shape) -> list[np.ndarray]:
    """The coordinates of nested arrays as float arrays broadcast to
    `shape`: pairs flatten, Booleans are 1.0/0.0, and an object array (of
    injections) is read node by node (`runtime.value_coords`)."""
    if isinstance(point, tuple):
        return [c for part in point for c in _flatten_array_point(part, shape)]
    if np.asarray(point).dtype != object:
        return [np.broadcast_to(np.asarray(point, dtype=np.float64), shape)]
    flats = [value_coords(v) for v in np.broadcast_to(point, shape).ravel().tolist()]
    if len(set(map(len, flats))) > 1:
        raise IntegrationError("the points of an integral differ in their number of coordinates")
    return [np.array(col, dtype=np.float64).reshape(shape) for col in zip(*flats)]


def _per_node(f: Callable) -> Callable:
    """f, a function on runtime values, on nested arrays: it runs at each
    node of their broadcast shape in node order, so that the first node
    where it raises raises, and its values come back as nested arrays."""

    def on_nodes(point):
        shape = np.broadcast_shapes(*map(np.shape, _leaves(point)))
        return _node_arrays([f(v) for v in _node_values(point, shape)], shape)

    return on_nodes


def _leaves(point) -> list:
    if isinstance(point, tuple):
        return [leaf for part in point for leaf in _leaves(part)]
    return [point]


def _node_values(point, shape) -> list:
    """The runtime value at each node of `shape`, in node order, of nested
    arrays that broadcast to it: Python floats and Booleans, pairs, and the
    objects an object array holds."""
    if isinstance(point, tuple):
        return list(zip(*(_node_values(part, shape) for part in point)))
    return np.broadcast_to(point, shape).ravel().tolist()


def _node_arrays(values: list, shape):
    """Runtime values, one per node of `shape` in node order, as nested
    arrays: pairs split into their parts, Booleans make a bool array, other
    numbers a float array, and other values (injections) an object array."""
    if values and all(type(v) is tuple and len(v) == 2 for v in values):
        return tuple(_node_arrays([v[i] for v in values], shape) for i in (0, 1))
    kinds = set(map(type, values))
    numbers = all(issubclass(k, (int, float, np.number)) for k in kinds)
    dtype = bool if kinds == {bool} else np.float64 if numbers else object
    return np.fromiter(values, dtype=dtype, count=len(values)).reshape(shape)


def _take(arrays, index):
    """Nested arrays at an index array."""
    if isinstance(arrays, tuple):
        return tuple(_take(part, index) for part in arrays)
    return arrays[index]


# ---------------------------------------------------------------------------
# Support boxes and test-function families
# ---------------------------------------------------------------------------


def support_box(m: M.MeasureExpr) -> list[tuple[float, float]]:
    """Approximate per-coordinate supports, used to place test functions.
    A pushforward's is the box around its probe points (`_probe_points`)."""
    match m:
        case M.Dirac(point):
            return [(x - 1.0, x + 1.0) for x in value_coords(point)]
        case M.Bernoulli():
            return [(0.0, 1.0)]
        case M.UniformM(a, b) | M.TriangularM(a, b):
            return [(a, b)]
        case M.GaussianM(mean, std):
            return [(mean - 4 * std, mean + 4 * std)]
        case M.GammaM(shape, scale):
            hi = shape * scale + 10.0 * math.sqrt(shape) * scale
            return [(0.0, hi)]
        case M.FiniteDiscrete(atoms):
            return [(lo - 0.5, hi + 0.5) for lo, hi in _hull([v for v, _ in atoms])]
        case M.ProductM(left, right):
            return support_box(left) + support_box(right)
        case M.PowerM(base, k):
            return support_box(base) * k
        case M.ReweightM(_, base):
            return support_box(base)
        case M.PushforwardM():
            points = _probe_points(m)
            if not points:
                raise IntegrationError("pushforward support probe produced no points")
            return _hull(points)
    raise IntegrationError(f"no support box for {m!r}")


def _hull(values: list) -> list[tuple[float, float]]:
    """The smallest box that holds the coordinates of each runtime value."""
    coords = [value_coords(v) for v in values]
    return [(min(xs), max(xs)) for xs in zip(*coords)]


def _probe_points(m: M.MeasureExpr) -> list:
    """Probe points of m, nested as its values are, as `integrate` passes
    them: a product's are the pairs of its factors' points, a reweight's its
    base's, a pushforward's the images of its base's under its scalar
    function (less those where it raises), a discrete measure's its values,
    and a density's 5 evenly spaced floats across its support."""
    match m:
        case M.ProductM(left, right):
            rights = _probe_points(right)
            return [(v, w) for v in _probe_points(left) for w in rights]
        case M.PowerM():
            return _probe_points(M.expand_power(m))
        case M.ReweightM(_, base):
            return _probe_points(base)
        case M.PushforwardM(fn, base):
            f, images = term_fn(fn), []
            for point in _probe_points(base):
                try:
                    images.append(f(point))
                except (EvalError, IntegrationError, ValueError, OverflowError):
                    continue
            return images
    disc = reduce_discrete(m)
    if disc is not None:
        return [v for v, _ in disc.atoms]
    [(lo, hi)] = support_box(m)
    return np.linspace(lo, hi, 5).tolist()


@dataclass(frozen=True)
class TestFn:
    """A test function with its stated bound and Lipschitz constant.

    cols_fn maps a list of coordinate arrays to an array; a call on one
    point applies it to one-element arrays.  `factors`, the (coordinate,
    one-coordinate test function) pairs it is the product of, are () for 1
    and None where not stated.
    """

    __test__ = False  # not a pytest class

    name: str
    cols_fn: Callable  # list of coordinate arrays -> array
    bound: float
    lip: float
    breakpoints: tuple[float, ...] = ()
    factors: Optional[tuple[tuple[int, "TestFn"], ...]] = None

    def __call__(self, point):
        cols = [np.asarray([x]) for x in value_coords(point)]
        return float(self.cols_fn(cols)[0])


#: what a part that a test function does not read is integrated against
_ONE = TestFn("one", lambda cols: np.ones_like(cols[0]), 1.0, 0.0)


@dataclass
class TestFunctionFamily:
    __test__ = False  # not a pytest class

    members: list[TestFn]

    def __iter__(self):
        return iter(self.members)

    def lipschitz_bounded(self, bound: float = 1.0, lip: float = 1.0):
        return [m for m in self.members if m.bound <= bound and m.lip <= lip]


def _scalar_members(lo: float, hi: float) -> list[tuple]:
    """(name, function of one coordinate array, bound, Lipschitz constant,
    breakpoints)."""
    span = max(abs(lo), abs(hi), 1.0)
    out = [
        ("one", lambda x: np.ones_like(x), 1.0, 0.0, ()),
        ("x", lambda x: x, span, 1.0, ()),
        ("x2", lambda x: x * x, span * span, 2 * span, ()),
    ]
    for k in (1, 2, 3):
        out.append((f"cos{k}x", lambda x, _k=k: np.cos(_k * x), 1.0, float(k), ()))
    for i, c in enumerate(np.linspace(lo, hi, 9).tolist()):
        out.append((
            f"ramp{i}",
            lambda x, _c=c: np.clip(4.0 * (x - _c), 0.0, 1.0),
            1.0,
            4.0,
            (c, c + 0.25),
        ))
    out.append(("clamp", lambda x: np.clip(x, -1.0, 1.0), 1.0, 1.0, (-1.0, 1.0)))
    out.append(("vee", lambda x: np.minimum(1.0, np.abs(x)), 1.0, 1.0, (-1.0, 0.0, 1.0)))
    return out


_SLIM = ("one", "x", "x2", "cos1x", "cos2x", "clamp")


def build_family(m: M.MeasureExpr, slim: bool = False) -> TestFunctionFamily:
    """The default family over the measure's support.

    One-dimensional members apply coordinatewise; multi-coordinate payloads
    additionally get coordinate sums and bounded pairwise products so that
    dependence between coordinates is visible.  The slim variant keeps the
    smooth members only, for the looser numeric equality checks inside proof
    verification.  Every member but a coordinate sum states its factors.
    """
    box = support_box(m)
    dims = len(box)
    lo = min(b[0] for b in box)
    hi = max(b[1] for b in box)
    members: list[TestFn] = []
    bounded = []  # the factors of the pairwise products
    for name, fn, bound, lip, brk in _scalar_members(lo, hi):
        if slim and name not in _SLIM:
            continue
        unit = TestFn(name, lambda cols, _f=fn: _f(cols[0]), bound, lip, brk)
        if name == "one" or dims == 1:
            members.append(replace(unit, factors=() if name == "one" else ((0, unit),)))
            continue
        for j in range(dims):
            members.append(TestFn(
                f"{name}[{j}]", lambda cols, _f=fn, _j=j: _f(cols[_j]), bound, lip, brk, ((j, unit),)
            ))
        if not slim:
            members.append(TestFn(
                f"{name}[sum]", lambda cols, _f=fn: sum(_f(c) for c in cols), bound * dims, lip, brk
            ))
        if bound <= 1.0 and name.startswith(("cos", "clamp")):
            bounded.append((unit, fn))
    # bounded pairwise products catch dependence between coordinates
    for i in range(dims):
        for j in range(i + 1, dims):
            for (u1, f1), (u2, f2) in zip(bounded[:2], bounded[1:3]):
                members.append(TestFn(
                    f"{u1.name}[{i}]*{u2.name}[{j}]",
                    lambda cols, _f1=f1, _f2=f2, _i=i, _j=j: _f1(cols[_i]) * _f2(cols[_j]),
                    1.0,
                    3.0,
                    factors=((i, u1), (j, u2)),
                ))
    return TestFunctionFamily(members)


# ---------------------------------------------------------------------------
# Measure equality
# ---------------------------------------------------------------------------


@dataclass
class MeasureEqualReport:
    equal: bool
    mode: str  # 'exact' | 'numeric'
    max_discrepancy: float
    details: list[tuple[str, float]] = field(default_factory=list)


def measure_equal(
    mu: M.MeasureExpr,
    nu: M.MeasureExpr,
    family: Optional[TestFunctionFamily] = None,
    tol: float = 1e-6,
    settings: QuadSettings = DEFAULT_SETTINGS,
) -> MeasureEqualReport:
    """Exact on finitely supported measures, family-discrepancy otherwise."""
    da, db = reduce_discrete(mu), reduce_discrete(nu)
    if da is not None and db is not None:
        amap = {_value_key(v): mass for v, mass in da.atoms}
        bmap = {_value_key(v): mass for v, mass in db.atoms}
        keys = set(amap) | set(bmap)
        worst = max(abs(amap.get(k, 0.0) - bmap.get(k, 0.0)) for k in keys)
        return MeasureEqualReport(worst <= 1e-12, "exact", worst)
    if family is None:
        family = build_family(nu if db is not None or da is None else mu)
    details = []
    cache: dict = {}
    for member in family:
        va = integrate(mu, member, settings, cache)
        vb = integrate(nu, member, settings, cache)
        details.append((member.name, abs(va - vb)))
    # a nan discrepancy fails the comparison and is the worst one shown
    ds = [d for _, d in details]
    return MeasureEqualReport(
        all(d <= tol for d in ds), "numeric", float(np.max(ds, initial=0.0)), details
    )
