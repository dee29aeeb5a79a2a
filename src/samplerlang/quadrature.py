"""Numeric integration of measure expressions against test functions.

Discrete parts are summed exactly.  A continuous measure that is a stack of
pushforwards and reweights over a product of densities, every function of
which `runtime.compile_array_fn` compiles, is integrated on an array path
against a test function (`TestFn`) or a reweight's function term
(`normalizer`).  Both array paths share one walk over the stack (`_walk`):
each pushforward pushes the points through its array function, innermost
first, and each reweight multiplies the weights by its array function and
divides by its normalizer.

- One and two dimensions: batched adaptive Gauss-Kronrod (`_gk21`,
  QUADPACK's G10/K21 bisection with global error control per integral, abs
  and rel tol 1e-9 by default), vectorized over every open interval.  In 2-D
  the inner integrals at each batch of outer nodes are the rows of one
  batched run, each converging on its own.  The functions carry fault
  masks: where a scalar function would raise (a domain error on the branch
  taken), where a value is not finite, or where a row needs more than
  `QUAD_LIMIT` intervals, the integral is recomputed on the scalar path, which
  raises the EvalError with its position, or warns, as it does.
- Three dimensions: a tensorized Gauss-Legendre grid (`_grid`, documented
  accuracy around 1e-4 on smooth-but-singular transforms, which is why the
  numeric measure-equality checks run at looser tolerances), without fault
  masks: a domain error there gives nan or a masked value.

Everything else is iterated scalar `scipy.quad` (`_integrate_iterated`),
which walks the stack with scalar functions: a function that array mode
refuses (an injection, a case on a Boolean parameter), a discrete factor in
a continuous product, a product of stacks, and an integrand that is a plain
callable.  More than three continuous dimensions is unsupported.  Only
this path imports `scipy.integrate`, on first use, so that a command that
never takes it does not pay for the import.

Scalar integrands call the functions that `runtime.compile_fn` generates
directly, with no wrapper around each call.  One comparison integrates many
test functions against the same measures, so `measure_equal` threads one
cache dict through its integrals, and `integrate` opens one for its call
tree when given none: each reweight normalizer is integrated once, each
stack compiled once, and each 3-D grid built once per measure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import measures as M
from .builtins import EvalError
from .runtime import apply_value, compile_array_fn, compile_fn, VClosure, VInj, value_to_point
from .terms import Lam, Term


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
#: Gauss-Legendre nodes per axis of the 3-D grid
GRID_NODES_3D = 96
#: a gaussian is integrated over its mean ± this many standard deviations
GAUSSIAN_CUT = 10.0
#: a gamma is integrated up to the quantile that leaves this upper tail mass
GAMMA_TAIL = 1e-12
#: subintervals one adaptive integral may use (scipy's quad `limit`)
QUAD_LIMIT = 400


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
    pdf: Callable[[float], float]
    #: the same density on an array of points inside (lo, hi)
    pdfs: Callable[[np.ndarray], np.ndarray]
    breakpoints: tuple[float, ...] = ()


def gamma_cutoff(shape: float, scale: float) -> float:
    """The upper end of a gamma density's integration range: its quantile
    1 - GAMMA_TAIL, computed as scipy.stats.gamma.ppf computes it (the
    inverse regularized incomplete gamma, times the scale), without
    importing scipy.stats."""
    from scipy import special

    return float(special.gammaincinv(shape, 1.0 - GAMMA_TAIL)) * scale


def _density_of(m: M.MeasureExpr) -> Optional[_Density1D]:
    match m:
        case M.UniformM(a, b):
            h = 1.0 / (b - a)
            return _Density1D(a, b, lambda x: h, lambda x: np.full(np.shape(x), h))
        case M.TriangularM(a, b):
            mid = (a + b) / 2.0
            peak = 2.0 / (b - a)

            def pdf(x, _a=a, _b=b, _mid=mid, _peak=peak):
                if x < _a or x > _b:
                    return 0.0
                half = (_b - _a) / 2.0
                return _peak * (1.0 - abs(x - _mid) / half)

            def pdfs(x):
                return peak * (1.0 - np.abs(x - mid) / ((b - a) / 2.0))

            return _Density1D(a, b, pdf, pdfs, (mid,))
        case M.GaussianM(mean, std):
            lo = mean - GAUSSIAN_CUT * std
            hi = mean + GAUSSIAN_CUT * std
            norm = 1.0 / (std * math.sqrt(2.0 * math.pi))

            def pdf(x, _m=mean, _s=std, _n=norm):
                z = (x - _m) / _s
                return _n * math.exp(-0.5 * z * z)

            def pdfs(x):
                z = (x - mean) / std
                return norm * np.exp(-0.5 * z * z)

            return _Density1D(lo, hi, pdf, pdfs)
        case M.GammaM(shape, scale):
            hi = gamma_cutoff(shape, scale)
            lognorm = shape * math.log(scale) + math.lgamma(shape)

            def pdf(x, _k=shape, _s=scale, _ln=lognorm):
                if x <= 0.0:
                    return 0.0
                return math.exp((_k - 1.0) * math.log(x) - x / _s - _ln)

            return _Density1D(
                0.0, hi, pdf, lambda x: np.exp((shape - 1.0) * np.log(x) - x / scale - lognorm)
            )
        case _:
            return None


def _factors(m: M.MeasureExpr) -> list[M.MeasureExpr]:
    match m:
        case M.ProductM(left, right):
            return _factors(left) + _factors(right)
        case M.PowerM():
            return _factors(M.expand_power(m))
        case _:
            return [m]


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
        case _:
            return M.measure_dim(m)


# ---------------------------------------------------------------------------
# Integration
# ---------------------------------------------------------------------------


def integrate(
    m: M.MeasureExpr,
    g: Callable,
    settings: QuadSettings = DEFAULT_SETTINGS,
    g_breakpoints: Sequence[float] = (),
    cache: Optional[dict] = None,
) -> float:
    """The pairing of the measure with a test function on points.

    `g` takes a runtime value of the measure's payload: a float, a Boolean,
    an injection or a nested pair of these, so a term function gets the
    values it was typed for.  Test functions read a value as a point, with
    Booleans as 1.0/0.0 (`_flatten_point`), and take an array path where m
    has one (`_array_integral`).  Callers that integrate one measure against
    many functions pass the same `cache` dict (empty at first) to each call,
    so that each reweight normalizer is integrated once and each 3-D grid
    built once; without one, the call opens one for its own call tree.
    """
    disc = reduce_discrete(m)
    if disc is not None:
        return math.fsum(mass * float(g(v)) for v, mass in disc.atoms)
    dim = cont_dim(m)
    if dim > 3:
        raise UnsupportedDimension(f"continuous dimension {dim} exceeds 3")
    if cache is None:
        cache = {}
    if isinstance(g, TestFn):
        value = _array_integral(m, g, settings, g_breakpoints, cache)
        if value is not None:
            return value
    return _integrate_iterated(m, g, settings, g_breakpoints, cache)


def normalizer(
    fn: Term, base: M.MeasureExpr, settings: QuadSettings = DEFAULT_SETTINGS, cache=None
) -> float:
    """The integral of fn over base, the normalizer of reweight(fn, base):
    fn's array function on an array path where base has one
    (`_array_integral`), and `integrate` of its scalar function otherwise.
    Raises SideConditionError unless it is in (0, inf).  It is looked up in
    and added to `cache` (`_normalized`).
    """
    if cache is None:
        cache = {}

    def compute():
        value = _array_integral(base, fn, settings, (), cache)
        return integrate(base, term_fn(fn), settings, cache=cache) if value is None else value

    return _normalized(fn, base, settings, cache, compute)


def _normalized(fn, base, settings, cache: dict, compute: Callable[[], float]) -> float:
    """The normalizer of reweight(fn, base) from `cache`, or computed and
    checked to be in (0, inf), then cached under the identities of fn, base
    and settings, which the entry keeps alive so that no other object can
    take their ids."""
    key = (id(fn), id(base), id(settings))
    if key in cache:
        return cache[key][0]
    value = compute()
    if not (value > 0.0 and math.isfinite(value)):
        raise SideConditionError(value)
    cache[key] = (value, fn, base, settings)
    return value


def _integrate_iterated(m, g, settings, g_breakpoints=(), cache=None) -> float:
    """Iterated integration of g over m, walking m's whole stack: a
    pushforward composes its function under g, and a reweight integrates
    its function times g over its base and divides by its normalizer.  The
    breakpoints of g reach only a density at the top of m.
    """
    density = _density_of(m)
    if density is not None:
        from scipy import integrate as sci  # only this path needs it

        points = [p for p in (*density.breakpoints, *g_breakpoints) if density.lo < p < density.hi]
        val, _err = sci.quad(
            lambda x: float(g(x)) * density.pdf(x),
            density.lo,
            density.hi,
            points=points or None,
            epsabs=settings.abs_tol,
            epsrel=settings.rel_tol,
            limit=QUAD_LIMIT,
        )
        return val
    match m:
        case M.ProductM(left, right):
            return _integrate_iterated(
                left,
                lambda x: _integrate_iterated(
                    right, lambda y: g((x, y)), settings, cache=cache
                ),
                settings,
                cache=cache,
            )
        case M.PowerM():
            return _integrate_iterated(M.expand_power(m), g, settings, cache=cache)
        case M.Dirac() | M.Bernoulli() | M.FiniteDiscrete():
            disc = reduce_discrete(m)
            return math.fsum(mass * float(g(v)) for v, mass in disc.atoms)
        case M.PushforwardM(fn, base):
            f = term_fn(fn)
            return _integrate_iterated(base, lambda p: g(f(p)), settings, cache=cache)
        case M.ReweightM(fn, base):
            denom = normalizer(fn, base, settings, cache)
            f = term_fn(fn)
            num = integrate(
                base, lambda p: float(f(p)) * float(g(p)), settings, cache=cache
            )
            return num / denom
    raise IntegrationError(f"cannot integrate {m!r}")


# ---------------------------------------------------------------------------
# Array paths: the measure stack, the 3-D grid and batched Gauss-Kronrod
# ---------------------------------------------------------------------------


@dataclass
class _Stack:
    """A measure as a product of densities under its stack: each
    pushforward and reweight, innermost first, with its array function."""

    densities: list[_Density1D]
    layers: list[tuple[Callable, M.MeasureExpr]]


def _stack(m, cache: dict, faults: bool) -> Optional[_Stack]:
    """m's stack, or None when a factor of its product is not a density or
    a function of its stack does not compile in array mode (with fault
    masks if `faults` is set).  Cached under the identity of m, which the
    entry keeps alive."""
    key = ("stack", id(m), faults)
    if key not in cache:
        top, layers, stack = m, [], None
        while isinstance(m, (M.PushforwardM, M.ReweightM)):
            f = compile_array_fn(m.fn, faults=faults)
            if f is None:
                break
            layers.append((f, m))
            m = m.base
        else:
            densities = [_density_of(f) for f in _factors(m)]
            if all(d is not None for d in densities):
                stack = _Stack(densities, layers[::-1])
        cache[key] = (stack, top)
    return cache[key][0]


def _walk(stack: _Stack, point, weights, normalize: Callable):
    """(point, weights) of a base point and its weights pushed through the
    stack: each pushforward maps the point by its array function, and each
    reweight multiplies the weights by its array function's values and
    divides by `normalize(layer, weights, values)`.  Each function is
    evaluated once."""
    for f, layer in stack.layers:
        values = f(point)
        if isinstance(layer, M.PushforwardM):
            point = values
        else:
            weights = weights * values / normalize(layer, weights, values)
    return point, weights


def _array_integral(m, g, settings, breakpoints, cache) -> Optional[float]:
    """The integral over m of g, a test function or a function term, on an
    array path, or None where m or g has none.

    Three dimensions are the tensor grid (`_grid`), paired with a test
    function by np.dot and with a term's array function by np.sum.  One and
    two are batched adaptive Gauss-Kronrod (`_adaptive`), whose functions
    carry fault masks; it gives None where the scalar functions would fail
    or a row does not converge, so that the caller integrates on the scalar
    path, which raises or warns as it does.
    """
    grid = cont_dim(m) == 3
    at = _grid(m, settings, cache) if grid else _stack(m, cache, faults=True)
    values = None if at is None else _array_values(g, faults=not grid)
    if values is None:
        return None
    with np.errstate(all="ignore"):
        if not grid:
            # the breakpoints of g reach only a density at the top of m
            if at.layers or len(at.densities) > 1:
                breakpoints = ()
            return _adaptive(at, values, settings, breakpoints, cache)
        point, weights = at
        v = values(point, weights.shape)
        if isinstance(g, TestFn):
            return float(np.dot(np.asarray(v).ravel(), weights.ravel()))
        return float(np.sum(weights * v))


def _array_values(g, faults: bool) -> Optional[Callable]:
    """`values(point, shape)`: g, a test function or a function term, on
    nested coordinate arrays that broadcast to `shape`; None where array
    mode refuses the term."""
    if isinstance(g, TestFn):
        return lambda point, shape: g.on_cols(
            [np.broadcast_to(c, shape) for c in _flatten_array_point(point)]
        )
    f = compile_array_fn(g, faults=faults)
    return None if f is None else lambda point, _shape: f(point)


def _grid(m, settings, cache: dict) -> Optional[tuple]:
    """(point, weights) of m's Gauss-Legendre tensor grid, with
    `GRID_NODES_3D` nodes per axis, pushed through m's stack (`_walk`); a
    reweight's normalizer is the sum of the weights times its values there.
    None when m has no stack.

    The point is the three axes as broadcastable arrays (`np.ix_`), so a
    coordinate computed from fewer axes takes fewer nodes; the weights are
    one 3-D array.  numpy's warnings are off: an `if` computes both
    branches, and a domain error in the one not taken is no fault.  The
    result is cached under the identities of m and settings, which the
    entry keeps alive.
    """
    key = ("grid", id(m), id(settings))
    if key not in cache:
        stack = _stack(m, cache, faults=False)
        grid = None
        if stack is not None:
            axes, weights = _tensor_grid(stack.densities)

            def normalize(layer, weights, values):
                return _normalized(
                    layer.fn, layer.base, settings, cache,
                    lambda: float(np.sum(weights * values)),
                )

            with np.errstate(all="ignore"):
                grid = _walk(stack, _nest_arrays(np.ix_(*axes)), weights, normalize)
        cache[key] = (grid, m, settings)
    return cache[key][0]


def _tensor_grid(densities):
    """The nodes on each axis and the weights, one 3-D array, of the
    Gauss-Legendre tensor grid over three densities."""
    nodes, weights = np.polynomial.legendre.leggauss(GRID_NODES_3D)
    u = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    axes, axis_weights = [], []
    for d in densities:
        xs = d.lo + (d.hi - d.lo) * u
        axes.append(xs)
        axis_weights.append(w * [(d.hi - d.lo) * d.pdf(x) for x in xs])
    w0, w1, w2 = np.ix_(*axis_weights)
    return axes, w0 * w1 * w2


def _adaptive(stack: _Stack, values, settings, breakpoints, cache) -> Optional[float]:
    """The integral of `values` over the stack's measure, iterated over its
    densities with batched adaptive Gauss-Kronrod (`_gk21`), or None.

    The outer axis is one integral.  Each batch of its nodes is a batch of
    rows of the next axis's run, one row per node, and the innermost axis
    evaluates the stack (`_walk`) and the integrand once per batch for all
    of its rows.  Its weights start as the innermost density; each outer
    density multiplies the row integrals at its nodes.  A reweight divides
    by its `normalizer`.  A point coordinate or integrand value that is not
    finite gives None.
    """
    densities = stack.densities
    last = len(densities) - 1

    def normalize(layer, _weights, _values):
        return normalizer(layer.fn, layer.base, settings, cache)

    def axis(i: int, outer: list) -> Optional[np.ndarray]:
        d = densities[i]
        rows = len(outer[0]) if outer else 1

        def f(row, x):
            cols = [c[row][:, None] for c in outer] + [x]
            if i < last:
                inner = axis(i + 1, [np.broadcast_to(c, x.shape).ravel() for c in cols])
                return None if inner is None else d.pdfs(x) * inner.reshape(x.shape)
            point, weights = _walk(stack, _nest_arrays(cols), d.pdfs(x), normalize)
            if not all(np.isfinite(c).all() for c in _flatten_array_point(point)):
                return None
            return values(point, weights.shape) * weights

        points = (*d.breakpoints, *breakpoints)
        return _gk21(f, rows, d.lo, d.hi, points, settings)

    result = axis(0, [])
    return None if result is None else float(result[0])


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


def _gk21(f, rows: int, lo: float, hi: float, points, settings) -> Optional[np.ndarray]:
    """The integrals over [lo, hi] of `rows` integrands, by QUADPACK's
    adaptive G10/K21 bisection vectorized over every open interval.

    `f(row, x)` gets the row of each interval and its 21 nodes, shape
    (intervals, 21), and returns the values there, or None.  Each row
    starts from [lo, hi] split at `points`, and converges on its own: its
    error estimate (qk21's) summed over its intervals must reach
    max(abs_tol, rel_tol * |integral|).  Until it does, each iteration
    bisects every interval of the row whose error exceeds the row's
    tolerance shared evenly among its intervals.  None when f gives None,
    when a value or an interval's integral or error is not finite, or when
    a row would need more than `QUAD_LIMIT` intervals.
    """
    edges = np.array([lo, *sorted({p for p in points if lo < p < hi}), hi], dtype=float)
    row = np.repeat(np.arange(rows), len(edges) - 1)
    a, b = np.tile(edges[:-1], rows), np.tile(edges[1:], rows)
    result = np.zeros(rows)
    old = (np.empty(0, dtype=int), np.empty(0), np.empty(0), np.empty(0), np.empty(0))
    while True:
        centre, half = 0.5 * (a + b), 0.5 * (b - a)
        fx = f(row, centre[:, None] + half[:, None] * _GK_NODES)
        if fx is None:
            return None
        val, err = _qk21_sums(fx, half)
        # a value or a sum that is not finite would never converge
        if not (np.isfinite(val).all() and np.isfinite(err).all()):
            return None
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
        if np.any(count + np.bincount(row[split], minlength=rows) > QUAD_LIMIT):
            return None
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


def _flatten_array_point(point) -> list:
    if isinstance(point, tuple):
        out = []
        for part in point:
            out.extend(_flatten_array_point(part))
        return out
    return [np.asarray(point, dtype=np.float64)]


def _nest_arrays(cols):
    if len(cols) == 1:
        return cols[0]
    return (cols[0], _nest_arrays(cols[1:]))


# ---------------------------------------------------------------------------
# Support boxes and test-function families
# ---------------------------------------------------------------------------


def support_box(m: M.MeasureExpr) -> list[tuple[float, float]]:
    """Approximate per-coordinate supports, used to place test functions."""
    match m:
        case M.Dirac(point):
            pt = value_to_point(point)
            flat = _flatten_point(pt)
            return [(x - 1.0, x + 1.0) for x in flat]
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
            flats = [_flatten_point(value_to_point(v)) for v, _ in atoms]
            dims = len(flats[0])
            out = []
            for j in range(dims):
                xs = [f[j] for f in flats]
                out.append((min(xs) - 0.5, max(xs) + 0.5))
            return out
        case M.ProductM(left, right):
            return support_box(left) + support_box(right)
        case M.PowerM(base, k):
            return support_box(base) * k
        case M.ReweightM(_, base):
            return support_box(base)
        case M.PushforwardM(fn, base):
            return _probe_box(fn, base)
    raise IntegrationError(f"no support box for {m!r}")


def _flatten_point(p) -> list[float]:
    """The coordinates of a point or runtime value: pairs flatten, an
    injection is its payload, and Booleans are 1.0/0.0."""
    if isinstance(p, tuple):
        out = []
        for x in p:
            out.extend(_flatten_point(x))
        return out
    if isinstance(p, VInj):
        return _flatten_point(p.value)
    return [float(p)]


def _probe_box(fn: Term, base: M.MeasureExpr) -> list[tuple[float, float]]:
    """The box around the images of probe points of base under fn.

    A discrete factor of base is probed with its runtime values, as
    `integrate` passes them; each coordinate of a continuous factor with 5
    evenly spaced floats across its support box.
    """
    axes = []
    for factor in _factors(base):
        disc = reduce_discrete(factor)
        if disc is not None:
            axes.append([v for v, _ in disc.atoms])
        else:
            axes.extend(np.linspace(lo, hi, 5).tolist() for lo, hi in support_box(factor))
    f = term_fn(fn)
    images = []
    for point in _probe_points(axes):
        try:
            images.append(_flatten_point(value_to_point(f(point))))
        except (EvalError, IntegrationError, ValueError, OverflowError):
            continue
    if not images:
        raise IntegrationError("pushforward support probe produced no points")
    dims = len(images[0])
    out = []
    for j in range(dims):
        xs = [img[j] for img in images]
        out.append((min(xs), max(xs)))
    return out


def _probe_points(axes: list) -> list:
    """Every right-nested tuple that takes one value from each axis."""
    if len(axes) == 1:
        return list(axes[0])
    rests = _probe_points(axes[1:])
    return [(v, rest) for v in axes[0] for rest in rests]


@dataclass(frozen=True)
class TestFn:
    """A test function with its stated bound and Lipschitz constant.

    cols_fn maps a list of coordinate arrays to an array; point_fn, when
    given, computes the same floats from a list of scalar coordinates without
    numpy, for the scalar calls inside iterated quadrature.
    """

    __test__ = False  # not a pytest class

    name: str
    cols_fn: Callable  # list of coordinate arrays -> array
    bound: float
    lip: float
    breakpoints: tuple[float, ...] = ()
    point_fn: Optional[Callable] = None  # list of floats -> float

    def __call__(self, point):
        if self.point_fn is not None:
            return float(self.point_fn(_flatten_point(point)))
        cols = [np.asarray([x]) for x in _flatten_point(point)]
        return float(self.cols_fn(cols)[0])

    def on_cols(self, cols):
        return self.cols_fn(cols)


@dataclass
class TestFunctionFamily:
    __test__ = False  # not a pytest class

    members: list[TestFn]

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    def lipschitz_bounded(self, bound: float = 1.0, lip: float = 1.0):
        return [m for m in self.members if m.bound <= bound and m.lip <= lip]


def _cos(x: float) -> float:
    """math.cos, with np.cos's nan at the infinities."""
    return math.cos(x) if math.isfinite(x) else math.nan


def _scalar_members(lo: float, hi: float) -> list[tuple]:
    """(name, array form, scalar form, bound, Lipschitz constant, breakpoints).

    The two forms give the same floats: np.clip(v, lo, hi) is
    min(max(v, lo), hi) and np.minimum(1, |x|) is min(|x|, 1), nan included.
    """
    span = max(abs(lo), abs(hi), 1.0)
    out = [
        ("one", lambda x: np.ones_like(x), lambda x: 1.0, 1.0, 0.0, ()),
        ("x", lambda x: x, lambda x: x, span, 1.0, ()),
        ("x2", lambda x: x * x, lambda x: x * x, span * span, 2 * span, ()),
    ]
    for k in (1, 2, 3):
        out.append((
            f"cos{k}x",
            lambda x, _k=k: np.cos(_k * x),
            lambda x, _k=k: _cos(_k * x),
            1.0,
            float(k),
            (),
        ))
    for i, c in enumerate(np.linspace(lo, hi, 9).tolist()):
        out.append((
            f"ramp{i}",
            lambda x, _c=c: np.clip(4.0 * (x - _c), 0.0, 1.0),
            lambda x, _c=c: min(max(4.0 * (x - _c), 0.0), 1.0),
            1.0,
            4.0,
            (c, c + 0.25),
        ))
    out.append((
        "clamp",
        lambda x: np.clip(x, -1.0, 1.0),
        lambda x: min(max(x, -1.0), 1.0),
        1.0,
        1.0,
        (-1.0, 1.0),
    ))
    out.append((
        "vee",
        lambda x: np.minimum(1.0, np.abs(x)),
        lambda x: min(abs(x), 1.0),
        1.0,
        1.0,
        (-1.0, 0.0, 1.0),
    ))
    return out


_SLIM = ("one", "x", "x2", "cos1x", "cos2x", "clamp")


def _slim_members(lo: float, hi: float):
    return [m for m in _scalar_members(lo, hi) if m[0] in _SLIM]


def build_family(m: M.MeasureExpr, slim: bool = False) -> TestFunctionFamily:
    """The default family over the measure's support.

    One-dimensional members apply coordinatewise; multi-coordinate payloads
    additionally get coordinate sums and bounded pairwise products so that
    dependence between coordinates is visible.  The slim variant keeps the
    smooth members only, for the looser numeric equality checks inside proof
    verification.
    """
    box = support_box(m)
    dims = len(box)
    mk_members = _slim_members if slim else _scalar_members
    members: list[TestFn] = []
    if dims == 1:
        lo, hi = box[0]
        for name, fn, sfn, bound, lip, brk in mk_members(lo, hi):
            members.append(TestFn(
                name, lambda cols, _f=fn: _f(cols[0]), bound, lip, brk,
                lambda xs, _f=sfn: _f(xs[0]),
            ))
        return TestFunctionFamily(members)

    lo = min(b[0] for b in box)
    hi = max(b[1] for b in box)
    scalars = mk_members(lo, hi)
    for name, fn, sfn, bound, lip, brk in scalars:
        if name == "one" and dims > 1:
            members.append(TestFn(
                "one", lambda cols: np.ones_like(cols[0]), 1.0, 0.0, (), lambda xs: 1.0
            ))
            continue
        for j in range(dims):
            members.append(TestFn(
                f"{name}[{j}]",
                lambda cols, _f=fn, _j=j: _f(cols[_j]),
                bound,
                lip,
                brk,
                lambda xs, _f=sfn, _j=j: _f(xs[_j]),
            ))
        if not slim:
            members.append(TestFn(
                f"{name}[sum]",
                lambda cols, _f=fn: sum(_f(c) for c in cols),
                bound * dims,
                lip,
                brk,
                lambda xs, _f=sfn: sum(_f(x) for x in xs),
            ))
    # bounded pairwise products catch dependence between coordinates
    bounded = [
        (n, f, sf) for n, f, sf, b, _, _ in scalars if b <= 1.0 and n.startswith(("cos", "clamp"))
    ]
    for i in range(dims):
        for j in range(i + 1, dims):
            for (n1, f1, sf1), (n2, f2, sf2) in zip(bounded[:2], bounded[1:3]):
                members.append(TestFn(
                    f"{n1}[{i}]*{n2}[{j}]",
                    lambda cols, _f1=f1, _f2=f2, _i=i, _j=j: _f1(cols[_i]) * _f2(cols[_j]),
                    1.0,
                    3.0,
                    (),
                    lambda xs, _f1=sf1, _f2=sf2, _i=i, _j=j: _f1(xs[_i]) * _f2(xs[_j]),
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

    def to_json(self):
        return {
            "equal": self.equal,
            "mode": self.mode,
            "max_discrepancy": self.max_discrepancy,
            "details": [{"member": n, "discrepancy": d} for n, d in self.details],
        }


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
        va = integrate(mu, member, settings, member.breakpoints, cache)
        vb = integrate(nu, member, settings, member.breakpoints, cache)
        details.append((member.name, abs(va - vb)))
    # a nan discrepancy fails the comparison and is the worst one shown
    ds = [d for _, d in details]
    return MeasureEqualReport(
        all(d <= tol for d in ds), "numeric", float(np.max(ds, initial=0.0)), details
    )
