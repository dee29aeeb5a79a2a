"""Numeric integration of measure expressions against test functions.

Discrete parts are summed exactly; one continuous dimension uses adaptive
quadrature (abs tol 1e-9 by default); two dimensions are iterated adaptive.
Iterated integration (`_integrate_iterated`) walks the whole stack of the
measure: each pushforward composes its function under the integrand, so a
stack of them applies the innermost first, and each reweight integrates its
function times the integrand over its base and divides by its normalizer.
Three dimensions use one walk over the measure's stack (`_grid`): a tensorized
Gauss-Legendre grid, whose point each pushforward pushes through its array
function and whose weights each reweight multiplies by its array function
and divides by its normalizer (documented accuracy around 1e-4 on
smooth-but-singular transforms, which is why the numeric measure-equality
checks run at looser tolerances).  A 3-D integral whose functions
`runtime.compile_array_fn` refuses, whose product has a discrete factor, or
whose integrand is not a test function is iterated adaptive quadrature
instead.  More than three continuous dimensions is unsupported.

Scalar integrands call the functions that `runtime.compile_fn` generates
directly, with no wrapper around each call.  One comparison integrates many
test functions against the same measures, so `measure_equal` threads one
cache dict through its integrals: each reweight normalizer is integrated
once, and each 3-D grid is built once per measure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import integrate as sci

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
    breakpoints: tuple[float, ...] = ()


def _density_of(m: M.MeasureExpr) -> Optional[_Density1D]:
    match m:
        case M.UniformM(a, b):
            h = 1.0 / (b - a)
            return _Density1D(a, b, lambda x: h)
        case M.TriangularM(a, b):
            mid = (a + b) / 2.0
            peak = 2.0 / (b - a)

            def pdf(x, _a=a, _b=b, _mid=mid, _peak=peak):
                if x < _a or x > _b:
                    return 0.0
                half = (_b - _a) / 2.0
                return _peak * (1.0 - abs(x - _mid) / half)

            return _Density1D(a, b, pdf, (mid,))
        case M.GaussianM(mean, std):
            lo = mean - GAUSSIAN_CUT * std
            hi = mean + GAUSSIAN_CUT * std
            norm = 1.0 / (std * math.sqrt(2.0 * math.pi))

            def pdf(x, _m=mean, _s=std, _n=norm):
                z = (x - _m) / _s
                return _n * math.exp(-0.5 * z * z)

            return _Density1D(lo, hi, pdf)
        case M.GammaM(shape, scale):
            from scipy import stats

            hi = float(stats.gamma.ppf(1.0 - GAMMA_TAIL, shape, scale=scale))
            lognorm = shape * math.log(scale) + math.lgamma(shape)

            def pdf(x, _k=shape, _s=scale, _ln=lognorm):
                if x <= 0.0:
                    return 0.0
                return math.exp((_k - 1.0) * math.log(x) - x / _s - _ln)

            return _Density1D(0.0, hi, pdf)
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
    Booleans as 1.0/0.0 (`_flatten_point`).  Callers that integrate one
    measure against many functions pass the same `cache` dict (empty at
    first) to each call, so that each reweight normalizer is integrated once
    and each 3-D grid built once.
    """
    disc = reduce_discrete(m)
    if disc is not None:
        return math.fsum(mass * float(g(v)) for v, mass in disc.atoms)
    dim = cont_dim(m)
    if dim > 3:
        raise UnsupportedDimension(f"continuous dimension {dim} exceeds 3")
    if isinstance(g, TestFn) and dim == 3:
        grid = _grid(m, settings, cache)
        if grid is not None:
            point, weights = grid
            cols = [np.broadcast_to(c, weights.shape) for c in _flatten_array_point(point)]
            return float(np.dot(np.asarray(g.on_cols(cols)).ravel(), weights.ravel()))
    return _integrate_iterated(m, g, settings, g_breakpoints, cache)


def normalizer(
    fn: Term, base: M.MeasureExpr, settings: QuadSettings = DEFAULT_SETTINGS, cache=None
) -> float:
    """The integral of fn over base, the normalizer of reweight(fn, base):
    the grid sum of fn's array function where base has a 3-D grid, and
    `integrate` otherwise.  Raises SideConditionError unless it is in
    (0, inf).  It is looked up in and added to `cache` unless that is None,
    keyed by the identities of fn, base and settings, which the entry keeps
    alive so that no other object can take their ids.
    """
    key = (id(fn), id(base), id(settings))
    if cache is not None and key in cache:
        return cache[key][0]
    f = compile_array_fn(fn) if cont_dim(base) == 3 else None
    grid = _grid(base, settings, cache) if f is not None else None
    if grid is not None:
        point, weights = grid
        with np.errstate(all="ignore"):
            value = float(np.sum(weights * f(point)))
    else:
        value = integrate(base, term_fn(fn), settings, cache=cache)
    if not (value > 0.0 and math.isfinite(value)):
        raise SideConditionError(value)
    if cache is not None:
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
        points = [p for p in (*density.breakpoints, *g_breakpoints) if density.lo < p < density.hi]
        val, _err = sci.quad(
            lambda x: float(g(x)) * density.pdf(x),
            density.lo,
            density.hi,
            points=points or None,
            epsabs=settings.abs_tol,
            epsrel=settings.rel_tol,
            limit=400,
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


def _grid(m, settings, cache=None) -> Optional[tuple]:
    """(point, weights) of m's Gauss-Legendre tensor grid, with
    `GRID_NODES_3D` nodes per axis; None when a factor of m's
    product is discrete or a function of its stack does not compile in
    array mode.

    The point is the three axes as broadcastable arrays (`np.ix_`), pushed
    through each pushforward's array function, so a coordinate computed
    from fewer axes takes fewer nodes.  The weights, one 3-D array, are
    multiplied by each reweight's array function and divided by its
    normalizer.  numpy's warnings are off: an `if` computes both branches,
    and a domain error in the one not taken is no fault.  The result is
    cached under the identities of m and settings, which the entry keeps
    alive.
    """
    key = ("grid", id(m), id(settings))
    if cache is not None and key in cache:
        return cache[key][0]
    with np.errstate(all="ignore"):
        grid = _walk(m, settings, cache)
    if cache is not None:
        cache[key] = (grid, m, settings)
    return grid


def _walk(m, settings, cache) -> Optional[tuple]:
    match m:
        case M.PushforwardM(fn, base):
            f = compile_array_fn(fn)
            inner = _walk(base, settings, cache) if f is not None else None
            return None if inner is None else (f(inner[0]), inner[1])
        case M.ReweightM(fn, base):
            # base is integrated for the normalizer too, so its grid is cached
            f = compile_array_fn(fn)
            inner = _grid(base, settings, cache) if f is not None else None
            if inner is None:
                return None
            point, weights = inner
            return point, weights * f(point) / normalizer(fn, base, settings, cache)
    densities = [_density_of(f) for f in _factors(m)]
    if any(d is None for d in densities):
        return None
    axes, weights = _tensor_grid(densities)
    return _nest_arrays(np.ix_(*axes)), weights


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
