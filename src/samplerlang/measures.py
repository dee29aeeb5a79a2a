"""Symbolic measure expressions: the semantic targets of sampler verification.

Construction and the discrete calculus live here; numeric integration against
test functions is in `quadrature`, which this module re-exports through
`integrate` and `measure_equal`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .terms import Term

Point = Union[bool, int, float, tuple]


class MeasureError(Exception):
    pass


class MeasureExpr:
    __slots__ = ()


@dataclass(frozen=True)
class Dirac(MeasureExpr):
    point: Point


@dataclass(frozen=True)
class Bernoulli(MeasureExpr):
    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise MeasureError(f"bernoulli parameter {self.p} outside [0, 1]")


@dataclass(frozen=True)
class UniformM(MeasureExpr):
    a: float
    b: float

    def __post_init__(self):
        if not self.a < self.b:
            raise MeasureError(f"uniform needs a < b, got [{self.a}, {self.b}]")


@dataclass(frozen=True)
class TriangularM(MeasureExpr):
    """Symmetric triangular density on [a, b], peaked at the midpoint."""

    a: float
    b: float

    def __post_init__(self):
        if not self.a < self.b:
            raise MeasureError(f"triangular needs a < b, got [{self.a}, {self.b}]")


@dataclass(frozen=True)
class GaussianM(MeasureExpr):
    mean: float
    std: float

    def __post_init__(self):
        if not self.std > 0:
            raise MeasureError(f"gaussian needs positive stddev, got {self.std}")


@dataclass(frozen=True)
class GammaM(MeasureExpr):
    shape: float
    scale: float

    def __post_init__(self):
        if not (self.shape > 0 and self.scale > 0):
            raise MeasureError("gamma needs positive shape and scale")


@dataclass(frozen=True)
class FiniteDiscrete(MeasureExpr):
    atoms: tuple[tuple[Point, float], ...]

    def __post_init__(self):
        total = 0.0
        for _, mass in self.atoms:
            if mass < 0:
                raise MeasureError("discrete masses must be nonnegative")
            total += mass
        if abs(total - 1.0) > 1e-12:
            raise MeasureError(f"discrete masses sum to {total}, not 1")


@dataclass(frozen=True)
class ProductM(MeasureExpr):
    left: MeasureExpr
    right: MeasureExpr


@dataclass(frozen=True)
class PowerM(MeasureExpr):
    base: MeasureExpr
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise MeasureError("measure power must be at least 1")


@dataclass(frozen=True)
class PushforwardM(MeasureExpr):
    fn: Term
    base: MeasureExpr


@dataclass(frozen=True)
class ReweightM(MeasureExpr):
    fn: Term
    base: MeasureExpr


def expand_power(m: MeasureExpr) -> MeasureExpr:
    """Rewrite mu^K as the right-nested K-fold product."""
    if not isinstance(m, PowerM):
        return m
    base = m.base
    out = base
    for _ in range(m.k - 1):
        out = ProductM(base, out)
    return out


def measure_expr_equal(a: MeasureExpr, b: MeasureExpr) -> bool:
    """Structural equality; embedded function terms compare by alpha."""
    from .terms import alpha_equal

    if type(a) is not type(b):
        return False
    match a, b:
        case Dirac(pa), Dirac(pb):
            return pa == pb
        case Bernoulli(x), Bernoulli(y):
            return x == y
        case UniformM(a1, b1), UniformM(a2, b2):
            return a1 == a2 and b1 == b2
        case TriangularM(a1, b1), TriangularM(a2, b2):
            return a1 == a2 and b1 == b2
        case GaussianM(m1, s1), GaussianM(m2, s2):
            return m1 == m2 and s1 == s2
        case GammaM(k1, s1), GammaM(k2, s2):
            return k1 == k2 and s1 == s2
        case FiniteDiscrete(x), FiniteDiscrete(y):
            return x == y
        case ProductM(l1, r1), ProductM(l2, r2):
            return measure_expr_equal(l1, l2) and measure_expr_equal(r1, r2)
        case PowerM(b1, k1), PowerM(b2, k2):
            return k1 == k2 and measure_expr_equal(b1, b2)
        case PushforwardM(f1, b1), PushforwardM(f2, b2):
            return alpha_equal(f1, f2) and measure_expr_equal(b1, b2)
        case ReweightM(f1, b1), ReweightM(f2, b2):
            return alpha_equal(f1, f2) and measure_expr_equal(b1, b2)
    return False
