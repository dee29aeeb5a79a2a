"""Values the benchmark checks the program's outputs against.

Everything here is computed apart from samplerlang: closed forms, plain
`scipy.integrate.quad` on hand-written densities, and moment estimates with
their standard errors.  scipy is imported only inside the functions, so that
importing this module costs nothing before set-up is measured.
"""
from __future__ import annotations

import functools
import math
import statistics

#: how many standard errors an estimate may sit from its true value
Z_LIMIT = 5.0


def quartiles(values) -> tuple[float, float, float]:
    """First quartile, median and third quartile (statistics.quantiles, n=4)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


# ---------------------------------------------------------------------------
# Normalizers of the bundled proofs
# ---------------------------------------------------------------------------


def tri_pdf(x: float) -> float:
    """Density of triangular(0, 2), the law of the sum of two uniforms."""
    if x < 0.0 or x > 2.0:
        return 0.0
    return x if x < 1.0 else 2.0 - x


def std_normal_pdf(t: float) -> float:
    return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)


def _quad_tri(g) -> float:
    from scipy.integrate import quad

    value, _err = quad(lambda x: tri_pdf(x) * g(x), 0.0, 2.0, points=[1.0],
                       epsabs=1e-13, epsrel=1e-13, limit=200)
    return value


def marsaglia_normalizer(alpha: float) -> float:
    """P(accept) of the squeeze test: e^d Γ(α) / (√(2π) d^(α-1/2)), d = α - 1/3."""
    d = alpha - 1.0 / 3.0
    return math.exp(d) * math.gamma(alpha) / (math.sqrt(2.0 * math.pi) * d ** (alpha - 0.5))


@functools.cache
def normalizers() -> dict[str, float]:
    """The reweight normalizer each bundled proof should report."""
    return {
        "von_neumann": 2 * 0.3 * 0.7,  # P(the two flips differ)
        "importance": _quad_tri(lambda x: std_normal_pdf(3.0 - x)),
        "rejection": _quad_tri(lambda x: math.exp(-0.5 * (3.0 - x) ** 2)),
        "marsaglia": marsaglia_normalizer(2.5),
    }


def printed_tolerance(reference: float, abs_tol: float, rel_tol: float, digits: int = 6) -> float:
    """Quadrature tolerance around `reference`, plus rounding to `digits` figures.

    scipy's adaptive quad stops when its error estimate is below
    max(abs_tol, rel_tol·|value|); the sum of both is a safe ceiling.  The
    checker prints the value with `digits` significant figures.
    """
    exponent = math.floor(math.log10(abs(reference))) if reference else 0
    rounding = 0.5 * 10.0 ** (exponent - digits + 1)
    return abs_tol + rel_tol * abs(reference) + rounding


# ---------------------------------------------------------------------------
# Moments of the sampled streams
# ---------------------------------------------------------------------------


@functools.cache
def posterior_moments() -> tuple[float, float]:
    """Mean and variance of triangular(0, 2) reweighted by φ(3 - x).

    importance.smpl and rejection.smpl both target this posterior.
    """
    like = lambda x: std_normal_pdf(3.0 - x)  # noqa: E731
    z = _quad_tri(like)
    m1 = _quad_tri(lambda x: x * like(x)) / z
    m2 = _quad_tri(lambda x: x * x * like(x)) / z
    return m1, m2 - m1 * m1


def weighted_moments(values, weights) -> dict[str, float]:
    """Self-normalized mean and variance with delta-method standard errors."""
    import numpy as np

    x = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    total = float(w.sum())
    if not total > 0.0:
        raise ValueError("zero total weight")
    mean = float(w @ x) / total
    dev2 = (x - mean) ** 2
    var = float(w @ dev2) / total
    se_mean = math.sqrt(float(((w * (x - mean)) ** 2).sum())) / total
    se_var = math.sqrt(float(((w * (dev2 - var)) ** 2).sum())) / total
    return {"mean": mean, "var": var, "se_mean": se_mean, "se_var": se_var}


def moment_errors(values, weights, mean: float, var: float | None) -> list[str]:
    """Why the weighted moments miss (mean, var) by more than Z_LIMIT errors."""
    m = weighted_moments(values, weights)
    errors = []
    if abs(m["mean"] - mean) > Z_LIMIT * m["se_mean"]:
        errors.append(f"mean {m['mean']:.6g} vs {mean:.6g} (se {m['se_mean']:.3g})")
    if var is not None and abs(m["var"] - var) > Z_LIMIT * m["se_var"]:
        errors.append(f"variance {m['var']:.6g} vs {var:.6g} (se {m['se_var']:.3g})")
    return errors
