"""Empirical measures from stream prefixes and weak-convergence testing.

The empirical measure of a prefix is the normalized weighted atom set
sum_i w_i / (sum_j w_j) . delta_{x_i}; a sampler passes a convergence test
against a target when every family discrepancy at the largest ladder rung is
within tolerance and discrepancies do not grow along the ladder beyond the
slack factor.  Divergence is undetectable at finite n, so failures say "fail
at schedule", never "diverges".
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import measures as M
from .quadrature import (
    TestFunctionFamily,
    build_family,
    integrate,
    support_box,
)
from .runtime import column_values, value_columns, value_coords
from .streams import truncate
from .terms import Term, self_product


def columns_of(values, weights) -> tuple[list[np.ndarray], np.ndarray]:
    """Coordinate arrays plus the weight array for entries' values and
    weights, given as columns (`runtime.column`) or lists of runtime values.

    Booleans become 1.0/0.0.  Values of one shape are converted column by
    column, a float64 column not at all; values of different shapes, or
    with leaves that are not numbers, entry by entry (`value_coords`), with
    the first value's coordinate count.
    """
    if not len(values):
        return [], np.empty(0)
    weights = np.asarray(weights, dtype=float)
    cols = value_columns(values)
    if cols is not None:
        try:
            return [np.asarray(col, dtype=float) for col in cols], weights
        except TypeError:
            pass  # value_coords below raises the error that names the value
    flats = [value_coords(v) for v in column_values(values)]
    dims = len(flats[0])
    return [np.array([flat[j] for flat in flats]) for j in range(dims)], weights


@dataclass
class LadderPoint:
    n: int
    tol: float
    discrepancies: dict[str, float]

    def worst(self) -> float:
        return max(self.discrepancies.values()) if self.discrepancies else 0.0


@dataclass
class ConvergenceReport:
    target: str
    ladder: list[LadderPoint]
    passed: bool
    reason: str = ""

    def to_json(self):
        return {
            "schema_version": 1,
            "target": self.target,
            "passed": self.passed,
            "reason": self.reason,
            "ladder": [
                {
                    "n": pt.n,
                    "tol": pt.tol,
                    "worst": pt.worst(),
                    "discrepancies": pt.discrepancies,
                }
                for pt in self.ladder
            ],
        }


#: how far the worst discrepancy may grow from one ladder rung to the next
LADDER_SLACK = 2.0


def weak_convergence_test(
    stream,
    target: M.MeasureExpr,
    n_ladder: Sequence[int] = (1000, 10000, 100000),
    family: Optional[TestFunctionFamily] = None,
    tol_schedule: Optional[Callable[[int], float]] = None,
) -> ConvergenceReport:
    """Family discrepancies of empirical prefixes against the target."""
    from .pretty import pretty_measure

    ladder = sorted(set(int(n) for n in n_ladder))
    if family is None:
        family = build_family(target)
    if tol_schedule is None:
        tol_schedule = lambda n: max(5e-3, 3.0 / math.sqrt(n))

    expected = {}
    cache: dict = {}
    for member in family:
        expected[member.name] = integrate(target, member, cache=cache)

    sample = truncate(stream, ladder[-1], inner=False)
    cols, weights = columns_of(sample.values, sample.weights)
    dims = len(support_box(target))
    if len(cols) != dims:
        raise M.MeasureError(
            f"the sampler's values have {len(cols)} coordinate(s), "
            f"the measure {pretty_measure(target)} has {dims}"
        )

    points: list[LadderPoint] = []
    for n in ladder:
        wn = weights[:n]
        total = float(np.sum(wn))
        if not total > 0.0:
            return ConvergenceReport(
                pretty_measure(target),
                points,
                False,
                f"degenerate prefix at n={n}: zero total weight",
            )
        discrepancies = {}
        prefix_cols = [c[:n] for c in cols]
        for member in family:
            vals = member.cols_fn(prefix_cols)
            emp = float(np.dot(np.asarray(vals), wn)) / total
            discrepancies[member.name] = abs(emp - expected[member.name])
        points.append(LadderPoint(n, tol_schedule(n), discrepancies))

    final = points[-1]
    passed = all(d <= final.tol for d in final.discrepancies.values())
    reason = ""
    if not passed:
        worst = max(final.discrepancies, key=final.discrepancies.get)
        reason = (
            f"discrepancy {final.discrepancies[worst]:.4g} for '{worst}' exceeds "
            f"tol {final.tol:.4g} at n={final.n}"
        )
    else:
        # the trajectory check applies to the per-rung worst discrepancy;
        # member-wise comparison would flag ordinary statistical noise when a
        # member happens to be lucky-small at a small rung
        for prev, nxt in zip(points, points[1:]):
            if nxt.worst() > LADDER_SLACK * prev.worst() + 1e-9:
                passed = False
                reason = (
                    f"worst discrepancy grew from {prev.worst():.4g} (n={prev.n}) "
                    f"to {nxt.worst():.4g} (n={nxt.n}) beyond slack {LADDER_SLACK}"
                )
                break
    return ConvergenceReport(pretty_measure(target), points, passed, reason)


def k_equidistribution_test(
    term: Term,
    target: M.MeasureExpr,
    k: int,
    interpreter,
    n: int = 100000,
    family: Optional[TestFunctionFamily] = None,
    tol: Optional[float] = None,
    n_ladder: Optional[Sequence[int]] = None,
) -> ConvergenceReport:
    """Whether the K-fold self-product targets the K-fold product measure."""
    subject = self_product(term, k) if k > 1 else term
    powered = M.PowerM(target, k) if k > 1 else target
    stream = interpreter.stream(subject)
    ladder = list(n_ladder) if n_ladder else [max(n // 100, 1), max(n // 10, 1), n]
    schedule = None
    if tol is not None:
        schedule = lambda m: max(tol, 3.0 / math.sqrt(m))
    return weak_convergence_test(stream, powered, ladder, family, schedule)

