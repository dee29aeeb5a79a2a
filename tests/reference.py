"""Reference implementations that tests compare the toolchain against.

None of these is reached by a command: the empirical measure of a stream
prefix as an atom set (`test-target` reads coordinate columns through
`empirical.columns_of`), the pull phase's termination measure and
normal-form spine, a term's one-step rewrites, and a derivation's rule
skeleton.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from samplerlang.builtins import EvalError
from samplerlang.quadrature import _value_key
from samplerlang.rewrite import Step, _Redexes, _rewrites
from samplerlang.runtime import VInj, column_values
from samplerlang.streams import RStream, truncate
from samplerlang.terms import (
    Hd, Map, Prod, Reweight, Term, Thin, Tl, Wt, children, positions, replace_at, term_size,
)

# ---------------------------------------------------------------------------
# Empirical measures
# ---------------------------------------------------------------------------


class DegeneratePrefixError(Exception):
    """All weights in the prefix are zero; the empirical measure is undefined."""


def point(v):
    """A runtime value as a point: floats and nested tuples.  Booleans embed
    as 1.0/0.0 and an injection as its payload."""
    if isinstance(v, bool):
        return 1.0 if v else 0.0
    if isinstance(v, (int, float)):
        return float(v)
    if isinstance(v, tuple):
        return tuple(point(x) for x in v)
    if isinstance(v, VInj):
        return point(v.value)
    raise EvalError(f"value {v!r} has no point representation")


@dataclass
class EmpiricalMeasure:
    atoms: list[tuple[object, float]]  # (value, normalized weight)
    n: int

    def total_mass(self) -> float:
        return math.fsum(w for _, w in self.atoms)

    def integrate(self, g: Callable) -> float:
        return math.fsum(w * float(g(point(v))) for v, w in self.atoms)


def empirical_measure(stream, n: int) -> EmpiricalMeasure:
    """The normalized atoms of the first n entries of a stream, or of a list
    of (value, weight) entries; equal values coalesce, and the atoms keep
    the values as they are."""
    if n < 1:
        raise ValueError("empirical measure needs n >= 1")
    if isinstance(stream, RStream):
        sample = truncate(stream, n, inner=False)
        values, weights = column_values(sample.values), column_values(sample.weights)
    else:
        entries = list(stream[:n])
        values, weights = [v for v, _ in entries], [w for _, w in entries]
    total = math.fsum(weights)
    if not total > 0.0:
        raise DegeneratePrefixError(
            f"first {n} entries carry zero total weight; the normalized "
            "empirical measure is undefined on this prefix"
        )
    merged: dict = {}
    for v, w in zip(values, weights):
        merged.setdefault(_value_key(point(v)), [v, 0.0])[1] += w
    return EmpiricalMeasure([(v, w / total) for v, w in merged.values()], n)


# ---------------------------------------------------------------------------
# Rewriting
# ---------------------------------------------------------------------------


def pull_measure(t: Term) -> tuple[int, int, int, int]:
    """The termination measure of the pull phase (see `rewrite`'s module
    docstring): map/reweight nodes below destructors, summed over their
    depth; map/reweight nodes; thin and product nodes; the term's size."""
    above = 0
    mr = 0
    thin_prod = 0

    def go(term: Term, destructors: int):
        nonlocal above, mr, thin_prod
        here = destructors
        if isinstance(term, (Map, Reweight)):
            mr += 1
            above += destructors
        if isinstance(term, (Thin, Prod)):
            thin_prod += 1
        if isinstance(term, (Tl, Hd, Wt, Thin, Prod)):
            here += 1
        for kid in children(term):
            go(kid, here)

    go(t, 0)
    return (above, mr, thin_prod, term_size(t))


def normal_form_spine(t: Term) -> Optional[list[str]]:
    """The map/reweight spine of a normal form, or None if ill-shaped."""
    spine = []
    cur = t
    while True:
        match cur:
            case Map(_, inner):
                spine.append("map")
                cur = inner
            case Reweight(_, inner):
                spine.append("reweight")
                cur = inner
            case _:
                break
    for _, sub in positions(cur):
        if isinstance(sub, (Map, Reweight)):
            return None
    return spine


def neighbors(term: Term, size_cap: int):
    """The one-step rewrites of term within the size cap, each with its
    step and built, in the order `prove_equiv` meets them."""
    for path, (name, forward, new, _) in _rewrites(term, size_cap, _Redexes()):
        yield Step(name, path, forward), replace_at(term, path, new)


# ---------------------------------------------------------------------------
# Type derivations
# ---------------------------------------------------------------------------


def rule_tree(deriv) -> tuple:
    """The rule skeleton of a type derivation (`typecheck.Deriv`), for
    structural comparison with a golden one."""
    return (deriv.rule, tuple(rule_tree(c) for c in deriv.children))
