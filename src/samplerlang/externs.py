"""Concrete streams for declared extern samplers.

Each extern is realized as the canonical deterministic generator for its
declared target measure, driven by its own LCG seeded from the global seed
and the extern's name.  The K-equidistribution of these generators is an
assumption recorded as an axiom, not something proved here; the empirical
module can gather evidence for it.
"""
from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from . import measures as M
from .builtins import EvalError
from .kernels import DEFAULT_SEED, derive_seed, lcg_uniforms_from
from .parser import ExternDecl

_BLOCK = 8192


class ExternStream:
    """Deterministic memoized value source for one extern sampler.

    `make` turns a (count, uniforms_per_value) array of uniforms into the
    typed column (`runtime.column`) of count values, a float64 or a bool
    array, with elementwise float64 arithmetic that rounds as the same
    Python float expression would.
    """

    def __init__(self, name: str, seed: int, uniforms_per_value: int, make: Callable):
        self.name = name
        self.seed = seed
        self.per = uniforms_per_value
        self.make = make
        self._values: Optional[np.ndarray] = None
        self._state = seed  # the last LCG state consumed

    def column(self, upto: int) -> np.ndarray:
        """The memoized values, value i at position i - 1, at least upto of them."""
        have = 0 if self._values is None else len(self._values)
        if upto > have:
            count = max(upto - have, _BLOCK)
            u, self._state = lcg_uniforms_from(self._state, count * self.per)
            new = self.make(u.reshape(count, self.per))
            self._values = new if self._values is None else np.concatenate((self._values, new))
        return self._values

    def value(self, i: int):
        """1-based access, as a runtime value."""
        return self.column(i).item(i - 1)


def _uniform_builder(a: float, b: float) -> tuple[int, Callable]:
    if a == 0.0 and b == 1.0:
        return 1, lambda u: u[:, 0]
    width = b - a
    return 1, lambda u: a + width * u[:, 0]


def _bernoulli_builder(p: float) -> tuple[int, Callable]:
    return 1, lambda u: u[:, 0] < p


def _triangular_builder(a: float, b: float) -> tuple[int, Callable]:
    half = (b - a) / 2.0
    return 2, lambda u: a + half * (u[:, 0] + u[:, 1])


def build_extern_stream(decl: ExternDecl, global_seed: int = DEFAULT_SEED) -> ExternStream:
    seed = derive_seed(global_seed, decl.name)
    match decl.measure:
        case M.UniformM(a, b):
            per, make = _uniform_builder(a, b)
        case M.Bernoulli(p):
            per, make = _bernoulli_builder(p)
        case M.TriangularM(a, b):
            per, make = _triangular_builder(a, b)
        case _:
            raise EvalError(
                f"no concrete generator for extern '{decl.name}' targeting "
                f"{type(decl.measure).__name__}"
            )
    return ExternStream(decl.name, seed, per, make)


class Externs:
    """Registry of concrete extern streams for one evaluation context."""

    def __init__(self, decls: list[ExternDecl], seed: int = DEFAULT_SEED):
        self.seed = seed
        self.streams = {d.name: build_extern_stream(d, seed) for d in decls}

    def __contains__(self, name: str) -> bool:
        return name in self.streams

    def stream(self, name: str) -> ExternStream:
        if name not in self.streams:
            raise EvalError(f"unbound extern sampler '{name}'")
        return self.streams[name]
