"""Big-step evaluation: the reduction (t, N) -> v on closed terms.

Faithful to the reduction rules: application and let substitute the argument
term, a sampler evaluated at N yields a WeightedList of length N, prng
weights are 1, products multiply weights, and thin(k, .) keeps entries
1, k+1, ..., (N-1)k+1 of the k*N-entry premise.  The prng premise chain
s^{n-1}(t) is evaluated by iterating on values, which by determinism gives
the same result as re-evaluating the composed term.
"""
from __future__ import annotations

from .builtins import EvalError, apply_builtin
from .externs import Externs
from .runtime import WEIGHT_ONE, VInj, WeightedList, scrutinee, value_to_term
from .terms import (
    App,
    Builtin,
    Case,
    Cast,
    Const,
    Fst,
    Hd,
    Inj,
    Lam,
    Let,
    Map,
    Pair,
    Prng,
    Prod,
    Reweight,
    Snd,
    Term,
    Thin,
    Tl,
    Var,
    Wt,
    beta,
    substitute,
)


class BigStep:
    def __init__(self, externs: Externs):
        self.externs = externs

    def eval(self, term: Term, n: int):
        match term:
            case Var(name):
                if name in self.externs:
                    return WeightedList(self.externs.stream(name).prefix(n))
                raise EvalError(f"unbound variable '{name}'", term.pos)

            case Const(value):
                return value

            case Lam():
                return term  # lambdas are values

            case Builtin(op, args):
                vals = [self.eval(a, n) for a in args]
                return apply_builtin(op, vals, term.pos)

            case Cast(_, body):
                return self.eval(body, n)

            case Inj(index, body):
                return VInj(index, self.eval(body, n))

            case Case(scrut, branches):
                index, payload = scrutinee(self.eval(scrut, n), term.pos)
                binder, body = branches[index]
                if binder != "_":
                    body = substitute(body, binder, value_to_term(payload))
                return self.eval(body, n)

            case Pair(left, right):
                return (self.eval(left, n), self.eval(right, n))

            case Fst(body):
                v = self.eval(body, n)
                self._need_pair(v, term)
                return v[0]

            case Snd(body):
                v = self.eval(body, n)
                self._need_pair(v, term)
                return v[1]

            case Let(name, bound, body):
                return self.eval(App(Lam(((name, None),), body), bound), n)

            case App(fn, arg):
                fv = self.eval(fn, n)
                if not isinstance(fv, Lam):
                    raise EvalError(f"application of non-function {fv!r}", term.pos)
                return self.eval(beta(fv, arg), n)

            case Hd(body):
                lst = self._sampler(body, max(n, 1), term)
                return lst.entries[0][0]

            case Wt(body):
                lst = self._sampler(body, max(n, 1), term)
                return lst.entries[0][1]

            case Tl(body):
                lst = self._sampler(body, n + 1, term)
                return WeightedList(lst.entries[1:])

            case Thin(count, sampler):
                lst = self._sampler(sampler, n * count, term)
                return WeightedList(lst.entries[::count][:n])

            case Prod(left, right):
                ls = self._sampler(left, n, term)
                rs = self._sampler(right, n, term)
                entries = [
                    ((lv, rv), lw * rw)
                    for (lv, lw), (rv, rw) in zip(ls.entries, rs.entries)
                ]
                return WeightedList(entries)

            case Map(fn, sampler):
                fv = self.eval(fn, n)
                lst = self._sampler(sampler, n, term)
                return WeightedList(
                    [(self.apply(fv, v, n), w) for v, w in lst.entries]
                )

            case Reweight(fn, sampler):
                fv = self.eval(fn, n)
                lst = self._sampler(sampler, n, term)
                entries = []
                for v, w in lst.entries:
                    factor = self.apply(fv, v, n)
                    if factor < 0:
                        raise EvalError(
                            f"negative weight {factor} from reweight", term.pos
                        )
                    entries.append((v, factor * w))
                return WeightedList(entries)

            case Prng(step, seed):
                fv = self.eval(step, n)
                cur = self.eval(seed, n)
                entries = []
                for _ in range(n):
                    entries.append((cur, WEIGHT_ONE))
                    cur = self.apply(fv, cur, n)
                return WeightedList(entries)

        raise EvalError(f"cannot evaluate {term!r}", getattr(term, "pos", None))

    # -- helpers -------------------------------------------------------------

    def apply(self, fn, value, n: int):
        if not isinstance(fn, Lam):
            raise EvalError(f"application of non-function {fn!r}")
        return self.eval(beta(fn, value_to_term(value)), n)

    def _sampler(self, term: Term, n: int, site: Term) -> WeightedList:
        v = self.eval(term, n)
        if not isinstance(v, WeightedList):
            raise EvalError(
                f"sampler operation applied to non-sampler value {v!r}", site.pos
            )
        return v

    def _need_pair(self, v, site: Term) -> None:
        if not (isinstance(v, tuple) and len(v) == 2):
            raise EvalError(f"projection from non-pair {v!r}", site.pos)


def eval_big(term: Term, n: int, externs: Externs):
    """Evaluate a closed term at sample budget N per the reduction rules."""
    return BigStep(externs).eval(term, n)
