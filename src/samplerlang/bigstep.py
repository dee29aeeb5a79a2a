"""Big-step evaluation: the reduction (t, N) -> v on closed terms.

Faithful to the reduction rules: a sampler evaluated at N yields a
WeightedList of length N, prng weights are 1, products multiply weights,
and thin(k, .) keeps entries 1, k+1, ..., (N-1)k+1 of the k*N-entry
premise.  The prng premise chain s^{n-1}(t) is evaluated by iterating on
values, which by determinism gives the same result as re-evaluating the
composed term.

Application and let are call-by-value for data: an argument or bound term
whose value holds no sampler and no function (`_is_data`) is evaluated
first, and its value substituted (`value_to_term`), as `apply` does for
map, reweight and prng.  So a failing builtin in an argument or a `let`
raises there even if the body never uses it, as in the stream engine and
the compiled functions.  A sampler or function argument is substituted as
a term, since a sampler is evaluated at each budget its uses ask for.
"""
from __future__ import annotations

from typing import Optional

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
                    values = self.externs.stream(name).column(n)[:n].tolist()
                    return WeightedList(values, [WEIGHT_ONE] * n)
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
                if _is_data(arg):
                    return self.apply(fv, self.eval(arg, n), n)
                return self.eval(beta(fv, arg), n)

            case Hd(body):
                lst = self._sampler(body, max(n, 1), term)
                return lst.values[0]

            case Wt(body):
                lst = self._sampler(body, max(n, 1), term)
                return lst.weights[0]

            case Tl(body):
                lst = self._sampler(body, n + 1, term)
                return WeightedList(lst.values[1:], lst.weights[1:])

            case Thin(count, sampler):
                lst = self._sampler(sampler, n * count, term)
                return WeightedList(lst.values[::count][:n], lst.weights[::count][:n])

            case Prod(left, right):
                ls = self._sampler(left, n, term)
                rs = self._sampler(right, n, term)
                return WeightedList(
                    list(zip(ls.values, rs.values)),
                    [lw * rw for lw, rw in zip(ls.weights, rs.weights)],
                )

            case Map(fn, sampler):
                fv = self.eval(fn, n)
                lst = self._sampler(sampler, n, term)
                return WeightedList([self.apply(fv, v, n) for v in lst.values], lst.weights)

            case Reweight(fn, sampler):
                fv = self.eval(fn, n)
                lst = self._sampler(sampler, n, term)
                weights = []
                for v, w in zip(lst.values, lst.weights):
                    factor = self.apply(fv, v, n)
                    if factor < 0:
                        raise EvalError(
                            f"negative weight {factor} from reweight", term.pos
                        )
                    weights.append(factor * w)
                return WeightedList(lst.values, weights)

            case Prng(step, seed):
                fv = self.eval(step, n)
                values = [self.eval(seed, n)]
                # entry n is s^{n-1}(t): n - 1 steps, none past the last entry
                for _ in range(n - 1):
                    values.append(self.apply(fv, values[-1], n))
                return WeightedList(values[:n], [WEIGHT_ONE] * n)

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


def _is_data(term: Term, env: Optional[dict] = None) -> bool:
    """Whether the closed term's value surely holds no sampler and no
    function; env says it of the names bound inside the term.  A term it
    cannot tell about counts as not data, and is substituted as before."""
    env = env or {}
    match term:
        case Const() | Builtin() | Wt():
            return True
        case Var(name):
            return env.get(name, False)  # a free name is an extern sampler
        case Cast(_, body) | Inj(_, body) | Fst(body) | Snd(body):
            # a projection is data if the whole pair is
            return _is_data(body, env)
        case Pair(left, right):
            return _is_data(left, env) and _is_data(right, env)
        case Let(name, bound, body):
            return _is_data(body, {**env, name: _is_data(bound, env)})
        case App(Lam(params, body), arg):
            data = _is_data(arg, env)
            return _is_data(body, {**env, **{name: data for name, _ in params}})
        case Case(scrut, branches):
            data = _is_data(scrut, env)
            return all(_is_data(body, {**env, binder: data}) for binder, body in branches)
        case Hd(sampler):
            return _payload_is_data(sampler, env)
    return False


def _payload_is_data(term: Term, env: dict) -> bool:
    """Whether the entries of the closed sampler term surely hold no sampler
    and no function."""
    match term:
        case Var(name):
            return name not in env  # an extern: its values are numbers or Booleans
        case Map(Lam(params, body), sampler):
            data = _payload_is_data(sampler, env)
            return _is_data(body, {**env, **{name: data for name, _ in params}})
        case Reweight(_, sampler) | Tl(sampler) | Thin(_, sampler):
            return _payload_is_data(sampler, env)
        case Prod(left, right):
            return _payload_is_data(left, env) and _payload_is_data(right, env)
        case Prng(_, seed):
            return _is_data(seed, env)
    return False


def eval_big(term: Term, n: int, externs: Externs):
    """Evaluate a closed term at sample budget N per the reduction rules."""
    return BigStep(externs).eval(term, n)
