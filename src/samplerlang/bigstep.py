"""Big-step evaluation: the reduction (t, N) -> v on closed terms.

Faithful to the reduction rules: a sampler evaluated at N yields a
WeightedList of length N, prng weights are 1, products multiply weights,
and thin(k, .) keeps entries 1, k+1, ..., (N-1)k+1 of the k*N-entry
premise.  The prng premise chain s^{n-1}(t) is evaluated by iterating on
values, which by determinism gives the same result as re-evaluating the
composed term.

Terms are evaluated in environments (Landin 1964), and a name reads what
substituting its binding would give.  A lambda evaluates to a closure
(`VClosure`); application extends its environment.  Call-by-value for data:
an argument or let-bound term whose value holds no sampler and no function
(`_is_data`) is evaluated first and bound as a value, so a failing builtin
in it raises even if the body never uses it, as in the stream engine.  A
case payload, and each entry that map, reweight and prng apply their
function to, are bound as values too.  A sampler or function argument is
bound as a `Thunk` of its term and environment, evaluated at each budget
its uses ask for; a parameter group takes the thunks of its projections.
"""
from __future__ import annotations

from dataclasses import dataclass

from .builtins import EvalError, apply_builtin
from .externs import Externs
from .runtime import WEIGHT_ONE, VClosure, VInj, WeightedList, scrutinee
from .terms import App, Builtin, Case, Cast, Const, Fst, Hd, Inj, Lam, Let, Map, Pair, Prng, Prod
from .terms import Reweight, Snd, Term, Thin, Tl, Var, Wt


@dataclass(eq=False, slots=True)
class Thunk:
    """A sampler or function bound to a name: its term and environment."""
    term: Term
    env: dict


class BigStep:
    def __init__(self, externs: Externs):
        self.externs = externs

    def eval(self, term: Term, n: int, env: dict):
        match term:
            case Var(name):
                if name in env:
                    v = env[name]
                    return self.eval(v.term, n, v.env) if type(v) is Thunk else v
                if name in self.externs:
                    values = self.externs.stream(name).column(n)[:n].tolist()
                    return WeightedList(values, [WEIGHT_ONE] * n)
                raise EvalError(f"unbound variable '{name}'", term.pos)
            case Const(value):
                return value
            case Lam():
                return VClosure(term.params, term.body, env)
            case Builtin(op, args):
                return apply_builtin(op, [self.eval(a, n, env) for a in args], term.pos)
            case Cast(_, body):
                return self.eval(body, n, env)
            case Inj(index, body):
                return VInj(index, self.eval(body, n, env))
            case Case(scrut, branches):
                index, payload = scrutinee(self.eval(scrut, n, env), term.pos)
                binder, body = branches[index]
                if binder != "_":
                    _holds_function(payload)
                    env = {**env, binder: payload}
                return self.eval(body, n, env)
            case Pair(left, right):
                return (self.eval(left, n, env), self.eval(right, n, env))
            case Fst(body):
                return _pair(self.eval(body, n, env), term.pos)[0]
            case Snd(body):
                return _pair(self.eval(body, n, env), term.pos)[1]
            case Let(name, bound, body):
                return self.eval(body, n, {**env, name: self._bind(bound, n, env)})
            case App(fn, arg):
                fv = self.eval(fn, n, env)
                if not isinstance(fv, VClosure):
                    raise EvalError(f"application of non-function {fv!r}", term.pos)
                return self.apply(fv, self._bind(arg, n, env), n)
            case Hd(body):
                return self._sampler(body, max(n, 1), env, term).values[0]
            case Wt(body):
                return self._sampler(body, max(n, 1), env, term).weights[0]
            case Tl(body):
                lst = self._sampler(body, n + 1, env, term)
                return WeightedList(lst.values[1:], lst.weights[1:])
            case Thin(count, sampler):
                lst = self._sampler(sampler, n * count, env, term)
                return WeightedList(lst.values[::count][:n], lst.weights[::count][:n])
            case Prod(left, right):
                ls = self._sampler(left, n, env, term)
                rs = self._sampler(right, n, env, term)
                weights = [lw * rw for lw, rw in zip(ls.weights, rs.weights)]
                return WeightedList(list(zip(ls.values, rs.values)), weights)
            case Map(fn, sampler):
                fv = self.eval(fn, n, env)
                lst = self._sampler(sampler, n, env, term)
                return WeightedList([self.apply_entry(fv, v, n) for v in lst.values], lst.weights)
            case Reweight(fn, sampler):
                fv = self.eval(fn, n, env)
                lst = self._sampler(sampler, n, env, term)
                weights = []
                for v, w in zip(lst.values, lst.weights):
                    factor = self.apply_entry(fv, v, n)
                    if factor < 0:
                        raise EvalError(f"negative weight {factor} from reweight", term.pos)
                    weights.append(factor * w)
                return WeightedList(lst.values, weights)
            case Prng(step, seed):
                fv = self.eval(step, n, env)
                values = [self.eval(seed, n, env)]
                # entry n is s^{n-1}(t): n - 1 steps, none past the last entry
                for _ in range(n - 1):
                    values.append(self.apply_entry(fv, values[-1], n))
                return WeightedList(values[:n], [WEIGHT_ONE] * n)
        raise EvalError(f"cannot evaluate {term!r}", getattr(term, "pos", None))

    def apply(self, fn: VClosure, arg, n: int):
        """fn's body with its parameters bound to arg, a value or a Thunk."""
        env = dict(fn.env)
        for name, _ in fn.params[:-1]:
            if type(arg) is Thunk:
                env[name] = Thunk(Fst(arg.term), arg.env)
                arg = Thunk(Snd(arg.term), arg.env)
            else:
                env[name], arg = _pair(arg, None)
        env[fn.params[-1][0]] = arg
        return self.eval(fn.body, n, env)

    def apply_entry(self, fn, value, n: int):
        if not isinstance(fn, VClosure):
            raise EvalError(f"application of non-function {fn!r}")
        _holds_function(value)
        return self.apply(fn, value, n)

    def _bind(self, term: Term, n: int, env: dict):
        """What an argument or a let's bound term binds its name to."""
        return self.eval(term, n, env) if _is_data(term, env, {}) else Thunk(term, env)

    def _sampler(self, term: Term, n: int, env: dict, site: Term) -> WeightedList:
        v = self.eval(term, n, env)
        if not isinstance(v, WeightedList):
            raise EvalError(f"sampler operation applied to non-sampler value {v!r}", site.pos)
        return v


def _pair(v, pos) -> tuple:
    if not (isinstance(v, tuple) and len(v) == 2):
        raise EvalError(f"projection from non-pair {v!r}", pos)
    return v


def _holds_function(v) -> bool:
    """Whether the value holds a function.  A sampler's list at one budget
    cannot be bound to a name, which reads it at any budget."""
    if isinstance(v, tuple):
        return any([_holds_function(part) for part in v])
    if isinstance(v, VInj):
        return _holds_function(v.value)
    if isinstance(v, WeightedList):
        raise EvalError(f"value {v!r} cannot be embedded as a term")
    return isinstance(v, VClosure)


def _is_data(term: Term, env: dict, local: dict) -> bool:
    """Whether the term's value in env surely holds no sampler and no
    function; local says it of the names bound inside the term.  A name in
    env reads as its value or its thunk's term would if substituted.  A term
    it cannot tell about counts as not data, and is bound as a thunk."""
    match term:
        case Const() | Builtin() | Wt():
            return True
        case Var(name) if name in local or name not in env:
            return local.get(name, False)  # a free name is an extern sampler
        case Var(name):  # a thunk's term is not data: that is why it is one
            return type(env[name]) is not Thunk and not _holds_function(env[name])
        case Cast(_, body) | Inj(_, body) | Fst(body) | Snd(body):
            # a projection is data if the whole pair is
            return _is_data(body, env, local)
        case Pair(left, right):
            return _is_data(left, env, local) and _is_data(right, env, local)
        case Let(name, bound, body):
            return _is_data(body, env, {**local, name: _is_data(bound, env, local)})
        case App(fn, arg):
            return _applied_is_data(fn, _is_data(arg, env, local), env, local)
        case Case(scrut, branches):
            data = _is_data(scrut, env, local)
            return all(_is_data(body, env, {**local, binder: data}) for binder, body in branches)
        case Hd(sampler):
            return _payload_is_data(sampler, env, local)
    return False


def _applied_is_data(fn: Term, data: bool, env: dict, local: dict) -> bool:
    """Whether fn applied to an argument (data if `data`) is data, where fn
    is a lambda or a name bound to one; False for any other fn."""
    v = env.get(fn.name) if type(fn) is Var and fn.name not in local else fn
    if type(v) is Thunk:
        return _applied_is_data(v.term, data, v.env, {})
    if type(v) is VClosure:
        env, local = v.env, {}
    elif type(v) is not Lam:
        return False
    return _is_data(v.body, env, {**local, **{name: data for name, _ in v.params}})


def _payload_is_data(term: Term, env: dict, local: dict) -> bool:
    """Whether the entries of the sampler term surely hold no sampler and no function."""
    match term:
        case Var(name) if name not in local:
            v = env.get(name)
            if type(v) is Thunk:
                return _payload_is_data(v.term, v.env, {})
            return name not in env  # an extern: its values are numbers or Booleans
        case Map(fn, sampler):
            return _applied_is_data(fn, _payload_is_data(sampler, env, local), env, local)
        case Reweight(_, sampler) | Tl(sampler) | Thin(_, sampler):
            return _payload_is_data(sampler, env, local)
        case Prod(left, right):
            return _payload_is_data(left, env, local) and _payload_is_data(right, env, local)
        case Prng(_, seed):
            return _is_data(seed, env, local)
    return False


def eval_big(term: Term, n: int, externs: Externs):
    """Evaluate a closed term at sample budget N per the reduction rules."""
    return BigStep(externs).eval(term, n, {})
