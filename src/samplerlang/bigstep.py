"""Big-step evaluation: the reduction (t, N) -> v on closed terms.

A sampler evaluates to its entries on demand: a `Sampler` holds the
function that computes its entry i (1-based) as a (value, weight) pair,
and a memo of the entries read so far; it computes nothing until an entry
is read.  Each entry is the one the reduction rules give: an extern's
entry i is its i-th value, of weight 1; `tl` reads entry i + 1 of its
premise, `thin(k, .)` entry (i - 1)k + 1, and `hd` and `wt` entry 1;
`map` and `reweight` apply their function to the entries that are read;
`<*>` reads its left entry, then its right one, and multiplies their
weights; and a `prng`'s entry i is s^{i-1}(t), its list of values extended
one step at a time.  So an entry that a layer discards is never computed.

Terms are evaluated in environments (Landin 1964): a lambda evaluates to a
closure (`VClosure`), and application extends its environment.  Every
argument, let-bound term and case payload is evaluated first and bound as
a value, as in the stream engine, so a failing builtin in it raises even
if the body never uses it.

`eval_big(term, N)` reads entries 1..N of every sampler in the result, in
index order, and those of a sampler in an entry after its enclosing
sampler's, so its error is the first failing entry that is read.
"""
from __future__ import annotations

from .builtins import EvalError, apply_builtin
from .externs import Externs
from .runtime import WEIGHT_ONE, VClosure, VInj, WeightedList, destructure, scrutinee
from .terms import App, Builtin, Case, Cast, Const, Fst, Hd, Inj, Lam, Let, Map, Pair, Prng, Prod
from .terms import Reweight, Snd, Term, Thin, Tl, Var, Wt


class Sampler:
    """A sampler's value: entry(i) is its i-th (value, weight) pair,
    computed by read(i) when it is first asked for."""

    __slots__ = ("read", "memo")

    def __init__(self, read):
        self.read = read
        self.memo = {}

    def entry(self, i: int) -> tuple:
        if i not in self.memo:
            self.memo[i] = self.read(i)
        return self.memo[i]


class BigStep:
    def __init__(self, externs: Externs):
        self.externs = externs

    def eval(self, term: Term, env: dict):
        match term:
            case Var(name):
                if name in env:
                    return env[name]
                if name in self.externs:
                    stream = self.externs.stream(name)
                    return Sampler(lambda i: (stream.value(i), WEIGHT_ONE))
                raise EvalError(f"unbound variable '{name}'", term.pos)
            case Const(value):
                return value
            case Lam():
                return VClosure(term.params, term.body, env)
            case Builtin(op, args):
                return apply_builtin(op, [self.eval(a, env) for a in args], term.pos)
            case Cast(_, body):
                return self.eval(body, env)
            case Inj(index, body):
                return VInj(index, self.eval(body, env))
            case Case(scrut, branches):
                index, payload = scrutinee(self.eval(scrut, env), term.pos)
                binder, body = branches[index]
                return self.eval(body, env if binder == "_" else {**env, binder: payload})
            case Pair(left, right):
                return (self.eval(left, env), self.eval(right, env))
            case Fst(body):
                return _pair(self.eval(body, env), term.pos)[0]
            case Snd(body):
                return _pair(self.eval(body, env), term.pos)[1]
            case Let(name, bound, body):
                return self.eval(body, {**env, name: self.eval(bound, env)})
            case App(fn, arg):
                fv = self.eval(fn, env)
                return self.apply(fv, self.eval(arg, env), term.pos)
            case Hd(body):
                return self._sampler(body, env, term).entry(1)[0]
            case Wt(body):
                return self._sampler(body, env, term).entry(1)[1]
            case Tl(body):
                s = self._sampler(body, env, term)
                return Sampler(lambda i: s.entry(i + 1))
            case Thin(count, sampler):
                s = self._sampler(sampler, env, term)
                return Sampler(lambda i: s.entry((i - 1) * count + 1))
            case Prod(left, right):
                ls = self._sampler(left, env, term)
                rs = self._sampler(right, env, term)

                def product(i):
                    (lv, lw), (rv, rw) = ls.entry(i), rs.entry(i)
                    return (lv, rv), lw * rw

                return Sampler(product)
            case Map(fn, sampler):
                fv = self.eval(fn, env)
                s = self._sampler(sampler, env, term)

                def mapped(i):
                    v, w = s.entry(i)
                    return self.apply(fv, v), w

                return Sampler(mapped)
            case Reweight(fn, sampler):
                fv = self.eval(fn, env)
                s = self._sampler(sampler, env, term)

                def reweighted(i):
                    v, w = s.entry(i)
                    factor = self.apply(fv, v)
                    if factor < 0:
                        raise EvalError(f"negative weight {factor} from reweight", term.pos)
                    return v, factor * w

                return Sampler(reweighted)
            case Prng(step, seed):
                fv = self.eval(step, env)
                values = [self.eval(seed, env)]

                def iterate(i):
                    # entry i is s^{i-1}(t): i - 1 steps, none past the entry read
                    while len(values) < i:
                        values.append(self.apply(fv, values[-1]))
                    return values[i - 1], WEIGHT_ONE

                return Sampler(iterate)
        raise EvalError(f"cannot evaluate {term!r}", getattr(term, "pos", None))

    def apply(self, fn, arg, pos=None):
        """fn's body with its parameters bound to the value arg."""
        if not isinstance(fn, VClosure):
            raise EvalError(f"application of non-function {fn!r}", pos)
        env = dict(fn.env)
        env.update(destructure(fn.params, arg))
        return self.eval(fn.body, env)

    def _sampler(self, term: Term, env: dict, site: Term) -> Sampler:
        v = self.eval(term, env)
        if not isinstance(v, Sampler):
            raise EvalError(f"sampler operation applied to non-sampler value {v!r}", site.pos)
        return v


def _pair(v, pos) -> tuple:
    if not (isinstance(v, tuple) and len(v) == 2):
        raise EvalError(f"projection from non-pair {v!r}", pos)
    return v


def _prefix(v, n: int):
    """v with each sampler in it replaced by the WeightedList of its first
    n entries, read in index order before the samplers in them."""
    if isinstance(v, Sampler):
        entries = [v.entry(i) for i in range(1, n + 1)]
        return WeightedList([_prefix(x, n) for x, _ in entries], [w for _, w in entries])
    if isinstance(v, tuple):
        return tuple(_prefix(part, n) for part in v)
    if isinstance(v, VInj):
        return VInj(v.index, _prefix(v.value, n))
    return v


def eval_big(term: Term, n: int, externs: Externs):
    """Evaluate a closed term, reading N entries of each sampler in its value."""
    return _prefix(BigStep(externs).eval(term, {}), n)
