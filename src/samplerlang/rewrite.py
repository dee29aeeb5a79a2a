"""Sampler equivalence: rewrite rules, bounded proving, and normalization.

Each rule rewrites at a position, in either orientation; a proof is two
oriented step chains from both endpoints meeting at a common term, so
one-way rules (beta, let inlining) never need inverting during replay.
Normalization pulls map/reweight outward into the alternating spine over a
core free of them; termination is by the documented measure (checked in
tests): (destructors above map/reweight, map+reweight count, thin+product
count, term size) decreasing lexicographically.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from .terms import (
    App,
    Builtin,
    Case,
    Const,
    Fst,
    Hd,
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
    alpha_equal,
    as_ite,
    children,
    free_vars,
    fresh_name,
    positions,
    replace_at,
    subterm_at,
    substitute,
    term_size,
)


class RewriteError(Exception):
    pass


# ---------------------------------------------------------------------------
# Combinator builders (identity, constant-1, composition, products)
# ---------------------------------------------------------------------------


def _fresh(avoid_terms, base="x"):
    avoid = set()
    for t in avoid_terms:
        avoid |= free_vars(t)
    return fresh_name(base, avoid)


def id_fn() -> Lam:
    return Lam((("x", None),), Var("x"))


def one_fn() -> Lam:
    return Lam((("x", None),), Const(1))


def compose(g: Term, f: Term) -> Lam:
    x = _fresh([g, f])
    return Lam(((x, None),), App(g, App(f, Var(x))))


def iterate_fn(f: Term, n: int) -> Lam:
    x = _fresh([f])
    body: Term = Var(x)
    for _ in range(n):
        body = App(f, body)
    return Lam(((x, None),), body)


def cart(f: Term, g: Term) -> Lam:
    p = _fresh([f, g], "p")
    return Lam(((p, None),), Pair(App(f, Fst(Var(p))), App(g, Snd(Var(p)))))


def ptwise_pair(f: Term, g: Term) -> Lam:
    p = _fresh([f, g], "p")
    return Lam(
        ((p, None),),
        Builtin("times", (App(f, Fst(Var(p))), App(g, Snd(Var(p))))),
    )


def ptwise_same(g: Term, f: Term) -> Lam:
    x = _fresh([f, g])
    return Lam(((x, None),), Builtin("times", (App(f, Var(x)), App(g, Var(x)))))


def _match_cart(t: Term) -> Optional[tuple[Term, Term]]:
    match t:
        case Lam(((p, _),), Pair(App(f, Fst(Var(p1))), App(g, Snd(Var(p2))))) if (
            p1 == p and p2 == p and p not in free_vars(f) and p not in free_vars(g)
        ):
            return f, g
    return None


def _match_ptwise_pair(t: Term) -> Optional[tuple[Term, Term]]:
    match t:
        case Lam(
            ((p, _),), Builtin("times", (App(f, Fst(Var(p1))), App(g, Snd(Var(p2)))))
        ) if p1 == p and p2 == p and p not in free_vars(f) and p not in free_vars(g):
            return f, g
    return None


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rule:
    """A rule's orientations; each matches only terms of its head class."""

    name: str
    fwd: Callable[[Term], Optional[Term]]
    bwd: Optional[Callable[[Term], Optional[Term]]]
    fwd_head: type
    bwd_head: Optional[type] = None
    note: str = ""


def _beta_fwd(t: Term) -> Optional[Term]:
    match t:
        case App(Lam(params, body), arg):
            if len(params) == 1:
                return substitute(body, params[0][0], arg)
            avoid = set(free_vars(arg) | free_vars(body))
            renamed = []
            for name, _ in params:
                nm = fresh_name(name, avoid)
                avoid.add(nm)
                body = substitute(body, name, Var(nm))
                renamed.append(nm)
            access: Term = arg
            for nm in renamed[:-1]:
                body = substitute(body, nm, Fst(access))
                access = Snd(access)
            return substitute(body, renamed[-1], access)
    return None


def _eta_fwd(t: Term) -> Optional[Term]:
    match t:
        case Lam(((x, _),), App(f, Var(x1))) if x1 == x and x not in free_vars(f):
            return f
    return None


def _let_fwd(t: Term) -> Optional[Term]:
    match t:
        case Let(name, bound, body):
            return App(Lam(((name, None),), body), bound)
    return None


def _let_bwd(t: Term) -> Optional[Term]:
    match t:
        case App(Lam(((name, _),), body), bound):
            return Let(name, bound, body)
    return None


def _ite_true_fwd(t: Term) -> Optional[Term]:
    sugar = as_ite(t)
    if sugar is not None and alpha_equal(sugar[0], Const(True)):
        return sugar[1]
    return None


def _ite_false_fwd(t: Term) -> Optional[Term]:
    sugar = as_ite(t)
    if sugar is not None and alpha_equal(sugar[0], Const(False)):
        return sugar[2]
    return None


def _fst_pair_fwd(t: Term) -> Optional[Term]:
    match t:
        case Fst(Pair(a, _)):
            return a
    return None


def _snd_pair_fwd(t: Term) -> Optional[Term]:
    match t:
        case Snd(Pair(_, b)):
            return b
    return None


def _mk(name, fwd, bwd=(None, None), note=""):
    """A rule from (head class, function) pairs, one per orientation."""
    return Rule(name, fwd[1], bwd[1], fwd[0], bwd[0], note)


def _rules() -> dict[str, Rule]:
    rules: list[Rule] = []

    rules.append(_mk("beta", (App, _beta_fwd)))
    rules.append(_mk("eta", (Lam, _eta_fwd)))
    rules.append(_mk("let", (Let, _let_fwd), (App, _let_bwd)))
    rules.append(_mk("ite_true", (Case, _ite_true_fwd)))
    rules.append(_mk("ite_false", (Case, _ite_false_fwd)))
    rules.append(_mk("fst_pair", (Fst, _fst_pair_fwd)))
    rules.append(_mk("snd_pair", (Snd, _snd_pair_fwd)))

    # head/weight/tail of each constructor
    def hd_map_f(t):
        match t:
            case Hd(Map(f, s)):
                return App(f, Hd(s))
        return None

    def hd_map_b(t):
        match t:
            case App(f, Hd(s)):
                return Hd(Map(f, s))
        return None

    rules.append(_mk("hd_map", (Hd, hd_map_f), (App, hd_map_b)))

    def wt_map_f(t):
        match t:
            case Wt(Map(_, s)):
                return Wt(s)
        return None

    rules.append(_mk("wt_map", (Wt, wt_map_f)))

    def tl_map_f(t):
        match t:
            case Tl(Map(f, s)):
                return Map(f, Tl(s))
        return None

    def tl_map_b(t):
        match t:
            case Map(f, Tl(s)):
                return Tl(Map(f, s))
        return None

    rules.append(_mk("tl_map", (Tl, tl_map_f), (Map, tl_map_b)))

    def hd_prod_f(t):
        match t:
            case Hd(Prod(s, u)):
                return Pair(Hd(s), Hd(u))
        return None

    def hd_prod_b(t):
        match t:
            case Pair(Hd(s), Hd(u)):
                return Hd(Prod(s, u))
        return None

    rules.append(_mk("hd_prod", (Hd, hd_prod_f), (Pair, hd_prod_b)))

    def wt_prod_f(t):
        match t:
            case Wt(Prod(s, u)):
                return Builtin("times", (Wt(s), Wt(u)))
        return None

    def wt_prod_b(t):
        match t:
            case Builtin("times", (Wt(s), Wt(u))):
                return Wt(Prod(s, u))
        return None

    rules.append(_mk("wt_prod", (Wt, wt_prod_f), (Builtin, wt_prod_b)))

    def tl_prod_f(t):
        match t:
            case Tl(Prod(s, u)):
                return Prod(Tl(s), Tl(u))
        return None

    def tl_prod_b(t):
        match t:
            case Prod(Tl(s), Tl(u)):
                return Tl(Prod(s, u))
        return None

    rules.append(_mk("tl_prod", (Tl, tl_prod_f), (Prod, tl_prod_b)))

    def hd_thin_f(t):
        match t:
            case Hd(Thin(_, s)):
                return Hd(s)
        return None

    rules.append(_mk("hd_thin", (Hd, hd_thin_f)))

    def wt_thin_f(t):
        match t:
            case Wt(Thin(_, s)):
                return Wt(s)
        return None

    rules.append(_mk("wt_thin", (Wt, wt_thin_f)))

    def tl_thin_f(t):
        match t:
            case Tl(Thin(n, s)):
                inner = s
                for _ in range(n):
                    inner = Tl(inner)
                return Thin(n, inner)
        return None

    def tl_thin_b(t):
        match t:
            case Thin(n, s):
                inner = s
                for _ in range(n):
                    if not isinstance(inner, Tl):
                        return None
                    inner = inner.body
                return Tl(Thin(n, inner))
        return None

    rules.append(_mk("tl_thin", (Tl, tl_thin_f), (Thin, tl_thin_b)))

    def thin_one_f(t):
        match t:
            case Thin(1, s):
                return s
        return None

    # no backward orientation: wrapping arbitrary terms in thin(1, .) would
    # make every position a redex during search
    rules.append(_mk("thin_one", (Thin, thin_one_f)))

    def hd_prng_f(t):
        match t:
            case Hd(Prng(_, seed)):
                return seed
        return None

    rules.append(_mk("hd_prng", (Hd, hd_prng_f)))

    def wt_prng_f(t):
        match t:
            case Wt(Prng(_, _)):
                return Const(1.0)  # weights are doubles
        return None

    rules.append(_mk("wt_prng", (Wt, wt_prng_f)))

    def tl_prng_f(t):
        match t:
            case Tl(Prng(s, seed)):
                return Prng(s, App(s, seed))
        return None

    def tl_prng_b(t):
        match t:
            case Prng(s, App(s2, seed)) if alpha_equal(s, s2):
                return Tl(Prng(s, seed))
        return None

    rules.append(_mk("tl_prng", (Tl, tl_prng_f), (Prng, tl_prng_b)))

    def hd_reweight_f(t):
        match t:
            case Hd(Reweight(_, s)):
                return Hd(s)
        return None

    rules.append(_mk("hd_reweight", (Hd, hd_reweight_f)))

    def wt_reweight_f(t):
        match t:
            case Wt(Reweight(f, s)):
                return Builtin("times", (App(f, Hd(s)), Wt(s)))
        return None

    rules.append(_mk("wt_reweight", (Wt, wt_reweight_f)))

    def tl_reweight_f(t):
        match t:
            case Tl(Reweight(f, s)):
                return Reweight(f, Tl(s))
        return None

    def tl_reweight_b(t):
        match t:
            case Reweight(f, Tl(s)):
                return Tl(Reweight(f, s))
        return None

    rules.append(_mk("tl_reweight", (Tl, tl_reweight_f), (Reweight, tl_reweight_b)))

    # composition rules
    def thin_thin_f(t):
        match t:
            case Thin(n, Thin(m, s)):
                return Thin(n * m, s)
        return None

    rules.append(_mk("thin_thin", (Thin, thin_thin_f)))

    def map_map_f(t):
        match t:
            case Map(g, Map(f, s)):
                return Map(compose(g, f), s)
        return None

    def map_map_b(t):
        match t:
            case Map(Lam(((x, _),), App(g, App(f, Var(x1)))), s) if (
                x1 == x and x not in free_vars(g) and x not in free_vars(f)
            ):
                return Map(g, Map(f, s))
        return None

    rules.append(_mk("map_map", (Map, map_map_f), (Map, map_map_b)))

    def rw_rw_f(t):
        match t:
            case Reweight(g, Reweight(f, s)):
                return Reweight(ptwise_same(g, f), s)
        return None

    rules.append(_mk("reweight_reweight", (Reweight, rw_rw_f)))

    def thin_prng_f(t):
        match t:
            case Thin(n, Prng(s, seed)):
                return Prng(iterate_fn(s, n), seed)
        return None

    rules.append(_mk("thin_prng", (Thin, thin_prng_f)))

    def thin_map_f(t):
        match t:
            case Thin(n, Map(f, s)):
                return Map(f, Thin(n, s))
        return None

    def thin_map_b(t):
        match t:
            case Map(f, Thin(n, s)):
                return Thin(n, Map(f, s))
        return None

    rules.append(_mk("thin_map", (Thin, thin_map_f), (Map, thin_map_b)))

    def thin_reweight_f(t):
        match t:
            case Thin(n, Reweight(f, s)):
                return Reweight(f, Thin(n, s))
        return None

    def thin_reweight_b(t):
        match t:
            case Reweight(f, Thin(n, s)):
                return Thin(n, Reweight(f, s))
        return None

    rules.append(
        _mk(
            "thin_reweight",
            (Thin, thin_reweight_f),
            (Reweight, thin_reweight_b),
            note="companion of thin_map used by the reweight self-product lemma",
        )
    )

    # product rules
    def prod_map_r_f(t):
        match t:
            case Prod(s, Map(g, u)):
                return Map(cart(id_fn(), g), Prod(s, u))
        return None

    rules.append(_mk("prod_map_r", (Prod, prod_map_r_f)))

    def prod_map_l_f(t):
        match t:
            case Prod(Map(f, s), u):
                return Map(cart(f, id_fn()), Prod(s, u))
        return None

    rules.append(_mk("prod_map_l", (Prod, prod_map_l_f)))

    def prod_map_both_f(t):
        match t:
            case Prod(Map(f, s), Map(g, u)):
                return Map(cart(f, g), Prod(s, u))
        return None

    def prod_map_both_b(t):
        match t:
            case Map(fn, Prod(s, u)):
                pair = _match_cart(fn)
                if pair is not None:
                    return Prod(Map(pair[0], s), Map(pair[1], u))
        return None

    rules.append(
        _mk(
            "prod_map_both",
            (Prod, prod_map_both_f),
            (Map, prod_map_both_b),
            note="derived: both-sided product/map exchange",
        )
    )

    def prod_rw_r_f(t):
        match t:
            case Prod(s, Reweight(g, u)):
                return Reweight(ptwise_pair(one_fn(), g), Prod(s, u))
        return None

    rules.append(_mk("prod_reweight_r", (Prod, prod_rw_r_f)))

    def prod_rw_l_f(t):
        match t:
            case Prod(Reweight(f, s), u):
                return Reweight(ptwise_pair(f, one_fn()), Prod(s, u))
        return None

    rules.append(_mk("prod_reweight_l", (Prod, prod_rw_l_f)))

    def prod_rw_both_f(t):
        match t:
            case Prod(Reweight(f, s), Reweight(g, u)):
                return Reweight(ptwise_pair(f, g), Prod(s, u))
        return None

    def prod_rw_both_b(t):
        match t:
            case Reweight(fn, Prod(s, u)):
                pair = _match_ptwise_pair(fn)
                if pair is not None:
                    return Prod(Reweight(pair[0], s), Reweight(pair[1], u))
        return None

    rules.append(
        _mk(
            "prod_reweight_both",
            (Prod, prod_rw_both_f),
            (Reweight, prod_rw_both_b),
            note="derived: both-sided product/reweight exchange",
        )
    )

    def prod_prng_f(t):
        match t:
            case Prod(Prng(f, a), Prng(g, b)):
                return Prng(cart(f, g), Pair(a, b))
        return None

    def prod_prng_b(t):
        match t:
            case Prng(fn, Pair(a, b)):
                pair = _match_cart(fn)
                if pair is not None:
                    return Prod(Prng(pair[0], a), Prng(pair[1], b))
        return None

    rules.append(_mk("prod_prng", (Prod, prod_prng_f), (Prng, prod_prng_b)))

    def prod_thin_f(t):
        match t:
            case Prod(Thin(n, s), Thin(m, u)) if n == m:
                return Thin(n, Prod(s, u))
        return None

    def prod_thin_b(t):
        match t:
            case Thin(n, Prod(s, u)):
                return Prod(Thin(n, s), Thin(n, u))
        return None

    rules.append(_mk("prod_thin", (Prod, prod_thin_f), (Thin, prod_thin_b)))

    return {r.name: r for r in rules}


RULES: dict[str, Rule] = _rules()


def _orientations_by_head() -> dict[type, list[tuple[str, bool, Callable]]]:
    """For each head class, its orientations: RULES order, forward first."""
    table: dict[type, list] = {}
    for rule in RULES.values():
        table.setdefault(rule.fwd_head, []).append((rule.name, True, rule.fwd))
        if rule.bwd is not None:
            table.setdefault(rule.bwd_head, []).append((rule.name, False, rule.bwd))
    return table


_BY_HEAD = _orientations_by_head()

TABLE_RULES = [
    name
    for name in RULES
    if name not in ("prod_map_both", "prod_reweight_both", "thin_reweight")
]


# ---------------------------------------------------------------------------
# Rule application and proofs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Step:
    rule: str
    path: tuple[int, ...]
    forward: bool = True

    def to_json(self):
        return [self.rule, list(self.path), "fwd" if self.forward else "bwd"]

    @staticmethod
    def from_json(data) -> "Step":
        rule, path, direction = data
        return Step(rule, tuple(path), direction == "fwd")


def apply_rule(rule_name: str, term: Term, path: tuple[int, ...] = (), forward: bool = True) -> Term:
    """One rewrite step at `path`; raises RewriteError if nothing matches."""
    rule = RULES.get(rule_name)
    if rule is None:
        raise RewriteError(f"unknown rule '{rule_name}'")
    target = subterm_at(term, path)
    fn = rule.fwd if forward else rule.bwd
    if fn is None:
        raise RewriteError(f"rule '{rule_name}' has no {'forward' if forward else 'backward'} orientation")
    replacement = fn(target)
    if replacement is None:
        raise RewriteError(f"rule '{rule_name}' does not match at position {path}")
    return replace_at(term, path, replacement)


@dataclass
class EquivProof:
    """Two oriented chains from the endpoints to a common midpoint."""

    start: Term
    end: Term
    left_steps: list[Step] = field(default_factory=list)
    right_steps: list[Step] = field(default_factory=list)

    def replay(self) -> bool:
        left = self.start
        for step in self.left_steps:
            left = apply_rule(step.rule, left, step.path, step.forward)
        right = self.end
        for step in self.right_steps:
            right = apply_rule(step.rule, right, step.path, step.forward)
        return alpha_equal(left, right)

    def to_json(self):
        return {
            "left": [s.to_json() for s in self.left_steps],
            "right": [s.to_json() for s in self.right_steps],
        }

    @staticmethod
    def from_json(data, start: Term, end: Term) -> "EquivProof":
        return EquivProof(
            start,
            end,
            [Step.from_json(s) for s in data.get("left", [])],
            [Step.from_json(s) for s in data.get("right", [])],
        )


def _canon(t: Term) -> str:
    """Canonical string modulo alpha, for search deduplication."""
    out: list[str] = []

    def go(term: Term, env: dict[str, str], depth: int):
        match term:
            case Var(name):
                out.append(env.get(name, f"${name}"))
            case Const(value):
                out.append(f"#{value!r}")
            case Lam(params, body):
                out.append(f"lam{len(params)}(")
                env2 = dict(env)
                for i, (n, _) in enumerate(params):
                    env2[n] = f"b{depth}.{i}"
                go(body, env2, depth + 1)
                out.append(")")
            case Let(name, bound, body):
                out.append("let(")
                go(bound, env, depth)
                env2 = dict(env)
                env2[name] = f"b{depth}.0"
                go(body, env2, depth + 1)
                out.append(")")
            case Case(scrutinee, branches):
                out.append("case(")
                go(scrutinee, env, depth)
                for binder, body in branches:
                    env2 = dict(env)
                    env2[binder] = f"b{depth}.0"
                    out.append("|")
                    go(body, env2, depth + 1)
                out.append(")")
            case Builtin(op, args):
                out.append(f"{op}(")
                for a in args:
                    go(a, env, depth)
                    out.append(",")
                out.append(")")
            case Thin(count, sampler):
                out.append(f"thin{count}(")
                go(sampler, env, depth)
                out.append(")")
            case _:
                out.append(type(term).__name__ + "(")
                for kid in children(term):
                    go(kid, env, depth)
                    out.append(",")
                out.append(")")

    go(t, {}, 0)
    return "".join(out)


def _subterm_sizes(term: Term) -> dict[int, int]:
    """The size of every subterm of term, by id: valid while term is alive,
    since no other live object has the id of one of its subterms."""
    sizes: dict[int, int] = {}

    def go(t: Term) -> int:
        n = sizes[id(t)] = 1 + sum(go(kid) for kid in children(t))
        return n

    go(term)
    return sizes


def _size_with(t: Term, sizes: dict[int, int]) -> int:
    """term_size(t), looking up the subterms whose sizes are known."""
    n = sizes.get(id(t))
    return n if n is not None else 1 + sum(_size_with(kid, sizes) for kid in children(t))


def _neighbors(term: Term, size_cap: int):
    """One-step rewrites within the size cap: positions x RULES order, each
    rule forward before backward.  A rewrite's replacement mostly reuses
    subterms of the redex, so its size is counted from the known sizes."""
    sizes = _subterm_sizes(term)
    size = sizes[id(term)]
    for path, sub in positions(term):
        for name, forward, fn in _BY_HEAD.get(type(sub), ()):
            replacement = fn(sub)
            if replacement is None:
                continue
            if size - sizes[id(sub)] + _size_with(replacement, sizes) <= size_cap:
                yield Step(name, path, forward), replace_at(term, path, replacement)


def prove_equiv(s: Term, t: Term, depth: int = 8, size_factor: int = 4) -> Optional[EquivProof]:
    """Bidirectional bounded search; None means inconclusive, not refuted."""
    if alpha_equal(s, t):
        return EquivProof(s, t)
    size_cap = size_factor * max(term_size(s), term_size(t))
    # states are deduplicated modulo alpha but not binder annotations, which
    # alpha_equal (and so replay) compares: the sides meet only where their
    # terms are alpha-equal
    seen: dict[str, tuple[str, list[Step], Term]] = {}
    frontier = deque([(s, [], "L", 0), (t, [], "R", 0)])
    seen[_canon(s)] = ("L", [], s)
    seen[_canon(t)] = ("R", [], t)
    while frontier:
        term, steps, side, d = frontier.popleft()
        if d >= depth:
            continue
        for step, nxt in _neighbors(term, size_cap):
            key = _canon(nxt)
            if key in seen:
                other_side, other_steps, other = seen[key]
                if other_side != side and alpha_equal(nxt, other):
                    left = steps + [step] if side == "L" else other_steps
                    right = other_steps if side == "L" else steps + [step]
                    return EquivProof(s, t, list(left), list(right))
                continue
            seen[key] = (side, steps + [step], nxt)
            frontier.append((nxt, steps + [step], side, d + 1))
    return None


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

_INLINE_RULES = ("let", "beta", "ite_true", "ite_false", "fst_pair", "snd_pair")
_PULL_RULES = (
    "hd_map", "hd_thin", "hd_reweight", "hd_prng",
    "wt_map", "wt_thin", "wt_reweight", "wt_prng",
    "tl_map", "tl_reweight", "tl_prng",
    "thin_one", "thin_thin", "thin_map", "thin_reweight", "thin_prng",
    "map_map", "reweight_reweight",
    "prod_map_l", "prod_map_r", "prod_reweight_l", "prod_reweight_r",
)

_MAX_STEPS = 10000


def _first_redex(term: Term, rule_names) -> Optional[Step]:
    best: Optional[Step] = None
    for path, sub in sorted(positions(term), key=lambda pair: pair[0]):
        for name in rule_names:
            rule = RULES[name]
            if type(sub) is rule.fwd_head and rule.fwd(sub) is not None:
                return Step(name, path, True)
    return best


def measure(t: Term) -> tuple[int, int, int, int]:
    """The termination measure for the pull phase (see module docstring)."""
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


def normalize(t: Term) -> tuple[Term, list[Step]]:
    """Pull tl/hd/wt/thin/<*> inward past map and reweight, to fixpoint.

    Returns the normal form and the step trace (an EquivProof chain from the
    input).  Terms containing prng keep it in the core; only let/beta and the
    orientable Table rules fire.
    """
    steps: list[Step] = []
    cur = t
    for _ in range(_MAX_STEPS):
        step = _first_redex(cur, _INLINE_RULES)
        if step is None:
            step = _first_redex(cur, _PULL_RULES)
        if step is None:
            return cur, steps
        cur = apply_rule(step.rule, cur, step.path, True)
        steps.append(step)
    raise RewriteError("normalization exceeded the step budget")


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


# ---------------------------------------------------------------------------
# Self-product lemmas
# ---------------------------------------------------------------------------


def _fixpoint_with(term: Term, rule_names, steps: list[Step]) -> Term:
    cur = term
    for _ in range(_MAX_STEPS):
        step = _first_redex(cur, rule_names)
        if step is None:
            return cur
        cur = apply_rule(step.rule, cur, step.path, True)
        steps.append(step)
    raise RewriteError("lemma construction exceeded the step budget")


def _tl_shift(s: Term, k: int) -> Term:
    for _ in range(k):
        s = Tl(s)
    return s


def grouped_self_product(s: Term, m: int, n: int) -> Term:
    """thin(m*n, .) over n groups of m adjacent shifts, groups nested right.

    This is where the nested self-product lands under the rule chain: the
    payload keeps the (m, n) grouping, which differs from the right-nested
    m*n-tuple of the flat self-product by a tuple regrouping only.
    """
    groups = []
    for j in range(n):
        factors = [_tl_shift(s, j * m + i) for i in range(m)]
        g = factors[-1]
        for f in reversed(factors[:-1]):
            g = Prod(f, g)
        groups.append(g)
    prod = groups[-1]
    for g in reversed(groups[:-1]):
        prod = Prod(g, prod)
    return Thin(m * n, prod)


def self_product_power_proof(s: Term, m: int, n: int) -> EquivProof:
    """(s^m)^n rewrites to the merged thin(m*n, .) form by the rule chain.

    For m = 1 or n = 1 the merged form coincides with the flat self-product
    s^(m*n); otherwise it differs from it by the payload regrouping
    isomorphism, which the equivalence rules cannot (and should not) erase.
    Operationally the two agree entry-by-entry up to tuple flattening.
    """
    from .terms import self_product

    start = self_product(self_product(s, m), n)
    end = (
        self_product(s, m * n)
        if (m == 1 or n == 1)
        else grouped_self_product(s, m, n)
    )
    steps: list[Step] = []
    cur = _fixpoint_with(start, ("tl_thin",), steps)
    cur = _fixpoint_with(cur, ("tl_prod",), steps)
    cur = _fixpoint_with(cur, ("prod_thin",), steps)
    cur = _fixpoint_with(cur, ("thin_thin",), steps)
    if not alpha_equal(cur, end):
        raise RewriteError(f"self-product lemma failed for m={m}, n={n}")
    return EquivProof(start, end, steps, [])


def self_product_transform_proof(kind: str, f: Term, s: Term, n: int) -> EquivProof:
    """map(f,s)^n ~ map(fx...xf, s^n); reweight likewise with the pointwise
    product.  The combinators nest to the right, matching the product order.
    """
    from .terms import self_product

    if kind == "map":
        node, tl_rule, both_rule, pull_rule, combiner = (
            Map, "tl_map", "prod_map_both", "thin_map", cart,
        )
    elif kind == "reweight":
        node, tl_rule, both_rule, pull_rule, combiner = (
            Reweight, "tl_reweight", "prod_reweight_both", "thin_reweight", ptwise_pair,
        )
    else:
        raise RewriteError(f"unknown transform kind '{kind}'")

    start = self_product(node(f, s), n)
    combined = f
    for _ in range(n - 1):
        combined = combiner(f, combined)
    end = node(combined, self_product(s, n))

    steps: list[Step] = []
    cur = _fixpoint_with(start, (tl_rule,), steps)
    cur = _fixpoint_with(cur, (both_rule,), steps)
    cur = _fixpoint_with(cur, (pull_rule,), steps)
    if not alpha_equal(cur, end):
        raise RewriteError(f"{kind} self-product lemma failed for n={n}")
    return EquivProof(start, end, steps, [])
