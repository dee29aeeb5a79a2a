"""Sampler equivalence: rewrite rules, bounded proving, and normalization.

The calculus is a list of equations `lhs = rhs` between patterns.  A name
that starts with `?` is a metavariable: a free `?f` stands for any term, a
fun/let binder `?x` for that binder's name, and a thin count `?n` for any
count.  One matcher and one builder derive each orientation from the pair,
and its head class is the root class of the side it matches:

- a repeated metavariable matches only alpha-equal terms or equal counts,
  bound left to right, so the first occurrence's term is the one reused;
- a binder that only the built side has gets a fresh name that avoids the
  free variables of the parts under it;
- a part under a matched binder on one side but not on the other must not
  mention that binder (the side conditions `x not in fv(f)`);
- a constant matches only a literal of its own type, and a subterm without
  metavariables, such as the identity `fun x : _ => x`, is built as it
  stands.

beta, tl_thin, thin_thin and thin_prng are functions, because their shape
depends on substitution or on a count.

Each rule rewrites at a position, in either orientation; a proof is two
oriented step chains from both endpoints meeting at a common term, so
one-way rules (beta, let inlining) never need inverting during replay.

`prove_equiv` searches breadth-first from both sides and deduplicates its
states by alpha-keys, which are hash-consed: a node's key is an int, interned
in the search's table from the node's kind, its own data (a constant's repr,
a builtin's op, a thin count, a fun's arity) and its children's keys.  A
bound variable is its binder's distance and slot, a free one its name.  Two
terms thus have one key exactly when they are alpha-equal up to binder
annotations (and injection indices and cast types), with constants compared
by repr: 0.0 and -0.0 differ, and nan equals nan.  A node caches its key in
its memo (`terms.Memo`) with the search's tag and the binding of its free
variables, each one's binder distance and slot or free; the key is reused
only under the same tag and binding.  So a closed subterm keeps its key in
every context of a search, no search reads another's keys, and the cache
dies with the node.  A search's redex index (`_Redexes`) lists, for each node
it has met, the redexes of the node's subtree with their replacements, so
each rule runs once on each node and a state's list costs work only for the
nodes its rewrite built.  A neighbour's key is computed along its path,
without building it: the replacement's key under the binders above the
path, then each ancestor's shape from its other children's cached keys; an
expanded state keeps a table of its path prefixes, so shared prefixes are
walked once.  A neighbour is built (`replace_at`) only when its key is new,
or when the other side reached that key and `alpha_equal` must confirm that
the sides meet.

Normalization pulls map/reweight outward into the alternating spine over a
core free of them, each step at the first redex in lexicographic path order;
termination is by the documented measure (checked in tests): (destructors
above map/reweight, map+reweight count, thin+product count, term size)
decreasing lexicographically.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, fields
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
    beta,
    children,
    free_vars,
    fresh_name,
    ite,
    Memo,
    memo,
    positions,
    replace_at,
    store_memo,
    subterm_at,
    term_size,
)


class RewriteError(Exception):
    pass


# ---------------------------------------------------------------------------
# Combinator builders (iteration, products)
# ---------------------------------------------------------------------------


def _fresh(avoid_terms, base="x"):
    avoid = set()
    for t in avoid_terms:
        avoid |= free_vars(t)
    return fresh_name(base, avoid)


def iterate_fn(f: Term, n: int) -> Lam:
    x = _fresh([f])
    body: Term = Var(x)
    for _ in range(n):
        body = App(f, body)
    return Lam(((x, None),), body)


def _cart_at(p: str, f: Term, g: Term) -> Lam:
    return Lam(((p, None),), Pair(App(f, Fst(Var(p))), App(g, Snd(Var(p)))))


def _ptwise_at(p: str, f: Term, g: Term) -> Lam:
    return Lam(((p, None),), Builtin("times", (App(f, Fst(Var(p))), App(g, Snd(Var(p))))))


def cart(f: Term, g: Term) -> Lam:
    """fun p => (f(fst(p)), g(snd(p)))"""
    return _cart_at(_fresh([f, g], "p"), f, g)


def ptwise_pair(f: Term, g: Term) -> Lam:
    """fun p => f(fst(p)) * g(snd(p))"""
    return _ptwise_at(_fresh([f, g], "p"), f, g)


# ---------------------------------------------------------------------------
# Patterns: one matcher and one builder for every equation
# ---------------------------------------------------------------------------

# the fields of each term class that a pattern spells out, in constructor order
_FIELDS = {
    cls: tuple(f.name for f in fields(cls) if f.name != "pos") for cls in Term.__subclasses__()
}


def _is_meta(x) -> bool:
    return isinstance(x, str) and x.startswith("?")


def _parts(p) -> list:
    """The parts of a pattern value: a term's fields or a tuple's items."""
    if isinstance(p, Term):
        return [getattr(p, f) for f in _FIELDS[type(p)]]
    return list(p) if isinstance(p, tuple) else []


def _var_metas(p) -> set[str]:
    """The metavariables that p uses as terms or as bound variables."""
    if isinstance(p, Var):
        return {p.name} if _is_meta(p.name) else set()
    return set().union(*map(_var_metas, _parts(p)))


def _binder(p) -> Optional[str]:
    """The metavariable that names p's own binder, if p is a fun or a let."""
    if isinstance(p, Lam) and len(p.params) == 1 and _is_meta(p.params[0][0]):
        return p.params[0][0]
    if isinstance(p, Let) and _is_meta(p.name):
        return p.name
    return None


def _scopes(p, out: dict[str, set[str]]) -> dict[str, set[str]]:
    """The metavariables used under each binder metavariable of p."""
    binder = _binder(p)
    if binder is not None:
        out[binder] = _var_metas(p.body)
    for part in _parts(p):
        _scopes(part, out)
    return out


def _matcher(p, binders) -> Callable[[object, dict], bool]:
    """A test of a term, or of a field of one, against pattern value p; it
    binds p's metavariables in env, left to right."""
    if isinstance(p, Const):  # literals of different types differ
        return lambda t, env: alpha_equal(p, t)
    if isinstance(p, Var) and p.name in binders:
        name = p.name
        return lambda t, env: type(t) is Var and t.name == env[name]
    if isinstance(p, Var) and _is_meta(p.name):
        name = p.name

        def term_meta(t, env):
            seen = env.setdefault(name, t)
            return alpha_equal(seen, t)

        return term_meta
    if _is_meta(p):  # a binder's name or a count
        return lambda v, env: env.setdefault(p, v) == v
    if isinstance(p, Term):
        cls = type(p)
        subs = [(attr, _matcher(getattr(p, attr), binders)) for attr in _FIELDS[cls]]

        def node(t, env):
            if type(t) is not cls:
                return False
            for attr, sub in subs:
                if not sub(getattr(t, attr), env):
                    return False
            return True

        return node
    if isinstance(p, tuple):
        items = [_matcher(x, binders) for x in p]

        def items_match(t, env):
            if len(t) != len(items):
                return False
            for sub, x in zip(items, t):
                if not sub(x, env):
                    return False
            return True

        return items_match
    if p is None:  # a binder's type annotation: any
        return lambda t, env: True
    return lambda v, env: v == p


def _builder(p, binders, scopes, matched) -> Callable[[dict], object]:
    """The instance of pattern value p under the bindings in env.  A binder
    that the match did not bind gets a name that avoids the free variables
    of the parts under it."""
    if isinstance(p, Var) and p.name in binders:
        name = p.name
        return lambda env: Var(env[name])
    if isinstance(p, Var) and _is_meta(p.name):
        name = p.name
        return lambda env: env[name]
    if _is_meta(p):
        return lambda env: env[p]
    if isinstance(p, tuple):
        items = [_builder(x, binders, scopes, matched) for x in p]
        return lambda env: tuple([b(env) for b in items])
    if not isinstance(p, Term):
        return lambda env: p
    cls = type(p)
    subs = [_builder(part, binders, scopes, matched) for part in _parts(p)]

    def node(env):
        return cls(*[b(env) for b in subs])

    binder = _binder(p)
    if binder is None or binder in matched:
        return node
    base, under = binder[1:], sorted(scopes[binder] - binders)

    def fresh(env):
        avoid: set[str] = set()
        for m in under:
            avoid |= free_vars(env[m])
        env[binder] = fresh_name(base, avoid)
        return node(env)

    return fresh


def _orientation(lhs: Term, rhs: Term) -> Callable[[Term], Optional[Term]]:
    """The rewrite of instances of lhs to the same instances of rhs."""
    lhs_scopes, rhs_scopes = _scopes(lhs, {}), _scopes(rhs, {})
    binders = lhs_scopes.keys() | rhs_scopes.keys()
    match = _matcher(lhs, binders)
    build = _builder(rhs, binders, rhs_scopes, lhs_scopes.keys())
    # the parts that leave a matched binder's scope must not mention it
    kept = _var_metas(rhs) - binders
    conditions = [
        (x, sorted((under & kept) - rhs_scopes.get(x, set())))
        for x, under in lhs_scopes.items()
    ]
    conditions = [(x, parts) for x, parts in conditions if parts]

    def rewrite(t: Term) -> Optional[Term]:
        env: dict = {}
        if not match(t, env):
            return None
        for x, parts in conditions:
            name = env[x]
            for m in parts:
                if name in free_vars(env[m]):
                    return None
        return build(env)

    return rewrite


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


@dataclass(frozen=True)
class Equation:
    """A rule stated as `lhs arrow rhs`: "<->" rewrites both ways, "->" only
    left to right.  The head classes are the two sides' root classes."""

    name: str
    lhs: Term
    arrow: str
    rhs: Term
    note: str = ""

    def rule(self) -> Rule:
        both = self.arrow == "<->"
        return Rule(
            self.name,
            _orientation(self.lhs, self.rhs),
            _orientation(self.rhs, self.lhs) if both else None,
            type(self.lhs),
            type(self.rhs) if both else None,
            self.note,
        )


def _beta_fwd(t: Term) -> Optional[Term]:
    match t:
        case App(Lam() as lam, arg):
            return beta(lam, arg)
    return None


def _tl_thin_fwd(t: Term) -> Optional[Term]:
    match t:
        case Tl(Thin(n, s)):
            inner = s
            for _ in range(n):
                inner = Tl(inner)
            return Thin(n, inner)
    return None


def _tl_thin_bwd(t: Term) -> Optional[Term]:
    match t:
        case Thin(n, s):
            inner = s
            for _ in range(n):
                if not isinstance(inner, Tl):
                    return None
                inner = inner.body
            return Tl(Thin(n, inner))
    return None


def _thin_thin_fwd(t: Term) -> Optional[Term]:
    match t:
        case Thin(n, Thin(m, s)):
            return Thin(n * m, s)
    return None


def _thin_prng_fwd(t: Term) -> Optional[Term]:
    match t:
        case Thin(n, Prng(s, seed)):
            return Prng(iterate_fn(s, n), seed)
    return None


# pattern metavariables: terms, binders and a count
A, B, E, F, G, S, U = (Var(f"?{c}") for c in "abefgsu")
X, P, N = "?x", "?p", "?n"


def _fun(x: str, body: Term) -> Lam:
    return Lam(((x, None),), body)


def _times(a: Term, b: Term) -> Builtin:
    return Builtin("times", (a, b))


_ID = _fun("x", Var("x"))
_ONE = _fun("x", Const(1))

_CALCULUS: list = [
    Rule("beta", _beta_fwd, None, App),
    Equation("eta", _fun(X, App(F, Var(X))), "->", F),
    Equation("let", Let(X, B, E), "<->", App(_fun(X, E), B)),
    Equation("ite_true", ite(Const(True), A, B), "->", A),
    Equation("ite_false", ite(Const(False), A, B), "->", B),
    Equation("fst_pair", Fst(Pair(A, B)), "->", A),
    Equation("snd_pair", Snd(Pair(A, B)), "->", B),
    # head/weight/tail of each constructor
    Equation("hd_map", Hd(Map(F, S)), "<->", App(F, Hd(S))),
    Equation("wt_map", Wt(Map(F, S)), "->", Wt(S)),
    Equation("tl_map", Tl(Map(F, S)), "<->", Map(F, Tl(S))),
    Equation("hd_prod", Hd(Prod(S, U)), "<->", Pair(Hd(S), Hd(U))),
    Equation("wt_prod", Wt(Prod(S, U)), "<->", _times(Wt(S), Wt(U))),
    Equation("tl_prod", Tl(Prod(S, U)), "<->", Prod(Tl(S), Tl(U))),
    Equation("hd_thin", Hd(Thin(N, S)), "->", Hd(S)),
    Equation("wt_thin", Wt(Thin(N, S)), "->", Wt(S)),
    Rule("tl_thin", _tl_thin_fwd, _tl_thin_bwd, Tl, Thin),
    # no backward orientation: wrapping arbitrary terms in thin(1, .) would
    # make every position a redex during search
    Equation("thin_one", Thin(1, S), "->", S),
    Equation("hd_prng", Hd(Prng(F, A)), "->", A),
    Equation("wt_prng", Wt(Prng(F, A)), "->", Const(1.0)),  # weights are doubles
    Equation("tl_prng", Tl(Prng(F, A)), "<->", Prng(F, App(F, A))),
    Equation("hd_reweight", Hd(Reweight(F, S)), "->", Hd(S)),
    Equation("wt_reweight", Wt(Reweight(F, S)), "->", _times(App(F, Hd(S)), Wt(S))),
    Equation("tl_reweight", Tl(Reweight(F, S)), "<->", Reweight(F, Tl(S))),
    # composition rules
    Rule("thin_thin", _thin_thin_fwd, None, Thin),
    Equation("map_map", Map(G, Map(F, S)), "<->", Map(_fun(X, App(G, App(F, Var(X)))), S)),
    Equation(
        "reweight_reweight", Reweight(G, Reweight(F, S)), "->",
        Reweight(_fun(X, _times(App(F, Var(X)), App(G, Var(X)))), S),
    ),
    Rule("thin_prng", _thin_prng_fwd, None, Thin),
    Equation("thin_map", Thin(N, Map(F, S)), "<->", Map(F, Thin(N, S))),
    Equation(
        "thin_reweight", Thin(N, Reweight(F, S)), "<->", Reweight(F, Thin(N, S)),
        note="companion of thin_map used by the reweight self-product lemma",
    ),
    # product rules
    Equation("prod_map_r", Prod(S, Map(G, U)), "->", Map(_cart_at(P, _ID, G), Prod(S, U))),
    Equation("prod_map_l", Prod(Map(F, S), U), "->", Map(_cart_at(P, F, _ID), Prod(S, U))),
    Equation(
        "prod_map_both", Prod(Map(F, S), Map(G, U)), "<->",
        Map(_cart_at(P, F, G), Prod(S, U)),
        note="derived: both-sided product/map exchange",
    ),
    Equation(
        "prod_reweight_r", Prod(S, Reweight(G, U)), "->",
        Reweight(_ptwise_at(P, _ONE, G), Prod(S, U)),
    ),
    Equation(
        "prod_reweight_l", Prod(Reweight(F, S), U), "->",
        Reweight(_ptwise_at(P, F, _ONE), Prod(S, U)),
    ),
    Equation(
        "prod_reweight_both", Prod(Reweight(F, S), Reweight(G, U)), "<->",
        Reweight(_ptwise_at(P, F, G), Prod(S, U)),
        note="derived: both-sided product/reweight exchange",
    ),
    Equation("prod_prng", Prod(Prng(F, A), Prng(G, B)), "<->", Prng(_cart_at(P, F, G), Pair(A, B))),
    Equation("prod_thin", Prod(Thin(N, S), Thin(N, U)), "<->", Thin(N, Prod(S, U))),
]

EQUATIONS: dict[str, Equation] = {e.name: e for e in _CALCULUS if isinstance(e, Equation)}
RULES: dict[str, Rule] = {
    r.name: r for r in (e.rule() if isinstance(e, Equation) else e for e in _CALCULUS)
}


def _orientations_by_head() -> dict[type, list[tuple[str, bool, Callable]]]:
    """For each head class, its orientations: RULES order, forward first."""
    table: dict[type, list] = {}
    for rule in RULES.values():
        table.setdefault(rule.fwd_head, []).append((rule.name, True, rule.fwd))
        if rule.bwd is not None:
            table.setdefault(rule.bwd_head, []).append((rule.name, False, rule.bwd))
    return table


_BY_HEAD = _orientations_by_head()


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


def _scope(t: Term, i: int, env: dict[str, tuple[int, int]], depth: int):
    """The binder environment and depth of t's i-th child, given t's (see
    _AlphaKeys._key)."""
    cls = type(t)
    if cls is Lam:
        inner = dict(env)
        for slot, (name, _) in enumerate(t.params):
            inner[name] = (depth + 1, slot)
        return inner, depth + 1
    if cls is Let and i == 1:
        return {**env, t.name: (depth + 1, 0)}, depth + 1
    if cls is Case and i > 0:
        return {**env, t.branches[i - 1][0]: (depth + 1, 0)}, depth + 1
    return env, depth


def _head(t: Term) -> tuple:
    """A node's own part of the shape its key interns, which goes on with
    its children's keys: its kind and its own data.  An injection's index
    and a cast's type are not part of it."""
    cls = type(t)
    if cls is Const:
        return (Const, repr(t.value))
    if cls is Lam:
        return (Lam, len(t.params))
    if cls is Builtin:
        return (Builtin, t.op)
    if cls is Thin:
        return (Thin, t.count)
    return (cls,)


class _AlphaKeys:
    """The interned alpha-keys of one search: two terms have the same key
    exactly when they are alpha-equal up to binder annotations, with
    constants compared by repr (see the module docstring)."""

    def __init__(self):
        self._table: dict[tuple, int] = {}
        self._tag = object()  # marks the keys this search left in node memos

    def key(self, t: Term) -> int:
        return self._key(t, {}, 0)

    def key_at(self, t: Term, path: tuple[int, ...], new: Term, frames: dict) -> int:
        """The key of replace_at(t, path, new), computed without building it:
        new's key under the binders above path, then each ancestor's shape
        with that one child's key replaced.  frames holds, for each prefix of
        a path into t walked so far, its node, binders and depth, its parent's
        frame, and its head and children's keys once an ancestor needs them."""
        frame = self._frame(t, path, frames)
        key = self._key(new, frame[1], frame[2])
        for i in reversed(path):
            frame = frame[3]
            if frame[4] is None:
                node, env, depth = frame[0], frame[1], frame[2]
                frame[4] = _head(node), tuple([
                    self._key(kid, *_scope(node, j, env, depth))
                    for j, kid in enumerate(children(node))
                ])
            head, kids = frame[4]
            key = self._intern(head + kids[:i] + (key,) + kids[i + 1:])
        return key

    def _frame(self, t: Term, path: tuple[int, ...], frames: dict) -> list:
        frame = frames.get(path)
        if frame is None:
            if path:
                parent = self._frame(t, path[:-1], frames)
                env, depth = _scope(parent[0], path[-1], parent[1], parent[2])
                frame = [children(parent[0])[path[-1]], env, depth, parent, None]
            else:
                frame = [t, {}, 0, None, None]
            frames[path] = frame
        return frame

    def _intern(self, shape: tuple) -> int:
        key = self._table.get(shape)
        if key is None:
            key = self._table[shape] = len(self._table)
        return key

    def _key(self, t: Term, env: dict[str, tuple[int, int]], depth: int) -> int:
        """t's key, where depth counts the binders above t and env maps each
        bound name to its binder's slot and the depth of its binder's body."""
        cls = type(t)
        if cls is Var:
            bound = env.get(t.name)
            return self._intern((Var, t.name) if bound is None else (depth - bound[0], bound[1]))
        m = t._memo or memo(t)
        free = m.free
        binding = () if free.isdisjoint(env) else tuple([
            None if (bound := env.get(x)) is None else (depth - bound[0], bound[1]) for x in free
        ])
        if m.tag is self._tag and m.binding == binding:
            return m.key
        key = self._intern(_head(t) + tuple([
            self._key(kid, *_scope(t, i, env, depth)) for i, kid in enumerate(children(t))
        ]))
        store_memo(t, Memo(m.size, free, self._tag, binding, key))
        return key


class _Redexes:
    """A search's redex index.  For each node it has met, keyed by identity
    (the index keeps the node alive), it lists the redexes of the node's
    subtree as (path from the node, (rule, forward, replacement, growth in
    size)), in the search's order: the node's own in _BY_HEAD order, each
    rule forward before backward, then each child's, right to left, which is
    `positions` order.  A term's list is thus made only from the nodes the
    index has not met, and each rule runs once on each node."""

    def __init__(self):
        self._table: dict[int, tuple[Term, list]] = {}

    def of(self, t: Term) -> list:
        cls = type(t)
        if cls is Var or cls is Const:
            return []
        got = self._table.get(id(t))
        if got is not None:
            return got[1]
        size = term_size(t)
        out = [
            ((), (name, forward, new, term_size(new) - size))
            for name, forward, fn in _BY_HEAD.get(cls, ())
            if (new := fn(t)) is not None
        ]
        kids = children(t)
        for i in range(len(kids) - 1, -1, -1):
            head = (i,)
            out += [(head + path, redex) for path, redex in self.of(kids[i])]
        self._table[id(t)] = (t, out)
        return out


def _rewrites(term: Term, size_cap: int, index: _Redexes) -> list:
    """The one-step rewrites of term within the size cap, unbuilt: (path,
    (rule, forward, replacement, growth)) in positions x RULES order, each
    rule forward before backward."""
    room = size_cap - term_size(term)
    return [(path, redex) for path, redex in index.of(term) if redex[3] <= room]


def _neighbors(term: Term, size_cap: int):
    """One-step rewrites within the size cap, built, in the search's order."""
    for path, (name, forward, new, _) in _rewrites(term, size_cap, _Redexes()):
        yield Step(name, path, forward), replace_at(term, path, new)


_SIZE_FACTOR = 4  # the search visits terms up to this multiple of the larger side


@dataclass
class SearchStats:
    """How far an equivalence search went: the distinct states it reached
    from each side, and its bounds."""

    left: int = 0
    right: int = 0
    depth: int = 0
    size_cap: int = 0


def prove_equiv(
    s: Term, t: Term, depth: int = 8, stats: Optional[SearchStats] = None
) -> Optional[EquivProof]:
    """Bidirectional bounded search; None means inconclusive, not refuted.
    When stats is given, it receives the search's extent."""
    if alpha_equal(s, t):
        return EquivProof(s, t)
    size_cap = _SIZE_FACTOR * max(term_size(s), term_size(t))
    # states are deduplicated modulo alpha but not binder annotations, which
    # alpha_equal (and so replay) compares: the sides meet only where their
    # terms are alpha-equal
    keys, index = _AlphaKeys(), _Redexes()
    seen: dict[int, tuple[str, list[Step], Term]] = {}
    frontier = deque([(s, [], "L", 0), (t, [], "R", 0)])
    seen[keys.key(s)] = ("L", [], s)
    seen[keys.key(t)] = ("R", [], t)
    while frontier:
        term, steps, side, d = frontier.popleft()
        if d >= depth:
            continue
        frames: dict = {}
        for path, (name, forward, new, _) in _rewrites(term, size_cap, index):
            key = keys.key_at(term, path, new, frames)
            hit = seen.get(key)
            if hit is not None and hit[0] == side:
                continue
            # a new state, or one the other side reached: only these are built
            nxt = replace_at(term, path, new)
            mine = steps + [Step(name, path, forward)]
            if hit is None:
                seen[key] = (side, mine, nxt)
                frontier.append((nxt, mine, side, d + 1))
            elif alpha_equal(nxt, hit[2]):
                left, right = (mine, hit[1]) if side == "L" else (hit[1], mine)
                return EquivProof(s, t, list(left), list(right))
    if stats is not None:
        stats.left = sum(1 for side, _, _ in seen.values() if side == "L")
        stats.right = len(seen) - stats.left
        stats.depth, stats.size_cap = depth, size_cap
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


def _first_redex(term: Term, rule_names) -> Optional[tuple[Step, Term]]:
    """The first forward redex of the rules, in lexicographic order of the
    paths and then in the order of rule_names, with its replacement.  The
    walk is pre-order with children left to right, which is that order, and
    it stops at the first redex."""
    rules = [RULES[name] for name in rule_names]
    stack = [((), term)]
    while stack:
        path, sub = stack.pop()
        cls = type(sub)
        for rule in rules:
            if cls is rule.fwd_head and (new := rule.fwd(sub)) is not None:
                return Step(rule.name, path, True), new
        kids = children(sub)
        for i in range(len(kids) - 1, -1, -1):
            stack.append((path + (i,), kids[i]))
    return None


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
        found = _first_redex(cur, _INLINE_RULES) or _first_redex(cur, _PULL_RULES)
        if found is None:
            return cur, steps
        step, new = found
        cur = replace_at(cur, step.path, new)
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
        found = _first_redex(cur, rule_names)
        if found is None:
            return cur
        step, new = found
        cur = replace_at(cur, step.path, new)
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
