"""Abstract syntax for the sampler language.

Types, terms, alpha-equivalence, capture-avoiding substitution, and the
syntactic sugar (self-product, if-then-else) shared by every other module.
All nodes are immutable after construction and safe to share across threads;
each caches its size and free variables, and the rewriter's alpha-key, in one
memo that is replaced whole (see Memo).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, Iterator, NamedTuple, Optional, Union

Pos = tuple[int, int]  # (line, column), 1-based

# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

COMPARISONS = ("lt", "le", "gt", "ge", "eq", "ne")


class Type:
    """Base class for types."""

    __slots__ = ()


@dataclass(frozen=True)
class Ground(Type):
    name: str  # one of 'N', 'R', 'R+', 'B', 'Unit'

    def __repr__(self) -> str:
        return self.name


NAT = Ground("N")
REAL = Ground("R")
POSREAL = Ground("R+")
BOOL = Ground("B")
UNIT = Ground("Unit")


@dataclass(frozen=True)
class PredInv(Type):
    """Inverse image of a comparison: the pairs of reals mapped to `bit`."""

    cmp: str  # member of COMPARISONS
    bit: int  # 0 or 1

    def __post_init__(self):
        if self.cmp not in COMPARISONS or self.bit not in (0, 1):
            raise ValueError(f"bad predicate type {self.cmp}^-1({self.bit})")

    def __repr__(self) -> str:
        return f"{self.cmp}^-1({self.bit})"


@dataclass(frozen=True)
class ProdT(Type):
    left: Type
    right: Type


@dataclass(frozen=True)
class SumT(Type):
    summands: tuple[Type, ...]

    def __post_init__(self):
        if len(self.summands) < 2:
            raise ValueError("sums need at least two summands")


@dataclass(frozen=True)
class FunT(Type):
    dom: Type
    cod: Type


@dataclass(frozen=True)
class SamplerT(Type):
    payload: Type


@dataclass(frozen=True)
class PullbackT(Type):
    """Inverse-image type t^-1(member).

    `s` and `t` are terms with common codomain `over`; `carrier` is the
    product of the collapsed context variables' plain types and `member`
    the summand being pulled back.  Equality compares the embedded terms
    up to alpha-equivalence only.
    """

    s: "Term"
    t: "Term"
    over: Type
    carrier: Type
    member: Type


@dataclass(frozen=True)
class IntersectT(Type):
    """The refinement sugar S & S' over a common carrier."""

    left: Type
    right: Type


BOOL_AS_SUM = SumT((UNIT, UNIT))  # B is definitionally 1+1


def bool_summands(ty: Type) -> Optional[tuple[Type, ...]]:
    """View a type as a sum for pattern matching; Bool counts as Unit+Unit."""
    if isinstance(ty, SumT):
        return ty.summands
    if ty == BOOL:
        return BOOL_AS_SUM.summands
    return None


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


class Term:
    """Base class for terms."""

    __slots__ = ()
    _memo = None  # the node's Memo, once asked for (see memo)


def _pos_field():
    return field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Var(Term):
    name: str
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class Const(Term):
    value: Union[bool, int, float]
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class Builtin(Term):
    op: str
    args: tuple[Term, ...]
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class Cast(Term):
    ty: Type
    body: Term
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class Case(Term):
    scrutinee: Term
    branches: tuple[tuple[str, Term], ...]  # (binder, body) per summand
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class Inj(Term):
    index: int
    body: Term
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class Lam(Term):
    """Lambda abstraction.

    A single parameter is the plain lambda; several parameters form a
    restrictable tuple group (the value consumed is the right-nested pair).
    A parameter type of None must be resolved from the use site.
    """

    params: tuple[tuple[str, Optional[Type]], ...]
    body: Term
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class App(Term):
    fn: Term
    arg: Term
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class Let(Term):
    name: str
    bound: Term
    body: Term
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class Pair(Term):
    left: Term
    right: Term
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class Fst(Term):
    body: Term
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class Snd(Term):
    body: Term
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class Prng(Term):
    step: Term
    seed: Term
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class Prod(Term):
    """Sampler product s <*> t."""

    left: Term
    right: Term
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class Map(Term):
    fn: Term
    sampler: Term
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class Reweight(Term):
    fn: Term
    sampler: Term
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class Hd(Term):
    body: Term
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class Wt(Term):
    body: Term
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class Tl(Term):
    body: Term
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class Thin(Term):
    count: int
    sampler: Term
    pos: Optional[Pos] = _pos_field()


# ---------------------------------------------------------------------------
# Structure access (shared by the rewriter and the printers)
# ---------------------------------------------------------------------------

_NO_VARS: frozenset[str] = frozenset()
_UNARY = (Fst, Snd, Hd, Wt, Tl)
_BINARY = (App, Pair, Prod, Prng, Map, Reweight)

# the direct subterms of each term class, and its rebuild from new ones
_CHILDREN: dict[type, Callable[[Term], list[Term]]] = {
    Var: lambda t: [],
    Const: lambda t: [],
    Builtin: lambda t: list(t.args),
    Case: lambda t: [t.scrutinee] + [b for (_, b) in t.branches],
    App: lambda t: [t.fn, t.arg],
    Let: lambda t: [t.bound, t.body],
    Prng: lambda t: [t.step, t.seed],
    Thin: lambda t: [t.sampler],
    **{cls: (lambda t: [t.body]) for cls in (Cast, Inj, Lam, *_UNARY)},
    **{cls: (lambda t: [t.left, t.right]) for cls in (Pair, Prod)},
    **{cls: (lambda t: [t.fn, t.sampler]) for cls in (Map, Reweight)},
}
_REBUILD: dict[type, Callable[[Term, list[Term]], Term]] = {
    Var: lambda t, kids: t,
    Const: lambda t, kids: t,
    Builtin: lambda t, kids: Builtin(t.op, tuple(kids), pos=t.pos),
    Cast: lambda t, kids: Cast(t.ty, kids[0], pos=t.pos),
    Case: lambda t, kids: Case(
        kids[0], tuple((binder, body) for (binder, _), body in zip(t.branches, kids[1:])), pos=t.pos
    ),
    Inj: lambda t, kids: Inj(t.index, kids[0], pos=t.pos),
    Lam: lambda t, kids: Lam(t.params, kids[0], pos=t.pos),
    Let: lambda t, kids: Let(t.name, kids[0], kids[1], pos=t.pos),
    Thin: lambda t, kids: Thin(t.count, kids[0], pos=t.pos),
    **{cls: (lambda t, kids, cls=cls: cls(kids[0], pos=t.pos)) for cls in _UNARY},
    **{cls: (lambda t, kids, cls=cls: cls(kids[0], kids[1], pos=t.pos)) for cls in _BINARY},
}
# the names bound in each child position of the classes that bind any
_BINDERS: dict[type, Callable[[Term], list[frozenset[str]]]] = {
    Lam: lambda t: [frozenset(name for name, _ in t.params)],
    Let: lambda t: [_NO_VARS, frozenset((t.name,))],
    Case: lambda t: [_NO_VARS] + [frozenset((binder,)) for binder, _ in t.branches],
}


def children(t: Term) -> list[Term]:
    """The term's direct subterms, in a fixed order used by positions."""
    get = _CHILDREN.get(type(t))
    if get is None:
        raise TypeError(f"unknown term {t!r}")
    return get(t)


def with_children(t: Term, kids: list[Term]) -> Term:
    """Rebuild `t` with replaced subterms (same order as `children`)."""
    rebuild = _REBUILD.get(type(t))
    if rebuild is None:
        raise TypeError(f"unknown term {t!r}")
    return rebuild(t, kids)


def subterm_at(t: Term, path: tuple[int, ...]) -> Term:
    for i in path:
        t = children(t)[i]
    return t


def replace_at(t: Term, path: tuple[int, ...], new: Term) -> Term:
    if not path:
        return new
    kids = children(t)
    kids[path[0]] = replace_at(kids[path[0]], path[1:], new)
    return with_children(t, kids)


def positions(t: Term) -> Iterator[tuple[tuple[int, ...], Term]]:
    """All (path, subterm) pairs, each node before its subterms.

    The stack visits the rightmost child first, so this is not the
    lexicographic order of the paths, which `rewrite._first_redex` walks.
    A search's redex index (`rewrite._Redexes`) lists its redexes in this
    order, so `rewrite.prove_equiv` tries its neighbours in it.
    """
    stack = [((), t)]
    while stack:
        path, cur = stack.pop()
        yield path, cur
        for i, kid in enumerate(children(cur)):
            stack.append((path + (i,), kid))


def contains_comparison(t: Term) -> bool:
    """Whether some subterm of t is a comparison: a syntactic scan, with no
    type inference, for where a function may jump."""
    return any(isinstance(sub, Builtin) and sub.op in COMPARISONS for _, sub in positions(t))


class Memo(NamedTuple):
    """What a node caches about itself, in its one spare attribute: its size
    and free variables, which never change, and the alpha-key that the
    search `tag` last computed for it under `binding` (see rewrite.py)."""

    size: int
    free: frozenset[str]
    tag: object = None
    binding: tuple = ()
    key: int = -1


def memo(t: Term) -> Memo:
    """The node's memo, made on first use from its children's.  A variable's
    is made afresh each time: keeping it would cost every variable node a
    set and a tuple."""
    m = t._memo
    if m is not None:
        return m
    if type(t) is Var:
        return Memo(1, frozenset((t.name,)))
    binders = _BINDERS.get(type(t))
    size, free = 1, _NO_VARS
    for kid, bound in zip(children(t), binders(t) if binders is not None else repeat(_NO_VARS)):
        kid_memo = memo(kid)
        size += kid_memo.size
        fv = kid_memo.free
        if bound and not fv.isdisjoint(bound):
            fv = fv - bound
        if not fv <= free:  # reuse a child's set where the union is one of them
            free = fv if free <= fv else free | fv
    m = Memo(size, free)
    store_memo(t, m)
    return m


def store_memo(t: Term, m: Memo) -> None:
    """Make m the node's memo.  Nodes are frozen, and one attribute beyond
    their fields still fits in place: a second would give each a dict."""
    object.__setattr__(t, "_memo", m)


def term_size(t: Term) -> int:
    return memo(t).size


# ---------------------------------------------------------------------------
# Free variables, substitution, alpha-equivalence
# ---------------------------------------------------------------------------

def free_vars(t: Term) -> frozenset[str]:
    return memo(t).free


def fresh_name(base: str, avoid: set[str]) -> str:
    """The first of stem_1, stem_2, ... not in avoid, where stem is base
    without a `_<digits>` suffix; these are identifiers the parser reads."""
    stem, _, suffix = base.rpartition("_")
    if not (stem and suffix.isdigit()):
        stem = base
    k = 1
    while f"{stem}_{k}" in avoid:
        k += 1
    return f"{stem}_{k}"


def rename_bound(t: Term, old: str, new: str) -> Term:
    """Rename free occurrences of `old` in `t` to `new` (helper for binders)."""
    return substitute(t, old, Var(new))


def substitute(t: Term, x: str, s: Term) -> Term:
    """Capture-avoiding substitution t[x <- s].  A binder renamed because s
    names it gets a fresh name that avoids x too, or the substitution would
    then replace the renamed occurrences.  A subterm that comes out
    unchanged is returned itself, so the result shares it with t."""
    fv_s = free_vars(s)

    def go(term: Term) -> Term:
        if not fv_s and x not in free_vars(term):  # nothing to replace or rename
            return term
        match term:
            case Var(name):
                return s if name == x else term
            case Const():
                return term
            case Lam(params, body):
                names = [n for n, _ in params]
                if x in names:
                    return term
                new_params = list(params)
                new_body = body
                for i, (n, ty) in enumerate(params):
                    if n in fv_s and n in free_vars(body):
                        avoid = fv_s | free_vars(new_body) | {x} | {p for p, _ in new_params}
                        n2 = fresh_name(n, set(avoid))
                        new_body = rename_bound(new_body, n, n2)
                        new_params[i] = (n2, ty)
                out = go(new_body)
                if new_body is body and out is body:  # nothing renamed or replaced
                    return term
                return Lam(tuple(new_params), out, pos=term.pos)
            case Let(name, bound, body):
                new_bound = go(bound)
                if name == x:
                    out = body
                else:
                    if name in fv_s and name in free_vars(body):
                        n2 = fresh_name(name, set(fv_s | free_vars(body) | {x}))
                        body = rename_bound(body, name, n2)
                        name = n2
                    out = go(body)
                if new_bound is term.bound and out is term.body:
                    return term
                return Let(name, new_bound, out, pos=term.pos)
            case Case(scrutinee, branches):
                new_branches = []
                for binder, body in branches:
                    if binder == x:
                        new_branches.append((binder, body))
                        continue
                    if binder in fv_s and binder in free_vars(body):
                        b2 = fresh_name(binder, set(fv_s | free_vars(body) | {x}))
                        body = rename_bound(body, binder, b2)
                        binder = b2
                    new_branches.append((binder, go(body)))
                new_scrutinee = go(scrutinee)
                if new_scrutinee is scrutinee and all(
                    new is old for (_, new), (_, old) in zip(new_branches, branches)
                ):
                    return term
                return Case(new_scrutinee, tuple(new_branches), pos=term.pos)
            case _:
                kids = children(term)
                new_kids = [go(k) for k in kids]
                if all(new is old for new, old in zip(new_kids, kids)):
                    return term
                return with_children(term, new_kids)

    return go(t)


def beta(lam: Lam, arg: Term) -> Term:
    """The body of `lam` with its parameters bound to `arg`.

    A group lambda binds the components of the right-nested tuple `arg`; its
    parameters are renamed apart first, so that the sequential substitutions
    cannot capture variables free in `arg`.
    """
    params, body = lam.params, lam.body
    if len(params) == 1:
        return substitute(body, params[0][0], arg)
    avoid = set(free_vars(arg) | free_vars(body))
    renamed = []
    for name, _ in params:
        fresh = fresh_name(name, avoid)
        avoid.add(fresh)
        body = substitute(body, name, Var(fresh))
        renamed.append(fresh)
    access = arg
    for fresh in renamed[:-1]:
        body = substitute(body, fresh, Fst(access))
        access = Snd(access)
    return substitute(body, renamed[-1], access)


def _consts_equal(a, b) -> bool:
    # bools are ints in Python; keep B, N and R literals apart
    if isinstance(a, bool) != isinstance(b, bool):
        return False
    if type(a) is not type(b):
        return False
    return a == b or (a != a and b != b)  # NaN literals compare equal


def alpha_equal(s: Term, t: Term) -> bool:
    """Syntactic equality up to consistent renaming of bound variables.

    A term is alpha-equal to itself (a NaN literal too), so two operands
    that are the same object are equal without a walk.  The walk below does
    not test identity: under binders, the same subterm is read in the two
    sides' own scopes."""
    if s is t:
        return True

    def go(a: Term, b: Term, env_a: dict, env_b: dict, depth: int) -> bool:
        match a, b:
            case Var(na), Var(nb):
                da, db = env_a.get(na), env_b.get(nb)
                if da is None and db is None:
                    return na == nb
                return da is not None and da == db
            case Const(va), Const(vb):
                return _consts_equal(va, vb)
            case Lam(pa, ba), Lam(pb, bb):
                if len(pa) != len(pb):
                    return False
                for (_, ta), (_, tb) in zip(pa, pb):
                    if not type_equal_opt(ta, tb):
                        return False
                ea, eb = dict(env_a), dict(env_b)
                for i, ((na, _), (nb, _)) in enumerate(zip(pa, pb)):
                    ea[na] = (depth, i)
                    eb[nb] = (depth, i)
                return go(ba, bb, ea, eb, depth + 1)
            case Let(na, sa, ba), Let(nb, sb, bb):
                if not go(sa, sb, env_a, env_b, depth):
                    return False
                ea, eb = dict(env_a), dict(env_b)
                ea[na] = (depth, 0)
                eb[nb] = (depth, 0)
                return go(ba, bb, ea, eb, depth + 1)
            case Case(sa, bra), Case(sb, brb):
                if len(bra) != len(brb):
                    return False
                if not go(sa, sb, env_a, env_b, depth):
                    return False
                for (na, ba), (nb, bb) in zip(bra, brb):
                    ea, eb = dict(env_a), dict(env_b)
                    ea[na] = (depth, 0)
                    eb[nb] = (depth, 0)
                    if not go(ba, bb, ea, eb, depth + 1):
                        return False
                return True
            case Cast(ta, ba), Cast(tb, bb):
                return type_equal(ta, tb) and go(ba, bb, env_a, env_b, depth)
            case Builtin(oa, aa), Builtin(ob, ab):
                return (
                    oa == ob
                    and len(aa) == len(ab)
                    and all(go(x, y, env_a, env_b, depth) for x, y in zip(aa, ab))
                )
            case Inj(ia, ba), Inj(ib, bb):
                return ia == ib and go(ba, bb, env_a, env_b, depth)
            case Thin(ca, sa), Thin(cb, sb):
                return ca == cb and go(sa, sb, env_a, env_b, depth)
            case _:
                if type(a) is not type(b):
                    return False
                ka, kb = children(a), children(b)
                if len(ka) != len(kb):
                    return False
                return all(go(x, y, env_a, env_b, depth) for x, y in zip(ka, kb))

    return go(s, t, {}, {}, 0)


def type_equal_opt(a: Optional[Type], b: Optional[Type]) -> bool:
    if a is None or b is None:
        return (a is None) == (b is None)
    return type_equal(a, b)


def type_equal(a: Type, b: Type) -> bool:
    """Structural type equality; embedded pullback terms compare by alpha.

    Every type is equal to itself, so two operands that are the same object
    are equal without a walk; as the relation recurses through itself, this
    holds at every level of a type."""
    if a is b:
        return True
    match a, b:
        case Ground(na), Ground(nb):
            return na == nb
        case PredInv(ca, ia), PredInv(cb, ib):
            return ca == cb and ia == ib
        case ProdT(la, ra), ProdT(lb, rb):
            return type_equal(la, lb) and type_equal(ra, rb)
        case SumT(sa), SumT(sb):
            return len(sa) == len(sb) and all(type_equal(x, y) for x, y in zip(sa, sb))
        case FunT(da, ca), FunT(db, cb):
            return type_equal(da, db) and type_equal(ca, cb)
        case SamplerT(pa), SamplerT(pb):
            return type_equal(pa, pb)
        case PullbackT(sa, ta, oa, ka, ma), PullbackT(sb, tb, ob, kb, mb):
            return (
                alpha_equal(sa, sb)
                and alpha_equal(ta, tb)
                and type_equal(oa, ob)
                and type_equal(ka, kb)
                and type_equal(ma, mb)
            )
        case IntersectT(la, ra), IntersectT(lb, rb):
            return type_equal(la, lb) and type_equal(ra, rb)
        case _:
            return False


# ---------------------------------------------------------------------------
# Sugar
# ---------------------------------------------------------------------------

def self_product(t: Term, k: int) -> Term:
    """The K-fold self-product thin(K, t <*> tl(t) <*> ... <*> tl^{K-1}(t))."""
    if k < 1:
        raise ValueError("self-product power must be at least 1")
    factors = []
    for i in range(k):
        f = t
        for _ in range(i):
            f = Tl(f)
        factors.append(f)
    prod = factors[-1]
    for f in reversed(factors[:-1]):
        prod = Prod(f, prod)
    return Thin(k, prod)


def ite(cond: Term, if_true: Term, if_false: Term, pos: Optional[Pos] = None) -> Term:
    """if/then/else as a case over the two-summand Bool (True first)."""
    return Case(cond, (("_", if_true), ("_", if_false)), pos=pos)


def as_ite(t: Term) -> Optional[tuple[Term, Term, Term]]:
    """Recognize the if/then/else sugar shape for printing and rules."""
    match t:
        case Case(scrutinee, ((b0, t0), (b1, t1))) if b0 == "_" and b1 == "_":
            return scrutinee, t0, t1
    return None


def pullback_member(t_term: Term, over: Type, carrier: Type, member: Type, index: int) -> PullbackT:
    """Build the inverse-image sugar t^-1(member) as a pullback type."""
    witness = Cast(over, Inj(index, Var("x")))
    return PullbackT(witness, t_term, over, carrier, member)


def intersect_sums(a: SumT, b: SumT) -> SumT:
    """Refine two restriction sums into the sum of pairwise intersections."""
    return SumT(
        tuple(IntersectT(x, y) for x in a.summands for y in b.summands)
    )


def erase_carrier(ty: Type) -> Type:
    """Strip predicate/pullback/intersection decorations down to the plain carrier."""
    match ty:
        case PredInv():
            return ProdT(REAL, REAL)
        case PullbackT(_, _, _, carrier, _):
            return erase_carrier(carrier)
        case IntersectT(left, _):
            return erase_carrier(left)
        case SumT(summands):
            erased = [erase_carrier(s) for s in summands]
            first = erased[0]
            if all(type_equal(e, first) for e in erased[1:]):
                return first
            return SumT(tuple(erased))
        case ProdT(left, right):
            return ProdT(erase_carrier(left), erase_carrier(right))
        case SamplerT(payload):
            return SamplerT(erase_carrier(payload))
        case FunT(dom, cod):
            return FunT(erase_carrier(dom), erase_carrier(cod))
        case _:
            return ty
