"""Type checker: syntax-directed inference with discontinuity tracking.

Comparisons are typed over split domains f^-1(0) + f^-1(1); applying one
implicitly restricts the innermost lambda group to a sum of inverse-image
types.  After such a restriction the individual variables can no longer be
abstracted separately, so restrictions that would have to reach across an
enclosing lambda are rejected.  Sampler arguments whose payload is coarser
than a function's split domain are retyped at the finer payload when the
sampler mentions no lambda-bound variables (the closed-context case).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .builtins import (
    fits,
    is_builtin,
    is_comparison,
    numeric_join,
    is_numeric,
    signature,
)
from . import measures as M
from .parser import Program
from .pretty import pretty, pretty_type
from .terms import (
    App,
    BOOL,
    BOOL_AS_SUM,
    Builtin,
    Case,
    Cast,
    Const,
    FunT,
    Fst,
    Ground,
    Hd,
    Inj,
    IntersectT,
    Lam,
    Let,
    Map,
    NAT,
    POSREAL,
    Pair,
    PredInv,
    Prng,
    Prod,
    ProdT,
    PullbackT,
    REAL,
    Reweight,
    SamplerT,
    Snd,
    SumT,
    Term,
    Thin,
    Tl,
    Type,
    UNIT,
    Var,
    Wt,
    alpha_equal,
    bool_summands,
    children,
    erase_carrier,
    free_vars,
    fresh_name,
    intersect_sums,
    pullback_member,
    substitute,
    type_equal,
)


class TypeCheckError(Exception):
    def __init__(self, message: str, pos=None):
        super().__init__(message if pos is None else f"{pos[0]}:{pos[1]}: {message}")
        self.message = message
        self.pos = pos


# ---------------------------------------------------------------------------
# Subtyping
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubtypeWitness:
    rule: str
    left: Type
    right: Type
    children: tuple["SubtypeWitness", ...] = ()

    def to_json(self):
        return {
            "rule": self.rule,
            "left": pretty_type(self.left),
            "right": pretty_type(self.right),
            "children": [c.to_json() for c in self.children],
        }


def _pullback_split_target(ty: Type) -> Optional[Type]:
    """If ty is a sum of inverse images along one term, its carrier."""
    summands = ty.summands if isinstance(ty, SumT) else (ty,)
    if not all(isinstance(s, PullbackT) for s in summands):
        return None
    first = summands[0]
    for s in summands[1:]:
        if not (
            alpha_equal(s.t, first.t)
            and type_equal(s.over, first.over)
            and type_equal(s.carrier, first.carrier)
        ):
            return None
    members = SumT(tuple(s.member for s in summands)) if len(summands) > 1 else None
    if members is not None and check_subtype(members, first.over) is None:
        return None
    return first.carrier


def _intersection_grid(ty: Type) -> Optional[tuple[list[Type], list[Type]]]:
    """Recognize the i-major grid sum_{i,j} A_i & B_j and return (A, B)."""
    if not isinstance(ty, SumT):
        return None
    if not all(isinstance(s, IntersectT) for s in ty.summands):
        return None
    rights_first: list[Type] = []
    for s in ty.summands:
        if any(type_equal(s.right, r) for r in rights_first):
            break
        rights_first.append(s.right)
    m = len(rights_first)
    if m == 0 or len(ty.summands) % m != 0:
        return None
    n = len(ty.summands) // m
    lefts = [ty.summands[i * m].left for i in range(n)]
    for i in range(n):
        for j in range(m):
            s = ty.summands[i * m + j]
            if not (type_equal(s.left, lefts[i]) and type_equal(s.right, rights_first[j])):
                return None
    return lefts, rights_first


def check_subtype(s: Type, t: Type, depth: int = 32) -> Optional[SubtypeWitness]:
    """A witness of s <| t under the generated rules, or None.

    Search is bounded-depth: one generated rule is applied at the root and
    transitivity closes the gap recursively.
    """
    if depth <= 0:
        return None
    if type_equal(s, t):
        return SubtypeWitness("refl", s, t)

    # axiom: comparison split over the plane
    match s, t:
        case SumT((PredInv(c0, 0), PredInv(c1, 1))), ProdT(l, r) if (
            c0 == c1 and type_equal(l, REAL) and type_equal(r, REAL)
        ):
            return SubtypeWitness("comparison-split", s, t)
        case ProdT(sl, sr), ProdT(tl_, tr):
            wl = check_subtype(sl, tl_, depth - 1)
            wr = check_subtype(sr, tr, depth - 1)
            if wl and wr:
                return SubtypeWitness("product", s, t, (wl, wr))
        case SumT(ss), SumT(ts) if len(ss) == len(ts):
            parts = []
            for a, b in zip(ss, ts):
                w = check_subtype(a, b, depth - 1)
                if w is None:
                    parts = None
                    break
                parts.append(w)
            if parts is not None:
                return SubtypeWitness("sum", s, t, tuple(parts))
        case SamplerT(sp), SamplerT(tp):
            w = check_subtype(sp, tp, depth - 1)
            if w:
                return SubtypeWitness("sampler", s, t, (w,))

    # pullback split followed by transitivity toward t
    carrier = _pullback_split_target(s)
    if carrier is not None:
        step = SubtypeWitness("pullback-split", s, carrier)
        if type_equal(carrier, t):
            return step
        rest = check_subtype(carrier, t, depth - 1)
        if rest:
            return SubtypeWitness("trans", s, t, (step, rest))

    # intersection refinements followed by transitivity
    grid = _intersection_grid(s)
    if grid is not None:
        lefts, rights = grid
        for rule, parts in (("intersect-left", lefts), ("intersect-right", rights)):
            mid = SumT(tuple(parts)) if len(parts) > 1 else parts[0]
            step = SubtypeWitness(rule, s, mid)
            if type_equal(mid, t):
                return step
            rest = check_subtype(mid, t, depth - 1)
            if rest:
                return SubtypeWitness("trans", s, t, (step, rest))
    return None


# ---------------------------------------------------------------------------
# Typing contexts
# ---------------------------------------------------------------------------


@dataclass
class Restriction:
    t_star: Term
    cmp: str


@dataclass
class LambdaFrame:
    params: list[tuple[str, Type]]
    restrictions: list[Restriction] = field(default_factory=list)


@dataclass
class LetFrame:
    name: str
    ty: Optional[Type]  # None while a '_'-annotated lambda is unresolved
    definition: Term
    ctx_depth: int = 0


@dataclass
class CaseFrame:
    name: str
    ty: Type


Frame = object


class Context:
    def __init__(self, externs: dict[str, Type]):
        self.externs = dict(externs)
        self.frames: list[Frame] = []

    def push(self, frame) -> None:
        self.frames.append(frame)

    def pop(self):
        return self.frames.pop()

    def lookup(self, name: str, depth: Optional[int] = None):
        """Returns (kind, type-or-None, frame) for the binding of `name`, in
        the scope of the first `depth` frames (all of them by default)."""
        frames = self.frames if depth is None else self.frames[:depth]
        for frame in reversed(frames):
            if isinstance(frame, LambdaFrame):
                for n, ty in frame.params:
                    if n == name:
                        return "lambda", ty, frame
            elif isinstance(frame, LetFrame) and frame.name == name:
                return "let", frame.ty, frame
            elif isinstance(frame, CaseFrame) and frame.name == name:
                return "case", frame.ty, frame
        if name in self.externs:
            return "extern", self.externs[name], None
        return None, None, None

    def innermost_lambda(self) -> Optional[LambdaFrame]:
        for frame in reversed(self.frames):
            if isinstance(frame, LambdaFrame):
                return frame
        return None

    def bound_names(self) -> set[str]:
        """Every name a frame or an extern binds."""
        names = set(self.externs)
        for frame in self.frames:
            if isinstance(frame, LambdaFrame):
                names.update(n for n, _ in frame.params)
            else:
                names.add(frame.name)
        return names

    def lambda_bound_names(self) -> set[str]:
        names = set()
        for frame in self.frames:
            if isinstance(frame, LambdaFrame):
                names.update(n for n, _ in frame.params)
        return names


def _is_data_type(ty: Type) -> bool:
    """Ground-carrier types: no functions or samplers anywhere."""
    match ty:
        case FunT() | SamplerT():
            return False
        case ProdT(l, r):
            return _is_data_type(l) and _is_data_type(r)
        case SumT(summands):
            return all(_is_data_type(s) for s in summands)
        case _:
            return True


def inline_lets(ctx: Context, term: Term) -> tuple[Term, dict[str, tuple]]:
    """Substitute data-typed let definitions into `term`, transitively, each
    definition read in its own let's scope.

    Function-typed lets stay symbolic so inverse-image types keep their
    readable shape.  Returns the term and, for each of its free variables,
    the binding it stands for: (name as written, kind, type, frame).  A
    variable keeps its name unless another binding in the result has that
    name too and `term`'s own scope does not bind the name to it; then it
    gets a fresh name, so that no binder captures it.
    """
    found: list[tuple] = []  # the bindings read, in order; the k-th is named f"{name}#{k}"
    inlined = False

    def resolve(t: Term, depth: Optional[int], fuel: int) -> Term:
        nonlocal inlined
        if fuel == 0:
            raise TypeCheckError("let inlining did not terminate")
        for name in sorted(free_vars(t)):
            kind, ty, frame = ctx.lookup(name, depth)
            if kind == "let" and ty is not None and _is_data_type(ty):
                new = resolve(frame.definition, frame.ctx_depth, fuel - 1)
                inlined = True
            else:
                k = next((k for k, b in enumerate(found) if b[0] == name and b[3] is frame), len(found))
                if k == len(found):
                    found.append((name, kind, ty, frame))
                new = Var(f"{name}#{k}")
            # no identifier has a '#', so no later name of t is one of new's
            t = substitute(t, name, new)
        return t

    out = resolve(term, None, 64)
    written = [name for name, *_ in found]
    finals: list[str] = []
    for name, _, _, frame in found:
        if written.count(name) > 1 and ctx.lookup(name)[2] is not frame:
            name = fresh_name(name, set(written) | set(finals) | ctx.bound_names())
        finals.append(name)
    if not inlined and finals == written:
        return term, dict(zip(finals, found))
    for k, name in enumerate(finals):
        out = substitute(out, f"{written[k]}#{k}", Var(name))
    return out, dict(zip(finals, found))


# ---------------------------------------------------------------------------
# Derivations
# ---------------------------------------------------------------------------


@dataclass
class Deriv:
    """A derivation node.  Its term, type and note are kept as they are, a
    Term, a Type and a SubtypeWitness (or text), and printed only by
    `to_json`: a witness note reads `left <| right`."""

    rule: str
    term: object
    ty: object
    children: tuple["Deriv", ...] = ()
    note: object = ""

    def to_json(self):
        term = self.term if isinstance(self.term, str) else pretty(self.term)
        ty = self.ty if isinstance(self.ty, str) else pretty_type(self.ty)
        out = {"rule": self.rule, "term": term, "type": ty}
        if isinstance(self.note, SubtypeWitness):
            out["note"] = f"{pretty_type(self.note.left)} <| {pretty_type(self.note.right)}"
        elif self.note:
            out["note"] = self.note
        out["children"] = [c.to_json() for c in self.children]
        return out

    def rule_tree(self):
        """The rule skeleton, for golden structural comparisons."""
        return (self.rule, tuple(c.rule_tree() for c in self.children))


@dataclass
class CheckResult:
    ty: Type
    derivation: Deriv
    let_types: dict[str, Type]


# ---------------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------------


class Checker:
    def __init__(self, externs: dict[str, Type]):
        self.ctx = Context(externs)
        self.let_types: dict[str, Type] = {}

    # -- helpers -------------------------------------------------------------

    def _group_carrier(self, frame: LambdaFrame) -> Type:
        tys = [ty for _, ty in frame.params]
        out = tys[-1]
        for ty in reversed(tys[:-1]):
            out = ProdT(ty, out)
        return out

    def _collapsed_domain(self, frame: LambdaFrame) -> Type:
        carrier = self._group_carrier(frame)
        if not frame.restrictions:
            return carrier
        sums = []
        for r in frame.restrictions:
            members = (PredInv(r.cmp, 0), PredInv(r.cmp, 1))
            over = ProdT(REAL, REAL)
            sums.append(
                SumT(
                    tuple(
                        pullback_member(r.t_star, over, carrier, m, i)
                        for i, m in enumerate(members)
                    )
                )
            )
        out = sums[0]
        for nxt in sums[1:]:
            out = intersect_sums(out, nxt)
        return out

    def _fire_restriction(self, pair_term: Term, cmp: str, pos) -> None:
        t_star, bindings = inline_lets(self.ctx, pair_term)
        data_vars = []
        for name in free_vars(t_star):
            written, kind, ty, frame = bindings[name]
            if kind in ("lambda", "case") and ty is not None and _is_data_type(ty):
                data_vars.append((written, kind, frame))
        if not data_vars:
            return  # closed comparison; nothing to restrict
        inner = self.ctx.innermost_lambda()
        if inner is None:
            raise TypeCheckError(
                "comparison over free variables outside any abstraction", pos
            )
        inner_names = {n for n, _ in inner.params}
        for name, kind, frame in data_vars:
            if kind == "case":
                raise TypeCheckError(
                    f"comparison depends on case-bound variable '{name}'", pos
                )
            if frame is not inner:
                raise TypeCheckError(
                    f"context restriction for '{name}' would cross a lambda; "
                    "after restriction the variable cannot be abstracted separately",
                    pos,
                )
            assert name in inner_names
        for r in inner.restrictions:
            if r.cmp == cmp and alpha_equal(r.t_star, t_star):
                return
        inner.restrictions.append(Restriction(t_star, cmp))

    def _subtype(self, s: Type, t: Type) -> Optional[SubtypeWitness]:
        return check_subtype(s, t)

    def _join(self, a: Type, b: Type, pos) -> Type:
        if type_equal(a, b):
            return a
        if is_numeric(a) and is_numeric(b):
            return numeric_join(a, b)
        raise TypeCheckError(
            f"branch types differ: {pretty_type(a)} vs {pretty_type(b)}", pos
        )

    # -- main ----------------------------------------------------------------

    def infer(self, term: Term) -> tuple[Type, Deriv]:
        match term:
            case Const(value):
                if isinstance(value, bool):
                    ty = BOOL
                elif value == () and isinstance(value, tuple):
                    ty = UNIT
                else:
                    ty = POSREAL if value >= 0 else REAL
                return ty, Deriv("const", term, ty)

            case Var(name):
                kind, ty, frame = self.ctx.lookup(name)
                if kind is None:
                    raise TypeCheckError(f"unbound variable '{name}'", term.pos)
                if ty is None:
                    raise TypeCheckError(
                        f"'{name}' has an inferred-parameter lambda; it can only be "
                        "used where the parameter type is determined",
                        term.pos,
                    )
                return ty, Deriv("var", name, ty)

            case Builtin(op, args):
                if is_comparison(op):
                    return self._infer_comparison(term)
                if not is_builtin(op):
                    raise TypeCheckError(f"unknown builtin '{op}'", term.pos)
                sig = signature(op)
                if len(args) != sig.arity:
                    raise TypeCheckError(
                        f"builtin '{op}' expects {sig.arity} arguments", term.pos
                    )
                kids = [self.infer(a) for a in args]
                try:
                    ty = sig.result(*[t for t, _ in kids])
                except TypeError as err:
                    raise TypeCheckError(str(err), term.pos) from None
                return ty, Deriv("builtin", term, ty, tuple(d for _, d in kids))

            case Pair(left, right):
                lt, ld = self.infer(left)
                rt, rd = self.infer(right)
                ty = ProdT(lt, rt)
                return ty, Deriv("pair", term, ty, (ld, rd))

            case Fst(body):
                bt, bd = self.infer(body)
                if not isinstance(bt, ProdT):
                    raise TypeCheckError(
                        f"fst of non-product {pretty_type(bt)}", term.pos
                    )
                return bt.left, Deriv("fst", term, bt.left, (bd,))

            case Snd(body):
                bt, bd = self.infer(body)
                if not isinstance(bt, ProdT):
                    raise TypeCheckError(
                        f"snd of non-product {pretty_type(bt)}", term.pos
                    )
                return bt.right, Deriv("snd", term, bt.right, (bd,))

            case Cast(ty, body):
                bt, bd = self.infer(body)
                witness = self._subtype(bt, ty)
                if witness is None and not fits(bt, ty):
                    raise TypeCheckError(
                        f"cast from {pretty_type(bt)} to {pretty_type(ty)} "
                        "has no subtype witness",
                        term.pos,
                    )
                note = witness.rule if witness else "numeric"
                return ty, Deriv("cast", term, ty, (bd,), note)

            case Inj(index, body):
                raise TypeCheckError(
                    "cannot infer the sum type of a bare injection", term.pos
                )

            case Case(scrutinee, branches):
                st, sd = self.infer(scrutinee)
                summands = bool_summands(st)
                if summands is None:
                    raise TypeCheckError(
                        f"case scrutinee has non-sum type {pretty_type(st)}",
                        term.pos,
                    )
                if len(summands) != len(branches):
                    raise TypeCheckError(
                        f"case has {len(branches)} branches for "
                        f"{len(summands)} summands",
                        term.pos,
                    )
                out_ty = None
                kids = [sd]
                for (binder, body), summand in zip(branches, summands):
                    self.ctx.push(CaseFrame(binder, summand))
                    try:
                        bt, bd = self.infer(body)
                    finally:
                        self.ctx.pop()
                    kids.append(bd)
                    out_ty = bt if out_ty is None else self._join(out_ty, bt, term.pos)
                return out_ty, Deriv("case", term, out_ty, tuple(kids))

            case Lam(params, body):
                resolved = []
                for name, ty in params:
                    if ty is None:
                        raise TypeCheckError(
                            "lambda parameter type '_' must be determined by the "
                            "use site",
                            term.pos,
                        )
                    resolved.append((name, ty))
                frame = LambdaFrame(resolved)
                self.ctx.push(frame)
                try:
                    bt, bd = self.infer(body)
                finally:
                    self.ctx.pop()
                dom = self._collapsed_domain(frame)
                ty = FunT(dom, bt)
                note = f"restricted x{len(frame.restrictions)}" if frame.restrictions else ""
                return ty, Deriv("lambda", term, ty, (bd,), note)

            case App(fn, arg):
                if isinstance(fn, Lam) and any(ty is None for _, ty in fn.params):
                    # redex with an unannotated binder (e.g. from let-expansion):
                    # the argument determines the parameter type
                    at, ad = self.infer(arg)
                    ft, fd = self._infer_lambda_with_dom(fn, at)
                    return ft.cod, Deriv("app", term, ft.cod, (fd, ad))
                ft, fd = self.infer(fn)
                if not isinstance(ft, FunT):
                    raise TypeCheckError(
                        f"application of non-function {pretty_type(ft)}", term.pos
                    )
                at, ad = self.infer(arg)
                if not fits(at, ft.dom):
                    raise TypeCheckError(
                        f"argument type {pretty_type(at)} does not fit "
                        f"{pretty_type(ft.dom)}",
                        term.pos,
                    )
                return ft.cod, Deriv("app", term, ft.cod, (fd, ad))

            case Let(name, bound, body):
                if isinstance(bound, Lam) and any(ty is None for _, ty in bound.params):
                    frame = LetFrame(name, None, bound, len(self.ctx.frames))
                    bd = Deriv("let-pending", bound, "_")
                else:
                    bt, bd = self.infer(bound)
                    frame = LetFrame(name, bt, bound, len(self.ctx.frames))
                    self.let_types[name] = bt
                self.ctx.push(frame)
                try:
                    ot, od = self.infer(body)
                finally:
                    self.ctx.pop()
                if frame.ty is not None:
                    self.let_types[name] = frame.ty
                return ot, Deriv("let", term, ot, (bd, od))

            case Prng(step, seed):
                st, sd = self.infer(seed)
                if isinstance(step, Lam) and any(ty is None for _, ty in step.params):
                    # unannotated step (e.g. an iterated composition produced
                    # by rewriting): the seed fixes the carrier, widening once
                    # if the body lands in a coarser numeric carrier
                    ft, fd = self._infer_lambda_with_dom(step, st)
                    if not fits(ft.cod, ft.dom):
                        ft, fd = self._infer_lambda_with_dom(step, ft.cod)
                else:
                    ft, fd = self.infer(step)
                if not isinstance(ft, FunT) or not fits(ft.cod, ft.dom):
                    shown = pretty_type(ft) if ft else "?"
                    raise TypeCheckError(
                        f"prng step must be an endomap, got {shown}", term.pos
                    )
                if not fits(st, ft.dom):
                    raise TypeCheckError(
                        f"prng seed type {pretty_type(st)} does not fit "
                        f"{pretty_type(ft.dom)}",
                        term.pos,
                    )
                ty = SamplerT(ft.dom)
                return ty, Deriv("prng", term, ty, (fd, sd))

            case Prod(left, right):
                lt, ld = self.infer(left)
                rt, rd = self.infer(right)
                if not isinstance(lt, SamplerT) or not isinstance(rt, SamplerT):
                    raise TypeCheckError("product needs two samplers", term.pos)
                ty = SamplerT(ProdT(lt.payload, rt.payload))
                return ty, Deriv("product", term, ty, (ld, rd))

            case Map(fn, sampler):
                return self._infer_transform(term, fn, sampler, kind="map")

            case Reweight(fn, sampler):
                return self._infer_transform(term, fn, sampler, kind="reweight")

            case Hd(body):
                bt, bd = self.infer(body)
                payload = self._payload(bt, term.pos)
                return payload, Deriv("hd", term, payload, (bd,))

            case Wt(body):
                bt, bd = self.infer(body)
                self._payload(bt, term.pos)
                return POSREAL, Deriv("wt", term, "R+", (bd,))

            case Tl(body):
                bt, bd = self.infer(body)
                self._payload(bt, term.pos)
                return bt, Deriv("tl", term, bt, (bd,))

            case Thin(count, sampler):
                if count < 1:
                    raise TypeCheckError("thin count must be positive", term.pos)
                bt, bd = self.infer(sampler)
                self._payload(bt, term.pos)
                return bt, Deriv("thin", term, bt, (bd,))

        raise TypeCheckError(f"cannot type {term!r}", getattr(term, "pos", None))

    def _payload(self, ty: Type, pos) -> Type:
        if not isinstance(ty, SamplerT):
            raise TypeCheckError(
                f"sampler operation applied to non-sampler {pretty_type(ty)}", pos
            )
        return ty.payload

    def _infer_comparison(self, term: Builtin) -> tuple[Type, Deriv]:
        (arg,) = term.args
        at, ad = self.infer(arg)
        if not fits(at, ProdT(REAL, REAL)):
            raise TypeCheckError(
                f"comparison argument must be a pair of reals, got {pretty_type(at)}",
                term.pos,
            )
        before = self.ctx.innermost_lambda()
        count = len(before.restrictions) if before else 0
        self._fire_restriction(arg, term.op, term.pos)
        after = len(before.restrictions) if before else 0
        note = "restricted" if after > count else ""
        return BOOL, Deriv("comparison", term, "B", (ad,), note)

    def _resolve_pending(self, fn: Term, dom: Type) -> Optional[tuple[Term, LetFrame]]:
        """A let-bound '_'-lambda referenced from a transform position."""
        if not isinstance(fn, Var):
            return None
        kind, ty, frame = self.ctx.lookup(fn.name)
        if kind == "let" and ty is None:
            return frame.definition, frame
        return None

    def _infer_fn_against(self, fn: Term, dom: Type) -> tuple[FunT, Deriv, Term]:
        """Type a transform function against the expected domain `dom`.

        Returns the function type, its derivation, and the term whose
        derivation was taken (the inline or let-bound lambda).
        """
        pending = self._resolve_pending(fn, dom)
        if pending is not None:
            lam, frame = pending
            sub = Checker(self.ctx.externs)
            sub.ctx.frames = self.ctx.frames[: frame.ctx_depth]
            ft, fd = sub._infer_lambda_with_dom(lam, dom)
            frame.ty = ft
            self.let_types[frame.name] = ft
            return ft, fd, lam
        if isinstance(fn, Lam) and any(ty is None for _, ty in fn.params):
            ft, fd = self._infer_lambda_with_dom(fn, dom)
            return ft, fd, fn
        ft, fd = self.infer(fn)
        if not isinstance(ft, FunT):
            raise TypeCheckError(
                f"transform function has non-function type {pretty_type(ft)}", fn.pos
            )
        return ft, fd, fn

    def _infer_lambda_with_dom(self, lam: Lam, dom: Type) -> tuple[FunT, Deriv]:
        if len(lam.params) != 1:
            raise TypeCheckError(
                "inferred-parameter lambdas take a single parameter", lam.pos
            )
        name, ann = lam.params[0]
        if ann is not None and not type_equal(ann, dom):
            raise TypeCheckError(
                f"annotation {pretty_type(ann)} conflicts with expected "
                f"{pretty_type(dom)}",
                lam.pos,
            )
        frame = LambdaFrame([(name, dom)])
        self.ctx.push(frame)
        try:
            bt, bd = self.infer(lam.body)
        finally:
            self.ctx.pop()
        if frame.restrictions:
            raise TypeCheckError(
                "inferred-parameter lambda cannot fire context restriction", lam.pos
            )
        ty = FunT(dom, bt)
        return ty, Deriv("lambda", lam, ty, (bd,))

    def _infer_transform(self, term: Term, fn: Term, sampler: Term, kind: str):
        st, sd = self.infer(sampler)
        payload = self._payload(st, term.pos)

        pending = self._resolve_pending(fn, payload)
        inline_inferred = isinstance(fn, Lam) and any(ty is None for _, ty in fn.params)
        if pending is not None or inline_inferred:
            ft, fd, _ = self._infer_fn_against(fn, payload)
            eff_payload = payload
            retype = None
        else:
            ft, fd = self.infer(fn)
            if not isinstance(ft, FunT):
                raise TypeCheckError(
                    f"{kind} function has non-function type {pretty_type(ft)}",
                    term.pos,
                )
            retype = None
            if fits(payload, ft.dom):
                eff_payload = payload
            else:
                carrier = erase_carrier(ft.dom)
                witness = (
                    self._subtype(ft.dom, carrier)
                    if fits(payload, carrier)
                    else None
                )
                lam_free = free_vars(sampler) & self.ctx.lambda_bound_names()
                if witness is None or lam_free:
                    raise TypeCheckError(
                        f"{kind}: sampler payload {pretty_type(payload)} does not "
                        f"fit function domain {pretty_type(ft.dom)}",
                        term.pos,
                    )
                eff_payload = ft.dom
                retype = SubtypeWitness(
                    "sampler",
                    SamplerT(ft.dom),
                    SamplerT(carrier),
                    (witness,),
                )
        if kind == "reweight":
            if not fits(ft.cod, POSREAL):
                raise TypeCheckError(
                    f"reweight function must land in R+, got {pretty_type(ft.cod)}",
                    term.pos,
                )
            out = SamplerT(eff_payload)
        else:
            out = SamplerT(ft.cod)
        kids = [fd, sd]
        note = ""
        if retype is not None:
            kids.append(Deriv("payload-restriction", sampler, retype.left, (), note=retype))
            note = "retyped"
        return out, Deriv(kind, term, out, tuple(kids), note)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def externs_of(prog: Program) -> dict[str, Type]:
    return {ext.name: ext.ty for ext in prog.externs}


def _point_type(p) -> Type:
    if isinstance(p, bool):
        return BOOL
    if isinstance(p, tuple):
        return ProdT(_point_type(p[0]), _point_type(p[1]))
    if p < 0:
        return REAL
    return NAT if isinstance(p, int) else POSREAL


def _interval_type(lo: float) -> Type:
    return POSREAL if lo >= 0 else REAL


def measure_type(m: M.MeasureExpr) -> Type:
    """The type of the points of a measure: the least type this checker
    gives them (a nonnegative real is R+), so that whatever it fits also
    holds every point."""
    match m:
        case M.Dirac(point):
            return _point_type(point)
        case M.Bernoulli():
            return BOOL
        case M.UniformM(a, _) | M.TriangularM(a, _):
            return _interval_type(a)
        case M.GaussianM():
            return REAL
        case M.GammaM():
            return POSREAL
        case M.FiniteDiscrete(atoms):
            out = _point_type(atoms[0][0])
            for point, _ in atoms[1:]:
                ty = _point_type(point)
                if is_numeric(out) and is_numeric(ty):
                    out = numeric_join(out, ty)
                elif not type_equal(out, ty):
                    raise TypeCheckError(
                        f"discrete atoms of types {pretty_type(out)} and {pretty_type(ty)}"
                    )
            return out
        case M.ProductM(left, right):
            return ProdT(measure_type(left), measure_type(right))
        case M.PowerM():
            return measure_type(M.expand_power(m))
        case M.ReweightM(_, base):
            return measure_type(base)
        case M.PushforwardM(fn, base):
            ft, _, _ = Checker({})._infer_fn_against(fn, measure_type(base))
            return ft.cod
    raise TypeCheckError(f"measure {m!r} has no point type")


def _bool_as_sum(ty: Type) -> Type:
    """ty with every B spelled as the sum Unit + Unit it is."""
    match ty:
        case Ground() if ty == BOOL:
            return BOOL_AS_SUM
        case ProdT(left, right):
            return ProdT(_bool_as_sum(left), _bool_as_sum(right))
        case SumT(summands):
            return SumT(tuple(map(_bool_as_sum, summands)))
    return ty


def check_extern(decl) -> None:
    """Reject an extern whose measure's points do not fit its declared
    sampler type, by the checker's own compatibility and subtyping (B is
    Unit + Unit here too)."""
    if not isinstance(decl.ty, SamplerT):
        raise TypeCheckError(f"extern '{decl.name}' is not declared a sampler")
    actual = measure_type(decl.measure)
    a, d = _bool_as_sum(actual), _bool_as_sum(decl.ty.payload)
    if not (fits(a, d) or check_subtype(a, d)):
        raise TypeCheckError(
            f"extern '{decl.name}' is declared {pretty_type(decl.ty)}, but its measure "
            f"has points of type {pretty_type(actual)}"
        )


def check_program(prog: Program) -> CheckResult:
    if prog.body is None:
        raise TypeCheckError("program has no body")
    for decl in prog.externs:
        check_extern(decl)
    checker = Checker(externs_of(prog))
    ty, deriv = checker.infer(prog.body)
    return CheckResult(ty, deriv, dict(checker.let_types))


def check_term(term: Term, externs: Optional[dict[str, Type]] = None) -> CheckResult:
    checker = Checker(externs or {})
    ty, deriv = checker.infer(term)
    return CheckResult(ty, deriv, dict(checker.let_types))
