"""Proof checker for the asymptotic-targeting calculus, plus goal elaboration.

Derivations are trees whose nodes instantiate one of the seven rule schemas
(axiom, equiv, tl, map, reweight, prng, cast).  There is deliberately no thin
rule: thinning a targeting sampler is unsound (the alternating sampler targets
the uniform two-point law, its 2-thinning a point mass), so any thin-labeled
node is rejected outright.  Where a node states a simplified measure, the
checker verifies it against the computed one, exactly when both sides reduce
to finite atoms and numerically otherwise; the verdict records which.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import measures as M
from .builtins import EvalError
from .parser import Program, parse_measure, parse_term
from .pretty import pretty, pretty_measure
from .quadrature import (
    IntegrationError,
    QuadSettings,
    SideConditionError,
    build_family,
    measure_equal,
    normalizer,
)
from .rewrite import EquivProof, normalize
from .terms import (
    Cast,
    FunT,
    IntersectT,
    Lam,
    Map,
    Prng,
    PullbackT,
    Reweight,
    SumT,
    Term,
    Tl,
    Type,
    Var,
    alpha_equal,
    contains_comparison,
)
from .typecheck import Checker, check_subtype

THIN_REJECTION = (
    "no thin rule exists: thinning is not sound for targeting (the alternating "
    "0/1 generator targets the uniform two-point law while its 2-thinning "
    "targets the point mass at 0)"
)


@dataclass
class TargetAxiom:
    name: str
    subject: Term
    measure: M.MeasureExpr
    kind: str = "assumption"  # or 'ergodicity'


@dataclass
class BoundaryAxiom:
    name: str
    fn: Term
    measure: M.MeasureExpr


@dataclass
class AxiomSet:
    axioms: list[TargetAxiom] = field(default_factory=list)
    boundaries: list[BoundaryAxiom] = field(default_factory=list)
    externs: dict[str, Type] = field(default_factory=dict)

    @staticmethod
    def from_program(prog: Program) -> "AxiomSet":
        out = AxiomSet()
        from .terms import self_product

        for ext in prog.externs:
            out.externs[ext.name] = ext.ty
            out.axioms.append(TargetAxiom(ext.name, Var(ext.name), ext.measure))
            for k in ext.equidistributed:
                out.axioms.append(
                    TargetAxiom(
                        f"{ext.name}_equidistributed_{k}",
                        self_product(Var(ext.name), k),
                        M.PowerM(ext.measure, k),
                    )
                )
        for ax in prog.axioms:
            out.axioms.append(TargetAxiom(ax.name, ax.subject, ax.measure, ax.kind))
        for b in prog.boundaries:
            out.boundaries.append(BoundaryAxiom(b.name, b.fn, b.measure))
        return out

    def find_subject(self, subject: Term, kind: str = "assumption") -> Optional[TargetAxiom]:
        for ax in self.axioms:
            if ax.kind == kind and alpha_equal(ax.subject, subject):
                return ax
        return None

    def find_named(self, name: str) -> Optional[TargetAxiom]:
        for ax in self.axioms:
            if ax.name == name:
                return ax
        return None

    def find_boundary(self, fn: Term) -> Optional[BoundaryAxiom]:
        for b in self.boundaries:
            if alpha_equal(b.fn, fn):
                return b
        return None


@dataclass
class Judgment:
    subject: Term
    target: M.MeasureExpr

    def to_json(self):
        return {"subject": pretty(self.subject), "target": pretty_measure(self.target)}


@dataclass
class DerivNode:
    rule: str
    judgment: Judgment
    premises: list["DerivNode"] = field(default_factory=list)
    evidence: dict = field(default_factory=dict)

    def to_json(self):
        out = {
            "rule": self.rule,
            "judgment": self.judgment.to_json(),
            "premises": [p.to_json() for p in self.premises],
        }
        if self.evidence:
            out["evidence"] = _evidence_json(self.evidence)
        return out


def _evidence_json(ev: dict) -> dict:
    out = {}
    for key, value in ev.items():
        if key == "equiv" and isinstance(value, EquivProof):
            out[key] = value.to_json()
        else:
            out[key] = value
    return out


def derivation_from_json(data: dict, samplerish: set[str]) -> DerivNode:
    judgment = Judgment(
        parse_term(data["judgment"]["subject"], samplerish),
        parse_measure(data["judgment"]["target"], samplerish),
    )
    premises = [derivation_from_json(p, samplerish) for p in data.get("premises", [])]
    return DerivNode(data["rule"], judgment, premises, dict(data.get("evidence", {})))


@dataclass
class NodeReport:
    path: str
    rule: str
    status: str  # 'ok' | 'rejected'
    note: str = ""

    def to_json(self):
        return {"path": self.path, "rule": self.rule, "status": self.status, "note": self.note}


@dataclass
class CheckOutcome:
    accepted: bool
    conclusion: Optional[Judgment]
    reports: list[NodeReport]
    failure: str = ""

    def to_json(self):
        return {
            "schema_version": 1,
            "accepted": self.accepted,
            "conclusion": self.conclusion.to_json() if self.conclusion else None,
            "failure": self.failure,
            "nodes": [r.to_json() for r in self.reports],
        }


class Rejection(Exception):
    def __init__(self, path: str, reason: str):
        super().__init__(f"node {path or 'root'}: {reason}")
        self.path = path
        self.reason = reason


#: the quadrature tolerance of the numeric "=" checks inside proofs, looser
#: than the defaults; it and NUMERIC_TOL stay until integrals report error bounds
CHECK_SETTINGS = QuadSettings(abs_tol=1e-5, rel_tol=1e-5)
#: the discrepancy a stated "=" may show, unless its evidence gives a `tol`
NUMERIC_TOL = 5e-3


class DerivationChecker:
    def __init__(self, axioms: AxiomSet):
        self.axioms = axioms

    # -- public ---------------------------------------------------------------

    def check(self, root: DerivNode) -> CheckOutcome:
        reports: list[NodeReport] = []
        try:
            self._check_node(root, "root", reports)
        except Rejection as rej:
            return CheckOutcome(False, None, reports, f"{rej.path}: {rej.reason}")
        return CheckOutcome(True, root.judgment, reports)

    # -- per-node -------------------------------------------------------------

    def _check_node(self, node: DerivNode, path: str, reports: list[NodeReport]) -> None:
        for i, premise in enumerate(node.premises):
            self._check_node(premise, f"{path}.{i}", reports)
        rule = node.rule.lower()
        if rule == "thin":
            raise Rejection(path, THIN_REJECTION)
        handler = getattr(self, f"_rule_{rule}", None)
        if handler is None:
            raise Rejection(path, f"unknown rule label '{node.rule}'")
        note = handler(node, path)
        reports.append(NodeReport(path, rule, "ok", note or ""))

    def _expect_premises(self, node: DerivNode, path: str, count: int) -> None:
        if len(node.premises) != count:
            raise Rejection(
                path, f"rule '{node.rule}' expects {count} premises, found {len(node.premises)}"
            )

    def _match_target(self, computed: M.MeasureExpr, node: DerivNode, path: str) -> str:
        stated = node.judgment.target
        if M.measure_expr_equal(computed, stated):
            return "target stated in computed form"
        tol = float(node.evidence.get("tol", NUMERIC_TOL))
        family = build_family(stated, slim=True)
        try:
            report = measure_equal(computed, stated, family, tol, CHECK_SETTINGS)
        except (IntegrationError, EvalError) as err:
            raise Rejection(path, f"measure comparison failed: {err}")
        if not report.equal:
            raise Rejection(
                path,
                f"stated target {pretty_measure(stated)} differs from computed "
                f"{pretty_measure(computed)} ({report.mode}, worst discrepancy "
                f"{report.max_discrepancy:.3g}, tol {tol:g})",
            )
        return (
            f"target simplification checked ({report.mode}, "
            f"worst {report.max_discrepancy:.2e})"
        )

    # -- rules ------------------------------------------------------------------

    def _rule_axiom(self, node: DerivNode, path: str) -> str:
        self._expect_premises(node, path, 0)
        name = node.evidence.get("axiom")
        ax = self.axioms.find_named(name) if name else self.axioms.find_subject(node.judgment.subject)
        if ax is None:
            raise Rejection(path, f"no axiom covers subject {pretty(node.judgment.subject)}")
        if ax.kind != "assumption":
            raise Rejection(path, f"axiom '{ax.name}' is an ergodicity claim; use the prng rule")
        if not alpha_equal(ax.subject, node.judgment.subject):
            raise Rejection(path, f"axiom '{ax.name}' concerns a different subject")
        if not M.measure_expr_equal(ax.measure, node.judgment.target):
            raise Rejection(path, f"axiom '{ax.name}' targets {pretty_measure(ax.measure)}")
        return f"axiom '{ax.name}'"

    def _rule_equiv(self, node: DerivNode, path: str) -> str:
        self._expect_premises(node, path, 1)
        premise = node.premises[0]
        if not M.measure_expr_equal(premise.judgment.target, node.judgment.target):
            raise Rejection(path, "equivalence must preserve the target measure")
        ev = node.evidence.get("equiv")
        if ev is None:
            raise Rejection(path, "equiv node carries no proof script")
        if isinstance(ev, EquivProof):
            proof = EquivProof(
                node.judgment.subject, premise.judgment.subject, ev.left_steps, ev.right_steps
            )
        else:
            proof = EquivProof.from_json(
                ev, node.judgment.subject, premise.judgment.subject
            )
        try:
            ok = proof.replay()
        except Exception as err:  # replay applies user-supplied steps
            raise Rejection(path, f"equivalence replay failed: {err}")
        if not ok:
            raise Rejection(path, "equivalence proof does not connect the subjects")
        return f"equivalence replayed ({len(proof.left_steps) + len(proof.right_steps)} steps)"

    def _rule_tl(self, node: DerivNode, path: str) -> str:
        self._expect_premises(node, path, 1)
        premise = node.premises[0]
        if not alpha_equal(node.judgment.subject, Tl(premise.judgment.subject)):
            raise Rejection(path, "subject is not tl of the premise subject")
        if not M.measure_expr_equal(premise.judgment.target, node.judgment.target):
            raise Rejection(path, "tl preserves the target measure")
        return ""

    def _typed_transform_fn(self, fn: Term, path: str) -> Optional[FunT]:
        """The function's type, or None for '_'-annotated lambdas.

        Inferred-parameter lambdas were resolved when the program itself was
        checked; proof files keep the '_' because split domains have no
        parseable surface syntax.  Continuity falls back to a conservative
        comparison scan for them.
        """
        if isinstance(fn, Lam) and any(ty is None for _, ty in fn.params):
            return None
        checker = Checker(self.axioms.externs)
        try:
            ty, _ = checker.infer(fn)
        except Exception as err:
            raise Rejection(path, f"transform function does not typecheck: {err}")
        if not isinstance(ty, FunT):
            raise Rejection(path, "transform evidence is not a function")
        return ty

    def _is_split_domain(self, ty: Type) -> bool:
        match ty:
            case PullbackT() | IntersectT():
                return True
            case SumT(summands):
                return any(self._is_split_domain(s) for s in summands)
            case _:
                return False

    def _rule_map(self, node: DerivNode, path: str) -> str:
        self._expect_premises(node, path, 1)
        premise = node.premises[0]
        subject = node.judgment.subject
        if not isinstance(subject, Map) or not alpha_equal(subject.sampler, premise.judgment.subject):
            raise Rejection(path, "subject is not map(f, .) of the premise subject")
        fn = subject.fn
        ty = self._typed_transform_fn(fn, path)
        notes = []
        piecewise = (
            self._is_split_domain(ty.dom) if ty is not None else contains_comparison(fn)
        )
        if piecewise:
            boundary = self.axioms.find_boundary(fn)
            if boundary is None:
                raise Rejection(
                    path,
                    "mapped function is only piecewise continuous (its domain was "
                    "split by comparisons); cite a boundary-null axiom",
                )
            if not M.measure_expr_equal(boundary.measure, premise.judgment.target):
                raise Rejection(
                    path,
                    f"boundary-null axiom '{boundary.name}' concerns a different measure",
                )
            notes.append(f"boundary-null axiom '{boundary.name}'")
        else:
            notes.append("continuous by typing")
        computed = M.PushforwardM(fn, premise.judgment.target)
        notes.append(self._match_target(computed, node, path))
        return "; ".join(notes)

    def _rule_reweight(self, node: DerivNode, path: str) -> str:
        self._expect_premises(node, path, 1)
        premise = node.premises[0]
        subject = node.judgment.subject
        if not isinstance(subject, Reweight) or not alpha_equal(
            subject.sampler, premise.judgment.subject
        ):
            raise Rejection(path, "subject is not reweight(f, .) of the premise subject")
        fn = subject.fn
        self._typed_transform_fn(fn, path)
        try:
            value = normalizer(fn, premise.judgment.target, CHECK_SETTINGS)
        except SideConditionError as err:
            raise Rejection(path, f"∫ f dμ = {err.value:g} ∉ (0, ∞)")
        except (IntegrationError, EvalError) as err:
            raise Rejection(path, f"∫ f dμ: {err}")
        computed = M.ReweightM(fn, premise.judgment.target)
        note = self._match_target(computed, node, path)
        return f"∫ f dμ = {value:.6g} ∈ (0, ∞); {note}"

    def _rule_prng(self, node: DerivNode, path: str) -> str:
        self._expect_premises(node, path, 0)
        subject = node.judgment.subject
        if not isinstance(subject, Prng):
            raise Rejection(path, "prng rule applies to prng(f, x) subjects only")
        name = node.evidence.get("axiom")
        ax = self.axioms.find_named(name) if name else None
        if ax is None:
            for cand in self.axioms.axioms:
                if cand.kind == "ergodicity" and alpha_equal(cand.subject, subject):
                    ax = cand
                    break
        if ax is None or ax.kind != "ergodicity":
            raise Rejection(
                path,
                "prng rule needs a declared ergodicity axiom for this step map, "
                "seed and measure; ergodicity is never derived automatically",
            )
        if not alpha_equal(ax.subject, subject):
            raise Rejection(path, f"ergodicity axiom '{ax.name}' concerns a different generator")
        if not M.measure_expr_equal(ax.measure, node.judgment.target):
            raise Rejection(path, f"ergodicity axiom '{ax.name}' targets {pretty_measure(ax.measure)}")
        return f"ergodicity axiom '{ax.name}'"

    def _rule_cast(self, node: DerivNode, path: str) -> str:
        self._expect_premises(node, path, 1)
        premise = node.premises[0]
        subject = node.judgment.subject
        match subject:
            case Map(Lam(((x, ann),), Cast(target_ty, Var(x1))), inner) if x1 == x:
                if not alpha_equal(inner, premise.judgment.subject):
                    raise Rejection(path, "cast subject does not wrap the premise subject")
                if ann is None:
                    raise Rejection(path, "cast lambda must annotate its domain")
                witness = check_subtype(ann, target_ty)
                if witness is None:
                    raise Rejection(
                        path,
                        f"no subtype witness from the annotated domain to the cast target",
                    )
                if not M.measure_expr_equal(premise.judgment.target, node.judgment.target):
                    raise Rejection(path, "cast preserves the target measure")
                return f"subtype witness via {witness.rule}"
        raise Rejection(path, "cast rule expects subject map(fun x : S => cast<T>(x), s)")


# ---------------------------------------------------------------------------
# Elaboration: mechanizing the hand derivations
# ---------------------------------------------------------------------------


class ElaborationError(Exception):
    pass


def elaborate_goal(
    subject: Term,
    target: M.MeasureExpr,
    axioms: AxiomSet,
    hints: Optional[dict[int, M.MeasureExpr]] = None,
) -> DerivNode:
    """Backward-chain a derivation for `subject targets target`.

    The subject is normalized first; an equivalence node bridges the original
    subject and its normal form when they differ.  Peeled map/reweight/tl
    layers compute their targets from the inside out; `hints` may state a
    simplified measure at the layer with that many operations above the axiom
    leaf (the checker will verify the simplification).  The goal target is
    stated at the root.
    """
    hints = hints or {}
    nf, steps = normalize(subject)

    layers: list[tuple[str, Optional[Term]]] = []
    core = nf
    while True:
        match core:
            case Map(fn, inner):
                layers.append(("map", fn))
                core = inner
            case Reweight(fn, inner):
                layers.append(("reweight", fn))
                core = inner
            case Tl(inner):
                layers.append(("tl", None))
                core = inner
            case _:
                break

    node: DerivNode
    if isinstance(core, Prng):
        ax = None
        for cand in axioms.axioms:
            if cand.kind == "ergodicity" and alpha_equal(cand.subject, core):
                ax = cand
                break
        if ax is None:
            raise ElaborationError(
                f"no ergodicity axiom matches the core {pretty(core)}"
            )
        node = DerivNode("prng", Judgment(core, ax.measure), [], {"axiom": ax.name})
    else:
        ax = axioms.find_subject(core)
        if ax is None:
            raise ElaborationError(f"no axiom matches the core {pretty(core)}")
        node = DerivNode("axiom", Judgment(core, ax.measure), [], {"axiom": ax.name})

    subject_so_far = core
    for depth, (kind, fn) in enumerate(reversed(layers), start=1):
        if kind == "map":
            subject_so_far = Map(fn, subject_so_far)
            computed = M.PushforwardM(fn, node.judgment.target)
        elif kind == "reweight":
            subject_so_far = Reweight(fn, subject_so_far)
            computed = M.ReweightM(fn, node.judgment.target)
        else:
            subject_so_far = Tl(subject_so_far)
            computed = node.judgment.target
        stated = hints.get(depth, computed)
        node = DerivNode(kind, Judgment(subject_so_far, stated), [node])

    # state the goal target at the root; the checker verifies the
    # simplification against the computed measure (exactly or numerically)
    if not M.measure_expr_equal(node.judgment.target, target):
        if not layers:
            raise ElaborationError(
                f"the axiom states {pretty_measure(node.judgment.target)}, "
                f"not the requested {pretty_measure(target)}; leaf judgments "
                "admit no simplification step"
            )
        node.judgment = Judgment(node.judgment.subject, target)

    if steps or not alpha_equal(subject, nf):
        proof = EquivProof(subject, nf, list(steps), [])
        node = DerivNode(
            "equiv", Judgment(subject, node.judgment.target), [node], {"equiv": proof}
        )
    return node
