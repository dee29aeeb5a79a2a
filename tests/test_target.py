import copy
import json
import random
import re
import time

import pytest

from samplerlang import measures as M
from samplerlang import quadrature
from samplerlang.corpus import load_corpus, load_proof
from samplerlang.parser import parse_measure, parse_program, parse_term
from samplerlang.target import (
    AxiomSet,
    DerivNode,
    DerivationChecker,
    ElaborationError,
    Judgment,
    derivation_from_json,
    elaborate_goal,
)
from samplerlang.terms import Map, Reweight, Tl, Var


@pytest.fixture(scope="module")
def corpus():
    return {it.name: it for it in load_corpus()}


def _checker(item):
    return DerivationChecker(AxiomSet.from_program(item.program))


def _bundled(item):
    externs = {e.name for e in item.program.externs}
    return derivation_from_json(load_proof(item.name), externs)


def test_extractor_proof_accepts(corpus):
    item = corpus["von_neumann"]
    out = _checker(item).check(_bundled(item))
    assert out.accepted
    rules = [r.rule for r in out.reports]
    assert rules == ["axiom", "reweight", "map", "equiv"]


def test_importance_proof_accepts(corpus):
    item = corpus["importance"]
    out = _checker(item).check(_bundled(item))
    assert out.accepted


def test_rejection_proof_accepts(corpus):
    item = corpus["rejection"]
    out = _checker(item).check(_bundled(item))
    assert out.accepted
    # the joint-independence axiom is the leaf
    assert any("joint_prior" in r.note for r in out.reports)


def test_axiom_set_from_headers(corpus):
    axioms = AxiomSet.from_program(corpus["von_neumann"].program)
    names = {a.name for a in axioms.axioms}
    assert names == {"flip", "flip_equidistributed_2"}
    eq2 = axioms.find_named("flip_equidistributed_2")
    assert isinstance(eq2.measure, M.PowerM) and eq2.measure.k == 2


def test_thin_node_rejected(corpus):
    item = corpus["von_neumann"]
    inner = _bundled(item)
    bad = DerivNode(
        "thin", Judgment(inner.judgment.subject, inner.judgment.target), [inner]
    )
    out = _checker(item).check(bad)
    assert not out.accepted
    assert "not sound" in out.failure or "thin" in out.failure


def test_zero_weight_reweight_rejected():
    src = "extern sampler rand : S R+ targets uniform(0, 1)\nreweight(fun x : R => 0, rand)"
    prog = parse_program(src)
    axioms = AxiomSet.from_program(prog)
    deriv = elaborate_goal(
        prog.body, M.ReweightM(prog.body.fn, parse_measure("uniform(0, 1)")), axioms
    )
    out = DerivationChecker(axioms).check(deriv)
    assert not out.accepted
    assert "∫ f dμ = 0 ∉ (0, ∞)" in out.failure


def test_reweight_rule_over_a_3d_indicator():
    src = (
        "extern sampler rand : S R targets uniform(0, 1) equidistributed 3\n"
        "reweight(fun w : R * (R * R) => if fst(w) < 0.5 then 1 else 0, rand^3)"
    )
    prog = parse_program(src)
    axioms = AxiomSet.from_program(prog)
    leaf = axioms.find_named("rand_equidistributed_3")
    premise = DerivNode("axiom", Judgment(leaf.subject, leaf.measure), [], {"axiom": leaf.name})
    node = DerivNode(
        "reweight",
        Judgment(Reweight(prog.body.fn, leaf.subject), M.ReweightM(prog.body.fn, leaf.measure)),
        [premise],
    )
    out = DerivationChecker(axioms).check(node)
    assert out.accepted, out.failure
    note = out.reports[-1].note
    assert abs(float(re.search(r"∫ f dμ = (\S+) ∈", note).group(1)) - 0.5) <= 1e-4


def test_the_unhinted_marsaglia_derivation_is_rejected_by_the_node_budget(corpus):
    # without the Box-Muller hint, the reweight normalizer is a 3-D integral
    # over pushforward(idbox, uniform(0, 1)^3) with no jumps placed, which ran
    # for minutes before each integral had a node budget
    item = corpus["marsaglia"]
    axioms = AxiomSet.from_program(item.program)
    t0 = time.perf_counter()
    deriv = elaborate_goal(item.program.body, parse_measure("gamma(2.5, 1)"), axioms)
    out = DerivationChecker(axioms).check(deriv)
    assert time.perf_counter() - t0 < 10.0
    assert not out.accepted
    assert f"needs more than {quadrature.NODE_BUDGET:,} integrand nodes" in out.failure


def test_tl_rule(corpus):
    item = corpus["alternating"]
    axioms = AxiomSet.from_program(item.program)
    # manually: tl of an ergodicity-backed prng judgment
    base = DerivNode(
        "prng",
        Judgment(item.program.body, parse_measure("bernoulli(0.5)")),
        [],
        {"axiom": "alternating_ergodic"},
    )
    node = DerivNode(
        "tl",
        Judgment(Tl(item.program.body), parse_measure("bernoulli(0.5)")),
        [base],
    )
    out = DerivationChecker(axioms).check(node)
    assert out.accepted


def test_prng_rule_needs_declared_axiom(corpus):
    item = corpus["geometric"]
    axioms = AxiomSet.from_program(item.program)
    good = DerivNode(
        "prng",
        Judgment(item.program.body, parse_measure("dirac(0)")),
        [],
        {"axiom": "halving_ergodic"},
    )
    assert DerivationChecker(axioms).check(good).accepted
    # without any matching axiom the rule is rejected
    bare = AxiomSet()
    out = DerivationChecker(bare).check(copy.deepcopy(good))
    assert not out.accepted and "ergodicity" in out.failure


def test_cast_rule(corpus):
    # map(fun x : S => cast<T>(x), s) keeps the target when S <| T
    src = (
        "extern sampler rand : S R+ targets uniform(0, 1)\n"
        "let f = fun (x : R, y : R) => x < y in rand"
    )
    prog = parse_program(src)
    axioms = AxiomSet.from_program(prog)
    from samplerlang.typecheck import check_program

    accept_dom = check_program(prog).let_types["f"].dom
    subject_inner = parse_term("rand <*> rand", {"rand"})
    premise = DerivNode(
        "axiom",
        Judgment(subject_inner, parse_measure("uniform(0, 1)^2")),
        [],
        {"axiom": "pair_axiom"},
    )
    axioms.axioms.append(
        __import__("samplerlang.target", fromlist=["TargetAxiom"]).TargetAxiom(
            "pair_axiom", subject_inner, parse_measure("uniform(0, 1)^2")
        )
    )
    from samplerlang.terms import Cast, Lam, ProdT, REAL

    lam = Lam((("z", accept_dom),), Cast(ProdT(REAL, REAL), Var("z")))
    node = DerivNode(
        "cast",
        Judgment(Map(lam, subject_inner), parse_measure("uniform(0, 1)^2")),
        [premise],
    )
    out = DerivationChecker(axioms).check(node)
    assert out.accepted, out.failure


def test_map_of_piecewise_needs_boundary_axiom(corpus):
    src = (
        "extern sampler rand : S R+ targets uniform(0, 1)\n"
        "map(fun (x : R) => if x = 0.5 then 1 else 0, rand)"
    )
    prog = parse_program(src)
    axioms = AxiomSet.from_program(prog)
    body = prog.body
    premise = DerivNode(
        "axiom", Judgment(Var("rand"), parse_measure("uniform(0, 1)")), [], {"axiom": "rand"}
    )
    node = DerivNode(
        "map",
        Judgment(body, M.PushforwardM(body.fn, parse_measure("uniform(0, 1)"))),
        [premise],
    )
    out = DerivationChecker(axioms).check(copy.deepcopy(node))
    assert not out.accepted and "boundary" in out.failure

    # declaring the boundary-null axiom licenses the map
    src2 = src.replace(
        "\nmap",
        "\naxiom midpoint_null : boundary_null fun (x : R) => if x = 0.5 then 1 else 0"
        " under uniform(0, 1)\nmap",
    )
    prog2 = parse_program(src2)
    axioms2 = AxiomSet.from_program(prog2)
    out2 = DerivationChecker(axioms2).check(node)
    assert out2.accepted, out2.failure


def test_elaborate_without_axiom_fails(corpus):
    item = corpus["von_neumann"]
    with pytest.raises(ElaborationError) as exc:
        elaborate_goal(item.program.body, parse_measure("bernoulli(0.5)"), AxiomSet())
    assert "no axiom matches the core" in str(exc.value)


def test_elaborate_reconstructs_fig_trees(corpus):
    # the bundled proofs came from elaboration; regenerate and compare shapes
    item = corpus["von_neumann"]
    axioms = AxiomSet.from_program(item.program)
    deriv = elaborate_goal(item.program.body, parse_measure("bernoulli(0.5)"), axioms)
    bund = load_proof("von_neumann")
    assert json.dumps(deriv.to_json(), sort_keys=True) == json.dumps(
        bund, sort_keys=True
    )


def _mutate(node_json, rng):
    node = copy.deepcopy(node_json)
    target = node
    # walk to a random node
    while target["premises"] and rng.random() < 0.5:
        target = rng.choice(target["premises"])
    choice = rng.randrange(4)
    if choice == 0:
        target["rule"] = rng.choice(["thin", "frobnicate", "resample"])
    elif choice == 1:
        target["judgment"]["target"] = "gaussian(7, 3)"
    elif choice == 2:
        target["judgment"]["subject"] = "tl(" + target["judgment"]["subject"] + ")"
    else:
        target["premises"] = []
    return node


def test_random_corruption_always_rejected(corpus):
    rng = random.Random(20260809)
    item = corpus["von_neumann"]
    checker = _checker(item)
    base = load_proof(item.name)
    externs = {e.name for e in item.program.externs}
    rejected = 0
    for _ in range(25):
        mutated = _mutate(base, rng)
        if json.dumps(mutated, sort_keys=True) == json.dumps(base, sort_keys=True):
            continue
        try:
            deriv = derivation_from_json(mutated, externs)
        except Exception:
            rejected += 1
            continue
        if not checker.check(deriv).accepted:
            rejected += 1
    assert rejected >= 24  # corruption must essentially always be caught
