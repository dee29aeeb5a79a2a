import hashlib
import json

import pytest

from samplerlang.corpus import GOLDEN_TYPES, load_corpus
from samplerlang.parser import parse_program, parse_term
from samplerlang.pretty import pretty_type
from samplerlang.terms import (
    BOOL,
    Cast,
    FunT,
    Inj,
    Pair,
    POSREAL,
    PredInv,
    ProdT,
    PullbackT,
    REAL,
    SamplerT,
    SumT,
    Var,
    erase_carrier,
    type_equal,
)
from samplerlang.typecheck import (
    TypeCheckError,
    check_program,
    check_subtype,
    check_term,
)

from reference import rule_tree

RR = ProdT(REAL, REAL)


@pytest.fixture(scope="module")
def corpus():
    return {it.name: it for it in load_corpus()}


def test_corpus_golden_types(corpus):
    for name, golden in GOLDEN_TYPES.items():
        assert corpus[name].type_str == golden, name


def test_prng_example():
    r = check_term(parse_term("prng(fun x : R => x/2, 1)"))
    assert pretty_type(r.ty) == "S R"


def test_single_variable_restriction():
    # if x = 0 then 1 else -1 checks with x restricted along (x, 0)
    r = check_term(parse_term("fun (x : R) => if x = 0 then 1 else -1"))
    dom = r.ty.dom
    assert isinstance(dom, SumT) and len(dom.summands) == 2
    first = dom.summands[0]
    assert isinstance(first, PullbackT)
    assert first.member == PredInv("eq", 0)
    assert type_equal(first.carrier, REAL)
    from samplerlang.terms import alpha_equal, Const

    assert alpha_equal(first.t, Pair(Var("x"), Const(0)))
    assert pretty_type(r.ty.cod) == "R"


def test_rejection_accept_matches_golden_structure(corpus):
    accept = corpus["rejection"].check.let_types["accept"]
    assert isinstance(accept, FunT)
    assert type_equal(accept.cod, POSREAL)
    dom = accept.dom
    assert isinstance(dom, SumT) and len(dom.summands) == 2
    for i, summand in enumerate(dom.summands):
        assert isinstance(summand, PullbackT)
        assert summand.member == PredInv("lt", i)
        assert type_equal(summand.over, RR)
        assert type_equal(summand.carrier, RR)
    # the embedded term is (y, phi(x) * sqrt(2 * pi)) with phi symbolic
    expected_t = parse_term("(y, phi(x) * sqrt(2 * pi))")
    from samplerlang.terms import alpha_equal

    assert alpha_equal(dom.summands[0].t, expected_t)
    # the witness side of the sugar is cast<R*R>(inj(i, x))
    w = dom.summands[1].s
    assert isinstance(w, Cast) and isinstance(w.body, Inj) and w.body.index == 1


def test_lambda_after_restriction_rejected():
    with pytest.raises(TypeCheckError) as exc:
        check_term(parse_term("fun x : R => fun y : R => x < y"))
    assert "cross" in str(exc.value)


def test_group_lambda_restriction_allowed():
    r = check_term(parse_term("fun (x : R, y : R) => x < y"))
    assert pretty_type(r.ty).endswith("-> B")


def test_restriction_of_restricted_context_intersects(corpus):
    accept = corpus["marsaglia"].check.let_types["accept"]
    dom = accept.dom
    assert isinstance(dom, SumT) and len(dom.summands) == 4
    from samplerlang.terms import IntersectT

    assert all(isinstance(s, IntersectT) for s in dom.summands)


def test_derivation_deterministic(corpus):
    item = corpus["rejection"]
    again = check_program(item.program)
    assert json.dumps(again.derivation.to_json()) == json.dumps(
        check_program(item.program).derivation.to_json()
    )


def test_derivation_golden_structure(corpus):
    tree = rule_tree(corpus["von_neumann"].check.derivation)
    # root is the outer let; spot-check the spine
    assert tree[0] == "let"
    flat = json.dumps(tree)
    assert '"map"' in flat and '"reweight"' in flat and '"thin"' in flat


@pytest.mark.parametrize(
    "mutation",
    [
        # swapped reweight arguments
        "map(fun b : B * B => fst(b), reweight(flip^2, fun b : B * B => 1))",
        # weight function landing outside R+
        "reweight(fun x : R => 0 - 1, flip2r)",
        # builtin domain garbage
        "sqrt(True)",
        # unbound name
        "map(nosuch, flip^2)",
    ],
)
def test_mutated_programs_fail(mutation):
    src = (
        "extern sampler flip : S B targets bernoulli(0.3) equidistributed 2\n"
        "extern sampler flip2r : S R targets uniform(0–1)\n"
    )
    # the second extern line is itself malformed; build the env manually
    externs = {
        "flip": SamplerT(BOOL),
        "flip2r": SamplerT(REAL),
    }
    with pytest.raises((TypeCheckError, Exception)):
        check_term(parse_term(mutation, set(externs)), externs)


def test_case_branch_mismatch():
    with pytest.raises(TypeCheckError):
        check_term(parse_term("if True then 1 else False"))


def test_unbound_variable():
    with pytest.raises(TypeCheckError) as exc:
        check_term(parse_term("x + 1"))
    assert "unbound" in str(exc.value)


def test_cast_without_witness():
    with pytest.raises(TypeCheckError) as exc:
        check_term(parse_term("cast<B>(1)"))
    assert "witness" in str(exc.value)


# -- subtyping ---------------------------------------------------------------


def test_subtype_axiom():
    s = SumT((PredInv("lt", 0), PredInv("lt", 1)))
    w = check_subtype(s, RR)
    assert w is not None and w.rule == "comparison-split"


def test_subtype_sampler_congruence():
    s = SamplerT(SumT((PredInv("lt", 0), PredInv("lt", 1))))
    t = SamplerT(RR)
    w = check_subtype(s, t)
    assert w is not None and w.rule == "sampler"


def test_subtype_reflexive():
    w = check_subtype(REAL, REAL)
    assert w is not None and w.rule == "refl"


def test_subtype_failure():
    assert check_subtype(REAL, BOOL) is None
    assert check_subtype(RR, SumT((PredInv("lt", 0), PredInv("lt", 1)))) is None


def test_pullback_sum_subtype_of_carrier(corpus):
    accept = corpus["rejection"].check.let_types["accept"]
    w = check_subtype(accept.dom, RR)
    assert w is not None


def test_intersection_sum_subtype_of_carrier(corpus):
    accept = corpus["marsaglia"].check.let_types["accept"]
    w = check_subtype(accept.dom, RR)
    assert w is not None
    assert check_subtype(SamplerT(accept.dom), SamplerT(RR)) is not None


def _witness_pairs(w):
    yield w.left, w.right
    for child in w.children:
        yield from _witness_pairs(child)


def test_witness_carrier_preservation(corpus):
    # erasing both endpoints of every witness yields equal plain types
    for name in ("rejection", "marsaglia"):
        accept = corpus[name].check.let_types["accept"]
        w = check_subtype(accept.dom, RR)
        for lhs, rhs in _witness_pairs(w):
            assert type_equal(erase_carrier(lhs), erase_carrier(rhs))


@pytest.mark.parametrize(
    "decl",
    [
        "S (R + R) targets bernoulli(0.5)",
        "S (R + N) targets uniform(0, 1)",
        "R targets uniform(0, 1)",
        "S B targets dirac(1)",
        "S R+ targets discrete{1: 0.5, -2: 0.5}",
        "S (B * R+) targets discrete{(True, 1): 0.5, (False, -2): 0.5}",
    ],
)
def test_extern_type_must_fit_its_measure(decl):
    with pytest.raises(TypeCheckError) as exc:
        check_program(parse_program(f"extern sampler coin : {decl}\ncoin"))
    assert "extern 'coin'" in str(exc.value)


@pytest.mark.parametrize(
    "decl",
    [
        "S R+ targets uniform(0, 1)",
        "S R targets uniform(0, 1)",
        "S (Unit + Unit) targets bernoulli(0.5)",
        "S (R * R+) targets uniform(0, 1)^2",
        "S (R * B) targets dirac((-1, True))",
        "S R targets discrete{1: 0.5, -2: 0.5}",
        # atoms' numeric leaves join through products
        "S (B * R) targets discrete{(True, 1): 0.5, (False, -2): 0.5}",
    ],
)
def test_extern_type_fits_by_promotion_and_subtyping(decl):
    check_program(parse_program(f"extern sampler coin : {decl}\ncoin"))


def _payload_restrictions(node):
    if node["rule"] == "payload-restriction":
        yield node
    for child in node["children"]:
        yield from _payload_restrictions(child)


def test_payload_restriction_note_is_printed_as_before(corpus):
    (node,) = _payload_restrictions(corpus["marsaglia"].check.derivation.to_json())
    note = node["note"]
    assert note.startswith("S (((") and note.endswith(") <| S (R * R)")
    assert note == f"{node['type']} <| S (R * R)"
    # the text the note had when it was formatted eagerly
    assert hashlib.sha256(note.encode()).hexdigest() == (
        "7f743d6adb71d8ae1c371737b5516e124b787900cea43ddfd84c3cf0b16d0b24"
    )


_RAND = "extern sampler rand : S R+ targets uniform(0, 1)\n"


def _outcome(source):
    """(verdict, message without its position, inverse images of the
    restricted lambdas) of checking the program."""
    try:
        result = check_program(parse_program(_RAND + source))
    except TypeCheckError as err:
        return "rejected", err.message, []
    images = []

    def walk(d):
        if d.rule == "lambda" and d.note:
            images.append(pretty_type(d.ty))
        for child in d.children:
            walk(child)

    walk(result.derivation)
    return "accepted", None, images


@pytest.mark.parametrize(
    "shadowed, renamed, expected",
    [
        # the inner lambda's y shadows the y that t is defined by
        (
            "let f = fun y : R => let t = y in map(fun y : R => if y < t then 1 else 0, rand) in f(0.5)",
            "let f = fun y : R => let t = y in map(fun z : R => if z < t then 1 else 0, rand) in f(0.5)",
            ("rejected", "context restriction for 'y' would cross a lambda", []),
        ),
        # a second let c shadows the c that t is defined by
        (
            "let c = 0.25 in let t = c + 0 in let c = 0.75 in "
            "map(fun x : R => if x < t then 1 else 0, rand)",
            "let c = 0.25 in let t = c + 0 in let d = 0.75 in "
            "map(fun x : R => if x < t then 1 else 0, rand)",
            ("accepted", None, ["(x, 0.25 + 0)"]),
        ),
        # a lambda parameter shadows the let that t is defined by
        (
            "let a = 0.5 in let t = a in map(fun a : R => if a < t then 1 else 0, rand)",
            "let b = 0.5 in let t = b in map(fun a : R => if a < t then 1 else 0, rand)",
            ("accepted", None, ["(a, 0.5)"]),
        ),
        # a let shadows the lambda parameter that t is defined by
        (
            "map(fun y : R => let t = y in let y = 0.3 in if y < t then 1 else 0, rand)",
            "map(fun y : R => let t = y in let w = 0.3 in if w < t then 1 else 0, rand)",
            ("accepted", None, ["(0.3, y)"]),
        ),
    ],
)
def test_checking_is_invariant_under_renaming_a_shadowing_binder(shadowed, renamed, expected):
    verdict, message, images = _outcome(shadowed)
    assert (verdict, message, images) == _outcome(renamed)
    want_verdict, want_message, want_pairs = expected
    assert verdict == want_verdict
    assert (message or "").startswith(want_message or "")
    assert len(images) == len(want_pairs)
    for image, pair in zip(images, want_pairs):
        assert f"({pair})^-1(lt^-1(0))" in image
