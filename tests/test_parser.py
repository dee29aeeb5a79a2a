import pytest
from hypothesis import given, settings, strategies as st

from samplerlang.corpus import load_corpus
from samplerlang.interpreter import Interpreter
from samplerlang.parser import ParseError, parse_measure, parse_program, parse_term
from samplerlang.pretty import pretty, pretty_measure, pretty_type
from samplerlang.rewrite import normalize
from samplerlang.runtime import value_equal
from samplerlang.terms import (
    Map,
    Prng,
    Prod,
    Reweight,
    Thin,
    Tl,
    Var,
    alpha_equal,
    fresh_name,
)


def test_extractor_root_shape():
    items = {it.name: it for it in load_corpus()}
    body = items["von_neumann"].program.body
    # under the two lets: map(proj, reweight(choice, thin(2, flip <*> tl(flip))))
    inner = body.body.body
    assert isinstance(inner, Map)
    assert isinstance(inner.sampler, Reweight)
    core = inner.sampler.sampler
    assert isinstance(core, Thin) and core.count == 2
    assert alpha_equal(core.sampler, Prod(Var("flip"), Tl(Var("flip"))))


def test_thin_parse():
    t = parse_term("thin(1, t)", {"t"})
    assert isinstance(t, Thin) and t.count == 1 and t.sampler == Var("t")


def test_prng_parse():
    t = parse_term("prng(fun x : R => x/2, 1)")
    assert isinstance(t, Prng)


def test_numeric_vs_sampler_power():
    numeric = parse_term("(1 + x)^3")
    assert "times" in repr(numeric)
    sampler = parse_term("s^2", {"s"})
    assert isinstance(sampler, Thin)
    # a lambda-bound sampler parameter is sampler-shaped too
    t = parse_term("fun s : S R => s^2")
    assert isinstance(t.body, Thin)


@pytest.mark.parametrize(
    "snippet",
    [
        "fun x : R =>",
        "let x = in x",
        "thin(0, t)",
        "case x of { y => 1 }",
        "cast<R(z)",
        "(a, b",
        "1 +",
        "foo(",
    ],
)
def test_parse_errors_have_positions(snippet):
    with pytest.raises(ParseError) as exc:
        parse_term(snippet, {"t"})
    assert exc.value.line >= 1 and exc.value.col >= 1


def test_unknown_builtin_is_unbound_not_crash():
    # unknown names parse as variables; the type checker reports them
    t = parse_term("frobnicate(3)")
    assert t is not None


def test_corpus_roundtrip():
    for item in load_corpus():
        samplerish = {e.name for e in item.program.externs}
        body = item.program.body
        reparsed = parse_term(pretty(body), samplerish)
        assert alpha_equal(reparsed, body), item.name
        # and a second trip is stable
        assert alpha_equal(parse_term(pretty(reparsed), samplerish), reparsed)


def test_corpus_normal_forms_parse_back():
    # fresh binders introduced by normalization must be surface syntax
    for item in load_corpus():
        samplerish = {e.name for e in item.program.externs}
        normal, _ = normalize(item.program.body)
        reparsed = parse_term(pretty(normal), samplerish)
        assert alpha_equal(reparsed, normal), item.name
        want = Interpreter(item.program).big_step(7)
        assert value_equal(Interpreter(item.program).big_step(7, reparsed), want), item.name


def test_fresh_names_are_identifiers():
    assert fresh_name("x", {"x"}) == "x_1"
    assert fresh_name("x", {"x", "x_1", "x_2"}) == "x_3"
    assert fresh_name("x_1", {"x", "x_1"}) == "x_2"
    assert fresh_name("y_", {"y_"}) == "y__1"
    t = parse_term(f"fun {fresh_name('x', set())} : R => 1")
    assert t.params[0][0] == "x_1"


def test_pretty_product_right_associates_without_parens():
    t = parse_term("a <*> b <*> c", {"a", "b", "c"})
    assert pretty(t) == "a <*> b <*> c"
    left = Prod(Prod(Var("a"), Var("b")), Var("c"))
    assert pretty(left) == "(a <*> b) <*> c"


def test_type_roundtrip():
    for src in ["R", "R+", "S B", "R * R -> R+", "S (R * (R+ * R+))", "lt^-1(0) + lt^-1(1)"]:
        from samplerlang.parser import parse_type

        ty = parse_type(src)
        assert pretty_type(ty) == src or parse_type(pretty_type(ty)) is not None


def test_measure_roundtrip():
    for src in [
        "bernoulli(0.3)",
        "uniform(0, 1)^2",
        "triangular(0, 2) * uniform(0, 1)",
        "dirac((0, 1))",
        "discrete{True: 0.5, False: 0.5}",
        "pushforward(fun u : R * R => fst(u) + snd(u), uniform(0, 1)^2)",
    ]:
        m = parse_measure(src)
        again = parse_measure(pretty_measure(m))
        assert pretty_measure(again) == pretty_measure(m)


@given(st.text(max_size=60))
@settings(max_examples=300, deadline=None)
def test_fuzz_no_crash(text):
    # arbitrary input must either parse or raise a positioned ParseError
    try:
        parse_program(text)
    except ParseError as err:
        assert err.line >= 1 and err.col >= 1


@given(st.binary(max_size=40))
@settings(max_examples=100, deadline=None)
def test_fuzz_bytes_no_crash(data):
    try:
        parse_program(data.decode("utf-8", errors="replace"))
    except ParseError:
        pass


def test_unicode_notation_accepted():
    ascii_form = parse_term("fun b : B * B => fst(b)")
    unicode_form = parse_term("λb : B × B . fst(b)")
    assert alpha_equal(ascii_form, unicode_form)
    a = parse_term("s ⊗ tl(s)", {"s"})
    b = parse_term("s <*> tl(s)", {"s"})
    assert alpha_equal(a, b)
    c = parse_term("fun (x : R, y : R) => if x ≤ y then 1 else 0")
    d = parse_term("fun (x : R, y : R) => if x <= y then 1 else 0")
    assert alpha_equal(c, d)
