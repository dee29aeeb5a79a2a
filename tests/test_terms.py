import copy

import pytest
from hypothesis import given, strategies as st

from samplerlang import terms
from samplerlang.corpus import load_corpus
from samplerlang.parser import parse_term
from samplerlang.terms import (
    Builtin,
    Const,
    Lam,
    Prod,
    Tl,
    Thin,
    Var,
    alpha_equal,
    beta,
    free_vars,
    ite,
    positions,
    self_product,
    substitute,
    type_equal,
)


def test_substitute_direct():
    t = parse_term("x + y")
    out = substitute(t, "y", Const(3))
    assert alpha_equal(out, parse_term("x + 3"))


def test_substitute_capture_avoiding():
    t = parse_term("fun x : R => x + y")
    out = substitute(t, "y", Var("x"))
    # the binder must be renamed so the free x stays free
    assert isinstance(out, Lam)
    binder = out.params[0][0]
    assert binder != "x"
    assert "x" in free_vars(out)
    assert alpha_equal(out, Lam((("z", out.params[0][1]),), parse_term("z + x")))


def test_substitute_renames_a_binder_apart_from_the_replaced_name():
    # renaming y (free in the substituted term) must not pick y_1, the name
    # being replaced, or the next step would replace the bound occurrence
    out = substitute(parse_term("fun y : R => y"), "y_1", Var("y"))
    assert alpha_equal(out, parse_term("fun z : R => z"))
    out = substitute(parse_term("let y = 1 in y"), "y_1", Var("y"))
    assert alpha_equal(out, parse_term("let z = 1 in z"))


def test_beta_does_not_capture_through_a_renamed_binder():
    lam = parse_term("fun x_1 : R => fun x : R => x * 2")
    assert alpha_equal(beta(lam, Var("x")), parse_term("fun z : R => z * 2"))


def test_substitute_inlines_let_chain():
    body = parse_term("let phi = fun x : R => x + 1 in reweight(phi, map(plus, t))", {"t"})
    inlined = substitute(body.body, "phi", body.bound)
    assert alpha_equal(
        inlined, parse_term("reweight(fun x : R => x + 1, map(plus, t))", {"t"})
    )


def test_alpha_equal_basic():
    assert alpha_equal(parse_term("fun x : R => x"), parse_term("fun y : R => y"))
    assert not alpha_equal(parse_term("fun x : R => x + 1"), parse_term("fun x : R => 1 + x"))


def test_alpha_distinguishes_free_variables():
    assert not alpha_equal(Var("a"), Var("b"))
    assert alpha_equal(Var("a"), Var("a"))


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_self_product_shape(k):
    t = self_product(Var("s"), k)
    assert isinstance(t, Thin) and t.count == k
    # exactly k sampler factors: k occurrences of the base variable
    occurrences = sum(1 for _, sub in positions(t) if isinstance(sub, Var))
    assert occurrences == k
    thins = sum(1 for _, sub in positions(t) if isinstance(sub, Thin))
    assert thins == 1


def test_self_product_examples():
    s = Var("t")
    assert alpha_equal(self_product(s, 1), Thin(1, s))
    assert alpha_equal(self_product(s, 2), Thin(2, Prod(s, Tl(s))))
    assert alpha_equal(self_product(s, 3), Thin(3, Prod(s, Prod(Tl(s), Tl(Tl(s))))))
    with pytest.raises(ValueError):
        self_product(s, 0)


def test_ite_orientation():
    t = ite(Const(True), Var("a"), Var("b"))
    assert t.branches[0][1] == Var("a")
    assert t.branches[1][1] == Var("b")


_names = st.sampled_from(["x", "y", "z", "w"])


@st.composite
def small_terms(draw, depth=3):
    if depth == 0:
        return draw(
            st.one_of(
                _names.map(Var),
                st.integers(0, 9).map(Const),
                st.floats(0.0, 4.0, allow_nan=False).map(Const),
            )
        )
    sub = small_terms(depth=depth - 1)
    return draw(
        st.one_of(
            sub,
            st.tuples(sub, sub).map(lambda p: Builtin("plus", p)),
            st.tuples(_names, sub).map(
                lambda p: Lam(((p[0], None),), p[1])
            ),
            st.tuples(sub, sub, sub).map(lambda p: ite(p[0], p[1], p[2])),
        )
    )


@given(small_terms(), _names, small_terms())
def test_substitution_respects_alpha(t, x, s):
    # renaming a fresh variable in, then substituting it away, is identity
    fresh = "q"
    renamed = substitute(t, x, Var(fresh))
    back = substitute(renamed, fresh, Var(x))
    if fresh not in free_vars(t) and x not in {n for n, _ in _binders(t)}:
        assert alpha_equal(back, t)


def _binders(t):
    out = []
    for _, sub in positions(t):
        if isinstance(sub, Lam):
            out.extend(sub.params)
    return out


@given(small_terms())
def test_alpha_equal_on_the_same_object_agrees_with_the_walk(t):
    # the copy shares no node with t, so it takes the full walk
    assert alpha_equal(t, t) == alpha_equal(t, copy.deepcopy(t))


def test_equality_on_the_same_object_does_not_walk(monkeypatch):
    marsaglia = next(it for it in load_corpus() if it.name == "marsaglia")
    accept = next(
        sub.bound for _, sub in positions(marsaglia.program.body)
        if isinstance(sub, terms.Let) and sub.name == "accept"
    )
    ty = marsaglia.check.let_types["accept"]
    nan = Const(float("nan"))
    # the full walks agree with the identity rule
    assert type_equal(ty, copy.deepcopy(ty)) and alpha_equal(accept, copy.deepcopy(accept))
    assert alpha_equal(nan, copy.deepcopy(nan))
    calls = []
    real_children = terms.children
    monkeypatch.setattr(terms, "children", lambda t: calls.append(t) or real_children(t))
    assert type_equal(ty, ty) and alpha_equal(accept, accept) and alpha_equal(accept.body, accept.body)
    assert alpha_equal(nan, nan)
    assert calls == []
