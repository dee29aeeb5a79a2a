"""Rewrite rules: replayable proofs plus operational soundness.

Every rule instance is evaluated on both sides under concrete externs and
must agree bit-exactly; rule outputs must typecheck at the original type.
"""
import itertools
from pathlib import Path

import pytest

from samplerlang.corpus import load_corpus
from samplerlang.interpreter import Interpreter
from samplerlang.parser import parse_program, parse_term
from samplerlang.rewrite import (
    EquivProof,
    RULES,
    TABLE_RULES,
    RewriteError,
    Step,
    _neighbors,
    apply_rule,
    measure,
    normal_form_spine,
    normalize,
    prove_equiv,
    self_product_power_proof,
    self_product_transform_proof,
)
from samplerlang.runtime import value_equal
from samplerlang.terms import (
    App,
    FunT,
    Var,
    alpha_equal,
    positions,
    replace_at,
    self_product,
    term_size,
)
from samplerlang.typecheck import check_term
from samplerlang.terms import SamplerT, POSREAL


ENV_SRC = "extern sampler rand : S R+ targets uniform(0, 1) equidistributed 2\nrand"


@pytest.fixture(scope="module")
def env():
    prog = parse_program(ENV_SRC)
    return Interpreter(prog)


def _t(src: str):
    return parse_term(src, {"rand"})


# one closed, well-typed instance of every rule's left-hand side
RULE_INSTANCES = {
    "beta": "(fun x : R => x + 1)(3)",
    "eta": "fun x : R => (fun y : R => y * 2)(x)",
    "let": "let a = 3 in a + 1",
    "ite_true": "if True then 1 else 2",
    "ite_false": "if False then 1 else 2",
    "fst_pair": "fst((1, 2))",
    "snd_pair": "snd((1, 2))",
    "hd_map": "hd(map(fun x : R => x + 1, prng(fun x : R => x/2, 1)))",
    "wt_map": "wt(map(fun x : R => x + 1, prng(fun x : R => x/2, 1)))",
    "tl_map": "tl(map(fun x : R => x + 1, prng(fun x : R => x/2, 1)))",
    "hd_prod": "hd(rand <*> prng(fun x : R => x/2, 1))",
    "wt_prod": "wt(reweight(fun x : R => exp(x), rand) <*> rand)",
    "tl_prod": "tl(rand <*> prng(fun x : R => x/2, 1))",
    "hd_thin": "hd(thin(3, rand))",
    "wt_thin": "wt(thin(3, reweight(fun x : R => exp(x), rand)))",
    "tl_thin": "tl(thin(3, rand))",
    "thin_one": "thin(1, rand)",
    "hd_prng": "hd(prng(fun x : R => x/2, 1))",
    "wt_prng": "wt(prng(fun x : R => x/2, 1))",
    "tl_prng": "tl(prng(fun x : R => x/2, 1))",
    "hd_reweight": "hd(reweight(fun x : R => exp(x), rand))",
    "wt_reweight": "wt(reweight(fun x : R => exp(x), rand))",
    "tl_reweight": "tl(reweight(fun x : R => exp(x), rand))",
    "thin_thin": "thin(2, thin(3, rand))",
    "map_map": "map(fun x : R => x * 2, map(fun x : R => x + 1, rand))",
    "reweight_reweight": (
        "reweight(fun x : R => exp(x), reweight(fun x : R => exp(0 - x), rand))"
    ),
    "thin_prng": "thin(3, prng(fun x : R => x/2, 1))",
    "thin_map": "thin(2, map(fun x : R => x + 1, rand))",
    "thin_reweight": "thin(2, reweight(fun x : R => exp(x), rand))",
    "prod_map_r": "rand <*> map(fun x : R => x + 1, prng(fun x : R => x/2, 1))",
    "prod_map_l": "map(fun x : R => x + 1, prng(fun x : R => x/2, 1)) <*> rand",
    "prod_map_both": (
        "map(fun x : R => x + 1, rand) <*> map(fun x : R => x * 2, prng(fun x : R => x/2, 1))"
    ),
    "prod_reweight_r": "rand <*> reweight(fun x : R => exp(x), prng(fun x : R => x/2, 1))",
    "prod_reweight_l": "reweight(fun x : R => exp(x), prng(fun x : R => x/2, 1)) <*> rand",
    "prod_reweight_both": (
        "reweight(fun x : R => exp(x), rand) <*> "
        "reweight(fun x : R => exp(0 - x), prng(fun x : R => x/2, 1))"
    ),
    "prod_prng": "prng(fun x : R => x/2, 1) <*> prng(fun x : R => 1 - x, 0)",
    "prod_thin": "thin(2, rand) <*> thin(2, prng(fun x : R => x/2, 1))",
}


def test_every_rule_has_an_instance():
    assert set(RULE_INSTANCES) == set(RULES)


def _operationally_equal(env, lhs, rhs, ty, n=100):
    if isinstance(ty, FunT):
        probe = parse_term("0.7")
        lhs, rhs = App(lhs, probe), App(rhs, probe)
    a = env.fresh().big_step(n, lhs)
    b = env.fresh().big_step(n, rhs)
    assert value_equal(a, b)


@pytest.mark.parametrize("rule_name", sorted(RULE_INSTANCES))
def test_rule_sound_and_type_preserving(env, rule_name):
    lhs = _t(RULE_INSTANCES[rule_name])
    externs = {"rand": SamplerT(POSREAL)}
    before = check_term(lhs, externs)
    rhs = apply_rule(rule_name, lhs)
    after = check_term(rhs, externs)
    from samplerlang.builtins import fits

    assert fits(after.ty, before.ty) or fits(before.ty, after.ty)
    # a one-step proof replays
    from samplerlang.rewrite import Step

    proof = EquivProof(lhs, rhs, [Step(rule_name, (), True)], [])
    assert proof.replay()
    n = 12 if rule_name in ("thin_thin", "prod_thin", "thin_prng") else 100
    _operationally_equal(env, lhs, rhs, before.ty, n=n)


def test_apply_rule_no_match():
    with pytest.raises(RewriteError):
        apply_rule("tl_map", _t("rand"))
    with pytest.raises(RewriteError):
        apply_rule("nosuch", _t("rand"))


def test_apply_rule_at_position():
    t = _t("thin(2, tl(map(fun x : R => x + 1, rand)))")
    out = apply_rule("tl_map", t, (0,))
    assert alpha_equal(out, _t("thin(2, map(fun x : R => x + 1, tl(rand)))"))


# -- bounded proving ----------------------------------------------------------


def test_prove_thin_one():
    proof = prove_equiv(_t("thin(1, rand)"), Var("rand"))
    assert proof is not None and proof.replay()


def test_prove_map_fusion():
    a = _t("map(fun x : R => x * 2, map(fun x : R => x + 1, rand))")
    b = _t("map(fun y : _ => (fun x : R => x * 2)((fun x : R => x + 1)(y)), rand)")
    proof = prove_equiv(a, b)
    assert proof is not None and proof.replay()


def test_prove_equiv_inconclusive():
    assert prove_equiv(Var("rand"), _t("tl(rand)"), depth=3) is None


def test_prove_mixed_congruence():
    a = _t("thin(2, thin(2, map(fun x : R => x + 1, rand)))")
    b = _t("map(fun x : R => x + 1, thin(4, rand))")
    proof = prove_equiv(a, b, depth=6)
    assert proof is not None and proof.replay()


# -- self-product lemmas --------------------------------------------------------


@pytest.mark.parametrize("m,n", list(itertools.product(range(1, 5), repeat=2)))
def test_nested_self_product(env, m, n):
    proof = self_product_power_proof(Var("rand"), m, n)
    assert proof.replay()
    # operationally the nested form equals the flat form up to regrouping
    flat_n = 60 // max(m * n, 1) + 1
    nested = env.fresh().big_step(flat_n, self_product(self_product(Var("rand"), m), n))
    flat = env.fresh().big_step(flat_n, self_product(Var("rand"), m * n))
    for (a, wa), (b, wb) in zip(nested.entries, flat.entries):
        assert _flat(a) == _flat(b) and wa == wb


def _flat(v):
    if isinstance(v, tuple):
        out = []
        for x in v:
            out.extend(_flat(x))
        return out
    return [v]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["map", "reweight"])
def test_transform_self_product(env, kind, n):
    fn = (
        parse_term("fun x : R => x + 1")
        if kind == "map"
        else parse_term("fun x : R => exp(x)")
    )
    proof = self_product_transform_proof(kind, fn, Var("rand"), n)
    assert proof.replay()
    a = env.fresh().big_step(100 // n, proof.start)
    b = env.fresh().big_step(100 // n, proof.end)
    assert value_equal(a, b)


# -- normalization --------------------------------------------------------------


@pytest.fixture(scope="module")
def corpus():
    return {it.name: it for it in load_corpus()}


def test_normalize_idempotent(corpus):
    for item in corpus.values():
        nf, _ = normalize(item.program.body)
        again, steps = normalize(nf)
        assert alpha_equal(nf, again) and not steps, item.name


def test_normalize_reaches_spine(corpus):
    for name, want in [
        ("von_neumann", ["map", "reweight"]),
        ("importance", ["reweight", "map"]),
        ("rejection", ["map", "reweight"]),
        ("marsaglia", ["map", "reweight", "map"]),
    ]:
        nf, _ = normalize(corpus[name].program.body)
        assert normal_form_spine(nf) == want, name


def test_normalize_examples():
    nf, _ = normalize(_t("tl(map(f, reweight(g, rand)))"))
    assert alpha_equal(nf, _t("map(f, reweight(g, tl(rand)))"))
    nf, _ = normalize(parse_term("map(f, s) <*> t", {"s", "t"}))
    spine = normal_form_spine(nf)
    assert spine == ["map"]


def test_normalize_preserves_behavior(corpus):
    for name, item in corpus.items():
        nf, _ = normalize(item.program.body)
        a = Interpreter(item.program).big_step(100)
        b = Interpreter(item.program).big_step(100, nf)
        assert value_equal(a, b), name


def test_normalize_pull_steps_decrease_measure(corpus):
    from samplerlang.rewrite import _PULL_RULES

    for item in corpus.values():
        cur = item.program.body
        _, steps = normalize(cur)
        for step in steps:
            nxt = apply_rule(step.rule, cur, step.path, step.forward)
            if step.rule in _PULL_RULES:
                assert measure(nxt) < measure(cur), (item.name, step.rule)
            cur = nxt


def test_table_rule_count():
    # the full inventory: standard, coinductive triples, compositions, products
    assert len(TABLE_RULES) == 34
    assert "prod_map_both" in RULES and "prod_map_both" not in TABLE_RULES


# -- the search's neighbour generator --------------------------------------------

BENCH_INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs"


def _search_terms(corpus):
    """Corpus and benchmark programs, every rule instance, and the terms one
    rewrite away from each of them."""
    starts = [item.program.body for item in corpus.values()]
    for path in sorted(BENCH_INPUTS.glob("*.smpl")):
        starts.append(parse_program(path.read_text(encoding="utf-8"), str(path)).body)
    starts += [_t(src) for src in RULE_INSTANCES.values()]
    terms = list(starts)
    for t in starts:
        terms += [out for _, out in _neighbors(t, 4 * term_size(t))]
    return terms


def _brute_neighbors(term, size_cap):
    for path, sub in positions(term):
        for rule in RULES.values():
            for forward, fn in ((True, rule.fwd), (False, rule.bwd)):
                if fn is None:
                    continue
                replacement = fn(sub)
                if replacement is None:
                    continue
                out = replace_at(term, path, replacement)
                if term_size(out) <= size_cap:
                    yield Step(rule.name, path, forward), out


def test_neighbors_match_a_loop_over_all_rules(corpus):
    terms = _search_terms(corpus)
    assert len(terms) > 100
    for term in terms:
        # the search's cap, and a cap that cuts rewrites that grow the term
        for cap in (4 * term_size(term), term_size(term)):
            got = list(_neighbors(term, cap))
            want = list(_brute_neighbors(term, cap))
            assert [s for s, _ in got] == [s for s, _ in want]
            assert [t for _, t in got] == [t for _, t in want]


def test_rules_match_only_their_declared_heads(corpus):
    for name, src in RULE_INSTANCES.items():
        assert type(_t(src)) is RULES[name].fwd_head, name
    subterms = [sub for term in _search_terms(corpus) for _, sub in positions(term)]
    for rule in RULES.values():
        for fn, head in ((rule.fwd, rule.fwd_head), (rule.bwd, rule.bwd_head)):
            if fn is None:
                assert head is None, rule.name
                continue
            assert isinstance(head, type), rule.name
            for sub in subterms:
                if type(sub) is not head:
                    assert fn(sub) is None, (rule.name, sub)


def test_equiv_proof_of_map_fusion_replays(env):
    # the two sides meet at terms whose binder annotations differ, which
    # replay rejects: the search must keep looking
    left = _t("map(fun y : R => y + 1, map(fun x : R => x * x, tl(rand)))")
    right = _t("tl(map(fun x : R => (fun y : R => y + 1)((fun x : R => x * x)(x)), rand))")
    proof = prove_equiv(left, right)
    assert proof is not None and proof.replay()
    assert (len(proof.left_steps), len(proof.right_steps)) == (2, 1)
    assert value_equal(env.fresh().big_step(16, left), env.fresh().big_step(16, right))
