"""Rewrite rules: replayable proofs plus operational soundness.

Every rule instance is evaluated on both sides under concrete externs and
must agree bit-exactly; rule outputs must typecheck at the original type.
"""
import itertools
from collections import deque
from pathlib import Path

import pytest

from samplerlang.corpus import corpus_dir, load_corpus
from samplerlang.interpreter import Interpreter
from samplerlang.parser import parse_program, parse_term
from samplerlang.pretty import pretty
from samplerlang.rewrite import (
    EQUATIONS,
    EquivProof,
    RULES,
    RewriteError,
    SearchStats,
    Step,
    _AlphaKeys,
    _INLINE_RULES,
    _PULL_RULES,
    _Redexes,
    _SIZE_FACTOR,
    _first_redex,
    _rewrites,
    apply_rule,
    normalize,
    prove_equiv,
    self_product_power_proof,
    self_product_transform_proof,
)
from samplerlang.runtime import value_equal
from samplerlang.terms import (
    App,
    Builtin,
    Case,
    Const,
    FunT,
    Lam,
    Let,
    Map,
    REAL,
    Thin,
    Tl,
    Var,
    alpha_equal,
    children,
    positions,
    replace_at,
    self_product,
    term_size,
)
from samplerlang.typecheck import check_term
from samplerlang.terms import SamplerT, POSREAL

from reference import neighbors, normal_form_spine, pull_measure


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


def _big_step(env, n, term):
    """big_step on a new interpreter of env's program: each side of a
    comparison reads its own extern streams, not a memo the other side filled."""
    return Interpreter(env.program, env.config).big_step(n, term)


def _operationally_equal(env, lhs, rhs, ty, n=100):
    if isinstance(ty, FunT):
        probe = parse_term("0.7")
        lhs, rhs = App(lhs, probe), App(rhs, probe)
    a = _big_step(env, n, lhs)
    b = _big_step(env, n, rhs)
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
    nested = _big_step(env, flat_n, self_product(self_product(Var("rand"), m), n))
    flat = _big_step(env, flat_n, self_product(Var("rand"), m * n))
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
    a = _big_step(env, 100 // n, proof.start)
    b = _big_step(env, 100 // n, proof.end)
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
                assert pull_measure(nxt) < pull_measure(cur), (item.name, step.rule)
            cur = nxt


def _sorted_first_redex(term, rule_names):
    """The normalizer's redex by its definition: the first path in sorted
    order, then the first of rule_names, that matches forward."""
    for path, sub in sorted(positions(term), key=lambda pair: pair[0]):
        for name in rule_names:
            rule = RULES[name]
            if type(sub) is rule.fwd_head and rule.fwd(sub) is not None:
                return Step(name, path, True)
    return None


def test_first_redex_is_the_first_in_sorted_path_order(corpus):
    found = 0
    for term in _search_terms(corpus):
        for rule_names in (_INLINE_RULES, _PULL_RULES):
            got = _first_redex(term, rule_names)
            want = _sorted_first_redex(term, rule_names)
            assert (got[0] if got is not None else None) == want
            if got is not None:
                step, new = got
                assert replace_at(term, step.path, new) == apply_rule(step.rule, term, step.path)
                found += 1
    assert found > 100


# -- the search's neighbour generator --------------------------------------------

BENCH_INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs"


def _program(path):
    return parse_program(path.read_text(encoding="utf-8"), str(path))


def _search_terms(corpus):
    """Corpus and benchmark programs, every rule instance, and the terms one
    rewrite away from each of them."""
    starts = [item.program.body for item in corpus.values()]
    for path in sorted(BENCH_INPUTS.glob("*.smpl")):
        starts.append(_program(path).body)
    starts += [_t(src) for src in RULE_INSTANCES.values()]
    terms = list(starts)
    for t in starts:
        terms += [out for _, out in neighbors(t, 4 * term_size(t))]
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
            got = list(neighbors(term, cap))
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
    assert value_equal(_big_step(env, 16, left), _big_step(env, 16, right))


# -- the calculus as equations ---------------------------------------------------


@pytest.mark.parametrize(
    "rule_name", sorted(name for name, rule in RULES.items() if rule.bwd is not None)
)
def test_backward_orientation_undoes_forward(env, rule_name):
    lhs = _t(RULE_INSTANCES[rule_name])
    rhs = apply_rule(rule_name, lhs)
    back = apply_rule(rule_name, rhs, (), False)
    assert alpha_equal(back, lhs)
    ty = check_term(lhs, {"rand": SamplerT(POSREAL)}).ty
    n = 12 if rule_name in ("prod_thin", "tl_thin") else 100
    _operationally_equal(env, lhs, rhs, ty, n=n)
    _operationally_equal(env, back, rhs, ty, n=n)


@pytest.mark.parametrize("rule_name,forward,refused,accepted", [
    # a part that leaves its binder's scope must not mention the binder
    ("eta", True,
     "fun x : R => (fun y : R => x * y)(x)",
     "fun x : R => (fun y : R => 2 * y)(x)"),
    ("map_map", False,
     "map(fun x : R => (fun y : R => y + x)((fun z : R => z * 2)(x)), rand)",
     "map(fun x : R => (fun y : R => y + 1)((fun z : R => z * 2)(x)), rand)"),
    ("map_map", False,
     "map(fun x : R => (fun y : R => y + 1)((fun z : R => z * x)(x)), rand)",
     "map(fun x : R => (fun y : R => y + 1)((fun z : R => z * 2)(x)), rand)"),
    ("prod_map_both", False,
     "map(fun p : R * R => ((fun y : R => y + fst(p))(fst(p)), (fun z : R => z)(snd(p))),"
     " rand <*> rand)",
     "map(fun p : R * R => ((fun y : R => y + 1)(fst(p)), (fun z : R => z)(snd(p))),"
     " rand <*> rand)"),
    ("prod_map_both", False,
     "map(fun p : R * R => ((fun y : R => y)(fst(p)), (fun z : R => z * fst(p))(snd(p))),"
     " rand <*> rand)",
     "map(fun p : R * R => ((fun y : R => y)(fst(p)), (fun z : R => z * 2)(snd(p))),"
     " rand <*> rand)"),
    # a repeated metavariable matches only alpha-equal terms or equal counts
    ("tl_prng", False,
     "prng(fun x : R => x / 2, (fun x : R => x / 3)(1))",
     "prng(fun x : R => x / 2, (fun y : R => y / 2)(1))"),
    ("prod_thin", True, "thin(2, rand) <*> thin(3, rand)", "thin(3, rand) <*> thin(3, rand)"),
    # a constant matches only a literal of its own type
    ("ite_true", True, "if 1 then 2 else 3", "if True then 2 else 3"),
])
def test_orientations_fire_only_where_the_pattern_allows(rule_name, forward, refused, accepted):
    rule = RULES[rule_name]
    orientation = rule.fwd if forward else rule.bwd
    assert orientation(_t(refused)) is None
    assert orientation(_t(accepted)) is not None


def test_fresh_binders_avoid_the_parts_under_them():
    out = apply_rule("map_map", _t("map(fun y : R => y * x_1, map(fun y : R => y + x, rand))"))
    assert alpha_equal(out.fn, _t("fun x_2 : _ => (fun y : R => y * x_1)((fun y : R => y + x)(x_2))"))
    assert out.fn.params[0][0] == "x_2"


def test_equations_derive_head_classes():
    for name, eq in EQUATIONS.items():
        rule = RULES[name]
        assert rule.fwd_head is type(eq.lhs)
        assert rule.bwd_head is (type(eq.rhs) if eq.arrow == "<->" else None)
    assert len(EQUATIONS) == 33
    assert set(RULES) - set(EQUATIONS) == {"beta", "tl_thin", "thin_thin", "thin_prng"}


DOCS = Path(__file__).resolve().parents[1] / "docs" / "language.md"


def test_docs_list_every_rule():
    text = DOCS.read_text(encoding="utf-8")
    section = text.split("## Equivalence rules", 1)[1].split("\n## ", 1)[0]
    listed = {}
    for line in section.split("```")[1].strip().splitlines():
        name, statement = line.split(None, 1)
        listed[name] = statement
    assert list(listed) == list(RULES)
    for name, eq in EQUATIONS.items():
        assert listed[name] == f"{pretty(eq.lhs)} {eq.arrow} {pretty(eq.rhs)}", name
    for name, rule in RULES.items():
        assert (" <-> " in listed[name]) == (rule.bwd is not None), name


# -- the search: pinned outcomes, alpha-keys and their caches ---------------------

CORPUS = corpus_dir()

# the benchmark's equiv pairs: depth, proof (None: inconclusive), the
# states built, and an inconclusive search's extent (states from each side)
BENCH_EQUIV = [
    (BENCH_INPUTS / "thin_thin.smpl", BENCH_INPUTS / "thin_four.smpl", 8,
     {"left": [["thin_thin", [], "fwd"]], "right": []}, 1, None),
    (BENCH_INPUTS / "thin_tl_map.smpl", BENCH_INPUTS / "map_thin_tl.smpl", 8,
     {"left": [["tl_map", [0], "fwd"]], "right": [["thin_map", [], "bwd"]]}, 2, None),
    (BENCH_INPUTS / "map_map_tl.smpl", BENCH_INPUTS / "tl_map_fused.smpl", 8,
     {"left": [["tl_map", [1], "bwd"], ["tl_map", [], "bwd"]], "right": [["map_map", [0], "bwd"]]},
     14, None),
    (BENCH_INPUTS / "thin_map_tl.smpl", BENCH_INPUTS / "map_tl_thin_tl.smpl", 8, None, 912, (36, 878)),
    (CORPUS / "marsaglia.smpl", BENCH_INPUTS / "marsaglia_alpha3.smpl", 3, None, 814, (408, 408)),
]


def _reference_search(s, t, depth):
    """The search written plainly: every neighbour built by neighbors and
    keyed whole.  Returns its proof, its stats and the neighbours it had to
    build: each one with a new key or with a key the other side reached."""
    stats = SearchStats(depth=depth, size_cap=_SIZE_FACTOR * max(term_size(s), term_size(t)))
    keys, built = _AlphaKeys(), []
    seen = {keys.key(s): ("L", [], s), keys.key(t): ("R", [], t)}
    frontier = deque([(s, [], "L", 0), (t, [], "R", 0)])
    while frontier:
        term, steps, side, d = frontier.popleft()
        for step, nxt in neighbors(term, stats.size_cap) if d < depth else ():
            other_side, other_steps, other = seen.get(keys.key(nxt), (None, None, None))
            if other_side == side:
                continue
            built.append(nxt)
            if other_side is None:
                seen[keys.key(nxt)] = (side, steps + [step], nxt)
                frontier.append((nxt, steps + [step], side, d + 1))
            elif alpha_equal(nxt, other):
                left, right = (steps + [step], other_steps) if side == "L" else (other_steps, steps + [step])
                return EquivProof(s, t, left, right), SearchStats(), built
    stats.left = sum(1 for side, _, _ in seen.values() if side == "L")
    stats.right = len(seen) - stats.left
    return None, stats, built


@pytest.mark.parametrize("left,right,depth,proof,built,extent", BENCH_EQUIV,
                         ids=[f"{a.stem}-{b.stem}" for a, b, *_ in BENCH_EQUIV])
def test_bench_searches_are_pinned(left, right, depth, proof, built, extent, monkeypatch):
    # the search visits the same states in the same order as the plain one,
    # and builds only the neighbours that it must compare
    import samplerlang.rewrite as rewrite

    s, t = _program(left).body, _program(right).body
    want_proof, want_stats, want_built = _reference_search(s, t, depth)
    calls = []

    def counted(*args):
        calls.append(replace_at(*args))
        return calls[-1]

    monkeypatch.setattr(rewrite, "replace_at", counted)
    stats = SearchStats()
    got = prove_equiv(s, t, depth=depth, stats=stats)
    assert (got.to_json() if got is not None else None) == proof
    assert (want_proof.to_json() if want_proof is not None else None) == proof
    assert len(calls) == built
    assert calls == want_built
    assert stats == want_stats
    if extent is not None:
        assert (stats.left, stats.right, stats.depth) == (*extent, depth)


def _canon(t) -> str:
    """The search's string key before it was interned: canonical modulo
    alpha, ignoring binder annotations, injection indices and cast types,
    with constants compared by repr."""
    out: list[str] = []

    def go(term, env: dict[str, str], depth: int):
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


# pairs whose keys must be equal (True) or differ (False)
KEY_PAIRS = [
    ("fun x : R => x + 1", "fun y : R+ => y + 1", True),  # annotations are ignored
    ("fun (x : R, y : R) => x", "fun (y : R, x : _) => y", True),
    ("fun (x : R, y : R) => x", "fun (x : R, y : R) => y", False),
    ("0.0", "-0.0", False),  # constants compare by repr
    ("1", "1.0", False),
    ("True", "1", False),
    ("fun x : R => fun x : R => x", "fun x : R => fun y : R => y", True),  # shadowing
    ("fun x : R => fun x : R => x", "fun x : R => fun y : R => x", False),
    ("fun x : R => fun y : R => x", "fun y : R => fun x : R => y", True),
    ("fun y : R => x", "fun x : R => x", False),  # a free and a bound x
    ("fun y : R => x", "fun z : R => x", True),
    ("map(fun y : R => x, x)", "map(fun x : R => x, x)", False),
    ("let a = x in a", "let b = x in b", True),
    ("let x = x in x", "let a = x in x", False),
    ("case inj(0, x) of { a => a | b => x }", "case inj(1, x) of { b => b | a => x }", True),
    ("case inj(0, x) of { a => a | b => x }", "case inj(0, x) of { a => x | b => b }", False),
    ("cast<R + R>(inj(0, x))", "cast<R * R>(inj(1, x))", True),
    ("thin(2, rand)", "thin(3, rand)", False),
]


def _binder_terms():
    """The key pairs' terms and one node under different binders, whose key
    follows its context."""
    terms = []
    for a, b, _ in KEY_PAIRS:
        terms += [parse_term(a, {"rand", "x"}), parse_term(b, {"rand", "x"})]
    terms += [Const(float("nan")), Const(float("nan")), Const(-float("nan"))]
    n = Builtin("plus", (Var("x"), Const(1)))
    x, y = (("x", None),), (("y", None),)
    terms += [Lam(x, Lam(y, n)), Lam(y, Lam(x, n)), Lam(x, n), n, Let("x", n, n), Lam(y, n)]
    return terms


def _key_terms(corpus):
    terms = _search_terms(corpus)
    terms += [out for t in terms for _, out in neighbors(t, 4 * term_size(t))]
    return terms + _binder_terms()


def test_alpha_keys_are_equal_exactly_where_the_canonical_strings_are(corpus):
    terms = _key_terms(corpus)
    assert len(terms) > 800
    canons = [_canon(t) for t in terms]
    # one search's keys, twice: the second pass reads the node caches
    keys = _AlphaKeys()
    for _ in range(2):
        ids = [keys.key(t) for t in terms]
        assert len(set(ids)) == len(set(canons)) == len(set(zip(ids, canons)))
    for a, b, equal in KEY_PAIRS:
        ta, tb = parse_term(a, {"rand", "x"}), parse_term(b, {"rand", "x"})
        assert (_canon(ta) == _canon(tb)) == equal, (a, b)
        assert (keys.key(ta) == keys.key(tb)) == equal, (a, b)
    assert keys.key(Const(float("nan"))) == keys.key(Const(float("nan")))


def test_a_key_computed_along_a_path_is_the_built_terms_key(corpus):
    # every redex of the search terms, and every position of the key pairs'
    # terms (nested funs, lets, cases, shadowing) replaced by terms whose key
    # depends on the binders above them
    keys, index = _AlphaKeys(), _Redexes()
    n = Builtin("plus", (Var("x"), Const(1)))
    redexes = placed = 0
    for term in _search_terms(corpus):
        frames: dict = {}
        for path, (_, _, new, _) in _rewrites(term, 4 * term_size(term), index):
            assert keys.key_at(term, path, new, frames) == keys.key(replace_at(term, path, new))
            redexes += 1
    for term in _binder_terms():
        frames = {}
        for path, sub in positions(term):
            for new in (sub, Var("x"), Var("a"), n):
                assert keys.key_at(term, path, new, frames) == keys.key(replace_at(term, path, new))
                placed += 1
    assert redexes > 600 and placed > 500


def test_searches_over_shared_subterms_ignore_each_others_keys():
    # each search tags the keys it caches in node memos: a search that meets
    # a node another search keyed computes the node's key in its own table
    f, g, rand = _t("fun x : R => x * x"), _t("fun y : R => y + 1"), Var("rand")
    pairs = [
        (Map(g, Map(f, Tl(rand))), Tl(Map(Lam((("x", REAL),), App(g, App(f, Var("x")))), rand))),
        (Tl(Map(g, Map(f, rand))), Map(g, Tl(Map(f, rand)))),
        (Thin(2, Map(f, Tl(rand))), Map(f, Thin(2, Tl(rand)))),
    ]

    def search(a, b):
        proof = prove_equiv(a, b, depth=4)
        return proof.to_json() if proof is not None else None

    def fresh(t):  # the same term, built of new nodes
        copy = _t(pretty(t))
        assert alpha_equal(copy, t)
        return copy

    alone = [search(fresh(a), fresh(b)) for a, b in pairs]
    assert alone[0] is not None and alone[2] is not None
    for order in ([0, 1, 2], [2, 1, 0], [0, 1, 2, 0, 2, 1]):
        for i in order:
            assert search(*pairs[i]) == alone[i], i


def test_one_step_rewrites_keep_big_step_prefixes(corpus):
    # the premise of refuting an equivalence by a differing prefix: every
    # rewrite within the search's size cap, of every corpus and benchmark
    # program, keeps the 16-entry big-step prefix bit for bit
    programs = [(name, item.program) for name, item in corpus.items()]
    programs += [(path.stem, _program(path)) for path in sorted(BENCH_INPUTS.glob("*.smpl"))]
    checked = 0
    for name, prog in programs:
        want = Interpreter(prog).big_step(16)
        for step, out in neighbors(prog.body, _SIZE_FACTOR * term_size(prog.body)):
            assert value_equal(Interpreter(prog).big_step(16, out), want), (name, step)
            checked += 1
    assert checked == 53


def test_one_step_rewrites_keep_the_big_step_outcome_past_a_discarded_failing_entry(streams_tool):
    # tl_map, thin_map and hd_map move a function across a layer that
    # discards an entry the function fails on: each one-step rewrite of
    # these programs keeps their 16-entry big-step outcome, which reads
    # only the entries kept
    checked = 0
    for label, body, _ in streams_tool.FAULTS[:3]:
        prog = parse_program(streams_tool._RAND + body)
        want = Interpreter(prog).big_step(16)
        for step, out in neighbors(prog.body, _SIZE_FACTOR * term_size(prog.body)):
            assert value_equal(Interpreter(prog).big_step(16, out), want), (label, step)
            checked += 1
    assert checked == 3  # one rule per program
