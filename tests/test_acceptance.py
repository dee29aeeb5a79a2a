"""The acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""
import itertools
import json
import math
import time
from pathlib import Path

import pytest
from scipy.integrate import quad

from samplerlang import measures as M
from samplerlang.corpus import load_corpus, load_proof
from samplerlang.empirical import k_equidistribution_test, weak_convergence_test
from samplerlang.interpreter import Interpreter
from samplerlang.parser import parse_measure, parse_program, parse_term
from samplerlang.quadrature import TestFn, TestFunctionFamily, build_family
from samplerlang.rewrite import (
    EquivProof,
    Step,
    apply_rule,
    self_product_power_proof,
    self_product_transform_proof,
)
from samplerlang.runtime import value_equal
from samplerlang.streams import truncate
from samplerlang.target import (
    AxiomSet,
    DerivNode,
    DerivationChecker,
    Judgment,
    derivation_from_json,
)
from samplerlang.terms import App, FunT, POSREAL, SamplerT, Var, self_product
from samplerlang.typecheck import TypeCheckError, check_term

from reference import empirical_measure, rule_tree

GOLDEN_DIR = Path(__file__).parent / "goldens"

pytestmark = pytest.mark.acceptance


@pytest.fixture(scope="module")
def corpus():
    return {it.name: it for it in load_corpus()}


def _verdict(num, title, started):
    elapsed = time.perf_counter() - started
    print(f"\nACCEPTANCE {num}: PASS - {title} ({elapsed:.1f}s)")


def _weighted_moments(entries):
    sw = math.fsum(w for _, w in entries)
    mean = math.fsum(w * v for v, w in entries) / sw
    var = math.fsum(w * (v - mean) ** 2 for v, w in entries) / sw
    return mean, var


# -- criterion 1 ---------------------------------------------------------------


def test_acceptance_1_typing_goldens(corpus):
    started = time.perf_counter()
    for name, want in [
        ("von_neumann", "S B"),
        ("importance", "S R"),
        ("rejection", "S R"),
        ("marsaglia", "S R"),
    ]:
        assert corpus[name].type_str == want, name

    # the rejection accept derivation reproduces the published structure:
    # accept : T -> R+ with T the stated sum of inverse images along
    # (y, phi(x) * sqrt(2 * pi))
    from samplerlang.terms import (
        PredInv,
        ProdT,
        PullbackT,
        REAL,
        SumT,
        alpha_equal,
        type_equal,
    )

    accept = corpus["rejection"].check.let_types["accept"]
    assert isinstance(accept, FunT) and type_equal(accept.cod, POSREAL)
    dom = accept.dom
    assert isinstance(dom, SumT) and len(dom.summands) == 2
    expected_t = parse_term("(y, phi(x) * sqrt(2 * pi))")
    for i, summand in enumerate(dom.summands):
        assert isinstance(summand, PullbackT)
        assert summand.member == PredInv("lt", i)
        assert type_equal(summand.over, ProdT(REAL, REAL))
        assert alpha_equal(summand.t, expected_t)

    # exact structural match of the typing derivations against the goldens
    for name in ("von_neumann", "importance", "rejection", "marsaglia"):
        golden = json.loads((GOLDEN_DIR / f"{name}_rules.json").read_text())
        got = json.loads(json.dumps(rule_tree(corpus[name].check.derivation)))
        assert got == golden, f"derivation structure changed for {name}"

    # lambda abstraction over a restricted variable is rejected
    with pytest.raises(TypeCheckError):
        check_term(parse_term("fun x : R => fun y : R => x < y"))

    assert time.perf_counter() - started < 1.0
    _verdict(1, "typing goldens and restriction rejection", started)


# -- criterion 2 ---------------------------------------------------------------


def test_acceptance_2_adequacy(corpus):
    started = time.perf_counter()
    for name, item in corpus.items():
        for n in (1, 7, 100, 1000):
            big = Interpreter(item.program).big_step(n)
            stream = truncate(Interpreter(item.program).stream(), n)
            assert value_equal(big, stream), (name, n)
    assert time.perf_counter() - started < 30.0
    _verdict(2, "big-step and stream engines agree bit-exactly", started)


# -- criterion 3 ---------------------------------------------------------------


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
        "map(fun x : R => x + 1, rand) <*> "
        "map(fun x : R => x * 2, prng(fun x : R => x/2, 1))"
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


def test_acceptance_3_equivalence_soundness():
    started = time.perf_counter()
    from samplerlang.rewrite import RULES

    assert set(RULE_INSTANCES) == set(RULES)
    program = parse_program("extern sampler rand : S R+ targets uniform(0, 1)\nrand")

    def big_step(n, term):
        # a new interpreter per side, so no side reads a memo another filled
        return Interpreter(program).big_step(n, term)

    def both_sides_equal(lhs, rhs, n):
        ty = check_term(lhs, {"rand": SamplerT(POSREAL)}).ty
        if isinstance(ty, FunT):
            lhs, rhs = App(lhs, parse_term("0.7")), App(rhs, parse_term("0.7"))
        a = big_step(n, lhs)
        b = big_step(n, rhs)
        assert value_equal(a, b)

    for rule_name, src in RULE_INSTANCES.items():
        lhs = parse_term(src, {"rand"})
        rhs = apply_rule(rule_name, lhs)
        proof = EquivProof(lhs, rhs, [Step(rule_name, (), True)], [])
        assert proof.replay(), rule_name
        n = 12 if rule_name in ("thin_thin", "prod_thin", "thin_prng") else 100
        both_sides_equal(lhs, rhs, n)

    # nested self-products (the merged grouped form plus flattened agreement)
    for m, n in itertools.product(range(1, 5), repeat=2):
        proof = self_product_power_proof(Var("rand"), m, n)
        assert proof.replay(), (m, n)
        budget = max(100 // (m * n), 2)
        nested = big_step(
            budget, self_product(self_product(Var("rand"), m), n)
        )
        flat = big_step(budget, self_product(Var("rand"), m * n))

        def flat_tuple(v):
            if isinstance(v, tuple):
                out = []
                for x in v:
                    out.extend(flat_tuple(x))
                return out
            return [v]

        for (a, wa), (b, wb) in zip(nested.entries, flat.entries):
            assert flat_tuple(a) == flat_tuple(b) and wa == wb

    # map/reweight self-product lemmas evaluate bit-identically
    for n in range(1, 5):
        for kind, fn_src in (("map", "fun x : R => x + 1"), ("reweight", "fun x : R => exp(x)")):
            proof = self_product_transform_proof(kind, parse_term(fn_src), Var("rand"), n)
            assert proof.replay()
            a = big_step(100 // n, proof.start)
            b = big_step(100 // n, proof.end)
            assert value_equal(a, b)

    assert time.perf_counter() - started < 60.0
    _verdict(3, "every rule and self-product lemma is sound operationally", started)


# -- criterion 4 ---------------------------------------------------------------


def test_acceptance_4_von_neumann(corpus):
    started = time.perf_counter()
    item = corpus["von_neumann"]

    # independent oracle: exact 4-outcome enumeration, no measure machinery
    p = 0.3
    outcomes = {
        (True, True): p * p,
        (True, False): p * (1 - p),
        (False, True): (1 - p) * p,
        (False, False): (1 - p) * (1 - p),
    }
    weights = {pair: (0.0 if pair[0] == pair[1] else 1.0) for pair in outcomes}
    total = sum(outcomes[k] * weights[k] for k in outcomes)
    first_true = sum(
        outcomes[k] * weights[k] / total for k in outcomes if k[0]
    )
    assert abs(first_true - 0.5) < 1e-15

    # the bundled derivation is accepted
    axioms = AxiomSet.from_program(item.program)
    deriv = derivation_from_json(load_proof("von_neumann"), {"flip"})
    outcome = DerivationChecker(axioms).check(deriv)
    assert outcome.accepted, outcome.failure

    # empirical test at n = 1e5, tol 2e-2
    interp = Interpreter(item.program)
    report = weak_convergence_test(
        interp.stream(),
        parse_measure("bernoulli(0.5)"),
        (1000, 10000, 100000),
        tol_schedule=lambda n: max(0.02, 3.0 / math.sqrt(n)),
    )
    assert report.passed, report.reason

    # extractor-output mean within 2e-2 of 0.5
    entries = Interpreter(item.program).stream().prefix(100000)
    mean = math.fsum(w * (1.0 if v else 0.0) for v, w in entries) / math.fsum(
        w for _, w in entries
    )
    assert abs(mean - 0.5) <= 2e-2

    assert time.perf_counter() - started < 10.0
    _verdict(4, f"extractor verified and unbiased (mean {mean:.4f})", started)


# -- criterion 5 ---------------------------------------------------------------


def test_acceptance_5_importance_vs_rejection(corpus):
    started = time.perf_counter()
    # posterior moments from an independent quadrature oracle
    prior = lambda x: (1 - abs(x - 1)) if 0 <= x <= 2 else 0.0
    lik = lambda x: math.exp(-0.5 * (3 - x) ** 2) / math.sqrt(2 * math.pi)
    z, _ = quad(lambda x: prior(x) * lik(x), 0, 2, points=[1.0])
    post_mean, _ = quad(lambda x: x * prior(x) * lik(x) / z, 0, 2, points=[1.0])
    post_var, _ = quad(
        lambda x: (x - post_mean) ** 2 * prior(x) * lik(x) / z, 0, 2, points=[1.0]
    )

    means = {}
    for name in ("importance", "rejection"):
        entries = Interpreter(corpus[name].program).stream().prefix(100000)
        mean, var = _weighted_moments(entries)
        assert abs(mean - post_mean) <= 2e-2, (name, mean, post_mean)
        assert abs(var - post_var) <= 2e-2, (name, var, post_var)
        means[name] = mean

        # and the full weak-convergence harness against the posterior measure
        post = M.ReweightM(
            parse_term("fun x : R => 1/sqrt(2*pi) * exp(-1/2*(3-x)*(3-x))"),
            M.PushforwardM(
                parse_term("fun u : R * R => fst(u) + snd(u)"),
                M.PowerM(M.UniformM(0, 1), 2),
            ),
        )
        family = TestFunctionFamily(
            [
                TestFn("mean", lambda cols: cols[0], 2.0, 1.0),
                TestFn("second_moment", lambda cols: cols[0] ** 2, 4.0, 4.0),
            ]
        )
        report = weak_convergence_test(
            Interpreter(corpus[name].program).stream(),
            post,
            (1000, 10000, 100000),
            family=family,
            tol_schedule=lambda n: max(0.02, 3.0 / math.sqrt(n)),
        )
        assert report.passed, (name, report.reason)

    assert abs(means["importance"] - means["rejection"]) <= 3e-2
    assert time.perf_counter() - started < 30.0
    _verdict(
        5,
        f"posterior agreement (oracle mean {post_mean:.4f}; "
        f"importance {means['importance']:.4f}, rejection {means['rejection']:.4f})",
        started,
    )


# -- criterion 6 ---------------------------------------------------------------


def test_acceptance_6_marsaglia(corpus):
    started = time.perf_counter()
    item = corpus["marsaglia"]
    alpha = 2.5

    entries = Interpreter(item.program).stream().prefix(100000)
    mean, var = _weighted_moments(entries)
    assert abs(mean - alpha) <= 5e-2, mean
    assert abs(var - alpha) <= 1e-1, var

    axioms = AxiomSet.from_program(item.program)
    deriv = derivation_from_json(load_proof("marsaglia"), {"rand"})
    checker = DerivationChecker(axioms)
    outcome = checker.check(deriv)
    assert outcome.accepted, outcome.failure
    # the inner Box-Muller step was a stated simplification checked numerically
    inner_notes = [r.note for r in outcome.reports if r.rule == "map"]
    assert any("numeric" in note for note in inner_notes)

    assert time.perf_counter() - started < 30.0
    _verdict(6, f"gamma sampler verified (mean {mean:.3f}, var {var:.3f})", started)


# -- criterion 7 ---------------------------------------------------------------


def test_acceptance_7_exact_bound(corpus):
    started = time.perf_counter()
    stream = Interpreter(corpus["geometric"].program).stream()
    family = build_family(M.Dirac(0.0)).lipschitz_bounded(1.0, 1.0)
    assert len(family) >= 3
    for n in (1, 2, 5, 10, 100, 1000, 10000):
        em = empirical_measure(stream, n)
        for member in family:
            discrepancy = abs(em.integrate(member) - member(0.0))
            assert discrepancy <= 2.0 / n, (n, member.name, discrepancy)
    _verdict(7, "2/n bound holds with zero tolerance", started)


# -- criterion 8 ---------------------------------------------------------------


def test_acceptance_8_thin_unsoundness(corpus):
    started = time.perf_counter()
    alternating = corpus["alternating"]
    thinned = corpus["thinned_alternating"]

    # any thin-labeled node is rejected
    axioms = AxiomSet.from_program(alternating.program)
    node = DerivNode(
        "thin",
        Judgment(thinned.program.body, parse_measure("bernoulli(0.5)")),
        [
            DerivNode(
                "prng",
                Judgment(alternating.program.body, parse_measure("bernoulli(0.5)")),
                [],
                {"axiom": "alternating_ergodic"},
            )
        ],
    )
    outcome = DerivationChecker(axioms).check(node)
    assert not outcome.accepted and "thin" in outcome.failure.lower()

    ladder = (100, 1000, 10000)
    it = Interpreter(thinned.program)
    assert weak_convergence_test(it.stream(), parse_measure("dirac(0)"), ladder).passed
    assert not weak_convergence_test(
        it.stream(), parse_measure("bernoulli(0.5)"), ladder
    ).passed

    base = Interpreter(alternating.program)
    assert weak_convergence_test(
        base.stream(), parse_measure("bernoulli(0.5)"), ladder
    ).passed
    k2 = k_equidistribution_test(
        alternating.program.body, parse_measure("bernoulli(0.5)"), 2, base, n=10000
    )
    assert not k2.passed

    # the failure is witnessed exactly: the self-product empirical measure is
    # the point mass at (0, 1)
    em = empirical_measure(
        base.stream(self_product(alternating.program.body, 2)), 1000
    )
    assert em.atoms == [((0, 1), 1.0)]

    _verdict(8, "thin rule rejected and counterexample witnessed", started)


# -- criterion 9 ---------------------------------------------------------------


def test_acceptance_9_side_condition(corpus):
    started = time.perf_counter()
    src = (
        "extern sampler rand : S R+ targets uniform(0, 1)\n"
        "reweight(fun x : R => 0, rand)"
    )
    prog = parse_program(src)
    axioms = AxiomSet.from_program(prog)
    premise = DerivNode(
        "axiom", Judgment(Var("rand"), parse_measure("uniform(0, 1)")), [], {"axiom": "rand"}
    )
    node = DerivNode(
        "reweight",
        Judgment(prog.body, M.ReweightM(prog.body.fn, parse_measure("uniform(0, 1)"))),
        [premise],
    )
    outcome = DerivationChecker(axioms).check(node)
    assert not outcome.accepted
    assert "∫ f dμ = 0 ∉ (0, ∞)" in outcome.failure
    _verdict(9, "zero-normalizer reweight rejected with evidence", started)
