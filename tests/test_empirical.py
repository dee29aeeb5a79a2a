import numpy as np
import pytest

from samplerlang import measures as M
from samplerlang import quadrature
from samplerlang.builtins import EvalError
from samplerlang.corpus import load_corpus
from samplerlang.empirical import columns_of, k_equidistribution_test, weak_convergence_test
from samplerlang.interpreter import Interpreter
from samplerlang.parser import parse_measure, parse_program, parse_term
from samplerlang.quadrature import (
    DEFAULT_SETTINGS,
    build_family,
    integrate,
    measure_equal,
)
from samplerlang.runtime import VClosure, VInj
from samplerlang.terms import Var, self_product

from reference import DegeneratePrefixError, empirical_measure, point


@pytest.fixture(scope="module")
def corpus():
    return {it.name: it for it in load_corpus()}


def test_unweighted_alternating_prefix(corpus):
    it = Interpreter(corpus["alternating"].program)
    em = empirical_measure(it.stream(), 4)
    assert {v: w for v, w in em.atoms} == {0: 0.5, 1: 0.5}


def test_equal_weight_pairs():
    em = empirical_measure([(0.0, 2.0), (1.0, 2.0)], 2)
    assert {v: w for v, w in em.atoms} == {0.0: 0.5, 1.0: 0.5}


def test_zero_weight_pairs_drop_from_support(corpus):
    # in the reweighted pair stream the equal pairs carry weight zero and
    # vanish from the normalized support
    it = Interpreter(corpus["von_neumann"].program)
    inner = parse_term(
        "reweight(fun b : B * B => if (fst(b) and snd(b)) or (not fst(b) and not snd(b))"
        " then 0 else 1, flip^2)",
        {"flip"},
    )
    em = empirical_measure(it.stream(inner), 200)
    support = {v for v, w in em.atoms if w > 0}
    assert support <= {(True, False), (False, True)}
    assert abs(em.total_mass() - 1.0) <= 1e-12


def test_degenerate_prefix_raises():
    entries = [(1.0, 0.0)] * 5
    with pytest.raises(DegeneratePrefixError):
        empirical_measure(entries, 5)


def test_total_mass_one(corpus):
    for item in corpus.values():
        it = Interpreter(item.program)
        try:
            em = empirical_measure(it.stream(), 100)
        except DegeneratePrefixError:
            continue
        assert abs(em.total_mass() - 1.0) <= 1e-12


def test_prefix_consistency(corpus):
    it = Interpreter(corpus["geometric"].program)
    stream = it.stream()
    em1 = empirical_measure(stream, 10)
    _ = empirical_measure(stream, 50)
    em2 = empirical_measure(stream, 10)
    assert em1.atoms == em2.atoms


def test_map_commutes_with_empirical(corpus):
    # the empirical measure of map(f, s) is the pushforward of the empirical
    # measure of s, atom by atom, with weights unchanged
    it = Interpreter(corpus["geometric"].program)
    mapped = it.stream(
        parse_term("map(fun x : R => x * 2 + 1, prng(fun x : R => x/2, 1))")
    )
    base = it.stream(parse_term("prng(fun x : R => x/2, 1)"))
    n = 40
    em_mapped = empirical_measure(mapped, n)
    em_base = empirical_measure(base, n)
    pushed = {2 * v + 1: w for v, w in em_base.atoms}
    assert {v: w for v, w in em_mapped.atoms} == pushed


def test_geometric_bound_exact(corpus):
    # |int g dsigma_n - g(0)| <= 2/n for every 1-Lipschitz bound-1 member
    it = Interpreter(corpus["geometric"].program)
    stream = it.stream()
    family = build_family(M.Dirac(0.0)).lipschitz_bounded(1.0, 1.0)
    assert family
    for n in (1, 10, 100, 1000, 10000):
        em = empirical_measure(stream, n)
        for member in family:
            d = abs(em.integrate(member) - member(0.0))
            assert d <= 2.0 / n, (n, member.name, d)


def test_weak_convergence_alternating(corpus):
    it = Interpreter(corpus["alternating"].program)
    report = weak_convergence_test(
        it.stream(), parse_measure("bernoulli(0.5)"), (100, 1000, 10000)
    )
    assert report.passed


def test_weak_convergence_thinned(corpus):
    it = Interpreter(corpus["thinned_alternating"].program)
    ok = weak_convergence_test(it.stream(), parse_measure("dirac(0)"), (100, 1000))
    bad = weak_convergence_test(
        it.stream(), parse_measure("bernoulli(0.5)"), (100, 1000)
    )
    assert ok.passed and not bad.passed
    assert "discrepancy" in bad.reason


def test_k2_failure_is_dirac_witness(corpus):
    prog = corpus["alternating"].program
    it = Interpreter(prog)
    report = k_equidistribution_test(
        prog.body, parse_measure("bernoulli(0.5)"), 2, it, n=2000
    )
    assert not report.passed
    em = empirical_measure(it.stream(self_product(prog.body, 2)), 500)
    assert em.atoms == [((0, 1), 1.0)]


def test_k1_alternating_passes(corpus):
    prog = corpus["alternating"].program
    it = Interpreter(prog)
    report = k_equidistribution_test(
        prog.body, parse_measure("bernoulli(0.5)"), 1, it, n=2000
    )
    assert report.passed


@pytest.mark.slow
def test_lcg_pair_equidistribution_evidence():
    # statistical evidence for the documented generator's 2-equidistribution
    # assumption; this is evidence for an axiom, not a proof
    prog = parse_program(
        "extern sampler rand : S R+ targets uniform(0, 1) equidistributed 2\nrand"
    )
    it = Interpreter(prog)
    report = k_equidistribution_test(
        Var("rand"), parse_measure("uniform(0, 1)"), 2, it, n=100000, tol=0.02
    )
    assert report.passed, report.reason


def test_report_json_shape(corpus):
    it = Interpreter(corpus["alternating"].program)
    report = weak_convergence_test(
        it.stream(), parse_measure("bernoulli(0.5)"), (100, 1000)
    )
    data = report.to_json()
    assert data["passed"] is True
    assert [pt["n"] for pt in data["ladder"]] == [100, 1000]
    assert all("worst" in pt and "tol" in pt for pt in data["ladder"])


# ---------------------------------------------------------------------------
# columns_of, against the entry-by-entry builder it replaced
# ---------------------------------------------------------------------------


def _oracle_columns(entries):
    def flatten(v, out):
        p = point(v)
        stack = [p]
        while stack:
            x = stack.pop()
            if isinstance(x, tuple):
                stack.extend(reversed(x))
            else:
                out.append(x)

    first: list = []
    flatten(entries[0][0], first)
    cols = [np.empty(len(entries)) for _ in first]
    weights = np.empty(len(entries))
    for i, (v, w) in enumerate(entries):
        flat: list = []
        flatten(v, flat)
        for j in range(len(cols)):
            cols[j][i] = flat[j]
        weights[i] = w
    return cols, weights


def _columns_of(entries):
    return columns_of([v for v, _ in entries], [w for _, w in entries])


def _assert_same_columns(entries):
    cols, weights = _columns_of(entries)
    want_cols, want_weights = _oracle_columns(entries)
    assert len(cols) == len(want_cols)
    for got, want in zip(cols + [weights], want_cols + [want_weights]):
        assert got.dtype == np.float64
        assert np.array_equal(got, want, equal_nan=True)
        # -0.0 and 0.0 compare equal; their signs must agree too
        assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("engine,n", [("stream", 500), ("bigstep", 12)])
def test_columns_match_entrywise_builder_on_corpus(corpus, engine, n):
    for name, item in corpus.items():
        it = Interpreter(item.program)
        entries = it.big_step(n).entries if engine == "bigstep" else it.stream().prefix(n)
        _assert_same_columns(entries)
    pairs = Interpreter(parse_program(
        "extern sampler rand : S R+ targets uniform(0, 1)\nrand^3"
    )).stream().prefix(n)
    _assert_same_columns(pairs)


_SPECIALS = [float("nan"), float("inf"), -float("inf"), -0.0, 1e-310, 0.1]

SYNTHETIC = {
    "float": [(x, 1.0) for x in _SPECIALS],
    "int": [(i, 0.5) for i in (0, -1, 7, 2**60 + 1)],
    "bool": [(b, 1.0) for b in (True, False, True)],
    "nested pair": [((i, (float(i) / 3, i % 2 == 0)), 2.0) for i in range(5)],
    "pairs of specials": [((x, y), w) for x, y, w in zip(_SPECIALS, reversed(_SPECIALS), _SPECIALS)],
    "injections": [(VInj(i % 2, (float(i), i)), 1.0) for i in range(4)],
    "injected bools and floats": [(VInj(0, True), 1.0), (VInj(1, 2.5), 1.0)],
    "unit": [((), 1.0), ((), 0.0)],
    "mixed widths": [(VInj(0, 1.0), 1.0), (VInj(1, (2.0, 3.0)), 1.0), (4.0, 0.5)],
    "mixed nesting": [((1.0, 2.0), 1.0), ((1.0, (2.0, 3.0)), 1.0)],
    "mixed unit": [((), 1.0), (True, 1.0)],
    "unit and pairs": [((), 1.0), ((1.0, 2.0), 1.0)],
}


@pytest.mark.parametrize("name", list(SYNTHETIC))
def test_columns_match_entrywise_builder_on_synthetic_values(name):
    _assert_same_columns(SYNTHETIC[name])


def test_columns_of_a_value_without_a_point_raises():
    clo = VClosure((("x", None),), Var("x"), {})
    for entries in ([(clo, 1.0), (clo, 1.0)], [((1.0, clo), 1.0)]):
        with pytest.raises(EvalError, match="no point representation"):
            _columns_of(entries)


def test_a_sampler_of_samplers_fails_without_drawing_its_inner_streams():
    # its values are streams, which are no points: the test says so without
    # drawing 100,000 entries of each of them
    program = parse_program(
        "extern sampler rand : S R+ targets uniform(0, 1)\nmap(fun x : R => tl(rand), rand)"
    )
    with pytest.raises(EvalError, match="no point representation"):
        weak_convergence_test(
            Interpreter(program).stream(), parse_measure("uniform(0, 1)"), (100000,)
        )


# the posterior that rejection.smpl and importance.smpl target
POSTERIOR = "reweight(fun x : R => 1/sqrt(2*pi) * exp(-1/2*(3-x)*(3-x)), triangular(0, 2))"


def test_reweight_normalizer_integrated_once_per_test(corpus, monkeypatch):
    target = parse_measure(POSTERIOR)
    family = build_family(target)
    uncached = [integrate(target, m, DEFAULT_SETTINGS) for m in family]
    shared: dict = {}
    cached = [integrate(target, m, DEFAULT_SETTINGS, shared) for m in family]
    # one normalizer, the stacks of the target and of its base, and the
    # target's split into parts (one part: a reweight does not split)
    assert sorted(k[0] if isinstance(k[0], str) else "normalizer" for k in shared) == [
        "normalizer", "parts", "stack", "stack"
    ]
    assert [float.hex(v) for v in cached] == [float.hex(v) for v in uncached]

    over_target, over_base = [], []
    array_integral = quadrature._array_integral

    def counting(m, *args, **kwargs):
        if m is target:
            over_target.append(m)
        if m is target.base:
            over_base.append(m)
        return array_integral(m, *args, **kwargs)

    monkeypatch.setattr(quadrature, "_array_integral", counting)
    it = Interpreter(corpus["rejection"].program)
    weak_convergence_test(it.stream(), target, (100,), family)
    # one integral per member, and a single normalizer
    assert len(family.members) == 17
    assert (len(over_target), len(over_base)) == (len(family.members), 1)
    over_target.clear()
    over_base.clear()
    measure_equal(target, target, family)
    assert (len(over_target), len(over_base)) == (2 * len(family.members), 1)
