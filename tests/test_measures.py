import json
import math
import random
import re
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from samplerlang import measures as M
from samplerlang import quadrature
from samplerlang.builtins import EvalError
from samplerlang.cli import main
from samplerlang.corpus import corpus_dir, proof_path
from samplerlang.parser import parse_measure, parse_term
from samplerlang.quadrature import (
    DEFAULT_SETTINGS,
    IntegrationError,
    SideConditionError,
    TestFn,
    UnsupportedDimension,
    GAMMA_TAIL,
    build_family,
    gamma_cutoff,
    integrate,
    measure_equal,
    normalizer,
    reduce_discrete,
    support_box,
    term_fn,
)
from samplerlang.runtime import VClosure, VInj, apply_value, compile_array_fn
from samplerlang.target import CHECK_SETTINGS
from samplerlang.terms import COMPARISONS, Builtin, Case, Lam, Let, Var, positions


CHOICE = parse_term(
    "fun b : B * B => if (fst(b) and snd(b)) or (not fst(b) and not snd(b)) then 0 else 1"
)
PROJ = parse_term("fun b : B * B => fst(b)")
PLUS = parse_term("fun u : R * R => fst(u) + snd(u)")
PHI = parse_term("fun x : R => 1/sqrt(2*pi) * exp(-1/2*(3-x)*(3-x))")

U2 = M.PowerM(M.UniformM(0, 1), 2)
TRI_PUSH = M.PushforwardM(PLUS, U2)


def test_dirac_point_mass():
    assert integrate(M.Dirac(0.0), lambda x: x * x + 3) == 3.0
    assert integrate(M.Dirac((0.0, 1.0)), lambda p: p[0] + p[1]) == 1.0


def test_reduce_discrete_power():
    d = reduce_discrete(M.PowerM(M.Bernoulli(0.3), 2))
    masses = {(str(v)): round(w, 10) for v, w in d.atoms}
    assert masses == {
        "(True, True)": 0.09,
        "(True, False)": 0.21,
        "(False, True)": 0.21,
        "(False, False)": 0.49,
    }


def test_reduce_discrete_reweight_drops_equal_pairs():
    d = reduce_discrete(M.ReweightM(CHOICE, M.PowerM(M.Bernoulli(0.3), 2)))
    masses = {str(v): round(w, 12) for v, w in d.atoms}
    assert masses["(True, True)"] == 0.0
    assert masses["(False, False)"] == 0.0
    assert masses["(True, False)"] == 0.5
    assert masses["(False, True)"] == 0.5


def test_reduce_discrete_pushforward_projects():
    inner = M.ReweightM(CHOICE, M.PowerM(M.Bernoulli(0.3), 2))
    d = reduce_discrete(M.PushforwardM(PROJ, inner))
    masses = {str(v): round(w, 12) for v, w in d.atoms}
    assert masses == {"True": 0.5, "False": 0.5}


def test_extractor_weight_is_half():
    # the indicator of (True, False) has measure 1/2 under the reweighted law
    indicator = parse_term(
        "fun b : B * B => if fst(b) and not snd(b) then 1 else 0"
    )
    inner = M.ReweightM(CHOICE, M.PowerM(M.Bernoulli(0.3), 2))
    got = math.fsum(
        w
        for v, w in reduce_discrete(M.PushforwardM(indicator, inner)).atoms
        if v == 1
    )
    assert abs(got - 0.5) < 1e-12


def test_reduce_discrete_mass_sums_to_one():
    for m in [
        M.Bernoulli(0.2),
        M.PowerM(M.Bernoulli(0.5), 3),
        M.ReweightM(CHOICE, M.PowerM(M.Bernoulli(0.4), 2)),
    ]:
        d = reduce_discrete(m)
        assert abs(math.fsum(w for _, w in d.atoms) - 1.0) <= 1e-12
        assert all(w >= 0 for _, w in d.atoms)


def test_measure_equal_exact_extractor():
    m = M.PushforwardM(PROJ, M.ReweightM(CHOICE, M.PowerM(M.Bernoulli(0.3), 2)))
    report = measure_equal(m, M.Bernoulli(0.5))
    assert report.equal and report.mode == "exact"


def test_measure_equal_reflexive():
    report = measure_equal(M.UniformM(0, 1), M.UniformM(0, 1), tol=0.0)
    assert report.equal


def test_triangular_identity_within_1e6():
    fam = build_family(M.TriangularM(0, 2))
    worst = 0.0
    for member in fam:
        a = integrate(TRI_PUSH, member)
        b = integrate(M.TriangularM(0, 2), member)
        worst = max(worst, abs(a - b))
    assert worst <= 1e-6


def test_change_of_variables():
    # integrate(pushforward(f, mu), g) == integrate(mu, g . f)
    double = parse_term("fun x : R => x * 2")
    g = lambda x: math.cos(x)
    lhs = integrate(M.PushforwardM(double, M.UniformM(0, 1)), g)
    rhs = integrate(M.UniformM(0, 1), lambda x: g(2 * x))
    assert abs(lhs - rhs) <= 2e-9


def test_reweight_normalizes_to_one():
    post = M.ReweightM(PHI, TRI_PUSH)
    assert abs(integrate(post, lambda x: 1.0) - 1.0) <= 1e-9


def test_posterior_matches_independent_quadrature():
    # oracle built directly from prior * likelihood via scipy, independent of
    # the measure pipeline
    prior = lambda x: (1 - abs(x - 1)) if 0 <= x <= 2 else 0.0
    lik = lambda x: math.exp(-0.5 * (3 - x) ** 2) / math.sqrt(2 * math.pi)
    z, _ = quad(lambda x: prior(x) * lik(x), 0, 2, points=[1.0])
    post = M.ReweightM(PHI, TRI_PUSH)
    for g in (lambda x: x, lambda x: x * x, math.cos):
        want, _ = quad(lambda x: g(x) * prior(x) * lik(x) / z, 0, 2, points=[1.0])
        got = integrate(post, g)
        assert abs(got - want) <= 1e-4


def test_zero_reweight_signals_side_condition():
    zero = parse_term("fun x : R => 0")
    with pytest.raises(SideConditionError):
        integrate(M.ReweightM(zero, M.UniformM(0, 1)), lambda x: 1.0)


def test_shared_grid_gives_the_same_integrals():
    # the comparison at marsaglia's map node: Box-Muller over uniform(0, 1)^3
    # against the stated uniform(0, 1) * gaussian(0, 1)
    box = parse_term(
        "fun w : R+ * R+ * R+ => (fst(w), sqrt(-2 * log(fst(snd(w)))) * cos(2 * pi * snd(snd(w))))"
    )
    computed = M.PushforwardM(box, M.PowerM(M.UniformM(0, 1), 3))
    family = build_family(parse_measure("uniform(0, 1) * gaussian(0, 1)"), slim=True)
    assert len(family) == 13
    # the stated measure's moments: x[0] ~ uniform(0, 1), x[1] ~ gaussian(0, 1)
    moments = {
        "one": 1.0, "x[0]": 0.5, "x2[0]": 1 / 3, "cos1x[0]": math.sin(1),
        "cos2x[0]": math.sin(2) / 2, "clamp[0]": 0.5, "x[1]": 0.0, "x2[1]": 1.0,
        "cos1x[1]": math.exp(-0.5), "cos2x[1]": math.exp(-2), "clamp[1]": 0.0,
    }
    moments["cos1x[0]*cos2x[1]"] = moments["cos1x[0]"] * moments["cos2x[1]"]
    moments["cos2x[0]*clamp[1]"] = moments["cos2x[0]"] * moments["clamp[1]"]
    shared: dict = {}
    for member in family:
        alone = integrate(computed, member, CHECK_SETTINGS, {})
        cached = integrate(computed, member, CHECK_SETTINGS, shared)
        assert cached.hex() == alone.hex(), member.name
        assert abs(cached - moments[member.name]) <= 1e-6, member.name
    # the transform splits into the identity on the first coordinate and
    # Box-Muller on the other two: one split, and one stack for each part
    assert [key[0] for key in shared] == ["parts", "stack", "stack"]


def test_constant_coordinate_of_a_3d_pushforward():
    mu = parse_measure(
        "pushforward(fun w : R * (R * R) => (fst(w), (fst(snd(w)), 1.0)), uniform(0, 1)^3)"
    )
    values = {member.name: integrate(mu, member) for member in build_family(mu, slim=True)}
    assert abs(values["x[2]"] - 1.0) <= 1e-12
    assert abs(values["cos1x[2]"] - math.cos(1)) <= 1e-12


def test_3d_domain_error_raises_at_its_builtin():
    # log(u - 2) fails at every node: the scalar function runs at the first
    # one and raises the builtin's error, as in 1-D and 2-D
    computed = parse_measure(
        "pushforward(fun w : R * (R * R) => (log(fst(w) - 2), (fst(snd(w)), snd(snd(w)))),"
        " uniform(0, 1)^3)"
    )
    stated = parse_measure("gaussian(5, 1) * (uniform(0, 1) * uniform(0, 1))")
    with pytest.raises(EvalError, match=r"^1:37: log of non-positive number "):
        measure_equal(computed, stated)
    # log(u - 0.5) holds at some probe points, so the transform splits; the
    # first part raises also where the test function reads only the others
    split = parse_measure(
        "pushforward(fun w : R * (R * R) => (log(fst(w) - 0.5), (fst(snd(w)), snd(snd(w)))),"
        " uniform(0, 1)^3)"
    )
    assert len(quadrature._parts(split, {})) == 3
    family = {member.name: member for member in build_family(stated, slim=True)}
    for name in ("x[1]", "one"):
        with pytest.raises(EvalError, match=r"^1:37: log of non-positive number "):
            integrate(split, family[name])


@pytest.mark.parametrize("fn, moments", [
    # the first component reads fst(snd(w)), so the transform stays whole
    ("fun w : R * (R * R) => (fst(w) + fst(snd(w)), snd(snd(w)))",
     {"x[0]": 1.0, "x2[0]": 7 / 6, "x[1]": 0.5,
      "cos1x[0]*cos2x[1]": (math.sin(1) ** 2 - (1 - math.cos(1)) ** 2) * math.sin(2) / 2}),
    # the second component binds w again, so the transform stays whole
    ("fun w : R * (R * R) => (fst(w), let w = (snd(w), 1.0) in snd(w))",
     {"x[0]": 0.5, "x2[0]": 1 / 3, "x[1]": 1.0, "cos1x[1]": math.cos(1)}),
    # a function of a parameter group stays whole
    ("fun (a : R, r : R * R) => (a * a, fst(r) + snd(r))",
     {"x[0]": 1 / 3, "x2[0]": 1 / 5, "x[1]": 1.0, "x2[1]": 7 / 6}),
])
def test_3d_pushforwards_that_do_not_split_integrate_whole(fn, moments):
    m = parse_measure(f"pushforward({fn}, uniform(0, 1)^3)")
    assert quadrature._parts(m, {}) is None
    family = {member.name: member for member in build_family(m, slim=True)}
    for name, want in moments.items():
        assert abs(integrate(m, family[name]) - want) <= 1e-8, name


def test_a_pushforward_over_a_left_nested_product_is_probed_as_it_nests():
    # the probe points of a left-nested base are left-nested, so the part's
    # coordinates are counted and the measure splits
    m = parse_measure(
        "uniform(0, 1) * pushforward(fun w : (R * R) * R => fst(fst(w)) + snd(w),"
        " (uniform(0, 1) * uniform(0, 1)) * bernoulli(0.5))"
    )
    assert [(lo, hi) for _, lo, hi in quadrature._parts(m, {})] == [(0, 1), (1, 2)]
    box = support_box(parse_measure(
        "pushforward(fun w : (R * R) * R => (fst(fst(w)) + snd(w), snd(fst(w))),"
        " (uniform(0, 1) * uniform(0, 1)) * uniform(0, 1))"
    ))
    assert box == [(0.0, 2.0), (0.0, 1.0)]
    family = {member.name: member for member in build_family(U2, slim=True)}
    assert abs(integrate(m, family["x[1]"]) - 1.0) <= 1e-9


def test_a_reweight_over_a_left_nested_product_is_probed_as_its_base():
    box = support_box(parse_measure(
        "pushforward(fun w : (R * R) * R => fst(fst(w)),"
        " reweight(fun w : (R * R) * R => 1, (uniform(0, 1) * uniform(0, 1)) * uniform(0, 1)))"
    ))
    assert box == [(0.0, 1.0)]


def test_a_pushforward_over_a_pushforward_is_probed_through_its_base():
    # the inner pushforward's probe points are the images of its base's
    # left-nested ones, so they nest as its values do
    box = support_box(parse_measure(
        "pushforward(fun w : (R * R) * R => fst(fst(w)), pushforward(fun v : (R * R) * R => v,"
        " (uniform(0, 1) * uniform(0, 1)) * uniform(0, 1)))"
    ))
    assert box == [(0.0, 1.0)]


# -- 3-D integrals: comparisons, reweights, refused functions and discrete factors

U3 = "uniform(0, 1)^3"


def test_3d_reweight_by_an_indicator_integrates_on_the_grid():
    m = parse_measure(f"reweight(fun w : R * (R * R) => if fst(w) < 0.5 then 1 else 0, {U3})")
    family = {member.name: member for member in build_family(m, slim=True)}
    cache: dict = {}
    assert abs(integrate(m, family["x[0]"], cache=cache) - 0.25) <= 1e-8
    assert abs(integrate(m, family["x[1]"], cache=cache) - 0.5) <= 1e-9
    # the reweight divides by its normalizer, the integral over its base
    [used] = [v[0] for k, v in cache.items() if not isinstance(k[0], str)]
    assert used.hex() == normalizer(m.fn, m.base).hex()
    assert abs(used - 0.5) <= 1e-4


def test_3d_reweight_of_a_factor_divides_by_its_own_normalizer():
    # the reweight covers only the first factor of the 3-D product, so its
    # normalizer is the 1-D integral of 1 + x, 1.5, whatever the mass of the
    # other factors; the cache it leaves serves the factor alone too
    m = parse_measure(
        "reweight(fun x : R => 1 + x, uniform(0, 1)) * (gamma(0.5, 1) * uniform(0, 1))"
    )
    factor = m.left
    family = {member.name: member for member in build_family(m, slim=True)}
    cache: dict = {}
    # E x = ∫ x (1 + x) dx / 1.5 = 5/9, and gamma(0.5, 1) has mean 0.5
    assert abs(integrate(m, family["x[0]"], cache=cache) - 5 / 9) <= 1e-8
    assert [v[0] for k, v in cache.items() if not isinstance(k[0], str)] == [1.5]
    assert abs(integrate(m, family["x[1]"], cache=cache) - 0.5) <= 1e-8
    x = {member.name: member for member in build_family(factor)}["x"]
    assert integrate(factor, x, cache=cache).hex() == integrate(factor, x).hex()
    # the gamma(0.5, 1) density is singular at 0
    singular = parse_measure("gamma(0.5, 1) * (uniform(0, 1) * uniform(0, 1))")
    one = {member.name: member for member in build_family(singular)}["one"]
    assert abs(integrate(singular, one) - 1.0) <= 1e-9


def test_3d_pushforward_with_an_if_integrates_on_the_grid():
    # the smaller of two uniform coordinates has mean 1/3
    smaller = "fun w : R * (R * R) => if fst(w) < fst(snd(w)) then fst(w) else fst(snd(w))"
    m = parse_measure(f"pushforward({smaller}, {U3})")
    family = {member.name: member for member in build_family(m, slim=True)}
    assert abs(integrate(m, family["x"]) - 1 / 3) <= 1e-8


def test_3d_branch_not_taken_may_fail_its_domain_check():
    # sqrt of a negative number in the untaken branch is no warning and no nan
    m = parse_measure(
        f"pushforward(fun w : R * (R * R) => if fst(w) > 0.5 then sqrt(fst(w) - 0.5) else 0, {U3})"
    )
    x = {member.name: member for member in build_family(m, slim=True)}["x"]
    assert abs(integrate(m, x) - 2 / 3 * 0.5 ** 1.5) <= 1e-8


def test_3d_transform_refused_by_the_array_backend_integrates_iterated():
    fn = "fun w : R * (R * R) => inj(0, fst(w) + fst(snd(w)) * snd(snd(w)))"
    assert compile_array_fn(parse_term(fn)) is None
    m = parse_measure(f"pushforward({fn}, {U3})")
    x = {member.name: member for member in build_family(m, slim=True)}["x"]
    assert abs(integrate(m, x) - 0.75) <= 1e-9


def test_3d_product_with_a_discrete_factor_integrates_iterated():
    m = parse_measure(f"bernoulli(0.25) * {U3}")
    family = {member.name: member for member in build_family(m)}
    assert abs(integrate(m, family["x[0]"]) - 0.25) <= 1e-12
    assert abs(integrate(m, family["x[1]"]) - 0.5) <= 1e-9


def test_term_fn_of_a_body_that_does_not_compile():
    lam = parse_term("fun x : R => prng(fun y : R => y / 2, x)")
    with pytest.raises(EvalError) as want:
        apply_value(VClosure(lam.params, lam.body, {}), 1.0)
    with pytest.raises(EvalError) as got:
        term_fn(lam)(1.0)
    assert str(got.value) == str(want.value)
    assert "closure body builds samplers" in str(got.value)


def test_dimension_cap():
    u4 = M.PowerM(M.UniformM(0, 1), 4)
    with pytest.raises(UnsupportedDimension):
        integrate(u4, lambda p: 1.0)


def test_gaussian_and_gamma_moments():
    g = M.GaussianM(1.0, 2.0)
    assert abs(integrate(g, lambda x: x) - 1.0) <= 1e-8
    assert abs(integrate(g, lambda x: (x - 1.0) ** 2) - 4.0) <= 1e-7
    gam = M.GammaM(2.5, 1.0)
    assert abs(integrate(gam, lambda x: x) - 2.5) <= 1e-7
    assert abs(integrate(gam, lambda x: (x - 2.5) ** 2) - 2.5) <= 1e-6


def test_family_members_carry_bounds():
    fam = build_family(M.UniformM(0, 1))
    names = {m.name for m in fam}
    assert {"one", "x", "x2", "cos1x", "clamp", "vee"} <= names
    assert all(m.bound > 0 or m.name == "one" for m in fam)
    one_lip = fam.lipschitz_bounded(1.0, 1.0)
    assert all(m.lip <= 1.0 and m.bound <= 1.0 for m in one_lip)


def test_support_boxes():
    assert support_box(M.UniformM(0, 1)) == [(0.0, 1.0)]
    assert support_box(M.ProductM(M.UniformM(0, 1), M.GaussianM(0, 1))) == [
        (0.0, 1.0),
        (-4.0, 4.0),
    ]
    box = support_box(TRI_PUSH)
    assert box[0][0] <= 0.01 and box[0][1] >= 1.99


def test_measure_parse_validation():
    with pytest.raises(M.MeasureError):
        M.Bernoulli(1.5)
    with pytest.raises(M.MeasureError):
        M.UniformM(2, 1)
    with pytest.raises(M.MeasureError):
        M.FiniteDiscrete(((0.0, 0.6), (1.0, 0.6)))


# -- term functions get runtime values -------------------------------------------

BOOL_REAL = "bernoulli(0.5) * uniform(0, 1)"


def test_reweight_branching_on_a_boolean_integrates():
    m = parse_measure(f"reweight(fun p : B * R => if fst(p) then 2.0 else 1.0, {BOOL_REAL})")
    family = {member.name: member for member in build_family(m)}
    assert abs(integrate(m, family["x[0]"]) - 2 / 3) <= 1e-12
    assert abs(integrate(m, family["x[1]"]) - 0.5) <= 1e-9


def test_pushforward_branching_on_a_boolean_integrates():
    m = parse_measure(f"pushforward(fun p : B * R => if fst(p) then snd(p) else 0.0, {BOOL_REAL})")
    assert abs(integrate(m, lambda v: v) - 0.25) <= 1e-12


def test_family_of_a_pushforward_branching_on_a_boolean():
    # the Bernoulli factor is probed with False and True, not with floats
    m = parse_measure(f"pushforward(fun p : B * R => if fst(p) then snd(p) else 0.0, {BOOL_REAL})")
    assert support_box(m) == [(0.0, 1.0)]
    family = {member.name: member for member in build_family(m)}
    assert abs(integrate(m, family["x"]) - 0.25) <= 1e-12


def test_test_functions_read_an_injection_as_its_payload():
    for member in build_family(M.UniformM(0, 1)):
        assert member(VInj(1, 0.25)) == member(0.25)
        assert member(True) == member(1.0)


# -- stacked transforms ------------------------------------------------------------

STACKED = "pushforward(fun x : R => x * 2, pushforward(fun x : R => x + 1, {}))"


def test_stacked_pushforwards_apply_the_inner_one_first():
    assert integrate(parse_measure(STACKED.format("uniform(0, 1)")), lambda v: v) == 3.0
    assert integrate(parse_measure(STACKED.format("bernoulli(0.5)")), lambda v: v) == 3.0


def test_pushforward_of_a_2d_pushforward():
    m = parse_measure(
        "pushforward(fun x : R => x * x, pushforward(fun p : R * R => fst(p) + snd(p), uniform(0, 1)^2))"
    )
    assert abs(integrate(m, lambda v: v) - 7 / 6) <= 1e-9


def test_reweight_under_two_pushforwards():
    m = parse_measure(STACKED.format("reweight(fun x : R => x, uniform(0, 1))"))
    assert abs(integrate(m, lambda v: v) - 10 / 3) <= 1e-9


def test_map_map_sides_are_equal():
    nested = parse_measure(STACKED.format("uniform(0, 1)"))
    fused = parse_measure("pushforward(fun x : R => (x + 1) * 2, uniform(0, 1))")
    report = measure_equal(nested, fused)
    assert report.equal and report.max_discrepancy == 0.0


# -- sum types -------------------------------------------------------------------

INJ = "pushforward(fun b : B => if b then inj({}, 1.0) else inj(1, 2.0), bernoulli(0.5))"


def test_finitely_supported_measure_over_a_sum_type():
    m = parse_measure(INJ.format(0))
    assert reduce_discrete(m).atoms == ((VInj(0, 1.0), 0.5), (VInj(1, 2.0), 0.5))
    assert integrate(m, lambda v: v.value) == 1.5
    report = measure_equal(m, parse_measure(INJ.format(0)))
    assert report.equal and report.mode == "exact"


def test_injections_that_differ_only_in_their_index_are_two_atoms():
    report = measure_equal(parse_measure(INJ.format(0)), parse_measure(INJ.format(1)))
    assert not report.equal and report.mode == "exact"
    assert report.max_discrepancy == 0.5


# -- batched adaptive quadrature of 1-D and 2-D integrals ---------------------------


def _stated_reweight(name: str) -> M.ReweightM:
    """The reweighted measure of a bundled proof's stated target."""
    m = parse_measure(json.loads(proof_path(name).read_text())["judgment"]["target"])
    while not isinstance(m, M.ReweightM):
        m = m.base
    return m


def test_marsaglia_normalizer_matches_its_closed_form():
    m = _stated_reweight("marsaglia")
    assert abs(normalizer(m.fn, m.base, CHECK_SETTINGS) - _marsaglia_acceptance()) <= 2e-6


def test_rejection_normalizer_matches_a_scalar_quad():
    # triangular(0, 2) times the acceptance probability φ(x)·√(2π) of y ~ uniform(0, 1)
    want = _rejection_acceptance()
    m = _stated_reweight("rejection")
    assert abs(normalizer(m.fn, m.base, CHECK_SETTINGS) - want) <= 2e-6


def _marsaglia_acceptance() -> float:
    # P(accept) of the squeeze test: e^d Γ(α) / (√(2π) d^(α - 1/2)), d = α - 1/3
    alpha = 2.5
    d = alpha - 1 / 3
    return math.exp(d) * math.gamma(alpha) / (math.sqrt(2 * math.pi) * d ** (alpha - 0.5))


def _rejection_acceptance() -> float:
    tri = lambda x: x if x < 1 else 2 - x  # noqa: E731
    want, _ = quad(lambda x: tri(x) * math.exp(-0.5 * (3 - x) ** 2), 0, 2, points=[1.0],
                   epsabs=1e-13, epsrel=1e-13)
    return want


def test_marsaglia_normalizer_converges_at_the_default_tolerance():
    # the checker's types place the acceptance boundary in each row
    m = _stated_reweight("marsaglia")
    assert abs(normalizer(m.fn, m.base) - _marsaglia_acceptance()) <= 1e-9


def test_rejection_normalizer_places_its_jump_exactly():
    # a breakpoint off the jump would hide it from the error estimate
    m = _stated_reweight("rejection")
    assert abs(normalizer(m.fn, m.base) - _rejection_acceptance()) <= 1e-9


def test_two_jumps_in_one_probe_cell_are_left_to_bisection():
    # the window (0.001, 0.009) lies inside the first probe cell, so no probe
    # sees a change of sign; near the end of the axis, where the Kronrod nodes
    # of every bisection cluster, the rule finds it on its own
    assert 0.009 < 1 / quadrature._JUMP_PROBES
    fn = parse_term("fun (y : R, x : R) => if (x - 0.005) * (x - 0.005) < 0.000016 then 1 else 0")
    assert abs(normalizer(fn, parse_measure("uniform(0, 1) * uniform(0, 1)")) - 0.008) <= 1e-9


def test_a_jump_the_checker_cannot_place_integrates_as_without_types():
    # a '_' parameter gives no breakpoints: the rule bisects as it always has
    fn = parse_term("fun (x : _, y : _) => if y < exp(-1 / 2 * (3 - x) * (3 - x)) then 1 else 0")
    value = normalizer(fn, parse_measure("triangular(0, 2) * uniform(0, 1)"))
    assert value.hex() == "0x1.567e21ccee627p-3"


@pytest.mark.parametrize("fn, counts, mass", [
    # snd(w) reads only the innermost coordinate: solved once for every row
    ("fun w : R * R => if snd(w) > 0.5 then 1 else 0", (1, 0), 0.5),
    ("fun (u : R, x : R) => if x > 0.5 then 1 else 0", (1, 0), 0.5),
    # fst(w) cannot change sign along the innermost axis, so it is not probed
    ("fun w : R * R => if fst(w) > 0.5 then 1 else 0", (0, 0), 0.5),
    ("fun w : R * R => if fst(w) + snd(w) > 0.5 then 1 else 0", (0, 1), 0.875),
])
def test_a_pair_reads_the_axes_of_its_projections(fn, counts, mass):
    # (shared, per-row) pairs over uniform(0, 1)^2
    fn = parse_term(fn)
    shared, per_row = quadrature._jumps(fn, quadrature._stack(U2, {}))
    assert (len(shared), len(per_row)) == counts
    assert abs(normalizer(fn, U2) - mass) <= 1e-12


def test_bundled_normalizers_keep_their_pair_classes():
    for name, counts in (("marsaglia", (1, 1)), ("rejection", (0, 1))):
        m = _stated_reweight(name)
        shared, per_row = quadrature._jumps(m.fn, quadrature._stack(m.base, {}))
        assert (len(shared), len(per_row)) == counts, name


def test_marsaglia_normalizer_takes_few_integrand_nodes(monkeypatch):
    nodes = [0]
    gk21 = quadrature._gk21

    def counting(f, *args):
        def counted(row, x):
            nodes[0] += x.size
            return f(row, x)

        return gk21(counted, *args)

    monkeypatch.setattr(quadrature, "_gk21", counting)
    m = _stated_reweight("marsaglia")
    normalizer(m.fn, m.base, CHECK_SETTINGS)
    # about 1.9M nodes when the rule finds the jumps by bisection
    assert nodes[0] < 100_000


def _quad(f, lo, hi, points=(), tol=1e-9) -> float:
    """scipy's adaptive quadrature, the independent oracle."""
    points = [p for p in points if lo < p < hi]
    return quad(f, lo, hi, points=points or None, epsabs=tol, epsrel=tol, limit=400)[0]


def _iterated_quad(g, densities, tol=1e-9, points=()) -> float:
    """The integral of g, a function of a tuple of floats, against a product
    of hand-written densities (pdf, lo, hi, breakpoints), iterated with
    `_quad`; `points` are g's breakpoints on a single coordinate."""
    (pdf, lo, hi, brk), *rest = densities
    if not rest:
        return _quad(lambda x: g((x,)) * pdf(x), lo, hi, (*brk, *points), tol)
    return _quad(
        lambda x: pdf(x) * _iterated_quad(lambda ys: g((x, *ys)), rest, tol), lo, hi, brk, tol
    )


def _math_member(member):
    """A default-family member as a function of a tuple of floats, written
    with `math` from its name, where the family writes it with numpy."""
    c = member.breakpoints[0] if member.breakpoints else None
    forms = {
        "one": lambda x: 1.0, "x": lambda x: x, "x2": lambda x: x * x,
        "cos1x": math.cos, "cos2x": lambda x: math.cos(2 * x), "cos3x": lambda x: math.cos(3 * x),
        "clamp": lambda x: min(max(x, -1.0), 1.0), "vee": lambda x: min(abs(x), 1.0),
    }
    parts = []
    for part in member.name.split("*"):
        name, _, index = part.rstrip("]").partition("[")
        f = forms.get(name) or (lambda x: min(max(4.0 * (x - c), 0.0), 1.0))  # ramp
        if index == "sum":
            parts.append(lambda xs, _f=f: sum(_f(x) for x in xs))
        else:
            parts.append(lambda xs, _f=f, _j=int(index or 0): _f(xs[_j]))
    return lambda xs: math.prod(p(xs) for p in parts)


def _gaussian_pdf(mean, std):
    return lambda x: math.exp(-0.5 * ((x - mean) / std) ** 2) / (std * math.sqrt(2 * math.pi))


_TRI = (lambda x: x if x < 1 else 2 - x, 0, 2, (1.0,))  # triangular(0, 2)
_UNIT = (lambda x: 1.0, 0, 1, ())  # uniform(0, 1)
_PHI = _gaussian_pdf(3.0, 1.0)
_POSTERIOR_Z = _quad(lambda x: _TRI[0](x) * _PHI(x), 0, 2, (1.0,), 1e-13)
#: each measure's densities, written by hand
_DENSITIES = {
    "uniform(0, 1) * gaussian(0, 1)": [_UNIT, (_gaussian_pdf(0.0, 1.0), -12, 12, ())],
    "triangular(0, 2) * uniform(0, 1)": [_TRI, _UNIT],
    "gamma(2.5, 1)": [(lambda x: x ** 1.5 * math.exp(-x) / math.gamma(2.5), 0, 60, ())],
    "reweight(fun x : R => 1/sqrt(2*pi) * exp(-1/2*(3-x)*(3-x)), triangular(0, 2))": [
        (lambda x: _TRI[0](x) * _PHI(x) / _POSTERIOR_Z, 0, 2, (1.0,))
    ],
}


@pytest.mark.parametrize("measure", list(_DENSITIES))
def test_default_family_agrees_with_the_scalar_path(measure):
    # the batched rule against scipy's quad on the hand-written densities
    m = parse_measure(measure)
    densities = _DENSITIES[measure]
    for member in build_family(m):
        batched = integrate(m, member)
        points = member.breakpoints if len(densities) == 1 else ()
        want = _iterated_quad(_math_member(member), densities, points=points)
        assert abs(batched - want) <= 1e-7, member.name


def _outcome(compute):
    """('value', v), ('error', (position, message with its numbers masked)),
    ('warning', class name) or ('nonconvergence', message)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            return "value", compute()
        except EvalError as err:
            return "error", (err.pos, re.sub(r"-?(\d[\d.e+-]*|nan|inf)", "#", err.message))
        except IntegrationWarning as w:
            return "warning", type(w).__name__
        except IntegrationError as err:
            assert "does not converge" in str(err)
            return "nonconvergence", str(err)


def test_random_terms_with_a_comparison_integrate_as_on_the_scalar_path():
    # tests/test_eval.py's random bodies, as 1-D and 2-D pushforwards, against
    # scipy's quad on the hand-written densities of their bases: where quad
    # returns, the batched rule agrees within the tolerance or reports that
    # it does not converge, and where a scalar function raises, the batched
    # rule raises too.  The two may raise at different nodes, so that the
    # error names another builtin or number: the batched rule raises at its
    # first failing node in node order, quad at the first one it evaluates
    from test_eval import _random_body

    rng = random.Random(5)
    x, cos = (m for m in build_family(M.UniformM(0, 1)) if m.name in ("x", "cos1x"))
    diff = Builtin("minus", (Var("u"), Var("v")), pos=(9, 9))
    bases = (
        (M.UniformM(-1.0, 3.0), [(lambda x: 0.25, -1.0, 3.0, ())]),
        (M.ProductM(M.UniformM(0, 1), M.GaussianM(0.5, 1.0)),
         [_UNIT, (_gaussian_pdf(0.5, 1.0), -9.5, 10.5, ())]),
    )
    kinds: dict = {}
    nonconvergent = []
    terms = 0
    while terms < 60:
        body = _random_body(rng, ["x"], 4)
        lam = Lam((("x", None),), body)
        scrutinees = [t.scrutinee for _, t in positions(lam) if isinstance(t, Case)]
        if not any(isinstance(t, Builtin) and t.op in COMPARISONS for t in scrutinees):
            continue
        with np.errstate(all="ignore"):
            if compile_array_fn(lam) is None:
                continue
        terms += 1
        lam2 = Lam((("u", None), ("v", None)), Let("x", diff, body))
        for fn, (base, densities) in zip((lam, lam2), bases):
            m = M.PushforwardM(fn, base)
            f = term_fn(fn)
            point = (lambda xs: f(xs[0])) if len(densities) == 1 else (lambda xs: f(xs))
            for member in (x, cos):
                g = _math_member(member)
                batched = _outcome(lambda: integrate(m, member, CHECK_SETTINGS))
                oracle = _outcome(lambda: _iterated_quad(
                    lambda xs: g((float(point(xs)),)), densities, CHECK_SETTINGS.abs_tol
                ))
                kinds[batched[0], oracle[0]] = kinds.get((batched[0], oracle[0]), 0) + 1
                if batched[0] == "nonconvergence":
                    assert oracle[0] != "error", (fn, member.name)
                    nonconvergent.append((terms, len(densities), member.name))
                elif oracle[0] == "value":
                    assert batched[0] == "value", (fn, member.name)
                    assert abs(batched[1] - oracle[1]) <= 1e-4 * max(1.0, abs(oracle[1])), fn
                elif oracle[0] == "error":
                    assert batched[0] == "error", (fn, member.name)
                else:  # quad warns
                    assert batched[0] == "value", (fn, member.name)
    assert kinds[("value", "value")] > 100 and kinds[("error", "error")] > 50
    # the 52nd term's four integrals need more than QUAD_LIMIT intervals; quad
    # warns on three and returns 0.1127429 on the fourth (converged: 0.1127524)
    assert nonconvergent == [(52, 1, "x"), (52, 1, "cos1x"), (52, 2, "x"), (52, 2, "cos1x")]


def test_domain_error_on_the_batched_path_raises_as_on_the_scalar_path():
    fn = parse_term("fun x : R => log(x - 1)")
    base = parse_measure("uniform(0, 2)")
    with pytest.raises(EvalError) as scalar:
        integrate(base, term_fn(fn))
    with pytest.raises(EvalError) as batched:
        normalizer(fn, base)
    assert str(batched.value) == str(scalar.value)
    assert batched.value.pos == (1, 14) and "log of non-positive" in str(batched.value)
    # the test function `one` is 1 at a nan point, so the point is checked too
    pushed = M.PushforwardM(fn, base)
    one = {member.name: member for member in build_family(M.UniformM(0, 1))}["one"]
    with pytest.raises(EvalError) as batched:
        integrate(pushed, one)
    with pytest.raises(EvalError) as scalar:
        integrate(pushed, lambda v: one(v))
    assert str(batched.value) == str(scalar.value)


def test_domain_error_that_does_not_reach_the_value_still_raises():
    # log(x) < 0 is False where log fails in array mode; at the first node
    # its fault mask marks, the scalar function raises
    fn = parse_term("fun x : R => if log(x) < 0 then 1 else 2")
    base = parse_measure("uniform(-1, 2)")
    with pytest.raises(EvalError, match="log of non-positive") as batched:
        normalizer(fn, base)
    with pytest.raises(EvalError) as scalar:
        integrate(base, term_fn(fn))
    assert str(batched.value) == str(scalar.value)


def test_branch_not_taken_neither_warns_nor_falls_back(monkeypatch):
    def per_node(*args):
        raise AssertionError("ran a scalar function node by node")

    monkeypatch.setattr(quadrature, "_per_node", per_node)
    m = parse_measure(
        "pushforward(fun x : R => if x > 0.5 then sqrt(x - 0.5) else 0, uniform(0, 1))"
    )
    x = {member.name: member for member in build_family(m)}["x"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert abs(integrate(m, x) - 2 / 3 * 0.5 ** 1.5) <= 1e-9
        value = normalizer(parse_term("fun x : R => if x > 0.5 then sqrt(x - 0.5) else 1"),
                           parse_measure("uniform(0, 1)"))
    assert abs(value - (0.5 + 2 / 3 * 0.5 ** 1.5)) <= 1e-9


def test_row_that_does_not_converge_is_not_silent(monkeypatch):
    # with too few intervals allowed, the batched rule gives up and says so
    monkeypatch.setattr(quadrature, "QUAD_LIMIT", 3)
    m = parse_measure("pushforward(fun x : R => if x < 1/3 then 1 else 0, uniform(0, 1))")
    one = {member.name: member for member in build_family(m)}["x"]
    with pytest.raises(IntegrationError, match=r"over \[0, 1\] does not converge within 3 .*tolerance 1e-09"):
        integrate(m, one)


def test_an_integral_past_its_node_budget_is_not_silent(monkeypatch):
    # the budget counts the integrand nodes of every row and axis together
    monkeypatch.setattr(quadrature, "NODE_BUDGET", 100)
    m = parse_measure("uniform(0, 1) * uniform(0, 2)")
    with pytest.raises(IntegrationError, match=r"over \[0, 1\] x \[0, 2\] needs more than 100 integrand nodes"):
        integrate(m, parse_term("fun (x : R, y : R) => exp(x * y)"))


def test_integrate_without_a_cache_integrates_a_normalizer_once(monkeypatch):
    m = parse_measure("uniform(0, 1) * reweight(fun x : R => x, uniform(0, 1))")
    calls, over_base = [], []
    inner, array_integral = quadrature.integrate, quadrature._array_integral

    def counting(*args, **kwargs):
        calls.append(args[0])
        return inner(*args, **kwargs)

    def counting_array(m_, *args):
        if m_ is m.right.base:
            over_base.append(m_)
        return array_integral(m_, *args)

    monkeypatch.setattr(quadrature, "integrate", counting)
    monkeypatch.setattr(quadrature, "_array_integral", counting_array)
    snd = lambda p: p[1]  # noqa: E731
    values, counts = [], []
    for cache in (None, {}):
        calls.clear()
        over_base.clear()
        values.append(quadrature.integrate(m, snd, cache=cache))
        counts.append((len(calls), len(over_base)))
    assert values[0] == values[1] and abs(values[0] - 2 / 3) <= 1e-9
    # the normalizer is one array integral over the reweight's base either way
    assert counts[0] == counts[1] and counts[0][0] <= 23 and counts[0][1] == 1


def test_bundled_normalizer_proofs_make_few_scalar_evaluations(monkeypatch, capsys):
    # the scalar calls that bench/tracing.py counts as quadrature.scalar_evals
    count = [0]

    def counted(fn):
        def scalar(*args):
            count[0] += 1
            return fn(*args)

        return scalar

    term_fn_inner = quadrature.term_fn
    monkeypatch.setattr(quadrature, "term_fn", lambda fn: counted(term_fn_inner(fn)))
    monkeypatch.setattr(TestFn, "__call__", counted(TestFn.__call__))
    for name in ("marsaglia", "rejection"):
        argv = ["verify", str(proof_path(name)), "--axioms", str(corpus_dir() / f"{name}.smpl")]
        assert main(argv) == 0
    assert "accept:" in capsys.readouterr().out
    assert count[0] < 10_000


def _ulps(a: float, b: float) -> int:
    return abs(int(np.float64(a).view(np.int64)) - int(np.float64(b).view(np.int64)))


def test_gamma_cutoff_matches_the_scipy_stats_quantile():
    # scipy.stats serves as the oracle: gamma.ppf(p) solves Q(a, x) = 1 - p
    # as gamma_cutoff does.  36 of the 50 points of the grid are bit-identical
    # with it, and every point is within 1 ulp of the exact quantile (checked
    # with mpmath at 40 digits), where scipy is up to 5 ulp away (at shape 100)
    from scipy import special, stats

    p = 1.0 - GAMMA_TAIL
    q = 1.0 - p
    grid = [
        (shape, scale)
        for shape in (0.3, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.75, 10.0, 40.0)
        for scale in (0.1, 0.5, 1.0, 2.0, 3.7)
    ]
    for shape, scale in grid + [(a, 1.0) for a in (0.01, 0.05, 100.0, 1000.0, 1e4)]:
        want = float(stats.gamma.ppf(p, shape, scale=scale))
        hi = gamma_cutoff(shape, scale)
        if (shape, scale) in ((0.5, 1.0), (2.0, 1.0), (2.5, 1.0)):
            # the shapes of the corpus, the bench and the tests
            assert hi.hex() == want.hex(), (shape, scale)
        assert _ulps(hi, want) <= 4, (shape, scale, hi, want)
        assert special.gammaincc(shape, hi / scale) == pytest.approx(q, rel=1e-9), (shape, scale)
