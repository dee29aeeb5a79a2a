import math

import numpy as np
import pytest
from scipy.integrate import quad

from samplerlang import measures as M
from samplerlang.builtins import EvalError
from samplerlang.parser import parse_measure, parse_term
from samplerlang.quadrature import (
    SideConditionError,
    UnsupportedDimension,
    build_family,
    integrate,
    measure_equal,
    reduce_discrete,
    support_box,
    term_fn,
)
from samplerlang.runtime import VClosure, VInj, apply_value
from samplerlang.target import CHECK_SETTINGS


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
        a = integrate(TRI_PUSH, member, g_breakpoints=member.breakpoints)
        b = integrate(M.TriangularM(0, 2), member, g_breakpoints=member.breakpoints)
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
    shared: dict = {}
    for member in family:
        alone = integrate(computed, member, CHECK_SETTINGS, member.breakpoints, {})
        cached = integrate(computed, member, CHECK_SETTINGS, member.breakpoints, shared)
        assert cached.hex() == alone.hex(), member.name
    assert [key[0] for key in shared] == ["grid"]


def test_constant_coordinate_of_a_3d_pushforward():
    mu = parse_measure(
        "pushforward(fun w : R * (R * R) => (fst(w), (fst(snd(w)), 1.0)), uniform(0, 1)^3)"
    )
    values = {member.name: integrate(mu, member) for member in build_family(mu, slim=True)}
    assert abs(values["x[2]"] - 1.0) <= 1e-12
    assert abs(values["cos1x[2]"] - math.cos(1)) <= 1e-12


def test_nan_discrepancy_makes_measures_unequal():
    # log(u - 2) is nan on the whole 3-D grid, so x[0] integrates to nan
    computed = parse_measure(
        "pushforward(fun w : R * (R * R) => (log(fst(w) - 2), (fst(snd(w)), snd(snd(w)))),"
        " uniform(0, 1)^3)"
    )
    stated = parse_measure("gaussian(5, 1) * (uniform(0, 1) * uniform(0, 1))")
    with np.errstate(invalid="ignore"):
        report = measure_equal(computed, stated)
    assert math.isnan(dict(report.details)["x[0]"])
    assert not report.equal
    assert math.isnan(report.max_discrepancy)


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


def _same_float(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


@pytest.mark.parametrize(
    "measure",
    [
        M.UniformM(0, 1),
        M.TriangularM(0, 2),
        M.GaussianM(0, 1),
        M.ProductM(M.UniformM(0, 1), M.GaussianM(0, 1)),
        M.PowerM(M.UniformM(-1, 2), 3),
    ],
)
@pytest.mark.parametrize("slim", [False, True])
def test_family_scalar_form_matches_array_form(measure, slim):
    rng = np.random.default_rng(3)
    family = build_family(measure, slim=slim)
    dims = len(support_box(measure))
    edges = [0.0, -0.0, 1.0, -1.0, 0.25, 2.0, math.inf, -math.inf, math.nan]
    edges += [b for m in family for b in m.breakpoints]
    coords = [[x] * dims for x in edges] + rng.uniform(-3, 3, (200, dims)).tolist()
    with np.errstate(invalid="ignore"):
        for member in family:
            assert member.point_fn is not None, member.name
            for xs in coords:
                point = xs[0] if dims == 1 else tuple(xs)
                want = float(member.on_cols([np.asarray([x]) for x in xs])[0])
                assert _same_float(member(point), want), (member.name, xs)


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


def test_test_functions_read_an_injection_as_its_payload():
    for member in build_family(M.UniformM(0, 1)):
        assert member(VInj(1, 0.25)) == member(0.25)
        assert member(True) == member(1.0)
