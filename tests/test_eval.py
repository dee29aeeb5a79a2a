import gc
import json
import math
import random
import re
import weakref

import numpy as np
import pytest

from samplerlang import runtime, streams
from samplerlang.builtins import SIGNATURES, EvalError, apply_builtin, signature
from samplerlang.corpus import load_corpus, proof_path
from samplerlang.interpreter import Interpreter
from samplerlang.parser import parse_measure, parse_program, parse_term
from samplerlang.runtime import VInj, WeightedList, _CodeGen, compile_array_fn, value_equal
from samplerlang.quadrature import term_fn
from samplerlang.streams import StreamEvaluator, truncate
from samplerlang.terms import (
    COMPARISONS,
    App,
    Builtin,
    Case,
    Const,
    Fst,
    Hd,
    Inj,
    Lam,
    Let,
    Map,
    Pair,
    Reweight,
    Var,
    Wt,
    children,
    ite,
    positions,
)
from samplerlang.typecheck import check_program


@pytest.fixture(scope="module")
def corpus():
    return {it.name: it for it in load_corpus()}


def interp(src: str) -> Interpreter:
    return Interpreter(parse_program(src))


# -- big-step examples --------------------------------------------------------


def test_prng_halving():
    it = interp("prng(fun x : R => x/2, 1)")
    assert it.big_step(3).entries == [(1, 1.0), (0.5, 1.0), (0.25, 1.0)]


def test_self_pair_is_correlated():
    it = interp("let t = prng(fun x : R => x/2, 1) in t <*> t")
    assert it.big_step(2).entries == [((1, 1), 1.0), ((0.5, 0.5), 1.0)]


def test_thinned_alternator_is_constant():
    it = interp("thin(2, prng(fun x : R => 1 - x, 0))")
    assert it.big_step(3).entries == [(0, 1.0), (0, 1.0), (0, 1.0)]


def test_hd_of_map_applies_function():
    it = interp("let t = prng(fun x : R => x/2, 1) in hd(map(fun x : R => x * 10, t))")
    assert it.big_step(4) == 10


def test_self_product_groups_adjacent():
    it = interp("let t = prng(fun x : R => x/2, 1) in t^2")
    assert it.big_step(2).entries == [((1, 0.5), 1.0), ((0.25, 0.125), 1.0)]


def test_reweight_weights():
    it = interp("reweight(fun x : R => x + 1, prng(fun x : R => x/2, 1))")
    got = it.big_step(2).entries
    assert got == [(1, 2.0), (0.5, 1.5)]


# -- builtins -----------------------------------------------------------------


def test_builtin_plus():
    assert apply_builtin("plus", [0.25, 0.75]) == 1.0


def test_builtin_equality_is_diagonal():
    assert apply_builtin("eq", [(0, 0)]) is True
    assert apply_builtin("eq", [(0, 1)]) is False


def test_box_muller_formula():
    # matches sqrt(-2*log(u1)) * cos(2*pi*u2)
    box = parse_term("fun u : R+ * R+ => sqrt(-2*log(fst(u))) * cos(2*pi*snd(u))")
    it = Interpreter(parse_program("prng(fun x : R => x, 0)"))
    ev = StreamEvaluator(it.externs)
    clo = ev.eval(box, {})
    got = ev.apply(clo, (0.5, 0.25))
    want = math.sqrt(-2 * math.log(0.5)) * math.cos(2 * math.pi * 0.25)
    assert got == want


@pytest.mark.parametrize(
    "src", ["sqrt(0 - 1)", "log(0)", "1/0", "log(0 - 2)"]
)
def test_domain_errors(src):
    it = interp("prng(fun x : R => x, 0)")
    with pytest.raises(EvalError):
        it.big_step(1, parse_term(src))


_RAND = "extern sampler rand : S R+ targets uniform(0, 1) equidistributed 1\n"


@pytest.mark.parametrize(
    "body",
    [
        "map(fun x : R+ => log(x - 1), rand)",
        "reweight(fun x : R+ => exp(log(x - 1)), rand)",
    ],
)
def test_compiled_domain_error_matches_big_step(body):
    # the stream engine runs the function compiled; big-step interprets it
    src = _RAND + body
    check_program(parse_program(src))
    with pytest.raises(EvalError) as big:
        interp(src).big_step(3)
    with pytest.raises(EvalError) as stream:
        truncate(interp(src).stream(), 3)
    log_pos = (2, body.index("log") + 1)
    assert big.value.pos == stream.value.pos == log_pos
    assert str(stream.value) == str(big.value)
    assert "log of non-positive number" in str(stream.value)


def test_term_fn_domain_error_matches_big_step():
    lam = parse_term("fun x : R => log(x - 1)")
    with pytest.raises(EvalError) as big:
        interp("prng(fun x : R => x, 0)").big_step(1, App(lam, Const(0.5)))
    with pytest.raises(EvalError) as quad:
        term_fn(lam)(0.5)
    assert big.value.pos == quad.value.pos == (1, 14)
    assert str(quad.value) == str(big.value)


def test_erroring_closed_subterm_in_untaken_branch():
    f = term_fn(parse_term("fun x : R => if x > 0 then x else 1/0"))
    assert f(1.0) == 1.0
    with pytest.raises(EvalError) as err:
        f(-1.0)
    assert err.value.pos == (1, 36)
    assert err.value.message == "division by zero"


def _outcome(run):
    """('value', v) or ('error', message, position) of run()."""
    try:
        return ("value", run())
    except EvalError as err:
        return ("error", str(err), err.pos)


@pytest.mark.parametrize(
    "src, xs",
    [
        # a repeated call that fails: the first one raises
        ("fun x : R => log(x - 1) + log(x - 1)", (0.5, 3.0)),
        # computed in a branch only: the call after the if computes it again
        ("fun x : R => (if x > 0 then log(x) else 0) + log(x)", (-1.0, 2.0)),
        ("fun x : R => let a = log(x + 2) in if x > 0 then log(x + 2) else a * log(x + 2)",
         (-3.0, -1.0, 2.0)),
        # inside a nested function that uses the outer parameter
        ("fun x : R => let g = fun y : R => log(x - 1) + y in g(1) + log(x - 1)", (0.5, 3.0)),
        ("fun x : R => let a = log(x - 1) in let g = fun y : R => log(x - 1) * y in a + g(2)",
         (0.5, 3.0)),
    ],
)
def test_repeated_builtin_calls_match_big_step(src, xs):
    lam = parse_term(src)
    it = interp("prng(fun x : R => x, 0)")
    fn = term_fn(lam)
    kinds = set()
    for x in xs:
        big = _outcome(lambda: it.big_step(1, App(lam, Const(x))))
        got = _outcome(lambda: fn(x))
        kinds.add(got[0])
        if big[0] == "value":
            assert got[0] == "value" and value_equal(big[1], got[1]), (src, x)
        else:
            assert got == big, (src, x)
    assert kinds == {"value", "error"}


def test_stated_marsaglia_accept_computes_its_cube_once():
    # the stated target has marsaglia's `let v = (1 + c*x)^3` substituted:
    # 0.22645540682891918 * x occurs nine times in the accept function
    stated = parse_measure(json.loads(proof_path("marsaglia").read_text())["judgment"]["target"])
    accept = stated.base.fn
    gen = _CodeGen({})
    gen.function("_fn", accept.params, accept.body, {}, 0)
    assert sum("= 0.22645540682891918 * " in line for line in gen.lines) == 1


def test_marsaglia_produce_projects_and_computes_once():
    # produce is d*(1+c*snd(z))^3: the power repeats snd(z) and 1 + c*snd(z)
    # three times, and equal projections are numbered like builtins
    produce = parse_term("fun z : R * R => d*(1+c*snd(z))^3", {"d", "c"})
    gen = _CodeGen({"d": 2.1666666666666665, "c": 0.22645540682891918})
    gen.function("_fn", produce.params, produce.body, {}, 0)
    assert sum("[1]" in line for line in gen.lines) == 1
    assert sum(" = 1 + " in line for line in gen.lines) == 1


def _random_body(rng, scope, depth):
    """A random sampler-free term over the names in scope."""
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.6:
            return Var(rng.choice(scope))
        return Const(rng.choice([0, 2, 0.5, -1.0, 2.5, -0.0]))
    fresh = f"v{rng.randrange(4)}"

    def sub():
        return _random_body(rng, scope, depth - 1)

    def inner():
        return _random_body(rng, scope + [fresh], depth - 1)

    def builtin(ops, *args):
        return Builtin(rng.choice(ops), args, pos=(1, depth))

    return rng.choice([
        lambda: builtin(("plus", "minus", "times", "div"), sub(), sub()),
        lambda: builtin(("neg", "sqrt", "log", "exp", "cos", "abs"), sub()),
        lambda: ite(builtin(COMPARISONS, Pair(sub(), sub())), sub(), sub()),
        lambda: Let(fresh, sub(), inner()),
        lambda: App(Lam(((fresh, None),), inner()), sub()),
        lambda: Fst(Pair(sub(), sub())),
        lambda: Case(Inj(rng.randrange(2), sub()), ((fresh, inner()), (fresh, inner()))),
    ])()


def test_compiled_functions_match_big_step():
    # big-step evaluates every argument and let-bound term first, as the
    # compiled function does, so a compiled result implies the same
    # big-step result, bit for bit
    rng = random.Random(7)
    it = interp("prng(fun x : R => x, 0)")
    compared = 0
    for _ in range(300):
        lam = Lam((("x", None),), _random_body(rng, ["x"], 4))
        fn = term_fn(lam)
        for x in (0.5, -1.0, 3.0):
            try:
                got = fn(x)
            except EvalError:
                continue
            assert value_equal(it.big_step(1, App(lam, Const(x))), got), lam
            compared += 1
    assert compared > 500


# -- the array backend ----------------------------------------------------------


def _reaches_an_injection(t) -> bool:
    """Whether t has an injection outside every case branch, which every
    evaluation of t reaches."""
    if isinstance(t, Inj):
        return True
    if isinstance(t, Case):
        return _reaches_an_injection(t.scrutinee)
    return any(_reaches_an_injection(kid) for kid in children(t))


def test_array_backend_refuses_the_terms_that_reach_an_injection():
    # of what _random_body builds, array mode refuses only an injection; one
    # inside a case branch is not reached when a known scrutinee folds the
    # case to the other branch
    rng = random.Random(7)
    lams = [Lam((("x", None),), _random_body(rng, ["x"], 4)) for _ in range(300)]
    with np.errstate(all="ignore"):  # constants folded to nan or inf
        refused = [compile_array_fn(lam) is None for lam in lams]
    has_inj = [any(isinstance(t, Inj) for _, t in positions(lam)) for lam in lams]
    reached = [_reaches_an_injection(lam.body) for lam in lams]
    assert all(h for r, h in zip(refused, has_inj) if r)
    assert all(r for r, must in zip(refused, reached) if must)
    assert 0 < sum(reached) <= sum(refused) < len(lams)
    with_comparison = [
        lam for lam in lams
        if any(isinstance(t, Builtin) and t.op in COMPARISONS for _, t in positions(lam))
    ]
    with np.errstate(all="ignore"):
        assert sum(compile_array_fn(lam) is not None for lam in with_comparison) > 30
    # a case on a parameter, on a Boolean parameter or on an injection; a
    # unit constant; an application of a function that is not a lambda of
    # the body
    by_param = Case(Var("x"), (("a", Var("a")), ("b", Var("b"))))
    assert compile_array_fn(Lam((("x", None),), by_param)) is None
    for src in (
        "fun p : B * R => if fst(p) then snd(p) else 0",
        "fun x : R => case inj(0, x) of { a => a | b => b }",
        "fun x : R => (x, ())",
        "fun p : (R -> R) * R => fst(p)(snd(p))",
    ):
        assert compile_array_fn(parse_term(src)) is None, src


def test_array_backend_matches_the_scalar_backend():
    # every builtin, exp, log, cos and sin included, is the same numpy
    # function in both
    xs = np.array([0.5, -1.0, 3.0, 0.0, 2.0])
    rng = random.Random(7)
    compared = 0
    for _ in range(3000):
        lam = Lam((("x", None),), _random_body(rng, ["x"], 4))
        with np.errstate(all="ignore"):
            array_fn = compile_array_fn(lam)
            if array_fn is None:
                continue
            got = np.broadcast_to(array_fn(xs), xs.shape)
        scalar_fn = term_fn(lam)
        for x, value in zip(xs.tolist(), got.tolist()):
            try:
                want = scalar_fn(x)
            except EvalError:
                continue
            assert value == want or (math.isnan(value) and math.isnan(want)), (lam, x)
            compared += 1
    assert compared > 4000
    # a let-bound lambda is inlined where it is applied: nan exactly where
    # the scalar function raises, whichever branch applies it
    for src, points in [
        ("fun x : R => let g = fun y : R => log(y) in if g(x) < 0 then 1 else 2", [-1.0]),
        ("fun x : R => let g = fun y : R => log(y) in if x > 0 then g(x) else 0", [-1.0, 2.0]),
        ("fun x : R => let g = fun y : R => sqrt(y) in g(x) + g(x + 1)", [-0.5, 3.0]),
    ]:
        lam = parse_term(src)
        with np.errstate(all="ignore"):
            array_fn = compile_array_fn(lam)
            assert array_fn is not None, src
            got = np.broadcast_to(array_fn(np.array(points)), (len(points),)).tolist()
        for x, value in zip(points, got):
            try:
                term_fn(lam)(x)
            except EvalError:
                assert math.isnan(value), (src, x)
            else:
                assert math.isfinite(value), (src, x)


def test_array_backend_matches_the_scalar_backend_across_comparisons():
    # both branches run at every point and np.where selects one; where the
    # scalar function returns, the selected branch gives the same float
    xs = np.array([0.5, -1.0, 3.0, 0.0, 2.0, -0.0, 0.25])
    rng = random.Random(11)
    compared = 0
    for _ in range(6000):
        lam = Lam((("x", None),), _random_body(rng, ["x"], 4))
        subterms = [t for _, t in positions(lam)]
        scrutinees = [t.scrutinee for t in subterms if isinstance(t, Case)]
        if not any(isinstance(t, Builtin) and t.op in COMPARISONS for t in scrutinees):
            continue
        with np.errstate(all="ignore"):
            array_fn = compile_array_fn(lam)
            if array_fn is None:
                continue
            got = np.broadcast_to(array_fn(xs), xs.shape)
        scalar_fn = term_fn(lam)
        for x, value in zip(xs.tolist(), got.tolist()):
            try:
                want = scalar_fn(x)
            except EvalError:
                continue
            assert value == want or (math.isnan(value) and math.isnan(want)), (lam, x)
            compared += 1
    assert compared > 1200


def test_array_fault_masks_mark_the_points_where_the_scalar_function_fails():
    # with fault masks, array mode gives nan wherever the scalar function
    # raises, taken branches and values that never reach the result included,
    # and the scalar function's value wherever it returns one, inf and nan
    # included: a builtin fails where its domain test holds, in every mode
    xs = np.array([0.5, -1.0, 3.0, 0.0, 2.0, -0.0, 0.25, 800.0])
    rng = random.Random(13)
    counts = {"failed": 0, "returned": 0, "non-finite": 0}

    def compare(lam):
        with np.errstate(all="ignore"):
            got = np.broadcast_to(compile_array_fn(lam)(xs), xs.shape)
        scalar_fn = term_fn(lam)
        for x, value in zip(xs.tolist(), got.tolist()):
            try:
                want = scalar_fn(x)
            except EvalError:
                assert math.isnan(value), (lam, x)
                counts["failed"] += 1
                continue
            assert value == want or (math.isnan(value) and math.isnan(want)), (lam, x)
            counts["returned"] += 1
            counts["non-finite"] += not math.isfinite(want)

    for _ in range(3000):
        lam = Lam((("x", None),), _random_body(rng, ["x"], 4))
        if compile_array_fn(lam) is not None:
            compare(lam)
    assert counts["failed"] > 800 and counts["returned"] > 4000
    # values past the floats, which no domain test marks: 1 / (x * 1e-310)
    # is inf where x * 1e-310 is not 0, and 0 * inf is nan
    for src in (
        "fun x : R => let y = 1 / (x * 1e-310) in 1",
        "fun x : R => if abs(1 / (x * 1e-310)) > 0 then 1 else 0",
        "fun x : R => 1 / (x * 1e-310)",
        "fun x : R => 0 * (x * 1e308 * 10)",
        "fun x : R => log(exp(x)) - x * 1e308 * 10",
    ):
        compare(parse_term(src))
    assert counts["non-finite"] > 10
    # failures that do not reach the value: a log only compared, and one
    # first computed in a branch, then reused after it
    for src in (
        "fun x : R => if log(x) < 0 then 1 else 2",
        "fun x : R => let a = (if x > 0 then log(x) else 0) in if log(x) < 0 then a else 2",
    ):
        hidden = parse_term(src)
        with pytest.raises(EvalError):
            term_fn(hidden)(-1.0)
        with np.errstate(all="ignore"):
            assert np.isnan(compile_array_fn(hidden)(np.array([-1.0]))).all()


# the edges of the builtins: signed zeros, subnormals, 1 ± 1 ulp, the
# largest float whose exp is finite and the float after it, ±1e22, where cos
# and sin need a full argument reduction, and the non-finite floats
_EXP_MAX = 709.782712893384
_EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, -2.225073858507201e-308,
    math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0),
    _EXP_MAX, math.nextafter(_EXP_MAX, math.inf), -_EXP_MAX, 1e22, -1e22,
    math.inf, -math.inf, math.nan,
]
#: where each partial builtin raises, and what
_FAILS = {
    "exp": (lambda x: math.isfinite(x) and x > _EXP_MAX, "builtin 'exp' failed: math range error"),
    "log": (lambda x: x <= 0, "log of non-positive number"),
    "cos": (math.isinf, "builtin 'cos' failed: math domain error"),
    "sin": (math.isinf, "builtin 'sin' failed: math domain error"),
    "div": (lambda a, b: b == 0, "division by zero"),
    "sqrt": (lambda x: x < 0, "sqrt of negative number"),
}


@pytest.mark.parametrize("op", [sig.name for sig in SIGNATURES if sig.ufunc])
def test_scalar_and_columnar_transcendentals_agree_bit_for_bit(op):
    # one implementation per row of the builtin table: where its domain test
    # is false, the scalar function on each value, the row's ufunc and
    # columnar mode on the whole columns give the same bits; where it is
    # true, the scalar function raises and the column faults.  A binary
    # builtin takes every pair of edges and the spread against itself,
    # shuffled; a comparison takes its pair as one argument
    sig = signature(op)
    comparison = sig.continuity == "comparison"

    def scalar(*args):
        return apply_builtin(op, [args] if comparison else list(args))

    def column(n, *args):
        if comparison:
            return runtime._compare(runtime._SPECS[f"_cmp_{op}"], *args, n)
        return runtime._op(runtime._SPECS[f"_op_{op}"], n, *args)

    rng = np.random.default_rng(34)
    spread = rng.standard_normal(100_000) * 10.0 ** rng.uniform(-3, 3, 100_000)
    if sig.arity == 1 and not comparison:
        cols = [np.concatenate([np.abs(spread) if op == "log" else spread, _EDGES])]
    else:
        grid = np.meshgrid(_EDGES, _EDGES)
        cols = [np.concatenate([s, g.ravel()]) for s, g in zip((spread, rng.permutation(spread)), grid)]
    fails, message = _FAILS.get(op, (lambda *args: False, None))
    rows = list(zip(*(c.tolist() for c in cols)))
    bad = np.array([fails(*row) for row in rows])
    if sig.fails is not None:
        assert np.array_equal(bad, sig.fails(*cols))
    edges = bad[len(spread):]
    assert not edges.all() and edges.any() == (sig.fails is not None)
    for row in (row for row, b in zip(rows, bad.tolist()) if b):
        with pytest.raises(EvalError) as err:
            scalar(*row)
        assert err.value.message.startswith(message), (op, row)
        with pytest.raises(runtime._Fault):
            column(2, *(np.array([1.0, x]) for x in row))
    ok = [c[~bad] for c in cols]
    want = np.array([scalar(*row) for row in zip(*(c.tolist() for c in ok))])
    with np.errstate(all="ignore"):  # inf - inf and the like, which Python makes nan
        direct = getattr(np, sig.ufunc)(*ok)
        got = column(len(want), *ok)
    assert got.dtype == direct.dtype == want.dtype == (bool if comparison else np.float64)
    assert got.tobytes() == direct.tobytes() == want.tobytes()


def test_log_of_an_int_beyond_the_floats_is_maths():
    # such an int is an object column's entry, so the column runs the scalar
    # function, which keeps math's value
    big = 10**400
    assert apply_builtin("log", [big]) == math.log(big)
    got = runtime._op(runtime._SPECS["_op_log"], 2, np.array([big, 10], dtype=object))
    assert got.tolist() == [math.log(big), apply_builtin("log", [10])]
    with pytest.raises(EvalError, match="int too large to convert to float"):
        apply_builtin("exp", [big])


def test_box_muller_compiles_to_one_call_per_builtin_without_try():
    # the transform of test_shared_grid_gives_the_same_integrals
    box = parse_term(
        "fun w : R+ * R+ * R+ => (fst(w), sqrt(-2 * log(fst(snd(w)))) * cos(2 * pi * snd(snd(w))))"
    )
    assert compile_array_fn(box) is not None
    gen = _CodeGen({}, array=True)
    gen.function("_fn", box.params, box.body, {}, 0)
    source = "\n".join(gen.lines)
    assert "try:" not in source
    # one ufunc call and one domain test per builtin
    calls = [len(re.findall(rf"\b{stem}{op}\(", source)) for stem in ("_", "_fails_") for op in ("log", "sqrt", "cos")]
    assert calls == [1] * 6


# -- invariants ---------------------------------------------------------------


def _check_shape(value, n):
    assert isinstance(value, WeightedList)
    assert len(value.entries) == n
    for v, w in value.entries:
        assert w >= 0 and math.isfinite(w)
        assert not isinstance(v, WeightedList) or all(
            x[1] >= 0 for x in v.entries
        )


def test_weighted_list_shape_all_corpus(corpus):
    for name, item in corpus.items():
        for n in (1, 5):
            _check_shape(Interpreter(item.program).big_step(n), n)


def test_weight_law_product(corpus):
    src = """
extern sampler rand : S R+ targets uniform(0, 1)
reweight(fun x : R => x, rand) <*> reweight(fun x : R => x + 1, rand)
"""
    it = Interpreter(parse_program(src))
    pairs = it.big_step(20)
    # each factor on a new interpreter, so neither reads a memo the other filled
    left = Interpreter(it.program).big_step(
        20, parse_term("reweight(fun x : R => x, rand)", {"rand"})
    )
    right = Interpreter(it.program).big_step(
        20, parse_term("reweight(fun x : R => x + 1, rand)", {"rand"})
    )
    for (pv, pw), (lv, lw), (rv, rw) in zip(pairs.entries, left.entries, right.entries):
        assert pw == lw * rw
        assert pv == (lv, rv)


def test_thin_index_law(corpus):
    it = Interpreter(corpus["geometric"].program)
    base = it.stream()
    thinned = it.stream(parse_term("thin(3, prng(fun x : R => x/2, 1))"))
    for n in range(1, 20):
        assert value_equal(thinned.entry(n), base.entry((n - 1) * 3 + 1))


def test_determinism_bit_exact(corpus):
    for name, item in corpus.items():
        a = Interpreter(item.program).big_step(50)
        b = Interpreter(item.program).big_step(50)
        assert value_equal(a, b), name


def test_tl_shares_parent_memo():
    # a prng core iterated through tl must not recompute: the tail view hits
    # the same memoized core
    it = interp("prng(fun x : R => x/2, 1)")
    stream = it.stream()
    tail = stream.tail()
    assert tail.core is stream.core
    assert tail.entry(1) == stream.entry(2)
    # s^4 is thin(4, s <*> tl(s) <*> tl(tl(s)) <*> tl(tl(tl(s)))): entry 100
    # reads s at 397..400, so a prefix of 100 demands the 400 entries of the
    # shared core, the seed and 399 steps, not 4 * 400
    it2 = interp("let s = prng(fun x : R => x/2, 1) in s^4")
    prod_stream = it2.stream()
    prng_core = prod_stream.core.parents[0].core
    step = prng_core.apply_fn
    calls = []

    def counted(v):
        calls.append(v)
        return step(v)

    prng_core.apply_fn = counted
    prod_stream.prefix(100)
    assert len(calls) == 399


# -- block pulls --------------------------------------------------------------

_F = "fun x : R+ => x * 3"
_COMPOSITIONS = [
    f"thin(3, tl(map({_F}, rand)))",
    "let s = map(fun x : R+ => x + 1, rand) in s <*> tl(s)",
    f"let s = map({_F}, rand) in thin(2, tl(s)) <*> thin(3, s)",
    "let s = reweight(fun x : R+ => x, rand) in map(fun p : R+ * R+ => fst(p), s <*> thin(2, s))",
    "thin(2, tl(thin(3, rand)))",
    "let t = prng(fun x : R => x/2, 1) in tl(t) <*> thin(2, t)",
]


def _entries(stream, idx):
    """The block of a stream at the indices idx, as lists of runtime values."""
    values, weights, err = stream.block(idx)
    return runtime.column_values(values), weights.tolist(), err


def _same_entries(got, want):
    return len(got) == len(want) and all(value_equal(g, w) for g, w in zip(got, want))


def _programs(corpus):
    yield from ((name, item.program) for name, item in corpus.items())
    yield from ((body, parse_program(_RAND + body)) for body in _COMPOSITIONS)


def test_prefix_equals_entrywise(corpus):
    n = 40
    for name, program in _programs(corpus):
        block = Interpreter(program).stream().prefix(n)
        single = Interpreter(program).stream()
        assert _same_entries(block, [single.entry(i) for i in range(1, n + 1)]), name
        # entries read out of order first leave holes in the memos that a
        # later prefix fills
        mixed = Interpreter(program).stream()
        scattered = [mixed.entry(i) for i in (17, 3, 30, 4, 5, 29)]
        assert _same_entries(scattered, [block[i - 1] for i in (17, 3, 30, 4, 5, 29)]), name
        assert _same_entries(mixed.prefix(n), block), name
        assert _same_entries(mixed.prefix(n + 7), Interpreter(program).stream().prefix(n + 7)), name


def test_hd_wt_after_prefix():
    src = _RAND + "reweight(fun x : R+ => x + 1, map(fun x : R+ => x * x, rand))"
    it = interp(src)
    stream = it.stream()
    entries = stream.prefix(10)
    ev = StreamEvaluator(it.externs)
    env = {"s": stream}
    for k in range(4):
        view = parse_term("tl(" * k + "s" + ")" * k, {"s"})
        assert ev.eval(Hd(view), env) == entries[k][0]
        assert ev.eval(Wt(view), env) == entries[k][1]
    assert ev.eval(Hd(parse_term("thin(3, tl(s))", {"s"})), env) == entries[1][0]


def _errors(src, n):
    """The errors of a prefix and of entry-wise reads, from fresh interpreters."""
    with pytest.raises(EvalError) as block:
        interp(src).stream().prefix(n)
    stream = interp(src).stream()
    with pytest.raises(EvalError) as single:
        for i in range(1, n + 1):
            stream.entry(i)
    assert str(block.value) == str(single.value)
    assert block.value.pos == single.value.pos
    return block.value


_HALVING = "prng(fun x : R => x/2, 1)"  # 1, 0.5, 0.25, 0.125, ...


@pytest.mark.parametrize(
    "body, failing",
    [
        # the outer map fails at index 2, the inner reweight at index 4
        ("map(fun x : R => log(x - 0.5), reweight(fun x : R => sqrt(x - 0.2), H))",
         "log(x - 0.5)"),
        # the outer map fails at index 4, the inner reweight at index 3
        ("map(fun x : R => log(x - 0.2), reweight(fun x : R => sqrt(x - 0.3), H))",
         "sqrt(x - 0.3)"),
        # both factors of a product fail at index 3: the left one is raised
        ("map(fun x : R => log(x - 0.25), H) <*> map(fun x : R => log(x - 0.25), H)",
         "log(x - 0.25)"),
        # the right factor fails first, at index 2 against the left's 4
        ("map(fun x : R => log(x - 0.125), H) <*> map(fun x : R => sqrt(x - 0.3), tl(H))",
         "sqrt(x - 0.3)"),
        # the step function fails computing entry 4 (2, log 2, log log 2, ...)
        ("thin(2, prng(fun x : R => log(x), 2))", "log(x)"),
        ("prng(fun x : R => log(x), 2) <*> map(fun x : R => log(x - 0.25), H)",
         "log(x - 0.25)"),
    ],
)
def test_prefix_raises_the_lowest_index_error(body, failing):
    src = body.replace("H", _HALVING)
    err = _errors(src, 10)
    assert err.pos == (1, src.index(failing) + 1)
    assert err.message.startswith(("log of", "sqrt of")[failing.startswith("sqrt")])


@pytest.mark.parametrize("body", [
    "thin(2, s) <*> s",
    "let t = map(fun x : R => x + 1, s) in thin(2, t) <*> (t <*> s)",
])
def test_a_shared_memo_that_fails_at_its_first_missing_entry(body):
    # thin(2, s) fills s's odd entries (thin(2, t), t's); the full read then
    # computes the missing even ones, and the first of them, entry 2, fails;
    # t pulls s at the list of its missing entries
    src = "let s = map(fun x : R => log(x), prng(fun x : R => 0 - x, 1.0)) in " + body
    program = parse_program(src)
    check_program(program)
    with pytest.raises(EvalError) as big:
        Interpreter(program).big_step(10)
    with pytest.raises(EvalError) as st:
        truncate(Interpreter(program).stream(), 10)
    assert (st.value.message, st.value.pos) == (big.value.message, big.value.pos)
    assert big.value.pos == (1, src.index("log(") + 1)
    values, weights, err = _entries(Interpreter(program).stream(), range(1, 5))
    assert len(values) == len(weights) == 1 and err.pos == big.value.pos


def test_gather_at_no_index_gives_an_empty_column():
    assert streams._gather(np.arange(3.0), []).shape == (0,)
    assert streams._gather(np.ones(3, bool), range(1, 1)).shape == (0,)


def test_negative_reweight_factor_raises():
    src = "reweight(fun x : R => x - 0.3, " + _HALVING + ")"
    assert len(interp(src).stream().prefix(2)) == 2
    err = _errors(src, 3)
    assert "negative weight" in err.message


# -- fused pipelines -----------------------------------------------------------


def test_boundary_entry_raises_the_left_layer_before_the_short_leaf():
    # at index 4 the left map's log fails, and the right leaf's step function
    # fails computing its entry 4: the left layer's error is the one raised
    body = ("map(fun p : R * R => fst(p), map(fun x : R => log(x - 0.125), H)"
            " <*> prng(fun x : R => log(x), 2))")
    src = body.replace("H", _HALVING)
    err = _errors(src, 10)
    assert err.pos == (1, 47)
    assert len(interp(src).stream().prefix(3)) == 3


def test_negative_factors_that_would_cancel_still_raise():
    # (-1) * (-1) is 1, but the inner reweight's factor is checked on its own
    src = "reweight(fun x : R => 0 - 1, reweight(fun x : R => 0 - 2, " + _HALVING + "))"
    err = _errors(src, 3)
    assert err.message == "negative weight -2 from reweight"


def test_reweights_multiply_in_engine_order():
    # an integer factor times a float weight is a float, layer by layer
    src = "reweight(fun x : R => 3, reweight(fun x : R => x + 1, " + _HALVING + "))"
    got = interp(src).stream().prefix(5)
    assert all(type(w) is float for _, w in got)
    assert _same_entries(got, interp(src).big_step(5).entries)


def test_chain_through_a_closure_that_builds_a_sampler():
    # the middle map's body builds a sampler, so the pipeline calls the
    # evaluator for it, in the same loop as the layers around it
    body = ("map(fun x : R => x * 2, map(fun x : R => hd(map(fun y : R => y + x, rand)),"
            " reweight(fun x : R+ => x + 1, rand)))")
    program = parse_program(_RAND + body)
    check_program(program)
    stream = Interpreter(program).stream()
    got = stream.prefix(30)
    assert [type(leaf.core).__name__ for leaf in stream.core._leaves] == ["ExternCore"]
    assert _same_entries(got, Interpreter(program).big_step(30).entries)


@pytest.mark.parametrize("body", [
    "let f = fun y : R => y * 2 in map(fun x : R => map(f, tl(rand)), rand)",
    "map(fun x : R => rand <*> tl(rand), rand)",
])
def test_a_pipeline_built_per_entry_is_generated_once(body, monkeypatch):
    # the inner sampler is a new pipeline at each entry of the outer one, and
    # truncate reads 40 entries of each through its columnar function; with
    # the same layer functions, that function is generated once, not per entry
    made = []
    generate = runtime._generate_pipeline
    monkeypatch.setattr(runtime, "_generate_pipeline", lambda *args: made.append(args) or generate(*args))
    program = parse_program(_RAND + body)
    check_program(program)
    got = truncate(Interpreter(program).stream(), 40)
    # the outer pipeline and the inner one, one columnar function each
    assert len(made) <= 2
    assert value_equal(got, Interpreter(program).big_step(40))


@pytest.mark.parametrize("body", [
    # the map's closure holds the reweight's closure in its environment
    "let phi = fun x : R => x + 1 in"
    " reweight(phi, map(fun u : R * R => fst(u) + snd(u), rand <*> tl(rand)))",
    # the map's closure is called through the evaluator
    "let f = fun y : R => y * 2 in map(fun x : R => hd(map(f, tl(rand))), rand)",
])
def test_kept_pipelines_free_their_evaluation_without_the_cycle_collector(body):
    # a pipeline's function is kept on its first closure: no cycle may keep
    # the closures, the evaluator and its extern columns alive
    src = _RAND + body
    gc.disable()
    try:
        stream = interp(src).stream()
        stream.prefix(10)
        refs = [weakref.ref(stream.core.fn), weakref.ref(stream.core.apply.__self__)]
        del stream
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_let_bound_sampler_used_twice_computes_each_entry_once():
    src = _RAND + "let s = map(fun x : R+ => x * 3, rand) in s <*> tl(s)"
    stream = interp(src).stream()
    shared = stream.core.parents[0].core
    assert shared is stream.core.parents[1].core and shared.shared
    computed = []
    compute = shared._compute

    def counted(idx):
        computed.extend(idx)
        return compute(idx)

    shared._compute = counted
    got = stream.prefix(20)
    got += stream.prefix(30)[20:]
    assert sorted(computed) == list(range(1, 32))
    assert _same_entries(got, interp(src).big_step(30).entries)


def test_let_bound_sampler_used_once_is_fused():
    src = _RAND + "let s = map(fun x : R+ => x * 3, rand) in map(fun x : R+ => x + 1, s)"
    stream = interp(src).stream()
    got = stream.prefix(40)
    inner = stream.core.parents[0].core
    assert not inner.shared and inner._known is None  # computed inline, never pulled
    plain = _RAND + "map(fun x : R+ => x + 1, map(fun x : R+ => x * 3, rand))"
    assert _same_entries(got, interp(plain).stream().prefix(40))
    assert _same_entries(got, interp(src).big_step(40).entries)


def test_self_product_is_fused_through_its_thin():
    # rand^3 is thin(3, rand <*> tl(rand) <*> tl(tl(rand))): the product is
    # read only through the thin, so the map reads the extern's columns
    src = _RAND + "map(fun p : R+ * (R+ * R+) => fst(p) + fst(snd(p)), rand^3)"
    stream = interp(src).stream()
    got = stream.prefix(30)
    assert [(leaf.a, leaf.b) for leaf in stream.core._leaves] == [(3, -2), (3, -1), (3, 0)]
    assert _same_entries(got, interp(src).big_step(30).entries)


def test_functions_made_per_entry_keep_their_own_entry():
    src = _RAND + "map(fun x : R+ => fun y : R => x + y, rand)"
    fns = [f for f, _ in interp(src).stream().prefix(5)]
    xs = [x for x, _ in interp(_RAND + "rand").stream().prefix(5)]
    assert [f(1.0) for f in fns] == [x + 1.0 for x in xs]


# -- columnar blocks against entry-wise reads ------------------------------------


def _exact(value):
    """A runtime value's Python types and float bits, for comparison."""
    if type(value) is float:
        return ("float", value.hex())
    if type(value) is tuple:
        return ("tuple", tuple(map(_exact, value)))
    if type(value) is VInj:
        return ("inj", value.index, _exact(value.value))
    return (type(value).__name__, value)


def _block_matches_entries(program, n, term=None):
    """Compare a block of n entries with n entry-wise reads, each from a
    fresh interpreter: every value and weight, then the error, its position
    and its index.  Returns the index that fails, or None."""
    values, weights, err = _entries(Interpreter(program).stream(term), range(1, n + 1))
    single = Interpreter(program).stream(term)
    for i in range(1, n + 1):
        try:
            value, weight = single.entry(i)
        except EvalError as want:
            assert err is not None and len(values) == i - 1, (i, len(values), err)
            assert (str(err), err.pos) == (str(want), want.pos)
            return i
        assert i <= len(values), (i, err)
        assert _exact(values[i - 1]) == _exact(value), i
        assert _exact(weights[i - 1]) == _exact(weight), i
    assert err is None and len(values) == n
    return None


_EXTERNS = _RAND + "extern sampler flip : S B targets bernoulli(0.3) equidistributed 1\nrand\n"


@pytest.mark.parametrize("chunk", [streams.CHUNK, 16, 59])
def test_columnar_blocks_of_random_bodies_match_entrywise_reads(chunk, monkeypatch):
    # bodies whose constants include 0, 2 and -0.0, as map and reweight
    # layers over a real and over a Boolean extern, and over ints; with
    # 16-entry chunks, a block is several calls of the columnar function,
    # and with 59-entry chunks it ends in a call on one entry
    monkeypatch.setattr(streams, "CHUNK", chunk)
    # the columnar function gives way to entry-wise evaluation only where an
    # entry fails
    gave_way = []
    columns = streams.PipeCore._columns
    monkeypatch.setattr(
        streams.PipeCore, "_columns", lambda *args: columns(*args) or gave_way.append(1)
    )
    program = parse_program(_EXTERNS)
    counter = parse_term("prng(fun k : N => k + 1, 0)")
    rng = random.Random(11)
    failures = 0
    for _ in range(40):
        lam = Lam((("x", None),), _random_body(rng, ["x"], 4))
        for layer in (Map, Reweight):
            for leaf in (Var("rand"), Var("flip"), counter):
                failures += _block_matches_entries(program, 60, layer(lam, leaf)) is not None
    assert 0 < failures < 240
    assert len(gave_way) == failures


@pytest.mark.parametrize("body, kinds", [
    # an int and a float in one column
    ("map(fun x : R => if x < 0.5 then 1 else 0.5, rand)", {int, float}),
    # unbounded ints: 3^k passes 2^63 at k = 40, and compares exactly with
    # 2^53 + 1 and with a float
    ("map(fun k : N => (k * 2, (k < 9007199254740993, k < 1.5e30)),"
     " prng(fun k : N => k * 3, 1))", {tuple}),
    # ints past 2^53 against floats, which they equal only as rounded
    ("map(fun p : N * R => (fst(p) > snd(p), (snd(p) < 9007199254740993, fst(p) * 0.5)),"
     " prng(fun k : N => k + 1, 9007199254740990) <*> prng(fun x : R => x + 1.0, 9007199254740990.0))",
     {tuple}),
    # ints of both branches merged
    ("map(fun k : N => if k < 5 then k * 2 else k + 1, prng(fun k : N => k + 1, 0))", {int}),
    # a layer refused for a sampler built in one of its branches
    ("map(fun x : R => if x < 0.5 then hd(map(fun y : R => y + x, rand)) else x, rand)", {float}),
    # a branch that would fail, never taken, and one taken where it succeeds
    ("map(fun x : R => if x < 2 then x else log(0 - 1), rand)", {float}),
    ("map(fun x : R => if x > 0.5 then log(x - 0.5) else sqrt(0.5 - x), rand)", {float}),
    # inf, then nan, through maps, a reweight and comparisons
    ("reweight(fun p : R * R => fst(p) - fst(p) + 1,"
     " map(fun x : R => let y = x - x in (sqrt(y) + log(x), exp(y)),"
     " prng(fun x : R => x * 1000, 1.5)))", {tuple}),
])
def test_columnar_blocks_keep_types_and_bits(body, kinds):
    program = parse_program(_RAND + body)
    assert _block_matches_entries(program, 200) is None
    got = Interpreter(program).stream().prefix(200)
    assert {type(v) for v, _ in got} == kinds
    assert all(type(w) is float for _, w in got)


def test_columnar_block_ints_pass_two_to_the_sixty_three():
    program = parse_program("map(fun k : N => k * 2, prng(fun k : N => k * 3, 1))")
    got = Interpreter(program).stream().prefix(100)
    assert [v for v, _ in got] == [2 * 3**k for k in range(100)]
    assert max(v for v, _ in got) > 2**63


def test_int_columns_hold_only_ints_that_convert_to_floats_exactly():
    bound = runtime.INT_BOUND
    assert float(bound) == bound and float(bound + 1) != bound + 1
    assert runtime.column([0, 1, -bound, bound]).dtype == np.int64
    for values in ([bound + 1], [-bound - 1], [0, 2**63], [1, True], [1, 0.5]):
        assert type(runtime.column(values)) is list, values
    assert runtime.column([True, False]).dtype == bool


def _kinds(col):
    """A column's kind: its dtype's name, `list`, or a pair of kinds."""
    if type(col) is runtime.Pairs:
        return _kinds(col.left), _kinds(col.right)
    return str(col.dtype) if type(col) is np.ndarray else type(col).__name__


@pytest.mark.parametrize("chunk", [streams.CHUNK, 16])
@pytest.mark.parametrize("body, kinds", [
    # a 0/1 acceptance test as a value and as a weight, and an int constant
    ("map(fun x : R => if x < 0.5 then 1 else 0, rand)", "int64"),
    ("reweight(fun x : R => if x < 0.5 then 0 else 1, rand)", "float64"),
    ("map(fun x : R => 1, rand)", "int64"),
    # ±2^53, which compare exactly with the floats beside them, and which
    # meet floats in arithmetic and as weights
    ("map(fun x : R => let k = if x < 0.5 then 9007199254740992 else 0 - 9007199254740992 in"
     " (k, (k < 9007199254740991.0, k * 0.5 + x)), rand)", ("int64", ("bool", "float64"))),
    ("reweight(fun x : R => if x < 0.5 then 9007199254740992 else 1, rand)", "float64"),
    # 2^53 + 1, which an int64 column would compare with 2.0^53 as equal
    ("map(fun x : R => let k = if x < 0.5 then 9007199254740993 else 0 in"
     " (k, k > 9007199254740992.0), rand)", ("list", "bool")),
    # two int operands stay Python ints, past 2^63
    ("map(fun x : R => let k = if x < 0.5 then 9007199254740992 else 3 in k * k - k, rand)", "list"),
    # ints and floats in one column, as values and as weights
    ("map(fun x : R => if x < 0.5 then 1 else 0.5, rand)", "list"),
    ("reweight(fun x : R => if x < 0.5 then 1 else 0.5, rand)", "float64"),
    # a Boolean branch stays Boolean
    ("map(fun x : R => if x < 0.5 then x < 0.25 else 0.75 < x, rand)", "bool"),
])
def test_engines_agree_bit_for_bit_on_int_branches(body, kinds, chunk, monkeypatch):
    # with 16-entry chunks, chunks of one kind meet chunks of another
    monkeypatch.setattr(streams, "CHUNK", chunk)
    program = parse_program(_RAND + body)
    check_program(program)
    got = truncate(Interpreter(program).stream(), 600)
    want = Interpreter(program).big_step(600)
    assert list(map(_exact, got.entries)) == list(map(_exact, want.entries))
    assert _kinds(got.values) == kinds
    assert got.weights.dtype == np.float64


def test_an_object_column_of_floats_and_ints_within_the_bound_converts_to_floats():
    bound = runtime.INT_BOUND
    for values in ([1, 0.5], [bound, -bound, 0.5], [1e300, 1], [-0.0, 0]):
        floats = runtime._as_float(np.array(values, dtype=object), True)
        assert floats.dtype == np.float64
        assert list(map(_exact, floats.tolist())) == [_exact(float(v)) for v in values]
    # a bool, an int past the bound (even one that rounds to it), or one
    # past the floats stays entry by entry
    for values in ([True, 0.5], [bound + 1, 0.5], [-bound - 1, 0.5], [2**1100, 0.5], [(), 0.5]):
        assert runtime._as_float(np.array(values + [None], dtype=object)[:-1], True) is None, values


@pytest.mark.parametrize("body, entrywise", [
    # the branches of ints and floats meet floats on whole columns
    ("reweight(fun x : R => if x < 0.5 then 1 else 0.5, rand)", False),
    ("map(fun x : R => (if x < 0.5 then 1 else 0.5) * x, rand)", False),
    ("map(fun x : R => let k = if x < 0.5 then 2 else 0.25 in (k < 1.5, k - x), rand)", False),
    # an int past INT_BOUND still runs entry by entry
    ("map(fun x : R => (if x < 0.5 then 9007199254740993 else 0.5) * x, rand)", True),
])
def test_a_branch_of_ints_and_floats_runs_as_its_entries_do(body, entrywise, monkeypatch):
    program = parse_program(_RAND + body)
    check_program(program)
    want = Interpreter(program).big_step(600)
    calls = []
    each = runtime._each
    monkeypatch.setattr(runtime, "_each", lambda *args: calls.append(args) or each(*args))
    got = truncate(Interpreter(program).stream(), 600)
    assert list(map(_exact, got.entries)) == list(map(_exact, want.entries))
    assert bool(calls) == entrywise
    assert _block_matches_entries(program, 600) is None


def test_columnar_block_fails_at_the_entry_where_a_layer_fails():
    # log(0) at entry 50,000 of a 100,000-entry block: the entries before it
    # come back, with the error at that entry
    body = "map(fun x : R => sqrt(x) + log(x), prng(fun x : R => x - 1, 49999.0))"
    program = parse_program(body)
    assert _block_matches_entries(program, 100000) == 50000
    values, _, err = _entries(Interpreter(program).stream(), range(1, 100001))
    assert len(values) == 49999 and err.message == "log of non-positive number 0.0"
    assert err.pos == (1, body.index("log(") + 1)


def test_known_closures_run_as_columns():
    # marsaglia's box and rejection's phi are inlined, not called per entry
    calls = []
    compile_fn = runtime.compile_fn

    def counted(clo):
        fn = compile_fn(clo)
        return None if fn is None else (lambda v: calls.append(v) or fn(v))

    corpus_programs = {it.name: it.program for it in load_corpus()}
    for name in ("marsaglia", "rejection", "importance", "von_neumann"):
        stream = Interpreter(corpus_programs[name]).stream()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(runtime, "compile_fn", counted)
            patch.setattr(streams, "compile_fn", counted)
            stream.prefix(1000)
        assert calls == [], name


# -- adequacy (the cross-engine oracle, small n; acceptance runs the ladder) --


def test_truncate_identity_on_ground():
    assert truncate(3.5, 10) == 3.5


def test_truncate_stream_prefix():
    it = interp("prng(fun x : R => x/2, 1)")
    out = truncate(it.stream(), 2)
    assert out.entries == [(1, 1.0), (0.5, 1.0)]


def test_adequacy_small(corpus):
    for name, item in corpus.items():
        for n in (1, 7):
            big = Interpreter(item.program).big_step(n)
            st = truncate(Interpreter(item.program).stream(), n)
            assert value_equal(big, st), (name, n)


# programs that the stream engine evaluates by interpretation, not through
# compiled functions: an application of a closure that builds a sampler,
# pairs and their projections, a case on a non-constant condition, and a
# mapped closure that builds a sampler of its own
_INTERPRETED = [
    "let twice = fun s : S R+ => map(fun x : R => 2 * x, s) in twice(rand)",
    "let p = (rand, tl(rand)) in snd(p) <*> fst(p)",
    "if 1 < 2 then rand else tl(rand)",
    "map(fun x : R => hd(map(fun y : R => log(y + x), rand)), rand)",
]


@pytest.mark.parametrize("body", _INTERPRETED)
def test_interpreted_stream_paths_match_big_step(body):
    program = parse_program(_RAND + body)
    check_program(program)
    for n in (1, 7, 30):
        big = Interpreter(program).big_step(n)
        st = truncate(Interpreter(program).stream(), n)
        assert value_equal(big, st), n


def test_interpreted_stream_error_matches_big_step():
    body = "map(fun x : R => hd(map(fun y : R => log(y - x), rand)), rand)"
    program = parse_program(_RAND + body)
    check_program(program)
    with pytest.raises(EvalError) as big:
        Interpreter(program).big_step(5)
    with pytest.raises(EvalError) as st:
        truncate(Interpreter(program).stream(), 5)
    assert str(st.value) == str(big.value)
    assert big.value.pos == st.value.pos == (2, body.index("log(") + 1)


# -- the engines agree where a builtin fails in an argument or a let ------------


@pytest.mark.parametrize("body", [
    # the failing let is never used
    "map(fun x : R+ => let a = log(x - 2) in x, rand)",
    # the let's value is used only inside a nested function
    "map(fun x : R => let a = log(x - 1) in let g = fun y : R => log(x - 1) * y in g(a), rand)",
    # an argument that fails, to a function that ignores it
    "map(fun x : R => (fun y : R => x)(sqrt(x - 2)), rand)",
])
def test_engines_raise_the_same_error_in_an_unused_let_or_argument(body):
    program = parse_program(_RAND + body)
    check_program(program)
    with pytest.raises(EvalError) as big:
        Interpreter(program).big_step(2)
    with pytest.raises(EvalError) as st:
        truncate(Interpreter(program).stream(), 2)
    assert (str(big.value), big.value.pos) == (str(st.value), st.value.pos)
    assert big.value.pos[0] == 2


def test_big_step_evaluates_a_failing_let_where_compiled_functions_do():
    lam = parse_term("fun x : R => let a = log(x - 1) in let g = fun y : R => log(x - 1) * y in g(a)")
    it = interp("prng(fun x : R => x, 0)")
    with pytest.raises(EvalError) as big:
        it.big_step(1, App(lam, Const(0.5)))
    with pytest.raises(EvalError) as compiled:
        term_fn(lam)(0.5)
    assert big.value.pos == compiled.value.pos == (1, 22)
    assert str(big.value) == str(compiled.value)


def test_sampler_arguments_are_still_substituted():
    # an unused sampler argument whose entries fail is never read, and a
    # sampler argument is read at the entries its uses ask for
    for body in ("let s = map(fun x : R => log(x - 2), rand) in hd(rand)",
                 "(fun s : S R => hd(tl(s)))(map(fun x : R => x * 2, rand))"):
        program = parse_program(_RAND + body)
        check_program(program)
        assert value_equal(Interpreter(program).big_step(3), Interpreter(program).stream())


# -- big-step over environments: every name is bound to a value ---------------


def _engines_agree(body, n=16):
    """The outcome of big-step at n entries, after checking that the stream
    engine's is the same: values bit for bit, errors by message and
    position."""
    program = parse_program(_RAND + body)
    big = _outcome(lambda: Interpreter(program).big_step(n))
    stream = _outcome(lambda: truncate(Interpreter(program).stream(), n))
    assert big[0] == stream[0]
    if big[0] == "value":
        assert value_equal(big[1], stream[1]) and len(big[1]) == n
    else:
        assert big == stream
    return big


def test_a_closure_keeps_its_binding_after_the_name_is_shadowed():
    got = _engines_agree("let x = 0.25 in let f = fun y : R => y + x in let x = 0.75 in map(f, rand)")
    uniforms = interp(_RAND + "rand").big_step(16).values
    assert got[1].values == [u + 0.25 for u in uniforms]


@pytest.mark.parametrize("body", [
    # a parameter group bound to a data pair
    "let g = fun (a : R, b : R) => a * 10 + b in map(fun x : R => g((x, x + 1)), rand)",
    # bound to a pair of samplers, each component read at its own use's entries
    "(fun (s : S R+, t : S R+) => s <*> tl(t))((rand, map(fun x : R+ => x * 2, rand)))",
    "(fun (s : S R+, t : S R+) => thin(2, s) <*> t)((rand, map(fun x : R+ => x * 2, rand)))",
    # a case binder that shadows a let, which the other branch reads
    "let a = 100 in map(fun x : R => case (if x < 0.5 then inj(0, x) else inj(1, x * 2))"
    " of { a => a + 1 | b => b * a }, rand)",
    # a sampler argument read at entry i and at entry i + 1
    "(fun s : S R+ => s <*> tl(s))(map(fun x : R+ => x + 1, rand))",
])
def test_big_step_binds_names_as_the_stream_engine_does(body):
    assert _engines_agree(body)[0] == "value"


@pytest.mark.parametrize("body, failing", [
    # an unused argument that reads a let-bound sampler's entry is evaluated first
    ("let s = rand in (fun y : R => rand)(hd(map(fun x : R => log(0 - x), s)))", "log(0 - x)"),
    ("let s = map(fun x : R => log(0 - x), rand) in (fun y : R => rand)(hd(map(fun x : R => x, s)))",
     "log(0 - x)"),
    # an unused pair argument that reads an entry
    ("map(fun x : R => (fun p : R * R => x)((x, log(0 - x))), rand)", "log(0 - x)"),
    # an unused let that applies a let-bound function, or a function entry
    ("let f = fun y : R => log(y) in map(fun x : R => let z = f(0 - x) in x, rand)", "log(y)"),
    ("map(fun f : R -> R => let y = f(0 - 1) in 1, map(fun x : R => fun y : R => log(y), rand))",
     "log(y)"),
])
def test_a_data_argument_that_reads_a_bound_name_is_evaluated_first(body, failing):
    check_program(parse_program(_RAND + body))
    assert _engines_agree(body)[::2] == ("error", (2, body.index(failing) + 1))


def test_both_engines_give_the_same_outcome_on_the_recorded_fault_programs(streams_tool):
    # the `run` and `run --engine bigstep` operations that tools/streams.py
    # records: neither engine computes an entry that tl, thin or hd
    # discards, both evaluate an unused argument or let first, and both
    # apply a function to sampler-valued entries
    outcomes = {}
    for label, body, n in streams_tool.FAULTS:
        check_program(parse_program(streams_tool._RAND + body))
        outcomes[label] = _engines_agree(body, n)[0]
    assert outcomes == {
        "thin of a failing entry": "value",
        "tl of a failing entry": "value",
        "hd of a failing entry": "value",
        "unused failing argument": "error",
        "unused failing let": "error",
        "sampler-valued entries": "value",
    }


# -- no numpy scalar or array reaches a runtime value ----------------------------

_STREAMS = {
    "float": "rand",
    "bool": "flip",
    "int then float": "prng(fun x : R => x / 2, 1)",
    "pair": "rand^2",
    "bool pair": "flip <*> map(fun x : R => x < 0.5, rand)",
    "reweighted": "reweight(fun x : R => x * 2, map(fun x : R => x + 1, rand))",
    "sum": "map(fun x : R => if x < 0.5 then inj(0, x) else inj(1, x < 0.7), rand)",
    "pair of sum": "map(fun x : R => (x, if x < 0.5 then inj(0, x) else inj(1, 1)), rand) <*> flip",
    "int": "map(fun x : R => if x < 0.5 then 1 else 0, rand)",
    "int constant": "map(fun x : R => 1, rand)",
    "reweighted by ints": "reweight(fun x : R => if x < 0.5 then 0 else 1, rand)",
    "int pair": "map(fun x : R => (if x < 0.5 then 1 else 0, 0 - 9007199254740992), rand)"
                " <*> prng(fun k : N => k + 1, 0)",
    "int payload": "map(fun x : R => if x < 0.5 then inj(0, 1) else inj(1, 2), rand)",
}


def _runtime_only(value) -> bool:
    """Whether a value is made of runtime values only, with no numpy
    scalar or array anywhere in it."""
    if type(value) is tuple:
        return all(map(_runtime_only, value))
    if type(value) is VInj:
        return _runtime_only(value.value)
    return type(value) in (float, int, bool)


@pytest.mark.parametrize("name", list(_STREAMS))
def test_no_numpy_value_leaves_the_engines(name):
    program = parse_program(_EXTERNS.removesuffix("rand\n") + _STREAMS[name])
    n = 2049
    stream = Interpreter(program).stream()
    reads = [
        *stream.prefix(n),
        *(stream.entry(i) for i in (1, 7, n)),
        *truncate(Interpreter(program).stream(), n).entries,
        *Interpreter(program).big_step(n).entries,
    ]
    for op in (Hd, Wt):
        reads.append(Interpreter(program).stream(op(program.body)))
        reads.append(Interpreter(program).big_step(3, op(program.body)))
    assert len(reads) == 3 * n + 7
    assert all(map(_runtime_only, reads)), name


def test_a_shared_product_keeps_its_columns_through_memos_and_pipelines():
    # the let-bound product's memo holds one column per side, which a map
    # reads as its leaf and thin reads through a view, after scattered reads
    body = "let s = rand <*> tl(rand) in map(fun p : R+ * R+ => fst(p) - snd(p), s) <*> thin(2, s)"
    program = parse_program(_RAND + body)
    stream = Interpreter(program).stream()
    scattered = [stream.entry(i) for i in (17, 3, 30)]
    want = Interpreter(program).big_step(40).entries
    assert _same_entries(stream.prefix(40), want)
    assert _same_entries(scattered, [want[i - 1] for i in (17, 3, 30)])
    assert type(truncate(Interpreter(program).stream(), 40).values) is runtime.Pairs


# -- a prng's steps, one call of the step's compiled function each ------------


def _counted_steps(monkeypatch) -> list:
    """A one-element list that counts the calls of every function that
    compile_fn hands out from now on, which are wrapped for it wherever
    compile_fn was imported, as the bench tracer wraps them."""
    calls = [0]
    compile_fn = runtime.compile_fn

    def counted(clo):
        fn = compile_fn(clo)
        if fn is None:
            return None

        def step(arg):
            calls[0] += 1
            return fn(arg)

        return step

    for module in (runtime, streams):
        monkeypatch.setattr(module, "compile_fn", counted)
    return calls


@pytest.mark.parametrize("step, seed", [
    ("fun x : R => x / 2", "1"),  # ints, then floats
    ("fun k : N => k * 3", "1"),  # past 2^63
    ("fun p : R * R => (snd(p), fst(p) + snd(p))", "(0.5, 1.5)"),  # pairs
    ("fun x : R => if x < 0.5 then x * 3 else x - 0.25", "0.1"),  # branches
])
def test_a_prng_loop_matches_its_steps_one_call_each(step, seed, monkeypatch):
    # the stream engine's entries are big-step's premise chain, bit for bit,
    # each computed by one call of the step's compiled function
    program = parse_program(f"prng({step}, {seed})")
    calls = _counted_steps(monkeypatch)
    got = Interpreter(program).stream().prefix(200)
    assert calls[0] == 199
    assert _same_entries(got, Interpreter(program).big_step(200).entries)


def test_a_prng_pull_calls_its_step_once_per_new_entry(monkeypatch):
    calls = _counted_steps(monkeypatch)
    stream = Interpreter(parse_program("prng(fun x : R => x / 2, 1)")).stream()
    assert len(stream.prefix(5000)) == 5000
    assert calls[0] == 4999
    stream.prefix(5000)  # read from the memo
    assert calls[0] == 4999


def test_a_prng_loop_that_fails_keeps_the_values_before_it():
    # log(x) fails at x = 0.0, the step from entry 3001: the entries before
    # it come back, with big-step's error, which big-step raises when it
    # reads entry 3002, whose premise chain takes that step
    body = "prng(fun x : R => x - 1 + 0 * log(x), 3000.0)"
    program = parse_program(body)
    values, weights, err = _entries(Interpreter(program).stream(), range(1, 5001))
    assert values == [float(3000 - i) for i in range(3001)] and weights == [1.0] * 3001
    with pytest.raises(EvalError) as want:
        Interpreter(program).big_step(3002)
    assert (err.message, err.pos) == (want.value.message, want.value.pos)
    assert err.pos == (1, body.index("log(") + 1)
    assert Interpreter(program).stream().prefix(3001) == [(v, 1.0) for v in values]
