import json
import math
import random

import numpy as np
import pytest

from samplerlang.builtins import EvalError, apply_builtin
from samplerlang.corpus import load_corpus, proof_path
from samplerlang.interpreter import Interpreter
from samplerlang.parser import parse_measure, parse_program, parse_term
from samplerlang.runtime import WeightedList, _CodeGen, compile_array_fn, value_equal
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
    Pair,
    Var,
    Wt,
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
    # the stream engine runs the function compiled; big-step substitutes
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
    # call-by-value evaluates every subterm that substitution does, so a
    # compiled result implies the same big-step result, bit for bit
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


def test_array_backend_refuses_exactly_the_terms_with_a_case():
    # comparisons and injections occur in _random_body only under a case
    rng = random.Random(7)
    lams = [Lam((("x", None),), _random_body(rng, ["x"], 4)) for _ in range(300)]
    with np.errstate(all="ignore"):  # constants folded to nan or inf
        refused = [compile_array_fn(lam) is None for lam in lams]
    assert refused == [any(isinstance(t, Case) for _, t in positions(lam)) for lam in lams]
    assert 0 < sum(refused) < len(lams)
    # a case whose scrutinee is a parameter, not a comparison or injection
    by_param = Case(Var("x"), (("a", Var("a")), ("b", Var("b"))))
    assert compile_array_fn(Lam((("x", None),), by_param)) is None


def test_array_backend_matches_the_scalar_backend():
    # numpy's log, exp and cos may differ from math's in the last bit, so
    # only the correctly rounded builtins are compared
    exact = {"plus", "minus", "times", "div", "neg", "sqrt", "abs"}
    xs = np.array([0.5, -1.0, 3.0, 0.0, 2.0])
    rng = random.Random(7)
    compared = 0
    for _ in range(3000):
        lam = Lam((("x", None),), _random_body(rng, ["x"], 4))
        ops = {t.op for _, t in positions(lam) if isinstance(t, Builtin)}
        if not ops <= exact:
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
    assert compared > 4000


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
    assert [source.count(f"_{op}(") for op in ("log", "sqrt", "cos")] == [1, 1, 1]


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
    left = it.fresh().big_step(20, parse_term("reweight(fun x : R => x, rand)", {"rand"}))
    right = it.fresh().big_step(
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
    prng_core = prod_stream.core.left.core
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


def test_negative_reweight_factor_raises():
    src = "reweight(fun x : R => x - 0.3, " + _HALVING + ")"
    assert len(interp(src).stream().prefix(2)) == 2
    err = _errors(src, 3)
    assert "negative weight" in err.message


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
