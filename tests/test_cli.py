import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import samplerlang

from samplerlang import quadrature
from samplerlang.cli import CSV_BLOCK_ROWS, _csv_blocks, _sum_tagger, main
from samplerlang.config import Config
from samplerlang.corpus import corpus_dir, load_corpus, proof_path
from samplerlang.interpreter import Interpreter
from samplerlang.runtime import VInj
from samplerlang.streams import truncate
from samplerlang.terms import BOOL, REAL, UNIT, ProdT, SumT


C = corpus_dir()


def test_check_prints_type(capsys):
    assert main(["check", str(C / "von_neumann.smpl")]) == 0
    assert capsys.readouterr().out.strip() == "S B"


def test_check_reports_error(tmp_path, capsys):
    bad = tmp_path / "bad.smpl"
    bad.write_text("fun x : R => fun y : R => x < y")
    assert main(["check", str(bad)]) == 1
    assert "cross" in capsys.readouterr().err


def test_check_emits_derivation(tmp_path):
    out = tmp_path / "deriv.json"
    assert main(["check", str(C / "rejection.smpl"), "--emit-derivation", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["rule"] == "let"


def test_run_samples(capsys):
    assert main(["run", str(C / "geometric.smpl"), "--samples", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "index,value,weight"
    assert lines[1] == "1,1,1.0"


def test_run_dump_flattens_tuples(tmp_path):
    src = tmp_path / "pairs.smpl"
    src.write_text("let t = prng(fun x : R => x/2, 1) in t <*> t")
    out = tmp_path / "out.csv"
    assert main(["run", str(src), "--samples", "2", "--dump", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "index,value_0,value_1,weight"
    assert lines[1] == "1,1,1,1.0"


def test_run_engines_agree(tmp_path, capsys):
    for engine in ("bigstep", "stream"):
        assert main(["run", str(C / "importance.smpl"), "--samples", "5", "--engine", engine]) == 0
    out = capsys.readouterr().out
    halves = out.strip().split("index,value,weight")
    assert halves[1].strip() == halves[2].strip()


@pytest.mark.parametrize("samples, code", [(4, 0), (5, 1)])
def test_engines_agree_where_a_prng_step_fails_after_the_last_entry(samples, code, tmp_path, capsys):
    # the step from entry 4, 0.0, fails; entry N is N - 1 steps from the
    # seed, so neither engine takes that step at 4 samples, and both do at 5
    src = tmp_path / "countdown.smpl"
    src.write_text("prng(fun x : R => x - 1 + 0 * log(x), 3.0)")
    outs = []
    for engine in ("stream", "bigstep"):
        assert main(["run", str(src), "--samples", str(samples), "--engine", engine]) == code
        outs.append(capsys.readouterr())
    assert outs[0] == outs[1]
    if code:
        assert "1:31: log of non-positive number 0.0" in outs[0].err
    else:
        assert outs[0].out.splitlines()[1:] == ["1,3.0,1.0", "2,2.0,1.0", "3,1.0,1.0", "4,0.0,1.0"]


def test_normalize(capsys):
    assert main(["normalize", str(C / "importance.smpl")]) == 0
    text = capsys.readouterr().out
    assert text.startswith("reweight(")


def test_equiv_finds_proof(tmp_path, capsys):
    a = tmp_path / "a.smpl"
    b = tmp_path / "b.smpl"
    a.write_text("thin(2, thin(2, prng(fun x : R => x/2, 1)))")
    b.write_text("thin(4, prng(fun x : R => x/2, 1))")
    assert main(["equiv", str(a), str(b)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert "left" in data and "right" in data


def test_equiv_inconclusive(tmp_path, capsys):
    a = tmp_path / "a.smpl"
    b = tmp_path / "b.smpl"
    a.write_text("prng(fun x : R => x/2, 1)")
    b.write_text("tl(prng(fun x : R => 1 - x, 0))")
    assert main(["equiv", str(a), str(b), "--depth", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "inconclusive\n"
    # the search's extent goes to stderr: its bounds and the states per side
    assert captured.err == (
        "inconclusive: searched to depth 3 from each side over terms of size at most 28; "
        "distinct states reached: 1 from the left, 4 from the right\n"
    )


@pytest.mark.parametrize("depth", ["-1", "-3"])
def test_equiv_rejects_negative_depths(depth, capsys):
    a = str(C / "geometric.smpl")
    with pytest.raises(SystemExit) as exc:
        main(["equiv", a, a, "--depth", depth])
    assert exc.value.code == 2
    assert "--depth" in capsys.readouterr().err


def test_verify_accepts_bundled_proof(capsys):
    code = main(
        [
            "verify",
            str(C / "proofs" / "von_neumann.json"),
            "--axioms",
            str(C / "von_neumann.smpl"),
        ]
    )
    assert code == 0
    assert "accept" in capsys.readouterr().out


def test_verify_rejects_tampered_proof(tmp_path, capsys):
    data = json.loads((C / "proofs" / "von_neumann.json").read_text())
    data["judgment"]["target"] = "bernoulli(0.9)"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code = main(["verify", str(bad), "--axioms", str(C / "von_neumann.smpl")])
    assert code == 1
    assert "reject" in capsys.readouterr().out


def test_test_target_pass_and_report(tmp_path, capsys):
    report = tmp_path / "report.json"
    code = main(
        [
            "test-target",
            str(C / "alternating.smpl"),
            "--measure",
            "bernoulli(0.5)",
            "--n",
            "5000",
            "--tol",
            "0.02",
            "--report",
            str(report),
        ]
    )
    assert code == 0
    data = json.loads(report.read_text())
    assert data["passed"] is True
    # reports are byte-deterministic given the seed
    first = report.read_bytes()
    main(
        [
            "test-target",
            str(C / "alternating.smpl"),
            "--measure",
            "bernoulli(0.5)",
            "--n",
            "5000",
            "--tol",
            "0.02",
            "--report",
            str(report),
        ]
    )
    assert report.read_bytes() == first


def test_test_target_fail_exit_code(capsys):
    code = main(
        [
            "test-target",
            str(C / "thinned_alternating.smpl"),
            "--measure",
            "bernoulli(0.5)",
            "--n",
            "2000",
        ]
    )
    assert code == 1


def test_test_target_of_stacked_maps_against_the_nested_and_the_fused_measure(tmp_path, capsys):
    # map(g, map(f, s)) targets g_*(f_*μ) = (g∘f)_*μ: both targets give the same verdict
    prog = tmp_path / "stacked.smpl"
    prog.write_text(
        "extern sampler rand : S R+ targets uniform(0, 1)\n\n"
        "map(fun x : R => x * 2, map(fun x : R => x + 1, rand))\n"
    )
    outs = []
    for measure in (
        "pushforward(fun x : R => x * 2, pushforward(fun x : R => x + 1, uniform(0, 1)))",
        "pushforward(fun x : R => (x + 1) * 2, uniform(0, 1))",
    ):
        assert main(["test-target", str(prog), "--measure", measure, "--n", "100000"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


RAND = "extern sampler rand : S R+ targets uniform(0, 1)\n\nrand\n"


@pytest.mark.parametrize("measure, message", [
    ("uniform(0, 1)^4", "error: continuous dimension 4 exceeds 3"),
    ("uniform(2, 1)", "error: uniform needs a < b, got [2.0, 1.0]"),
    # the family reads a second coordinate that the sampler's values lack
    ("uniform(0, 1) * uniform(0, 1)",
     "error: the sampler's values have 1 coordinate(s), the measure uniform(0, 1) * uniform(0, 1) has 2"),
])
def test_test_target_errors_are_one_line(measure, message, tmp_path, capsys):
    prog = tmp_path / "rand.smpl"
    prog.write_text(RAND)
    assert main(["test-target", str(prog), "--measure", measure, "--n", "1000"]) == 1
    captured = capsys.readouterr()
    assert captured.err == message + "\n" and captured.out == ""


def test_test_target_probes_a_left_nested_product_as_it_nests(tmp_path, capsys):
    prog = tmp_path / "rand.smpl"
    prog.write_text(RAND)
    measure = ("pushforward(fun w : (R * R) * R => fst(fst(w)),"
               " (uniform(0, 1) * uniform(0, 1)) * uniform(0, 1))")
    assert main(["test-target", str(prog), "--measure", measure, "--n", "1000"]) == 0
    assert capsys.readouterr().out.startswith("pass:")


def test_test_target_probes_a_pushforward_through_its_base(tmp_path, capsys):
    prog = tmp_path / "rand.smpl"
    prog.write_text(RAND)
    measure = ("pushforward(fun w : (R * R) * R => fst(fst(w)),"
               " pushforward(fun v : (R * R) * R => v,"
               " (uniform(0, 1) * uniform(0, 1)) * uniform(0, 1)))")
    assert main(["test-target", str(prog), "--measure", measure, "--n", "1000"]) == 0
    assert capsys.readouterr().out.startswith("pass:")


def test_verify_rejects_a_normalizer_that_does_not_converge(monkeypatch, tmp_path, capsys):
    # rejection's acceptance test with '_' parameters: the checker does not
    # place its jump, so each row must find it by bisection
    monkeypatch.setattr(quadrature, "QUAD_LIMIT", 3)
    fn = "fun (x : _, y : _) => if y < exp(-1 / 2 * (3 - x) * (3 - x)) then 1 else 0"
    proof = _one_rule_proof(
        tmp_path, "reweight", f"reweight(({fn}), tri <*> rand)",
        f"reweight({fn}, triangular(0, 2) * uniform(0, 1))",
        "tri <*> rand", "triangular(0, 2) * uniform(0, 1)", "joint_prior",
    )
    assert main(["verify", proof, "--axioms", str(C / "rejection.smpl")]) == 1
    out = capsys.readouterr().out
    assert "reject: root: ∫ f dμ: the integral over [0, 1] does not converge within 3" in out


def _one_rule_proof(tmp_path, rule, subject, target, premise_subject, premise_target, axiom):
    path = tmp_path / f"{rule}.json"
    premise = {
        "rule": "axiom",
        "judgment": {"subject": premise_subject, "target": premise_target},
        "premises": [],
        "evidence": {"axiom": axiom},
    }
    node = {"rule": rule, "judgment": {"subject": subject, "target": target}, "premises": [premise]}
    path.write_text(json.dumps(node))
    return str(path)


def test_verify_rejects_a_reweight_whose_normalizer_fails_its_domain_check(tmp_path, capsys):
    # log(y - 0.5) fails wherever y < 0.5 on rejection's 2-D joint prior
    fn = "fun (x : R, y : R) => if log(y - 0.5) < 0 then 1 else 0"
    proof = _one_rule_proof(
        tmp_path, "reweight", f"reweight(({fn}), tri <*> rand)",
        f"reweight({fn}, triangular(0, 2) * uniform(0, 1))",
        "tri <*> rand", "triangular(0, 2) * uniform(0, 1)", "joint_prior",
    )
    assert main(["verify", proof, "--axioms", str(C / "rejection.smpl")]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "  [ok] root.0 (axiom) axiom 'joint_prior'"
    assert out[1].startswith("reject: root: ∫ f dμ: 1:36: log of non-positive number ")


def test_verify_rejects_a_3d_map_whose_function_fails_its_domain_check(tmp_path, capsys):
    # log(u - 2) fails at every node of the 3-D grid
    triple = "thin(3, rand <*> tl(rand) <*> tl(tl(rand)))"
    proof = _one_rule_proof(
        tmp_path, "map", f"map((fun w : R+ * R+ * R+ => (log(fst(w) - 2), snd(w))), {triple})",
        "gaussian(5, 1) * uniform(0, 1)^2",
        triple, "uniform(0, 1)^3", "rand_equidistributed_3",
    )
    assert main(["verify", proof, "--axioms", str(C / "marsaglia.smpl")]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "  [ok] root.0 (axiom) axiom 'rand_equidistributed_3'"
    assert out[1].startswith("reject: root: measure comparison failed: 1:31: log of non-positive")


def test_print_config(capsys):
    assert main(["--print-config"]) == 0
    keys = [line.split(" = ")[0] for line in capsys.readouterr().out.splitlines()]
    assert keys == ["seed", "tol_final"]


@pytest.mark.parametrize("text", ["foo = 3\n", "equiv_depth = 3\n", "seed = x\n", "seed\n"])
@pytest.mark.parametrize("command", [["--print-config"], ["run", "--samples", "3"]])
def test_bad_config_is_a_usage_error(tmp_path, capsys, text, command):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    if command[0] == "run":
        command = ["run", str(corpus_dir() / "geometric.smpl"), *command[1:]]
    assert main(["--config", str(cfg), *command]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_bad_seed_flag_is_a_usage_error(capsys):
    assert main(["--seed", "abc", "--print-config"]) == 2
    assert capsys.readouterr().err == "error: --seed: bad value for seed: 'abc'\n"


def test_seed_env_override(monkeypatch, capsys):
    monkeypatch.setenv("SAMPLERLANG_SEED", "0x1234")
    main(["--print-config"])
    assert "seed = 4660" in capsys.readouterr().out


def _printed_seed(argv, capsys) -> str:
    assert main(["--print-config", *argv]) == 0
    (line,) = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("seed = ")]
    return line


SEEDED_COMMANDS = [
    ["run", str(C / "importance.smpl"), "--samples", "2"],
    ["test-target", str(C / "importance.smpl"), "--measure", "uniform(0, 1)"],
]


@pytest.mark.parametrize("command", SEEDED_COMMANDS, ids=["run", "test-target"])
def test_seed_flag_in_either_position_beats_env(command, monkeypatch, capsys):
    monkeypatch.setenv("SAMPLERLANG_SEED", "5")
    assert _printed_seed(command, capsys) == "seed = 5"
    assert _printed_seed(["--seed", "3", *command], capsys) == "seed = 3"
    assert _printed_seed([*command, "--seed", "3"], capsys) == "seed = 3"


def test_global_seed_reaches_run(monkeypatch, capsys):
    monkeypatch.delenv("SAMPLERLANG_SEED", raising=False)
    command = SEEDED_COMMANDS[0]

    def rows(argv):
        assert main(argv) == 0
        return capsys.readouterr().out

    unseeded = rows(command)
    before = rows(["--seed", "3", *command])
    after = rows([*command, "--seed", "3"])
    monkeypatch.setenv("SAMPLERLANG_SEED", "3")
    assert before == after == rows(command) != unseeded


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["run"])  # missing required --samples
    assert exc.value.code == 2


def test_examples_report_byte_deterministic(tmp_path):
    report = tmp_path / "examples.json"
    assert main(["examples", "--no-proofs", "--report", str(report)]) == 0
    first = report.read_bytes()
    assert main(["examples", "--no-proofs", "--report", str(report)]) == 0
    assert report.read_bytes() == first
    data = json.loads(first)
    assert data["passed"] == data["total"] == 8


def _run_python(*args: str) -> str:
    """The stdout of `python -W error` with these arguments, on this samplerlang."""
    src = str(Path(samplerlang.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-W", "error", *args],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "Warning" not in proc.stderr
    return proc.stdout


def test_examples_with_proofs_leak_no_warning():
    # every warning is an error: a numpy RuntimeWarning that reaches the
    # user fails the command
    _run_python("-m", "samplerlang.cli", "examples")


def test_importing_the_cli_loads_no_scipy():
    # scipy is the tests' oracle only: no command loads it, not even one that
    # cuts off a gamma density
    marsaglia = str(C / "marsaglia.smpl")
    script = (
        "import sys, contextlib, io\n"
        "from samplerlang.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['examples'])\n"
        f"    main(['test-target', {marsaglia!r}, '--measure', 'gamma(2.5, 1)', '--n', '1000'])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert _run_python("-c", script).strip() == "[]"


def test_commands_run_where_scipy_cannot_be_imported():
    # an import finder that refuses scipy stands in for an install without it
    marsaglia = str(C / "marsaglia.smpl")
    proof = str(proof_path("marsaglia"))
    script = (
        "import sys, contextlib, io\n"
        "class NoScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'scipy':\n"
        "            raise ImportError(f'{name} is not installed')\n"
        "sys.meta_path.insert(0, NoScipy())\n"
        "from samplerlang.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['examples']),\n"
        f"             main(['verify', {proof!r}, '--axioms', {marsaglia!r}]),\n"
        f"             main(['test-target', {marsaglia!r}, '--measure', 'gamma(2.5, 1)', '--n', '1000'])]\n"
        "print(codes)"
    )
    # test-target rejects marsaglia by the unbounded `x2` member (ROADMAP item 5)
    assert _run_python("-c", script).strip() == "[0, 0, 1]"


def test_importing_the_cli_loads_no_orjson():
    # only `run` writes a CSV, so only `run` pays for the float writer
    script = "import sys, samplerlang.cli; print('orjson' in sys.modules)"
    assert _run_python("-c", script).strip() == "False"


@pytest.mark.parametrize("count", ["0", "-3"])
def test_run_rejects_sample_counts_below_one(count, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", str(C / "importance.smpl"), "--samples", count])
    assert exc.value.code == 2
    assert "--samples" in capsys.readouterr().err


@pytest.mark.parametrize("flag, count", [("--n", "0"), ("--n", "-5"), ("--K", "0"), ("--K", "-1")])
def test_test_target_rejects_counts_below_one(flag, count, capsys):
    argv = ["test-target", str(C / "importance.smpl"), "--measure", "uniform(0, 1)", flag, count]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("n, K, tol", [(1, 1, "3"), (100, 1, "0.3"), (400, 2, "0.15")])
def test_test_target_prints_the_tolerance_its_verdict_used(n, K, tol, tmp_path, capsys):
    # the last rung's tolerance is max(--tol, 3/sqrt(n)), not --tol
    rand = tmp_path / "rand.smpl"
    rand.write_text("extern sampler rand : S R+ targets uniform(0, 1) equidistributed 2\nrand\n")
    report = tmp_path / "report.json"
    argv = ["test-target", str(rand), "--measure", "uniform(0, 1)", "--n", str(n), "--K", str(K),
            "--tol", "0.02", "--report", str(report)]
    main(argv)
    line = capsys.readouterr().out.splitlines()[0]
    assert line.endswith(f"vs tol {tol}"), line
    assert json.loads(report.read_text())["ladder"][-1]["tol"] == float(tol)


# ---------------------------------------------------------------------------
# The CSV of `run`, against the entry-by-entry writer it replaced
# ---------------------------------------------------------------------------


def _oracle_flatten(v, out):
    if isinstance(v, tuple):
        for x in v:
            _oracle_flatten(x, out)
    elif isinstance(v, VInj):
        # the entry-wise writer wrote the injection's repr, whose comma
        # split the field; the columns carry the payload, as value_to_point
        _oracle_flatten(v.value, out)
    elif isinstance(v, bool):
        out.append(1 if v else 0)
    else:
        out.append(v)


def _oracle_csv(entries) -> str:
    rows = []
    for i, (v, w) in enumerate(entries, start=1):
        flat: list = []
        _oracle_flatten(v, flat)
        rows.append((i, flat, w))
    width = max(len(flat) for _, flat, _ in rows)
    header = ["index"] + [f"value_{j}" for j in range(width)] + ["weight"]
    if width == 1:
        header = ["index", "value", "weight"]
    lines = [",".join(header)]
    for i, flat, w in rows:
        lines.append(",".join([str(i)] + [repr(x) for x in flat] + [repr(w)]))
    return "\n".join(lines) + "\n"


def _csv(entries) -> str:
    return "".join(_csv_blocks([v for v, _ in entries], [w for _, w in entries]))


def _csv_rows(values, weights):
    header, *rows = _csv(list(zip(values, weights))).splitlines()
    return header, rows


@pytest.mark.parametrize("engine,n", [("stream", 300), ("bigstep", 12)])
def test_run_csv_matches_entrywise_writer_on_corpus(engine, n, tmp_path):
    for item in load_corpus():
        it = Interpreter(item.program, Config.load(None, {"seed": 3}))
        result = it.big_step(n) if engine == "bigstep" else truncate(it.stream(), n)
        out = tmp_path / f"{item.name}.csv"
        argv = ["run", str(C / f"{item.name}.smpl"), "--samples", str(n),
                "--engine", engine, "--seed", "3", "--dump", str(out)]
        assert main(argv) == 0
        assert out.read_text() == _oracle_csv(result.entries), item.name


_SPECIALS = [float("nan"), float("inf"), -float("inf"), -0.0, 1e-310, 0.1]
_SWITCH_OVER = [1e-05, 9.999999999999999e-05, 0.0001, 9999999999999998.0, 1e16, 5e-324, -0.0]

SYNTHETIC = {
    "float": [(x, 1.0) for x in _SPECIALS],
    "int": [(i, 0.5) for i in (0, -1, 7, 2**60)],
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
    # where repr's float form leaves orjson's: below 1e-4 and from 1e16
    "float switch-over points": [
        (x, y) for x, y in zip(_SWITCH_OVER, [*_SWITCH_OVER[1:], _SWITCH_OVER[0]])
    ],
    "switch-over points in pairs": [((x, -x), 1.0) for x in _SWITCH_OVER],
    "ints outside 64 bits": [(i, 1.0) for i in (2**64, -2**63 - 1, 2**63 - 1, -2**63, 2**64 - 1)],
    "bool beside int": [((i % 2 == 0, i), 0.5) for i in range(5)],
    "blocks of one shape": [
        ((float(i) / 7, (i % 3 == 0, i)), 1.0 if i % 1000 else _SWITCH_OVER[i // 1000 % 7])
        for i in range(CSV_BLOCK_ROWS * 7 // 2)
    ],
    "blocks of mixed shapes": [
        (VInj(0, 1.0 / (i + 1)) if i % 3 else VInj(1, (i, 1e-5 * i)), 1.0)
        for i in range(CSV_BLOCK_ROWS + 10)
    ],
}


@pytest.mark.parametrize("name", list(SYNTHETIC))
def test_run_csv_matches_entrywise_writer_on_synthetic_values(name):
    entries = SYNTHETIC[name]
    assert _csv(entries) == _oracle_csv(entries)


def test_run_csv_writes_random_floats_of_every_exponent_as_repr():
    bits = np.random.default_rng(20).integers(0, 2**64, size=200_000, dtype=np.uint64)
    xs = bits.view(np.float64).tolist()
    lines = _csv(list(zip(xs, reversed(xs)))).splitlines()[1:]
    assert lines == [f"{i},{x!r},{w!r}" for i, (x, w) in enumerate(zip(xs, reversed(xs)), start=1)]


def test_run_csv_tags_the_injections_at_sum_positions():
    tag = _sum_tagger(SumT((REAL, REAL)))
    header, rows = _csv_rows([tag(VInj(0, 1.0)), tag(VInj(1, 1.0))], [1.0, 1.0])
    assert header == "index,value_0,value_1,weight"
    assert rows == ["1,0,1.0,1.0", "2,1,1.0,1.0"]
    # a tag column per sum position, before its payload; B stays one column
    tag = _sum_tagger(ProdT(BOOL, SumT((REAL, ProdT(REAL, SumT((UNIT, REAL)))))))
    _, rows = _csv_rows([(True, VInj(1, (2.0, VInj(0, ()))))], [0.5])
    assert rows == ["1,1,2.0,0.5"]
    _, rows = _csv_rows([tag((True, VInj(1, (2.0, VInj(0, ())))))], [0.5])
    assert rows == ["1,1,1,2.0,0,0.5"]
    for ty in (REAL, BOOL, ProdT(REAL, ProdT(BOOL, UNIT))):
        assert _sum_tagger(ty) is None


def test_run_csv_of_a_sum_typed_boolean_extern_is_unchanged(tmp_path):
    # B is 1 + 1: a bernoulli extern declared at Unit + Unit yields Booleans,
    # which are written as they are
    rows = []
    for ty in ("B", "(Unit + Unit)"):
        src = tmp_path / "coin.smpl"
        src.write_text(f"extern sampler coin : S {ty} targets bernoulli(0.5)\n\ncoin\n")
        out = tmp_path / "coin.csv"
        assert main(["run", str(src), "--samples", "20", "--dump", str(out)]) == 0
        rows.append(out.read_text())
    assert rows[0] == rows[1] and rows[0].startswith("index,value,weight\n")
