"""A reachability census of `src/samplerlang`: which functions the benchmark's
operations reach, which only the tests reach, and which nothing reaches.

    python3 tools/census.py

It lists every function and method of the package with `ast`, then records
the calls made during two runs in this process, with `sys.setprofile` and
`threading.setprofile`:

- the operations of both workloads of `bench/workloads.py` at seed 1, and
  `examples`, each passed to `samplerlang.cli.main` as `bench/run.py` passes
  it, followed by its check (the dumps go to a temporary directory);
- Tier-1 (`tests` and `bench`), run by pytest in this process with the
  recorder installed by a plugin.

A call matches a function when its code object's file and first line are
the function's file and its `def` line or first decorator line.  Tests that
run the toolchain in a child process are not traced, so what only they
reach counts as reached by nothing.

Each function is printed as `bench`, `tests only` or `none`, with its reason
when `ALLOWED` lists it, and then the count and the source lines of each
kind.  The tool exits 1 when a function that is `tests only` or `none` is
missing from `ALLOWED`, when an entry of `ALLOWED` names a function that is
gone or that the benchmark reaches, or when Tier-1 does not pass.  A full run
takes about a minute and a half, most of it Tier-1 under the profiler.  It
takes no options.
"""
from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile
import threading
import traceback
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "samplerlang"
BENCH = ROOT / "bench"
SEED = 1

_SELF_PRODUCT = "the paper's self-product lemmas, which the acceptance tests check"
_PER_NODE = ("integration node by node, of a function that array mode refuses "
             "(an injection, a case on a Boolean); no bench integrand is one")
_SYNTAX_ERROR = "a syntax error; every bench input parses"
_TYPE_NAME = "names a type as it is written in a printed closure, as `run` of a function prints one"

#: function -> why it stays although no benchmark operation reaches it
ALLOWED = {
    "builtins._sig_error": "a builtin given arguments it does not accept; every bench input type-checks",
    "cli.cmd_check": "the `check` command, which the bench does not run",
    "cli._sum_tagger.tag": "`run`'s CSV columns of a sum-typed value; no bench program has a sum",
    "cli._sum_tagger.pair": "`run`'s CSV columns of a pair that holds a sum; no bench program has a sum",
    "config.Config.dump": "`--print-config`",
    "config._read_config_file": "`--config`",
    "empirical.ConvergenceReport.to_json": "`test-target --report`",
    "parser.ParseError.__init__": _SYNTAX_ERROR,
    "parser.Parser.fail": _SYNTAX_ERROR,
    "parser.Parser.parse_case": "the `case` syntax; no bench input uses it",
    "parser.parse_type": "parses a type alone, as parse_term a term and parse_measure a measure",
    "pretty._point": "prints the point of a dirac or discrete measure; no bench measure has one",
    "quadrature.SideConditionError.__init__":
        "a reweight normalizer outside (0, inf); no bench proof has one",
    "quadrature._jump_fault":
        "a fault in an integral split at a function's jumps; no bench integral meets one",
    "quadrature._raise_at": "names the point where an integrand or a weight is not finite",
    "quadrature._per_node": _PER_NODE,
    "quadrature._per_node.on_nodes": _PER_NODE,
    "quadrature._node_values": _PER_NODE,
    "quadrature._node_arrays": _PER_NODE,
    "quadrature._take": "the atoms of a discrete factor at the nodes; no bench measure has one",
    "quadrature.TestFunctionFamily.lipschitz_bounded":
        "the bounded 1-Lipschitz members, for the 2/n bound (ROADMAP item 5)",
    "rewrite.cart": _SELF_PRODUCT,
    "rewrite.ptwise_pair": _SELF_PRODUCT,
    "rewrite._chain": _SELF_PRODUCT,
    "rewrite._tl_shift": _SELF_PRODUCT,
    "rewrite.grouped_self_product": _SELF_PRODUCT,
    "rewrite.self_product_power_proof": _SELF_PRODUCT,
    "rewrite.self_product_transform_proof": _SELF_PRODUCT,
    "runtime.SamplerValue.__repr__":
        "prints a sampler-valued entry as `<sampler>`; no bench program has one",
    "runtime.Pairs.__getitem__": "a chunk of a column of pairs from a product that two terms share",
    "runtime.WeightedList.entries": "a weighted list's entries as runtime values, which its repr prints",
    "runtime.WeightedList.__repr__":
        "prints a value that holds a sampler's prefix, as `run` of `(rand, rand)`",
    "runtime._pair": "a comparison spelled as a function of a pair (`lt(p)`), one entry at a time",
    "runtime._need_pair": "a guard that only an ill-typed value reaches",
    "runtime._CodeGen.unpair": "a pair parameter bound to a column of pairs that no array holds",
    "runtime._seq": "a column's entries one by one, for values that no typed array holds",
    "runtime._each":
        "the columnar functions' path, entry by entry, for values that no typed array holds",
    "runtime._pair_of": "checks each entry of a column of pairs that no array holds",
    "runtime.apply_value": "applies a function value whose body the generator cannot compile",
    "streams.RStream.entry": "`hd` or `wt` of a sampler that no pipeline reads, in the stream engine",
    "streams.RStream.prefix": "bench/tracing.py wraps it by name",
    "streams._embeds": "looks for a stream inside a value that is not a number",
    "target.AxiomSet.find_subject":
        "an `axiom` node that names no axiom; the bundled proofs name theirs",
    "target.Judgment.to_json": "writes a derivation as `verify` reads it",
    "target.DerivNode.to_json": "writes a derivation as `verify` reads it",
    "target._evidence_json": "writes a derivation as `verify` reads it",
    "target.DerivationChecker._rule_tl": "the `tl` rule of a targeting proof; no bundled proof uses it",
    "target.DerivationChecker._rule_cast":
        "the `cast` rule of a targeting proof; no bundled proof uses it",
    "target.elaborate_goal": "builds a targeting proof backward from its goal (ROADMAP item 23)",
    "terms.Ground.__repr__": _TYPE_NAME,
    "terms.PredInv.__repr__": _TYPE_NAME,
    "terms.rename_bound": "renames a binder that a substitution would capture; no bench input has one",
    "typecheck.TypeCheckError.__init__": "a type error; every bench input type-checks",
    "typecheck.Context.bound_names": "renames let-bound names that clash when lets are inlined",
    "typecheck.Deriv.to_json": "`check --emit-derivation`",
    "typecheck._point_type":
        "the type of the points of a dirac or discrete measure that an extern targets",
    "typecheck._point_join":
        "joins the point types of a discrete measure's atoms that an extern targets",
    "typecheck.check_term": "type-checks a term without a program, as parse_term parses one",
}


class Function(NamedTuple):
    name: str  # module.Qualified.name
    path: str
    lines: tuple[int, ...]  # the def line and, when decorated, the first decorator's
    size: int  # source lines, decorators included


def functions(package: Path) -> list[Function]:
    """Every function and method defined in the package's modules, nested
    ones included, in source order."""
    found = []

    def visit(node, module: str, prefix: str, path: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                lines = (child.lineno, *[d.lineno for d in child.decorator_list[:1]])
                found.append(Function(f"{module}.{prefix}{child.name}", path, lines,
                                      child.end_lineno - min(lines) + 1))
                visit(child, module, f"{prefix}{child.name}.", path)
            elif isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.", path)
            else:
                visit(child, module, prefix, path)

    for path in sorted(package.rglob("*.py")):
        parts = path.relative_to(package).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts) or package.name
        visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), module, "", str(path.resolve()))
    return found


class Recorder:
    """The code objects called, in every thread, while it is entered."""

    def __init__(self):
        self.codes: set = set()

    def _profile(self, frame, event, _arg):
        if event == "call":
            self.codes.add(frame.f_code)

    def __enter__(self):
        self._previous = sys.getprofile(), threading.getprofile()
        threading.setprofile(self._profile)
        sys.setprofile(self._profile)
        return self

    def __exit__(self, *exc):
        sys.setprofile(self._previous[0])
        threading.setprofile(self._previous[1])

    def called(self, funcs: list[Function]) -> set[str]:
        """The names of the functions among funcs that were called."""
        by_line = {(f.path, line): f.name for f in funcs for line in f.lines}
        names = set()
        for code in self.codes:
            name = by_line.get((os.path.realpath(code.co_filename), code.co_firstlineno))
            if name is not None and name.rsplit(".", 1)[-1] == code.co_name:
                names.add(name)
        return names


def classify(funcs: list[Function], bench: set[str], tests: set[str]) -> dict[str, str]:
    """Each function's reach: `bench`, `tests only` or `none`."""
    return {f.name: "bench" if f.name in bench else "tests only" if f.name in tests else "none"
            for f in funcs}


def problems(reach: dict[str, str], allowed: dict[str, str]) -> list[str]:
    """Functions not reached by the benchmark and not allowed, and entries of
    the allow-list that are stale."""
    out = [f"{name}: {how}, and not in ALLOWED" for name, how in reach.items()
           if how != "bench" and name not in allowed]
    for name in allowed:
        if name not in reach:
            out.append(f"{name}: in ALLOWED, but no such function")
        elif reach[name] == "bench":
            out.append(f"{name}: in ALLOWED, but the benchmark reaches it")
    return out


def run_bench(recorder: Recorder) -> list[str]:
    """Run every benchmark operation and its check under the recorder; the
    failures that are not a known fault of the operation."""
    sys.path.insert(0, str(BENCH))
    import workloads

    failures = []
    out_dir = workloads.OUT
    with tempfile.TemporaryDirectory() as tmp:
        workloads.OUT = Path(tmp)
        ops = [op for name in sorted(workloads.WORKLOADS) for op in workloads.WORKLOADS[name](SEED).ops]
        ops.append(workloads.Op("examples", ["examples"],
                                lambda res: [] if res.rc == 0 else [f"exit {res.rc}"]))
        with recorder:
            from samplerlang import cli  # what the import runs counts too

            for op in ops:
                out, err = io.StringIO(), io.StringIO()
                rc, error = None, ""
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        rc = cli.main(op.argv)
                    except Exception:
                        error = traceback.format_exc(limit=3)
                res = workloads.Result(rc, out.getvalue(), err.getvalue(), 0.0, error)
                try:
                    found = op.check(res)
                except Exception:
                    found = [traceback.format_exc(limit=3)]
                if found and not (op.fault and op.fault.matches(res, found)):
                    failures.append(f"{op.name}: {found[0][:200]}")
    workloads.OUT = out_dir
    return failures


class _Tier1Plugin:
    """Records calls from the start of the pytest session to its end."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder

    def pytest_sessionstart(self, session):
        self.recorder.__enter__()

    def pytest_sessionfinish(self, session, exitstatus):
        self.recorder.__exit__(None, None, None)


def run_tier1(recorder: Recorder) -> int:
    """Tier-1 in this process; pytest's exit code."""
    import pytest

    return int(pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                            str(ROOT / "tests"), str(ROOT / "bench")],
                           plugins=[_Tier1Plugin(recorder)]))


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    # child processes of the tests import the same tree
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    os.environ.pop("SAMPLERLANG_SEED", None)
    import samplerlang

    if not Path(samplerlang.__file__).resolve().is_relative_to(SRC):
        print(f"error: samplerlang was imported from {samplerlang.__file__}, not {SRC}", file=sys.stderr)
        return 2
    funcs = functions(PACKAGE)
    bench, tests = Recorder(), Recorder()
    failures = run_bench(bench)
    status = run_tier1(tests)
    reach = classify(funcs, bench.called(funcs), tests.called(funcs))

    print()
    for f in funcs:
        why = f"  ({ALLOWED[f.name]})" if f.name in ALLOWED else ""
        print(f"{reach[f.name]:<10}  {f.name}{why}")
    for how in ("bench", "tests only", "none"):
        chosen = [f for f in funcs if reach[f.name] == how]
        print(f"{how}: {len(chosen)} functions, {sum(f.size for f in chosen)} lines")
    print("(tests that run the toolchain in a child process are not traced)")
    for failure in failures:
        print(f"warning: bench operation failed: {failure}")
    found = problems(reach, ALLOWED)
    if status != 0:
        found.append(f"Tier-1 exited {status}, so the census is incomplete")
    for problem in found:
        print(f"error: {problem}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
