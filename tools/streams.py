"""Record the outputs of the bench operations, and list those that differ
between two records.

    PYTHONPATH=src python3 tools/streams.py record OUT.json
    python3 tools/streams.py diff OLD.json NEW.json

`record` runs, in this process through `samplerlang.cli.main`:

- `run --samples 100000 --dump` of the five sampled corpus programs
  (marsaglia, rejection, importance, von_neumann, geometric) at seeds 1-3;
- `run --engine bigstep --samples 100` of the same programs and seeds;
- `test-target --n 100000 --report` of the five test-target cases of the
  `streams` benchmark, at seed 1 where the benchmark passes a seed;
- the operations of the `proofs` benchmark: `verify` of the five bundled
  proofs and of the tampered one, the five `equiv` searches (whose standard
  error gives the extent of an inconclusive search) and `normalize` of
  every corpus program;
- `check --emit-derivation` of every corpus program;
- `run` and `run --engine bigstep` of the programs in `FAULTS`, whose
  evaluation fails in an entry or an argument, or reads a sampler-valued
  entry, and the same evaluations of `UNTYPED_FAULTS`, without the type
  check that would reject them.

It writes, for each operation, its exit code and the sha256 of its standard
output, of its standard error and of the file it wrote (the CSV, the report
or the derivation).  The files go to a temporary directory; the tool reads
`bench/inputs` and writes nothing under `bench/` (the `FAULTS` programs
are written to the temporary directory too).  The `samplerlang` it runs
is the one Python imports, so `PYTHONPATH=<tree>/src`, run from `<tree>`,
records that tree.

`diff` prints each operation whose record differs between the two files,
or that only one of them has, and exits 1 if there is one.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "src" / "samplerlang" / "corpus"
INPUTS = ROOT / "bench" / "inputs"

SAMPLED = ("marsaglia", "rejection", "importance", "von_neumann", "geometric")
SEEDS = (1, 2, 3)
POSTERIOR = "reweight(fun x : R => 1/sqrt(2*pi) * exp(-1/2*(3-x)*(3-x)), triangular(0, 2))"
#: (label, program, arguments): the `streams` benchmark's test-target cases
TARGETS = (
    ("rand K=2", INPUTS / "rand.smpl", ["--measure", "uniform(0, 1)", "--K", "2", "--seed", "1"]),
    ("rejection", CORPUS / "rejection.smpl", ["--measure", POSTERIOR, "--seed", "1"]),
    ("marsaglia gamma(2.5, 1)", CORPUS / "marsaglia.smpl", ["--measure", "gamma(2.5, 1)"]),
    ("thinned_alternating", CORPUS / "thinned_alternating.smpl",
     ["--measure", "bernoulli(0.5)", "--seed", "1"]),
    ("marsaglia gamma(2.0, 1)", CORPUS / "marsaglia.smpl", ["--measure", "gamma(2.0, 1)", "--seed", "1"]),
)

#: the `proofs` benchmark's verified proofs, and its equiv searches (left,
#: right, --depth or None)
PROVED = ("von_neumann", "importance", "rejection", "marsaglia", "piecewise")
EQUIVS = (
    (INPUTS / "thin_thin.smpl", INPUTS / "thin_four.smpl", None),
    (INPUTS / "thin_tl_map.smpl", INPUTS / "map_thin_tl.smpl", None),
    (INPUTS / "map_map_tl.smpl", INPUTS / "tl_map_fused.smpl", None),
    (INPUTS / "thin_map_tl.smpl", INPUTS / "map_tl_thin_tl.smpl", "8"),
    (CORPUS / "marsaglia.smpl", INPUTS / "marsaglia_alpha3.smpl", "3"),
)

_RAND = "extern sampler rand : S R+ targets uniform(0, 1)\n"
#: (label, program body, --samples): where an entry that `thin`, `tl` or
#: `hd` discards fails, which neither engine computes; a failing data
#: argument and a failing let-bound term that the body ignores, which both
#: engines evaluate first and raise; and a function applied to
#: sampler-valued entries
FAULTS = (
    ("thin of a failing entry",
     "thin(2, map(fun x : R => if x = 0.027533139816609986 then log(0 - x) else x, rand))", 1),
    ("tl of a failing entry",
     "tl(map(fun x : R => if x = 0.48806830282906133 then log(0 - x) else x, rand))", 1),
    ("hd of a failing entry",
     "map(fun x : R => x + hd(map(fun y : R => if y = 0.42545704225622993 then log(0 - y) else y,"
     " rand)), rand)", 3),
    ("unused failing argument", "map(fun x : R => (fun y : R => x)(log(0 - x)), rand)", 5),
    ("unused failing let", "map(fun x : R => let y = log(0 - x) in x, rand)", 5),
    ("sampler-valued entries", "map(fun s : S R+ => hd(tl(s)), map(fun x : R+ => rand, rand))", 2),
)
#: programs that no type-checked program stands for: a reweight weight is R+,
#: and no builtin or cast makes an R+ term negative
UNTYPED_FAULTS = (
    ("negative reweight weight", "reweight(fun x : R => x - 0.5, rand)", 5),
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def operations(out: Path) -> list[tuple[str, list[str], Path | None]]:
    """(name, argv, file it writes) of every recorded operation."""
    ops = []
    for name in SAMPLED:
        program = str(CORPUS / f"{name}.smpl")
        for seed in SEEDS:
            dump = out / f"{name}-{seed}.csv"
            ops.append((f"run {name} seed {seed}",
                        ["run", program, "--samples", "100000", "--seed", str(seed), "--dump", str(dump)],
                        dump))
            ops.append((f"run --engine bigstep {name} seed {seed}",
                        ["run", program, "--samples", "100", "--engine", "bigstep", "--seed", str(seed)],
                        None))
    for k, (label, program, extra) in enumerate(TARGETS):
        report = out / f"target-{k}.json"
        ops.append((f"test-target {label}",
                    ["test-target", str(program), "--n", "100000", *extra, "--report", str(report)],
                    report))
    for name in PROVED:
        ops.append((f"verify {name}",
                    ["verify", str(CORPUS / "proofs" / f"{name}.json"), "--axioms", str(CORPUS / f"{name}.smpl")],
                    None))
    ops.append(("verify von_neumann_tampered",
                ["verify", str(INPUTS / "von_neumann_tampered.json"), "--axioms", str(CORPUS / "von_neumann.smpl")],
                None))
    for left, right, depth in EQUIVS:
        ops.append((f"equiv {left.stem} {right.stem}" + (f" --depth {depth}" if depth else ""),
                    ["equiv", str(left), str(right), *(["--depth", depth] if depth else [])],
                    None))
    for program in sorted(CORPUS.glob("*.smpl")):
        ops.append((f"normalize {program.stem}", ["normalize", str(program)], None))
        derivation = out / f"{program.stem}-derivation.json"
        ops.append((f"check --emit-derivation {program.stem}",
                    ["check", str(program), "--emit-derivation", str(derivation)],
                    derivation))
    for k, (label, body, samples) in enumerate(FAULTS + UNTYPED_FAULTS):
        program = out / f"fault-{k}.smpl"
        program.write_text(_RAND + body + "\n")
        untyped = "untyped " if k >= len(FAULTS) else ""
        for engine in ("stream", "bigstep"):
            ops.append((f"{untyped}run --engine {engine} {label}",
                        ["run", str(program), "--samples", str(samples), "--engine", engine],
                        None))
    return ops


def _untyped_run(argv: list[str]) -> int:
    """`run` of argv without its type check: print the entries, or the
    error as `run` does."""
    from samplerlang.builtins import EvalError
    from samplerlang.interpreter import Interpreter
    from samplerlang.parser import parse_program
    from samplerlang.streams import truncate

    _, program, _, samples, _, engine = argv
    it = Interpreter(parse_program(Path(program).read_text()))
    try:
        if engine == "bigstep":
            result = it.big_step(int(samples))
        else:
            result = truncate(it.stream(), int(samples))
    except EvalError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(result.entries)
    return 0


def record(path: str) -> int:
    from samplerlang.cli import main

    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv, written in operations(Path(tmp)):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = _untyped_run(argv) if name.startswith("untyped ") else main(argv)
            # a dump's path is in its output line; the record names the file only
            text = stdout.getvalue().replace(tmp, "<out>")
            results[name] = {
                "rc": rc,
                "stdout": _sha(text.encode()),
                "stderr": _sha(stderr.getvalue().encode()),
                "file": _sha(written.read_bytes()) if written and written.exists() else None,
            }
    with open(path, "w") as f:
        json.dump(results, f, indent=1, sort_keys=True)
    print(f"{len(results)} operations recorded to {path}")
    return 0


def diff(old_path: str, new_path: str) -> int:
    with open(old_path) as f:
        old = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    differ = 0
    for name in sorted(old.keys() | new.keys()):
        if old.get(name) != new.get(name):
            differ += 1
            print(f"{name}:\n  old {json.dumps(old.get(name))}\n  new {json.dumps(new.get(name))}")
    print(f"{differ} of {len(old.keys() | new.keys())} operations differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    rec = sub.add_parser("record", help="run the operations and write their hashes")
    rec.add_argument("out")
    dif = sub.add_parser("diff", help="list the operations that differ between two records")
    dif.add_argument("old")
    dif.add_argument("new")
    args = parser.parse_args(argv)
    if args.mode == "record":
        return record(args.out)
    return diff(args.old, args.new)


if __name__ == "__main__":
    sys.exit(main())
