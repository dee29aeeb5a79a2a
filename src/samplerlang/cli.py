"""Command-line entry point: check, run, normalize, equiv, verify,
test-target, and the bundled examples suite.

Exit codes: 0 success, 1 verification/test failure, 2 usage errors.
"""
from __future__ import annotations

import argparse
import json
import sys
from itertools import chain, count
from pathlib import Path
from typing import Callable, Iterator, Optional

import numpy as np

from .builtins import EvalError
from .config import Config, ConfigError
from .corpus import corpus_dir, load_corpus, load_proof, proof_path
from .empirical import weak_convergence_test, k_equidistribution_test
from .interpreter import Interpreter
from .measures import MeasureError
from .parser import ParseError, parse_measure, parse_program
from .pretty import pretty, pretty_type
from .quadrature import IntegrationError
from .rewrite import SearchStats, normalize, prove_equiv
from .runtime import VInj
from .streams import truncate
from .terms import ProdT, SamplerT, SumT, Type
from .target import AxiomSet, DerivationChecker, derivation_from_json
from .typecheck import TypeCheckError, check_program


def _load_program(path: str):
    src = Path(path).read_text(encoding="utf-8")
    return parse_program(src, path)


def _config_from(args) -> Config:
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    return Config.load(getattr(args, "config", None), overrides)


def cmd_check(args) -> int:
    prog = _load_program(args.file)
    try:
        result = check_program(prog)
    except TypeCheckError as err:
        print(f"{args.file}: type error: {err}", file=sys.stderr)
        return 1
    print(pretty_type(result.ty))
    if args.emit_derivation:
        Path(args.emit_derivation).write_text(
            json.dumps(result.derivation.to_json(), indent=2) + "\n"
        )
    return 0


#: rows of a run's CSV that are formatted and written at a time
CSV_BLOCK_ROWS = 4096


def _csv_blocks(values, weights) -> Iterator[str]:
    """The CSV of a run: its header line, then its rows (index, flattened
    value, weight) `CSV_BLOCK_ROWS` at a time, each block one string.

    values and weights are columns (`runtime.column`) or lists of runtime
    values.  Values are flattened with `value_columns` and booleans among
    the leaves are written as 1/0; every field is written as its repr
    (`_csv_lines`).  Values of one shape are split column by column, and a
    block's fields are interleaved from the columns' slices; values of
    different shapes are flattened one by one into rows of different
    lengths, and the header is as wide as the widest.
    """
    from .runtime import column_values, value_columns

    cols = value_columns(values)
    if cols is None:
        rows = [
            [i, *(int(x) if type(x) is bool else x for x, in value_columns([v])), w]
            for i, v, w in zip(count(1), column_values(values), column_values(weights))
        ]
        widths = np.fromiter(map(len, rows), np.intp, len(rows))
        width = int(widths.max()) - 2
        leaves = np.flatnonzero(_repr_only(list(chain.from_iterable(rows))))
        by_repr = np.zeros(len(rows), bool)
        by_repr[np.searchsorted(np.cumsum(widths), leaves, side="right")] = True

        def block(a: int, b: int) -> tuple:
            return list(chain.from_iterable(rows[a:b])), widths[a:b]
    else:
        width = len(cols)
        cols = [_csv_column(col) for col in cols]
        by_repr = _repr_only(weights)
        for col in cols:
            by_repr |= _repr_only(col)
        k = width + 2

        def block(a: int, b: int) -> tuple:
            fields = [0] * ((b - a) * k)
            fields[0::k] = range(a + 1, b + 1)
            for j, col in enumerate(cols, start=1):
                fields[j::k] = column_values(col[a:b])
            fields[k - 1::k] = column_values(weights[a:b])
            return fields, np.full(b - a, k)

    header = ["index"] + [f"value_{j}" for j in range(width)] + ["weight"]
    if width == 1:
        header = ["index", "value", "weight"]
    yield ",".join(header) + "\n"
    for a in range(0, len(values), CSV_BLOCK_ROWS):
        b = min(a + CSV_BLOCK_ROWS, len(values))
        yield _csv_lines(*block(a, b), np.flatnonzero(by_repr[a:b]).tolist())


def _csv_column(col):
    """A leaf column with its Booleans as the ints 1 and 0."""
    if type(col) is np.ndarray:
        return col.astype(np.int8) if col.dtype == bool else col
    if bool in set(map(type, col)):
        return [int(x) if type(x) is bool else x for x in col]
    return col


def _repr_only(fields) -> np.ndarray:
    """A mask of the fields that orjson does not write as their repr: any
    but an int or a float, and a number x with x != 0 and not
    1e-4 <= |x| < 1e16.  Those floats repr writes in exponent form (1e-05,
    1e+16) and orjson does not (0.00001, 1e16); nan and the infinities
    orjson writes as null, and it refuses an int outside 64 bits.  An int
    is tested by its nearest float, which may flag one near 1e16 for
    nothing, but flags every int outside 64 bits.  fields is a list or a
    numeric array."""
    if type(fields) is np.ndarray or set(map(type, fields)) <= {int, float}:
        try:
            x = np.abs(np.asarray(fields, dtype=np.float64))
        except OverflowError:  # an int beyond the floats
            pass
        else:
            return ~((x == 0) | ((x >= 1e-4) & (x < 1e16)))
    return np.array(
        [type(x) not in (int, float) or (x != 0 and not 1e-4 <= abs(x) < 1e16) for x in fields],
        dtype=bool,
    )


def _csv_lines(fields: list, widths: np.ndarray, repr_rows: list) -> str:
    """Rows as CSV lines, each field written as its repr: fields holds the
    rows' fields in order, widths[i] of them for row i.

    orjson writes the fields in one call: its floats are the shortest digits
    that round-trip, as repr's, and its ints within 64 bits are repr's too.
    Every field is a number, so every comma in its output parts two fields,
    and the comma after each row's last field becomes the row's newline.
    The rows at `repr_rows`, which have a field that orjson writes in
    another form or refuses (`_repr_only`), are zeroed for orjson and then
    written field by field.
    """
    import orjson

    ends = np.cumsum(widths)
    lines = {}
    for i in repr_rows:
        row = slice(ends[i] - widths[i], ends[i])
        lines[i] = ",".join(map(repr, fields[row]))
        fields[row] = [0] * widths[i]
    dumped = bytearray(orjson.dumps(fields))
    buf = np.frombuffer(dumped, np.uint8)
    buf[np.flatnonzero(buf == ord(","))[ends[:-1] - 1]] = ord("\n")
    buf[-1] = ord("\n")  # the closing bracket; the opening one is cut
    text = str(memoryview(dumped)[1:], "ascii")
    if lines:
        split = text.split("\n")
        for i, line in lines.items():
            split[i] = line
        text = "\n".join(split)
    return text


def _sum_tagger(ty: Type) -> Optional[Callable]:
    """The function that writes each injection at a sum-typed position of ty
    as the pair (summand index, payload), so that its CSV row gets a tag
    column before the payload's; None where ty has no sum.  B is not a sum
    here: a Boolean stays one 1/0 column.  A value without the type's shape
    is written as it is."""
    if isinstance(ty, SumT):
        subs = [_sum_tagger(s) for s in ty.summands]

        def tag(v):
            if type(v) is not VInj:
                return v
            sub = subs[v.index]
            return (v.index, v.value if sub is None else sub(v.value))

        return tag
    if isinstance(ty, ProdT):
        left, right = _sum_tagger(ty.left), _sum_tagger(ty.right)
        if left is None and right is None:
            return None

        def pair(v):
            if type(v) is not tuple or len(v) != 2:
                return v
            a, b = v
            return (a if left is None else left(a), b if right is None else right(b))

        return pair
    return None


def cmd_run(args) -> int:
    prog = _load_program(args.file)
    ty = check_program(prog).ty
    cfg = _config_from(args)
    interp = Interpreter(prog, cfg)
    n = args.samples
    if args.engine == "bigstep":
        result = interp.big_step(n)
    else:
        result = truncate(interp.stream(), n)
    from .runtime import WeightedList

    if not isinstance(result, WeightedList):
        print(result)
        return 0
    values = result.values
    tag = _sum_tagger(ty.payload) if isinstance(ty, SamplerT) else None
    if tag is not None:
        from .runtime import column_values

        values = list(map(tag, column_values(values)))
    blocks = _csv_blocks(values, result.weights)
    if args.dump:
        with open(args.dump, "w", encoding="utf-8") as out:
            out.writelines(blocks)
        print(f"wrote {len(values)} samples to {args.dump}")
    else:
        sys.stdout.writelines(blocks)
    return 0


def cmd_normalize(args) -> int:
    prog = _load_program(args.file)
    check_program(prog)
    nf, steps = normalize(prog.body)
    print(pretty(nf))
    if args.trace:
        for step in steps:
            print(f"  {step.rule} at {list(step.path)}", file=sys.stderr)
    return 0


def cmd_equiv(args) -> int:
    prog_a = _load_program(args.left)
    prog_b = _load_program(args.right)
    check_program(prog_a)
    check_program(prog_b)
    stats = SearchStats()
    proof = prove_equiv(prog_a.body, prog_b.body, depth=args.depth, stats=stats)
    if proof is None:
        print("inconclusive")
        print(
            f"inconclusive: searched to depth {stats.depth} from each side over terms of "
            f"size at most {stats.size_cap}; distinct states reached: {stats.left} from "
            f"the left, {stats.right} from the right",
            file=sys.stderr,
        )
        return 1
    print(json.dumps(proof.to_json(), indent=2))
    return 0


def cmd_verify(args) -> int:
    axioms_prog = _load_program(args.axioms)
    if axioms_prog.body is not None:
        check_program(axioms_prog)
    axioms = AxiomSet.from_program(axioms_prog)
    data = json.loads(Path(args.proof).read_text(encoding="utf-8"))
    samplerish = {e.name for e in axioms_prog.externs}
    deriv = derivation_from_json(data.get("root", data), samplerish)
    checker = DerivationChecker(axioms)
    outcome = checker.check(deriv)
    for report in outcome.reports:
        print(f"  [{report.status}] {report.path} ({report.rule}) {report.note}")
    if outcome.accepted:
        subject = pretty(outcome.conclusion.subject)
        if len(subject) > 72:
            subject = subject[:72] + "..."
        target = data.get("root", data)["judgment"]["target"]
        print(f"accept: {subject} targets {target}")
        return 0
    print(f"reject: {outcome.failure}")
    return 1


def cmd_test_target(args) -> int:
    prog = _load_program(args.file)
    check_program(prog)
    cfg = _config_from(args)
    interp = Interpreter(prog, cfg)
    measure = parse_measure(args.measure, {e.name for e in prog.externs})
    tol = args.tol if args.tol is not None else cfg.tol_final
    ladder = [max(args.n // 100, 1), max(args.n // 10, 1), args.n]
    if args.K > 1:
        report = k_equidistribution_test(prog.body, measure, args.K, interp, n=args.n, tol=tol)
    else:
        report = weak_convergence_test(
            interp.stream(),
            measure,
            ladder,
            tol_schedule=lambda m: max(tol, 3.0 / (m ** 0.5)),
        )
    if args.report:
        Path(args.report).write_text(json.dumps(report.to_json(), indent=2) + "\n")
    # the verdict's tolerance is the last rung's, max(tol, 3/sqrt(n))
    last = report.ladder[-1] if report.ladder else None
    worst, used = (last.worst(), last.tol) if last else (float("nan"), tol)
    status = "pass" if report.passed else "fail"
    print(f"{status}: n={args.n} K={args.K} worst discrepancy {worst:.4g} vs tol {used:g}")
    if not report.passed:
        print(f"  {report.reason}")
    return 0 if report.passed else 1


def cmd_examples(args) -> int:
    cfg = _config_from(args)
    directory = Path(args.dir) if args.dir else corpus_dir()
    rows = []
    failures = 0
    from .runtime import value_equal

    for item in load_corpus(directory):
        status = "ok"
        notes = [item.type_str]
        try:
            interp = Interpreter(item.program, cfg)
            for n in (1, 7):
                big = interp.big_step(n)
                stream = truncate(Interpreter(item.program, cfg).stream(), n)
                if not value_equal(big, stream):
                    raise AssertionError(f"engines disagree at N={n}")
            notes.append("adequacy@1,7")
            if args.proofs and proof_path(item.name).exists():
                axioms = AxiomSet.from_program(item.program)
                deriv = derivation_from_json(
                    load_proof(item.name), {e.name for e in item.program.externs}
                )
                outcome = DerivationChecker(axioms).check(deriv)
                if not outcome.accepted:
                    raise AssertionError(f"proof rejected: {outcome.failure}")
                notes.append("proof")
        except Exception as err:  # pragma: no cover - failure path
            status = "FAIL"
            notes.append(str(err)[:80])
            failures += 1
        rows.append((item.name, status, "; ".join(notes)))
    width = max(len(name) for name, _, _ in rows)
    for name, status, note in rows:
        print(f"{name:<{width}}  {status:<4}  {note}")
    print(f"{len(rows) - failures}/{len(rows)} corpus programs passed")
    if args.report:
        payload = {
            "schema_version": 1,
            "seed": cfg.seed,
            "passed": len(rows) - failures,
            "total": len(rows),
            "items": [
                {"name": name, "status": status, "note": note}
                for name, status, note in rows
            ],
        }
        Path(args.report).write_text(json.dumps(payload, indent=2) + "\n")
    return 0 if failures == 0 else 1


def _int_at_least(text: str, low: int) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _nonnegative_int(text: str) -> int:
    return _int_at_least(text, 0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="samplerlang",
        description="Type-check, evaluate, rewrite, and verify stream samplers.",
    )
    parser.add_argument("--config", help="flat key=value configuration file")
    parser.add_argument("--seed", help="seed override (also SAMPLERLANG_SEED)")
    parser.add_argument(
        "--print-config", action="store_true", help="print the resolved configuration"
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("check", help="type-check a program")
    p.add_argument("file")
    p.add_argument("--emit-derivation", metavar="OUT.json")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("run", help="evaluate a program to weighted samples")
    p.add_argument("file")
    p.add_argument("--samples", type=_positive_int, required=True)
    p.add_argument("--engine", choices=("bigstep", "stream"), default="stream")
    p.add_argument("--seed", default=argparse.SUPPRESS, help="as the global --seed")
    p.add_argument("--dump", metavar="OUT.csv")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("normalize", help="print the map/reweight normal form")
    p.add_argument("file")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(fn=cmd_normalize)

    p = sub.add_parser("equiv", help="search for an equivalence proof")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--depth", type=_nonnegative_int, default=8)
    p.set_defaults(fn=cmd_equiv)

    p = sub.add_parser("verify", help="check a targeting derivation")
    p.add_argument("proof")
    p.add_argument("--axioms", required=True, help=".smpl file declaring the axioms")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("test-target", help="empirical weak-convergence test")
    p.add_argument("file")
    p.add_argument("--measure", required=True)
    p.add_argument("--n", type=_positive_int, default=100000)
    p.add_argument("--K", type=_positive_int, default=1)
    p.add_argument("--tol", type=float)
    p.add_argument("--seed", default=argparse.SUPPRESS, help="as the global --seed")
    p.add_argument("--report", metavar="OUT.json")
    p.set_defaults(fn=cmd_test_target)

    p = sub.add_parser("examples", help="run the bundled corpus")
    p.add_argument("--dir")
    p.add_argument("--no-proofs", dest="proofs", action="store_false")
    p.add_argument("--report", metavar="OUT.json")
    p.set_defaults(fn=cmd_examples)

    args = parser.parse_args(argv)
    if not (args.print_config or getattr(args, "fn", None)):
        parser.print_help()
        return 2
    try:
        if args.print_config:
            print(_config_from(args).dump())
            return 0
        return args.fn(args)
    except (ParseError, TypeCheckError, EvalError, IntegrationError, MeasureError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (ConfigError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
