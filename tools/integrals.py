"""Record the quadrature results of a pytest run, and list those that differ
between two records.

    PYTHONPATH=src python3 tools/integrals.py record OUT.json [pytest args ...]
    python3 tools/integrals.py diff OLD.json NEW.json

`record` runs pytest in this process with a plugin that wraps
`quadrature.integrate`, `quadrature.normalizer` and
`quadrature.measure_equal` wherever a module binds them.  It writes the
result of each call that is not made inside another of the three: a float
as `float.hex`, a `MeasureEqualReport` as its worst discrepancy and each
member's, and a raised exception as its class and message.  The file maps
each test id to its results in call order.  The `samplerlang` it wraps is
the one Python imports, so `PYTHONPATH=<tree>/src`, run from `<tree>`,
records that tree; pytest arguments default to the whole suite.

`diff` prints each (test id, call number) whose result differs between the
two files, or that only one of them has, and exits 1 if there is one.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

WRAPPED = ("integrate", "normalizer", "measure_equal")


def _encode(result):
    if isinstance(result, float):
        return result.hex()
    if hasattr(result, "details"):  # a MeasureEqualReport
        return {
            "max": float(result.max_discrepancy).hex(),
            "details": [[name, float(d).hex()] for name, d in result.details],
        }
    return repr(result)


class Recorder:
    """A pytest plugin that records the top-level results of `WRAPPED`."""

    def __init__(self):
        self.results: dict[str, list] = {}
        self.test = "<collection>"
        self.depth = 0

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            if self.depth:
                return fn(*args, **kwargs)
            # the test function's name, for an integral of a TestFn
            g = args[1] if len(args) > 1 else kwargs.get("g")
            entry = {"fn": name, "g": getattr(g, "name", None) if name == "integrate" else None}
            self.depth += 1
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                entry["error"] = f"{type(err).__name__}: {err}"
                raise
            else:
                entry["result"] = _encode(result)
                return result
            finally:
                self.depth -= 1
                self.results.setdefault(self.test, []).append(entry)

        return recorded

    def pytest_configure(self, config):
        from samplerlang import quadrature

        for name in WRAPPED:
            old = getattr(quadrature, name)
            new = self._wrap(name, old)
            for module in list(sys.modules.values()):
                if getattr(module, name, None) is old:
                    setattr(module, name, new)

    def pytest_runtest_protocol(self, item, nextitem):
        self.test = item.nodeid
        return None


def record(out: str, pytest_args: list[str]) -> int:
    import pytest

    recorder = Recorder()
    code = pytest.main(pytest_args, plugins=[recorder])
    with open(out, "w") as f:
        json.dump(recorder.results, f, indent=1, sort_keys=True)
    calls = sum(map(len, recorder.results.values()))
    print(f"{calls} results of {len(recorder.results)} tests written to {out}")
    return int(code)


def diff(old_path: str, new_path: str) -> int:
    with open(old_path) as f:
        old = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    compared = differ = 0
    for test in sorted(old.keys() | new.keys()):
        a, b = old.get(test, []), new.get(test, [])
        for k in range(max(len(a), len(b))):
            compared += 1
            x = a[k] if k < len(a) else None
            y = b[k] if k < len(b) else None
            if x != y:
                differ += 1
                print(f"{test} #{k}:\n  old {json.dumps(x)}\n  new {json.dumps(y)}")
    print(f"{differ} of {compared} results differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    rec = sub.add_parser("record", help="run pytest and write its quadrature results")
    rec.add_argument("out")
    rec.add_argument("pytest_args", nargs=argparse.REMAINDER)
    dif = sub.add_parser("diff", help="list the results that differ between two records")
    dif.add_argument("old")
    dif.add_argument("new")
    args = parser.parse_args(argv)
    if args.mode == "record":
        return record(args.out, args.pytest_args)
    return diff(args.old, args.new)


if __name__ == "__main__":
    sys.exit(main())
