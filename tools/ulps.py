"""Compare two CSV outputs of `samplerlang run` field by field, and give
the largest distance between their floats in units in the last place.

    python3 tools/ulps.py OLD.csv NEW.csv

Both files must have the same header and the same number of rows.  Each
field of OLD is compared with the field at the same row and column of NEW:
two fields that both read as floats by their bits, any other two as text.
It prints the number of fields compared, the number that differ (of them,
those that are not two finite floats) and the largest distance in ulps
between two differing finite floats, with where it is.  The distance
between two floats is the number of floats from one to the other, so 0.0
and -0.0 are 1 apart and a sign change counts every float in between.

Exits 0 if no field differs, 1 if some do, and 2 if the files do not have
the same shape.
"""
from __future__ import annotations

import argparse
import csv
import math
import struct
import sys


def ordinal(x: float) -> int:
    """The position of x among the floats, in order: -0.0 is -1 and 0.0 is 0,
    so that adjacent floats are 1 apart."""
    (bits,) = struct.unpack("<q", struct.pack("<d", x))
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF) - 1


def ulps(a: float, b: float) -> int:
    """The number of floats from a to b, both finite."""
    return abs(ordinal(a) - ordinal(b))


def _float(field: str):
    try:
        return float(field)
    except ValueError:
        return None


def _rows(path: str) -> list[list[str]]:
    with open(path, newline="") as f:
        return list(csv.reader(f))


def compare(old: list[list[str]], new: list[list[str]]) -> dict:
    """The comparison of two CSVs of the same shape: fields compared, fields
    that differ, those of them that are not two finite floats, and the
    largest distance in ulps with its (row, column name), or None."""
    header = old[0]
    compared = differ = other = 0
    worst = None
    for i, (a_row, b_row) in enumerate(zip(old[1:], new[1:]), start=1):
        for j, (a, b) in enumerate(zip(a_row, b_row)):
            compared += 1
            if a == b:
                continue
            x, y = _float(a), _float(b)
            if x is not None and y is not None and struct.pack("<d", x) == struct.pack("<d", y):
                continue  # the same float, written in another form
            differ += 1
            if x is None or y is None or not (math.isfinite(x) and math.isfinite(y)):
                other += 1
                continue
            d = ulps(x, y)
            if worst is None or d > worst[0]:
                worst = (d, i, header[j] if j < len(header) else str(j))
    return {"compared": compared, "differ": differ, "other": other, "worst": worst}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    old, new = _rows(args.old), _rows(args.new)
    if not old or not new or old[0] != new[0] or len(old) != len(new) or \
            any(len(a) != len(b) for a, b in zip(old, new)):
        print(f"{args.old} and {args.new} do not have the same header, rows and fields")
        return 2
    result = compare(old, new)
    line = f"{result['compared']} fields compared, {result['differ']} differ"
    if result["other"]:
        line += f" ({result['other']} not two finite floats)"
    if result["worst"] is not None:
        d, row, column = result["worst"]
        line += f"; largest distance {d} ulp{'s' if d != 1 else ''} (row {row}, {column})"
    print(line)
    return 1 if result["differ"] else 0


if __name__ == "__main__":
    sys.exit(main())
