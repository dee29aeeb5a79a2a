"""One point of the benchmark trajectory: a BENCH_<n>.json file.

    python3 tools/trajectory.py BENCH_16.json --base 9ba4876

Runs `bench/run.py` on every workload, at `--trace 0` (end-to-end metrics)
and at `--trace 1` (per-layer metrics), once on this checkout and once on
the base revision, alternating between the two so that both see the same
spells of the host.  The base revision is exported with `git archive` into
a temporary directory, whose `bench/run.py` imports that revision's `src/`.
The file, written at the repository root, holds every run's result line
(`correct`, `attempted`, `failed`, `metrics`) for the parent ("base") and
this checkout ("head"), and the host: processor count and the Python, numpy
and scipy versions.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("proofs", "streams")
#: every point of the trajectory is measured at the same seed and run length,
#: so that points of different changes compare
SEED = 1
SECONDS = 20.0


def host() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout


def export(rev: str, into: Path) -> None:
    """The files of rev, as git archive writes them, under into."""
    archive = into / "base.tar"
    with open(archive, "wb") as out:
        subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, stdout=out)
    with tarfile.open(archive) as tar:
        tar.extractall(into / "tree", filter="data")


def bench(tree: Path, workload: str, trace: int) -> dict:
    """The result line of one benchmark run in tree."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(argv[1:])} in {tree} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("name", help="file to write at the repository root, e.g. BENCH_16.json")
    ap.add_argument("--base", required=True, help="the parent revision to compare against")
    args = ap.parse_args(argv)

    point = {
        "base": git("rev-parse", args.base).strip(),
        "head": git("rev-parse", "HEAD").strip(),
        "head_dirty": bool(git("status", "--porcelain", "--", "src", "bench").strip()),
        "seed": SEED,
        "seconds": SECONDS,
        "host": host(),
        "runs": {"base": {}, "head": {}},
    }
    with tempfile.TemporaryDirectory() as tmp:
        export(args.base, Path(tmp))
        trees = {"base": Path(tmp) / "tree", "head": ROOT}
        for workload in WORKLOADS:
            for trace in (0, 1):
                for side, tree in trees.items():
                    print(f"{side} {workload} --trace {trace}", file=sys.stderr, flush=True)
                    result = bench(tree, workload, trace)
                    point["runs"][side][f"{workload}/trace{trace}"] = result
    (ROOT / args.name).write_text(json.dumps(point, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {args.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
