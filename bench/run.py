"""Benchmark of the samplerlang toolchain, one workload per run.

    python3 bench/run.py --workload proofs --seed 1 --seconds 30 --trace 0

A run starts the workload's round processes one after another (three for
proofs, one for streams; see workloads.py).  Each is a fresh interpreter
that imports the toolchain from `src/` next to this directory and repeats
the workload's round of CLI operations, at least twice and until its share
of `--seconds` has passed, checking every operation's output after every
round.  Then the run measures set-up in fresh processes.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones: setup_s, cold_round_s
(the median over the processes of their first round), round_p50_s (the
median of the other rounds) and peak_rss_mb (the median of the processes'
peaks).  With `--trace 1` a single process runs an untraced first round,
then traced and untraced rounds alternate, at least one of each, and the
metrics are the per-layer ones of the traced rounds (see tracing.py and
README.md).  Per-round and per-operation times go to bench/out/, and with
`--trace 1` the spans too.
"""
from __future__ import annotations

import os

# One process at a time, no extra threads: numpy's BLAS would otherwise
# start a pool.  The round processes inherit these.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# The seed of every operation comes from the command line below.
os.environ.pop("SAMPLERLANG_SEED", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402
from time import perf_counter  # noqa: E402

import workloads  # noqa: E402
from speed import Speedometer  # noqa: E402
from tracing import COUNT_METRICS, SELF_METRICS, Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = workloads.OUT

DEFAULT_SEED = 1
#: fresh processes whose import time gives setup_s (their median)
SETUP_SAMPLES = 5
#: a limit on each child process, inside the run's own 180 s
CHILD_TIMEOUT_S = 170

# Runs in a fresh interpreter: imports the CLI and reads the inputs, and
# prints the time it took and that time in reference seconds.
SETUP_CHILD = """\
import sys
sys.path[:0] = sys.argv[1:3]
from speed import Speedometer
if "numpy" in sys.modules or "scipy" in sys.modules:
    sys.exit("numpy or scipy was imported before set-up began")

def setup():
    import samplerlang.cli
    for path in sys.argv[3:]:
        with open(path, encoding="utf-8") as f:
            f.read()

_, seconds, reference = Speedometer().measure(setup)
print(seconds, reference)
"""

END_TO_END_UNITS = {"setup_s": "s", "cold_round_s": "s", "round_p50_s": "s", "peak_rss_mb": "MB"}


def _child(argv: list[str]) -> str:
    """The last line a child interpreter prints; an error if it fails."""
    proc = subprocess.run([sys.executable] + argv, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"child process exited {proc.returncode}: {proc.stderr.strip()[-800:]}")
    return proc.stdout.strip().splitlines()[-1]


def measure_setup(files: list[Path]) -> list[list[float]]:
    """[seconds, reference seconds] of each set-up process."""
    return [[float(v) for v in _child(["-c", SETUP_CHILD, str(SRC), str(BENCH)]
                                      + [str(p) for p in files]).split()]
            for _ in range(SETUP_SAMPLES)]


def run_op(cli, op: workloads.Op) -> workloads.Result:
    out, err = io.StringIO(), io.StringIO()
    error = ""
    rc = None
    t0 = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(op.argv)
        except Exception:  # an escaped exception fails this operation only
            error = traceback.format_exc(limit=3)
    seconds = perf_counter() - t0
    return workloads.Result(rc, out.getvalue(), err.getvalue(), seconds, error)


def run_ops(cli, ops, tracer=None) -> tuple[list[workloads.Result], list[dict]]:
    """Each operation's result and, when traced, the tracer's counts after it."""
    results, counts = [], []
    for op in ops:
        results.append(run_op(cli, op))
        if tracer is not None:
            counts.append(tracer.totals()["counts"])
    return results, counts


def check_round(ops, results) -> list[dict]:
    """One record per failed operation; `known` names the fault behind it,
    when the failure is that fault's."""
    failures = []
    for op, res in zip(ops, results):
        try:
            problems = op.check(res)
        except Exception:
            problems = [traceback.format_exc(limit=3)]
        if problems:
            known = op.fault.why if op.fault and op.fault.matches(res, problems) else ""
            failures.append({"op": op.name, "problems": problems, "known": known})
    return failures


def layer_metrics(totals: dict, round_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced round."""
    out = {metric: totals["self"].get(span, 0.0) for span, metric in SELF_METRICS.items()}
    for name in COUNT_METRICS:
        out[name] = totals["counts"].get(name, 0)
    for layer in ("streams", "bigstep"):
        samples = out.pop(f"{layer}.samples")
        incl = totals["incl"].get(layer, 0.0)
        out[f"{layer}.us_per_sample"] = 1e6 * incl / samples if samples else 0.0
    out["trace.unattributed_s"] = round_s - sum(totals["self"].values())
    return out


def layer_units(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("us_per_sample"):
        return "us"
    return "count"


def round_process(args) -> int:
    """Rounds in this process; prints their records as one JSON line."""
    sys.path.insert(0, str(SRC))
    import samplerlang.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: samplerlang was imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    ops = workloads.WORKLOADS[args.workload](args.seed).ops
    tracer = Tracer() if args.trace else None
    speedometer = Speedometer()
    min_rounds = 3 if tracer else 2  # traced runs need a traced and an untraced warm round
    rounds: list[dict] = []
    failures: list[dict] = []
    start = perf_counter()
    while len(rounds) < min_rounds or perf_counter() - start < args.seconds:
        index = len(rounds)
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
            tracer.reset()
            tracer.active = True
        gc.collect()
        try:
            if traced:  # probes would add to the layers' self times
                t0 = perf_counter()
                results, counts = run_ops(cli, ops, tracer)
                seconds = reference = perf_counter() - t0
            else:
                (results, counts), seconds, reference = speedometer.measure(run_ops, cli, ops)
        finally:
            if traced:
                tracer.active = False
                tracer.uninstall()
        record = {"seconds": seconds, "reference_s": reference, "cold": index == 0,
                  "traced": traced, "ops": {op.name: res.seconds for op, res in zip(ops, results)}}
        if traced:
            record["layers"] = layer_metrics(tracer.totals(), seconds)
            record["op_counts"] = {
                op.name: {k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)}
                for op, before, after in zip(ops, [{}] + counts, counts)
            }
        rounds.append(record)
        for failure in check_round(ops, results):
            failures.append(dict(failure, round=index))
    if tracer:
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"rounds": rounds, "failures": failures, "peak_rss_mb": peak}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # set on the round processes the run starts
    ap.add_argument("--round-process", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "samplerlang" / "cli.py").is_file():
        print(f"error: no samplerlang sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.round_process:
        return round_process(args)

    workload = workloads.WORKLOADS[args.workload](args.seed)
    processes = 1 if args.trace else workload.processes
    share = args.seconds / processes
    records = [
        json.loads(_child([__file__, "--workload", args.workload, "--seed", str(args.seed),
                           "--seconds", repr(share), "--trace", str(args.trace),
                           "--round-process"]))
        for _ in range(processes)
    ]
    # after the round processes, which have written the bytecode caches
    setup = measure_setup(workload.input_files())

    rounds = [dict(r, process=i) for i, rec in enumerate(records) for r in rec["rounds"]]
    failures = [dict(f, process=i) for i, rec in enumerate(records) for f in rec["failures"]]
    attempted = len(rounds) * len(workload.ops)
    unexpected = [f for f in failures if not f["known"]]
    plain = [r for r in rounds if not r["cold"] and not r["traced"]]
    if not args.trace:
        values = {
            "setup_s": median(reference for _seconds, reference in setup),
            "cold_round_s": median(r["reference_s"] for r in rounds if r["cold"]),
            "round_p50_s": median(r["reference_s"] for r in plain),
            "peak_rss_mb": median(rec["peak_rss_mb"] for rec in records),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        layered = [r for r in rounds if r["traced"]]
        metrics = {
            name: {"value": median(r["layers"][name] for r in layered), "unit": layer_units(name)}
            for name in layered[0]["layers"]
        }
        traced_p50 = median(r["seconds"] for r in layered)
        metrics["trace.round_p50_s"] = {"value": traced_p50, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_p50 - median(r["seconds"] for r in plain),
                                       "unit": "s"}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "setup_samples": setup, "rounds": rounds, "failures": failures,
               "metrics": metrics}
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n", encoding="utf-8")

    for failure in failures:
        if (failure["round"] == 0 and failure["process"] == 0) or not failure["known"]:
            tag = f"known fault: {failure['known']}" if failure["known"] else "UNEXPECTED"
            print(f"failed: {failure['op']} ({tag}): {'; '.join(failure['problems'])[:300]}",
                  file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {processes} processes, {len(rounds)} rounds, "
          f"{attempted} operations attempted, {len(failures)} failed")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
