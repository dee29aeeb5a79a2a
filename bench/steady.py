"""Two sets of ten benchmark runs of the same code, to show the figures are steady.

    python3 bench/steady.py

Each run is `bench/run.py --workload W --seed S --seconds T --trace 0`, with
T the `run_seconds` of BENCHMARK.json and seeds 1-10 in the first set and
11-20 in the second; within a set the workloads of BENCHMARK.json take
turns, so that a slow spell of the machine falls on all of them.  For every
end-to-end metric and workload it prints each set's median and quartiles,
the spread (interquartile distance over the median) and how far the second
set's median moved from the first's, against the metric's bound.  The
figures are steady when every spread and every move is within its bound and
the share of failed operations is the same in every run.  It also prints
each operation's median time per set (the median over runs of its median
over the warm rounds).  The runs and the summary are written to
bench/out/steady.json.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from statistics import median

import oracles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETS = 2
RUNS = 10
FIRST_SEED = 1


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    details = json.loads((BENCH / "out" / f"{workload}-seed{seed}-trace0.json").read_text())
    warm = [r["ops"] for r in details["rounds"] if not r["cold"]]
    result["ops"] = {op: median(r[op] for r in warm) for op in warm[0]}
    return result


def summarize(sets: list[list[dict]], bounds: dict[str, dict]) -> dict:
    """Per metric: each set's quartiles and spread, and the median shift."""
    out = {}
    for name, spec in bounds.items():
        per_set = []
        for runs in sets:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = oracles.quartiles(values)
            per_set.append({"q1": q1, "median": q2, "q3": q3, "spread": oracles.spread(values),
                            "values": values})
        shift = per_set[1]["median"] / per_set[0]["median"] - 1.0
        out[name] = {"sets": per_set, "shift": shift, "bound": spec["bound"]}
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    runs: dict[str, list[list[dict]]] = {w: [[] for _ in range(SETS)] for w in names}
    seed = FIRST_SEED
    for s in range(SETS):
        for _ in range(RUNS):
            for w in names:
                result = run_once(w, seed, spec["run_seconds"])
                runs[w][s].append(dict(result, seed=seed))
                print(f"set {s + 1} {w} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                ) + f", failed {result['failed']}/{result['attempted']}", flush=True)
            seed += 1

    summary = {}
    steady = True
    print(f"\n{'workload':<12}{'metric':<14}{'set':>4}{'q1':>10}{'median':>10}{'q3':>10}"
          f"{'spread':>8}{'shift':>8}{'bound':>7}")
    for w in names:
        metrics = summarize(runs[w], bounds)
        every_run = [r for set_runs in runs[w] for r in set_runs]
        shares = sorted({r["failed"] / r["attempted"] for r in every_run})
        correct = all(r["correct"] for r in every_run)
        summary[w] = {"metrics": metrics, "failed_shares": shares, "correct": correct}
        steady &= len(shares) == 1 and correct
        for name, entry in metrics.items():
            for i, st in enumerate(entry["sets"]):
                shift = f"{entry['shift']:>+8.3f}" if i == SETS - 1 else f"{'':>8}"
                print(f"{w:<12}{name:<14}{i + 1:>4}{st['q1']:>10.4g}{st['median']:>10.4g}"
                      f"{st['q3']:>10.4g}{st['spread']:>8.3f}{shift}{entry['bound']:>7.2f}")
                steady &= st["spread"] <= entry["bound"]
            steady &= abs(entry["shift"]) <= entry["bound"]
        print(f"{w:<12}failed share of attempted: {shares}; all runs correct: {correct}")
        for op in every_run[0]["ops"]:
            medians = [median(r["ops"][op] for r in set_runs) for set_runs in runs[w]]
            print(f"{'':<12}{op:<50}" + "".join(f"{m:>9.3f}" for m in medians) + " s")
    (BENCH / "out").mkdir(exist_ok=True)
    (BENCH / "out" / "steady.json").write_text(
        json.dumps({"runs": runs, "summary": summary}, indent=1) + "\n", encoding="utf-8",
    )
    print("steady" if steady else "NOT steady: a spread or a shift exceeds its bound")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
