"""Run the benchmark over several seeds and report how steady it is.

    python3 perfbench/steadiness.py --workloads graph-lattice,census-first7 --seeds 10

For each workload and end-to-end metric this prints the median, the
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median
against the metric's bound from BENCHMARK.json: "ok" below a third of
the bound, "wide" below the bound, "OVER" beyond it.  The first seed
runs twice, and every exact count (states, orbits, generator
applications, closure states) must repeat between runs with the same
inputs; any difference is flagged.  Run it from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def _run(workload: str, seed: int, seconds: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode} without a result:\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}") from None
    record = json.loads(Path(f".perfbench/results/full-{workload}-seed{seed}-trace0.json").read_text())
    return {"seed": seed, "elapsed_s": elapsed, "result": result,
            "counts": record["counts"], "inputs": record["provenance"]["inputs_sha256"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", help="comma-separated (default: all in BENCHMARK.json)")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", help="write every run's figures to this JSON file")
    args = parser.parse_args(argv)

    bench = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    seeds = list(range(1, args.seeds + 1))
    report, problems = {}, []
    for workload in names:
        runs = []
        for seed in seeds + seeds[:1]:
            runs.append(_run(workload, seed, bench["run_seconds"]))
            r = runs[-1]
            res = r["result"]
            print(f"{workload} seed {seed}: run {r['elapsed_s']:.1f} s  "
                  + "  ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in res["metrics"].items())
                  + f"  error_rate={res['failed'] / res['attempted']:g}", flush=True)
        if not all(r["result"]["correct"] for r in runs):
            problems.append(f"{workload}: a run reported correct=false")
        by_inputs: dict[str, list[dict]] = {}
        for r in runs:
            by_inputs.setdefault(r["inputs"], []).append(r["counts"])
        for digest, counts in by_inputs.items():
            if any(c != counts[0] for c in counts):
                problems.append(f"{workload}: exact counts differ for inputs {digest[:12]}: {counts}")
        stats = {}
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs[:len(seeds)]]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            verdict = "ok" if spread < bound / 3 else "wide" if spread <= bound else "OVER"
            if verdict in ("wide", "OVER"):
                problems.append(f"{workload} {name}: spread {spread:.4f} vs bound {bound}")
            stats[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                           "bound": bound, "verdict": verdict}
            print(f"  {name:<14} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:.4f} (bound {bound}) {verdict}")
        elapsed = [r["elapsed_s"] for r in runs]
        print(f"  run time: median {statistics.median(elapsed):.1f} s, max {max(elapsed):.1f} s")
        report[workload] = {"stats": stats, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    for p in problems:
        print("FLAG", p)
    print("steady" if not problems else f"{len(problems)} flag(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
