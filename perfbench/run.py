"""Census benchmark for f2orbits.

    python3 perfbench/run.py --workload census-first7 --seed 1 --seconds 5 --trace 0

Run it from the root of a checkout: the package is imported from ./src,
and scratch files and result records go to ./.perfbench.  A run makes its
inputs from --seed, times SETUP_REPEATS fresh set-up processes, runs
whole operations, one at a time, until --seconds have passed (at least
one), and times SETUP_REPEATS set-up processes again.  Every operation is
one child process and every output is checked.
The report ends with one JSON line: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1.

Workloads (--scale smoke swaps in tiny instances of the same shapes):

  graph-lattice   the hex lattice of order 6 and seeded random connected
                  18-vertex graphs with an induced E6: `f2orbits graph`,
                  check_vanishing and delta_closure per graph
  census-first7   `f2orbits census --action first --n 7`, 128 strata of 2^21
  census-second8  `f2orbits census --action second --n 8`, 16 strata of 2^24
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import spans as spanlib
from harness import Child, Op, Run, sha256

SETUP_REPEATS = 6  # set-up processes before the operations, and again after them

END_TO_END = {
    "wall_ref_s": "s",
    "setup_s": "s",
    "states_per_ref_s": "1/s",
    "cpu_ref_s": "s",
    "peak_rss_mib": "MiB",
}

WORKLOAD_NAMES = ("graph-lattice", "census-first7", "census-second8")

PER_LAYER = {
    "actions.generator_masks_s": "s",
    "actions.height_functionals_s": "s",
    "actions.generators": "count",
    "tri.hex_graph_s": "s",
    "orbits.enumerate_orbits_s": "s",
    "orbits.stratum_s.p50": "s",
    "orbits.stratum_s.max": "s",
    "orbits.stratum_s.sum": "s",
    "orbits.stratum_sample": "count",
    "orbits.strata": "count",
    "orbits.states": "count",
    "orbits.orbits": "count",
    "orbits.gen_apps": "count",
    "orbits.gen_apps_per_s": "1/s",
    "orbits.parallel_efficiency": "ratio",
    "orbits.visited_bytes": "bytes",
    "orbits.to_json_s": "s",
    "orbits.json_bytes": "bytes",
    "lattice.parse_graph_file_s": "s",
    "lattice.check_vanishing_s": "s",
    "lattice.delta_closure_s": "s",
    "lattice.contains_e6_s": "s",
    "lattice.predict_census_nonspecial_s": "s",
    "lattice.closure_states": "count",
    "f2la.qspace_s": "s",
    "f2la.arf_s": "s",
    "f2la.value_counts_closed_s": "s",
    "classify.predict_s": "s",
    "classify.label_orbits_s": "s",
    "cli.main_s": "s",
    "cli.overhead_s": "s",
    "trace.overhead_s": "s",
    "trace.wall_s": "s",
    "trace.spans": "count",
}


# ---------------------------------------------------------------- metrics

def end_to_end(ops: list[Op], setup: list[Child]) -> dict:
    """Operation and set-up times at the reference CPU speed."""
    return {
        "wall_ref_s": statistics.median(o.wall / o.slowdown for o in ops),
        "setup_s": statistics.median(c.wall / c.slowdown for c in setup),
        "states_per_ref_s": statistics.median(o.states * o.slowdown / o.wall for o in ops),
        "cpu_ref_s": statistics.median(o.cpu / o.slowdown for o in ops),
        "peak_rss_mib": max(o.rss_kib for o in ops) / 1024,
    }


def raw_times(ops: list[Op], setup: list[Child]) -> dict:
    raw = {"wall_s": statistics.median(o.wall for o in ops),
           "cpu_s": statistics.median(o.cpu for o in ops),
           "slowdown": statistics.median(o.slowdown for o in ops)}
    if setup:
        raw.update(setup_s=statistics.median(c.wall for c in setup),
                   setup_slowdown=statistics.median(c.slowdown for c in setup))
    return raw


SPAN_TIMES = ("actions.generator_masks", "actions.height_functionals", "tri.hex_graph",
              "orbits.enumerate_orbits", "orbits.to_json", "lattice.parse_graph_file",
              "lattice.check_vanishing", "lattice.delta_closure", "lattice.contains_e6",
              "lattice.predict_census_nonspecial", "f2la.qspace", "f2la.arf",
              "f2la.value_counts_closed", "classify.predict", "classify.label_orbits", "cli.main")


def per_layer(wl, run: Run, op: Op, spans: list[dict], span_cost: float, extra: dict) -> dict:
    """Per-layer figures of one traced operation; 0 where a layer is not used."""
    m = {name: 0 for name in PER_LAYER}
    for name in SPAN_TIMES:
        m[name + "_s"] = spanlib.total(spans, name)
    m["cli.overhead_s"] = m["cli.main_s"] - spanlib.inside(spans, "orbits.enumerate_orbits",
                                                           "cli.main")
    m.update(op.counts)
    m["orbits.json_bytes"] = op.json_bytes
    engine_s = wl.layer_metrics(run, op, extra, m)
    m["orbits.gen_apps_per_s"] = m["orbits.gen_apps"] / engine_s
    m["trace.spans"] = len(spans)
    m["trace.overhead_s"] = span_cost * len(spans)
    m["trace.wall_s"] = op.wall / op.slowdown
    return m


# ---------------------------------------------------------------- provenance

def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout; None when git is missing or this is no repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True)
    except FileNotFoundError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(root: Path, run: Run, inputs_digest: str) -> dict:
    cpuinfo = _read(Path("/proc/cpuinfo")) or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if kind in ("Unified", "Data") and level in ("2", "3"):
            caches[f"L{level}"] = size
    src = hashlib.sha256()
    for path in sorted((root / "src" / "f2orbits").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "usable_cpus": run.workers,
        "cpu_model": model,
        "caches_per_core": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(root),
        "source_sha256": src.hexdigest(),
        "workload": run.args.workload,
        "scale": run.args.scale,
        "seed": run.args.seed,
        "seconds": run.args.seconds,
        "trace": run.args.trace,
        "inputs_sha256": inputs_digest,
    }


# ---------------------------------------------------------------- measuring

def time_setup(run: Run, code: str) -> list[Child]:
    """SETUP_REPEATS fresh set-up processes, one after another."""
    children = []
    for _ in range(SETUP_REPEATS):
        child = run.child([sys.executable, "-c", code], pin=True)
        if child.rc != 0:
            raise RuntimeError(f"set-up process failed: {child.log.strip()[-300:]}")
        children.append(child)
    return children


def measure(wl, run: Run) -> dict:
    inputs = wl.inputs(run)
    digest = sha256(json.dumps(inputs["content"], sort_keys=True).encode())
    record = {"provenance": provenance(run.root, run, digest)}
    traced = bool(run.args.trace)
    setup, ops = [], []
    if traced:
        # one operation, so per-layer figures compare run to run
        ops = [wl.op(run, inputs, True)]
    else:
        code = wl.setup_code(inputs)
        setup += time_setup(run, code)
        start = time.perf_counter()
        while not ops or time.perf_counter() - start < run.args.seconds:
            ops.append(wl.op(run, inputs, False))
        setup += time_setup(run, code)
    failed = sum(len(o.failures) for o in ops)
    record.update(
        attempted=sum(o.attempted for o in ops), failed=failed,
        setup_s=[c.wall for c in setup],
        counts=ops[0].counts,
        operations=[{"wall_s": o.wall, "cpu_s": o.cpu, "peak_rss_kib": o.rss_kib,
                     "slowdown": o.slowdown, "states": o.states, "attempted": o.attempted,
                     "failures": o.failures} for o in ops],
        raw=raw_times(ops, setup))
    if not traced:
        record["metrics"] = end_to_end(ops, setup)
        return record
    spans = list(run.tracer.spans)
    for op in ops:
        offset = len(spans)
        spans += [dict(s, parent=None if s["parent"] is None else s["parent"] + offset)
                  for s in spanlib.rescaled(op.result.get("spans", []), op.slowdown)]
    record["spans"] = spans
    record["self_s"] = spanlib.self_times(spans)
    if failed:
        record["metrics"] = {name: 0 for name in PER_LAYER}
        return record
    extra = wl.traced_extra(run)
    record.update(extra)
    record["metrics"] = per_layer(wl, run, ops[0], spans, run.tracer.span_cost(), extra)
    return record


def _report(record: dict, units: dict) -> list[str]:
    prov = record["provenance"]
    lines = [f"perfbench {prov['workload']} seed={prov['seed']} trace={prov['trace']} "
             f"scale={prov['scale']} operations={len(record['operations'])}",
             "host " + json.dumps(prov, sort_keys=True)]
    for name, value in record["metrics"].items():
        lines.append(f"  {name:<38} {value:>16.6g} {units[name]}")
    for name, value in record["raw"].items():
        unit = "ratio" if name.endswith("slowdown") else "s"
        lines.append(f"  raw {name:<34} {value:>16.6g} {unit}")
    if "self_s" in record:
        for name, value in sorted(record["self_s"].items()):
            lines.append(f"  self {name:<33} {value:>16.6g} s")
    rate = record["failed"] / record["attempted"]
    lines.append(f"  {'error_rate':<38} {rate:>16.6g} ratio "
                 f"({record['failed']} of {record['attempted']} operations failed)")
    for i, op in enumerate(record["operations"]):
        for unit, messages in op["failures"].items():
            for message in messages:
                lines.append(f"  FAILED operation {i} unit {unit}: {message}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny instances of each workload, for the tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "f2orbits" / "__init__.py").is_file():
        print("perfbench: no src/f2orbits here; run from the root of an f2orbits checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from workloads import WORKLOADS

    results = root / ".perfbench" / "results"
    work = root / ".perfbench" / f"work-{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = Run(root, work, args)
        record = measure(WORKLOADS[args.scale][args.workload], run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    print("\n".join(_report(record, units)))
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.scale}-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    correct = record["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in record["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
