"""One benchmark operation, run in its own process.

    python3 perfbench/work.py census  --action A --n N --out F --threads W --result R --trace
    python3 perfbench/work.py strata  --action A --n N --heights 0,5 --result R --trace
    python3 perfbench/work.py graph   --inputs G1 G2 --outs O1 O2 --threads W --result R [--trace]

``census`` runs the CLI entry point in-process, ``strata`` runs serial
``enumerate_stratum`` calls, and ``graph`` runs the CLI graph command
plus ``check_vanishing`` and ``delta_closure`` per graph file.  The
result (raw facts, per-call times and, with ``--trace``, the spans) goes
to the ``--result`` JSON file; run.py judges it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import time

import spans as spanlib

import f2orbits.actions as actions
import f2orbits.cli as cli
import f2orbits.f2la as f2la
import f2orbits.lattice as lattice
import f2orbits.orbits as orbits
from f2orbits.f2la import F2Vector


def _layer_targets():
    """(owner, attribute, span name) for every layer call traced from here."""
    return [
        (cli, "main", "cli.main"),
        (cli, "enumerate_orbits", "orbits.enumerate_orbits"),
        (cli, "parse_graph_file", "lattice.parse_graph_file"),
        (cli, "predict_census_nonspecial", "lattice.predict_census_nonspecial"),
        (orbits.OrbitCensus, "to_json", "orbits.to_json"),
        (orbits, "generator_masks", "actions.generator_masks"),
        (orbits, "height_functionals", "actions.height_functionals"),
        (actions, "hex_graph", "tri.hex_graph"),
        (lattice, "contains_e6", "lattice.contains_e6"),
        (lattice, "value_counts_closed", "f2la.value_counts_closed"),
        (f2la, "arf", "f2la.arf"),
        (f2la, "kernel_basis", "f2la.qspace"),
    ]


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def do_census(args, tracer) -> dict:
    with tracer.patched(_layer_targets()):
        rc, out = _cli(["census", "--action", args.action, "--n", str(args.n),
                        "--format", "json", "--out", args.out,
                        "--threads", str(args.threads)])
    return {"rc": rc, "stdout": out}


def do_strata(args, tracer) -> dict:
    spec = actions.ActionSpec(args.n, actions.ActionKind.parse(args.action))
    t = len(actions.height_functionals(spec))
    rows = []
    with tracer.patched(_layer_targets()):
        for h in (int(x) for x in args.heights.split(",")):
            t0 = time.perf_counter()
            with tracer.span("orbits.enumerate_stratum"):
                census = orbits.enumerate_stratum(spec, F2Vector(t, h), workers=1)
            rows.append({"height": h, "seconds": time.perf_counter() - t0,
                         "states": census.total_states, "orbits": census.orbit_count})
    return {"strata": rows}


def _q1_cardinality(spec, doc: dict) -> int:
    """Size of the enumerated non-singleton orbit on which q = 1."""
    big = [o for o in doc["orbits"] if o["cardinality"] > 1
           and spec.qspace.q_bits(int(o["representative_hex"], 16)) == 1]
    return big[0]["cardinality"] if len(big) == 1 else -1


def do_graph(args, tracer) -> dict:
    rows = []
    for path, out in zip(args.inputs, args.outs):
        with tracer.patched(_layer_targets()):
            rc, text = _cli(["graph", "--input", path, "--format", "json",
                             "--out", out, "--threads", str(args.threads)])
            with open(path) as fh, tracer.span("lattice.parse_graph_file"):
                spec = cli.parse_graph_file(fh.read())
            with tracer.span("lattice.check_vanishing"):
                report = lattice.check_vanishing(spec)
            with tracer.span("lattice.delta_closure"):
                closure = lattice.delta_closure(spec)
        with open(out) as fh:
            doc = json.load(fh)
        rows.append({
            "input": path, "rc": rc, "stdout": text,
            "states": doc["total_states"], "orbits": len(doc["orbits"]),
            "generators": len(spec.basis_subset),
            "vanishing": report.is_vanishing_lattice,
            "single_orbit": closure.single_orbit,
            "closure_states": len(closure.vectors),
            "q1_orbit": _q1_cardinality(spec, doc),
        })
        del closure
    return {"graphs": rows}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="work.py")
    parser.add_argument("mode", choices=["census", "strata", "graph"])
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--action")
    parser.add_argument("--n", type=int)
    parser.add_argument("--out")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--heights")
    parser.add_argument("--inputs", nargs="*", default=[])
    parser.add_argument("--outs", nargs="*", default=[])
    args = parser.parse_args(argv)
    run = {"census": do_census, "strata": do_strata, "graph": do_graph}[args.mode]
    tracer = spanlib.tracer(args.trace)
    result = run(args, tracer)
    result["spans"] = list(tracer.spans)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
