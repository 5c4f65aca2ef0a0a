"""Command-line front end.

Subcommands: census, verify, graph, patterns, arf.  Each command
returns its document, its status lines and its exit code, and writes
nothing; `main` alone writes the document to --out or stdout and sends
the status lines to stdout beside an --out file, to stderr otherwise.
Exit codes: 0 on success or a passing verification, 1 on a verification
diff, 2 on usage or parse errors and on an --input or --out file that
cannot be read or written, 3 when a resource guard refuses the job.
Given the same arguments, output files are byte-identical run to run
regardless of the worker count.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections import Counter
from contextlib import nullcontext

# numpy's OpenBLAS starts one thread per usable CPU when it loads, about
# 70 ms of wall time on a 2-CPU machine, and f2orbits never calls BLAS.
# This runs before the first package import loads numpy (the package
# namespace itself is lazy), keeps a value the user set, and touches
# only the CLI's own process and the workers it forks.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .f2la import F2Vector, arf, value_counts_brute, value_counts_closed
from .actions import ActionKind, ActionSpec
from .classify import _record_diff, verify
from .lattice import (NonspecialityUnknown, build, hex_lattice_graph,
                      parse_graph_file, predict_census_nonspecial)
from .orbits import EnumerationGuardError, OrbitCensus, enumerate_orbits, enumerate_stratum
from .tri import hex_graph, pattern_E, pattern_P, pattern_Ptilde, pattern_R

EXIT_OK = 0
EXIT_DIFF = 1
EXIT_USAGE = 2
EXIT_GUARD = 3

# Largest neighbor graph (order n-1 shape, n(n-1)/2 vertices) that
# `patterns` and `arf` build, so n <= 64; their cost grows about
# cubically in the vertex count.
NEIGHBOR_GRAPH_LIMIT = 1 << 11


def _census_table(census: OrbitCensus) -> str:
    rows = ["representative_hex  cardinality  height_bits  type_label"]
    for r in census.records:
        rows.append("{:<18}  {:>11}  {:<11}  {}".format(
            format(r.representative.bits, "x"), r.cardinality,
            r.height.to_string() if r.height is not None else "-",
            r.type_label or "-"))
    return "\n".join(rows) + "\n"


def _render(census: OrbitCensus, fmt: str) -> str:
    if fmt == "json":
        return census.to_json()
    if fmt == "csv":
        return census.to_csv()
    return _census_table(census)


def _check_out(out_path) -> None:
    """Refuse an --out that cannot be written (exit 2) before any work
    starts: a directory, a path whose directory is missing or not
    writable, or a file that is not writable.  Nothing is created or
    truncated."""
    if out_path is None:
        return
    folder = os.path.dirname(out_path) or "."
    if os.path.isdir(out_path):
        problem = "it is a directory"
    elif not os.path.isdir(folder):
        problem = f"no directory {folder}"
    elif not os.access(folder, os.W_OK | os.X_OK) or \
            os.path.exists(out_path) and not os.access(out_path, os.W_OK):
        problem = "permission denied"
    else:
        return
    raise OSError(f"cannot write --out {out_path}: {problem}")


def _timed(search, *args, **kwargs) -> tuple[OrbitCensus, str]:
    """Run one census search; return the census and its status line,
    which times the search alone."""
    t0 = time.perf_counter()
    census = search(*args, **kwargs)
    elapsed = time.perf_counter() - t0
    return census, f"orbits={census.orbit_count} states={census.total_states} elapsed={elapsed:.2f}"


def cmd_census(args) -> tuple[str, list[str], int]:
    spec = ActionSpec(args.n, ActionKind.parse(args.action))
    if args.height is None:
        census, line = _timed(enumerate_orbits, spec, workers=args.threads)
    else:
        census, line = _timed(enumerate_stratum, spec, F2Vector.from_string(args.height),
                              workers=args.threads)
    return _render(census, args.format), [line], EXIT_OK


def cmd_verify(args) -> tuple[str, list[str], int]:
    report = verify(args.n, ActionKind.parse(args.action), workers=args.threads)
    text = report.to_json() if args.format == "json" else report.to_text()
    # the verdict is a status line beside an output file only: on stdout
    # the report already ends with it
    verdict = ["PASS" if report.passed else "FAIL"] if args.out else []
    return text, verdict, EXIT_OK if report.passed else EXIT_DIFF


def cmd_graph(args) -> tuple[str, list[str], int]:
    with open(args.input) as fh:
        spec = parse_graph_file(fh.read())
    census, line = _timed(enumerate_orbits, spec, workers=args.threads)
    document = _render(census, args.format)
    try:
        pred = predict_census_nonspecial(spec)
    except NonspecialityUnknown as exc:
        return document, [line, f"prediction: not licensed ({exc})"], EXIT_OK
    bad = _record_diff(pred, census)
    verdict = f"MISMATCH ({bad})" if bad else "matches enumeration"
    return (document, [line, f"prediction: {pred.orbit_count} orbits (2^kappa+2); {verdict}"],
            EXIT_DIFF if bad else EXIT_OK)


def _check_order(n: int) -> None:
    """Refuse an order below 1 (exit 2) or one whose neighbor graph is
    over NEIGHBOR_GRAPH_LIMIT (exit 3), before anything is built."""
    if n < 1:
        raise ValueError(f"need order n >= 1, got {n}")
    vertices = n * (n - 1) // 2
    if vertices > NEIGHBOR_GRAPH_LIMIT:
        raise EnumerationGuardError(
            f"the order-{n - 1} neighbor graph of n={n} has {vertices} vertices, "
            f"over the limit {NEIGHBOR_GRAPH_LIMIT}")


def cmd_patterns(args) -> tuple[str, list[str], int]:
    n = args.n
    _check_order(n)
    families = [("E", pattern_E, n, f"n={n}"), ("R", pattern_R, n, f"n={n}"),
                ("P", pattern_P, n // 2, f"order {n - 1}"),
                ("~P", pattern_Ptilde, n // 2, f"order {n - 1}")]
    out = [f"{name}_{i} ({header}):\n{pattern(n, i).grid()}"
           for name, pattern, count, header in families for i in range(1, count + 1)]
    if n >= 2:
        graph = hex_graph(n)
        degrees = Counter(graph.degree(v) for v in range(graph.vertex_count))
        deg_s = ", ".join(f"{cnt} of degree {d}" for d, cnt in sorted(degrees.items()))
        out.append(f"neighbor graph of the order-{n - 1} shape: "
                   f"{graph.vertex_count} vertices, {len(graph.edges)} edges ({deg_s})")
    return "\n".join(out) + "\n", [], EXIT_OK


def cmd_arf(args) -> tuple[str, list[str], int]:
    n = args.n
    _check_order(n)
    spec = build(hex_lattice_graph(n))
    space = spec.qspace
    cls = arf(space)
    c0, c1 = value_counts_closed(space)
    out = [
        f"quadratic space of the order-{n - 1} neighbor graph "
        f"(dim {space.dim}, m={space.m}, kernel dim {space.kappa})",
        f"arf class: {cls.value}",
        f"value counts (closed form): |q^-1(0)|={c0} |q^-1(1)|={c1}",
    ]
    if space.dim <= 24:
        b0, b1 = value_counts_brute(space)
        out.append(f"value counts (brute force): |q^-1(0)|={b0} |q^-1(1)|={b1} "
                   f"({'match' if (b0, b1) == (c0, c1) else 'MISMATCH'})")
    return "\n".join(out) + "\n", [], EXIT_OK


def _worker_count(text: str) -> int:
    problem = argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r}")
    try:
        value = int(text)
    except ValueError:
        raise problem from None
    if value < 1:
        raise problem
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="f2orbits",
        description="Orbit censuses of transvection-style actions on F2 triangular spaces")
    sub = parser.add_subparsers(dest="command", required=True)
    census_formats = ("json", "csv", "table")

    def common(p, formats=census_formats):
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--format", default="table", choices=formats)
        p.add_argument("--threads", type=_worker_count, default=None,
                       help="worker count, at least 1 (default: available parallelism)")

    def action_spec(p, formats=census_formats):
        p.add_argument("--action", default="first", choices=[k.value for k in ActionKind])
        p.add_argument("--n", type=int, required=True)
        common(p, formats)

    p_census = sub.add_parser("census", help="enumerate a full census or one stratum")
    action_spec(p_census)
    p_census.add_argument("--height", default=None,
                          help="height bits (restricts to one stratum)")
    p_census.set_defaults(func=cmd_census)

    p_verify = sub.add_parser("verify", help="diff enumeration against the closed form")
    action_spec(p_verify, ("json", "table"))
    p_verify.set_defaults(func=cmd_verify)

    p_graph = sub.add_parser("graph", help="census of a transvection group from a graph file")
    p_graph.add_argument("--input", required=True)
    common(p_graph)
    p_graph.set_defaults(func=cmd_graph)

    p_pat = sub.add_parser("patterns", help="dump the invariant patterns as 0/1 grids")
    p_pat.add_argument("--n", type=int, required=True)
    p_pat.add_argument("--out", default=None)
    p_pat.set_defaults(func=cmd_patterns)

    p_arf = sub.add_parser("arf", help="kernel dim, Arf class and value counts "
                                       "of the neighbor-graph quadratic space")
    p_arf.add_argument("--n", type=int, required=True)
    p_arf.add_argument("--out", default=None)
    p_arf.set_defaults(func=cmd_arf)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_out(args.out)
        document, status, code = args.func(args)
        with open(args.out, "w") if args.out else nullcontext(sys.stdout) as fh:
            fh.write(document)
        # status lines go to stdout beside an output file, and to stderr
        # when the document itself is on stdout
        for line in status:
            print(line, file=sys.stdout if args.out else sys.stderr)
        return code
    except EnumerationGuardError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ValueError, OSError) as exc:
        # an --input that cannot be read or an --out that cannot be
        # written is a usage error, reported before anything reaches
        # stdout; an --out is checked before any work starts
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
