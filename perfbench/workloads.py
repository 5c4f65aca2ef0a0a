"""The workloads: seeded inputs, one operation, and its correctness gate.

Each workload makes its inputs from the seed, gives the code a fresh
set-up process runs, runs one operation as a child process, and checks
the outputs against an independent route: the committed census digest
and classify's closed form, or the E6 prediction and the lattice
conditions.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

from f2orbits.actions import ActionKind, ActionSpec, generator_masks, height_functionals
from f2orbits.classify import LabelingError, label_orbits, predict
from f2orbits.f2la import F2Vector
from f2orbits.lattice import Graph, hex_lattice_graph
from f2orbits.orbits import OrbitCensus, OrbitRecord

import spans as spanlib
from harness import Op, Run, sha256


def _spec(action: str, n: int) -> ActionSpec:
    return ActionSpec(n, ActionKind.parse(action))


def _shape(specs) -> tuple[int, int, int]:
    """(generators summed, most strata, bytes of the largest stratum's visited map)."""
    gens = strata = visited = 0
    for action, n in specs:
        spec = _spec(action, n)
        t = len(height_functionals(spec))
        gens += len(generator_masks(spec))
        strata = max(strata, 1 << t)
        visited = max(visited, 1 << (spec.state_dim - t))
    return gens, strata, visited


@dataclass(frozen=True)
class Census:
    """`f2orbits census` of a whole action, as a user runs it."""

    action: str
    n: int
    sample: int  # strata timed one by one in a traced run

    def inputs(self, run: Run) -> dict:
        return {"content": ["census", "--action", self.action, "--n", str(self.n)]}

    def setup_code(self, inputs: dict) -> str:
        return ("import f2orbits\nimport f2orbits.actions as a\n"
                f"s = a.ActionSpec({self.n}, a.ActionKind.parse({self.action!r}))\n"
                "a.generator_masks(s)\na.height_functionals(s)\n")

    def op(self, run: Run, inputs: dict, trace: bool) -> Op:
        out = run.path("census.json")
        args = ["--action", self.action, "--n", str(self.n), "--out", str(out),
                "--threads", str(run.workers)]
        if trace:
            child, result = run.worker("census", *args, trace=True)
            stdout = result.get("stdout", "")
        else:
            child = run.child([sys.executable, "-m", "f2orbits.cli", "census",
                               "--format", "json", *args])
            stdout, result = child.log, {}
        spec = _spec(self.action, self.n)
        op = Op(child.wall, child.cpu, child.rss_kib, child.slowdown, 1 << spec.state_dim, 1,
                result=result)
        rc = child.rc or result.get("rc", 0)
        if rc != 0 or not out.exists():
            op.fail(0, f"census exited {rc}: {child.log.strip()[-300:]}")
            return op
        text = out.read_bytes()
        op.json_bytes = len(text)
        for failure in self._gate(run, spec, text, stdout):
            op.fail(0, failure)
        if not op.failures:
            doc = json.loads(text)
            op.counts = {"orbits.states": doc["total_states"], "orbits.orbits": len(doc["orbits"]),
                         "orbits.gen_apps": doc["total_states"] * len(generator_masks(spec))}
        return op

    def _gate(self, run: Run, spec: ActionSpec, text: bytes, stdout: str) -> list[str]:
        failures = []
        ref = run.references["census_sha256"].get(f"{self.action}-{self.n}")
        if sha256(text) != ref:
            failures.append(f"census bytes sha256 {sha256(text)} != reference {ref}")
        try:
            doc = json.loads(text)
            records = tuple(
                OrbitRecord(F2Vector(spec.state_dim, int(o["representative_hex"], 16)),
                            o["cardinality"], height=F2Vector.from_string(o["height_bits"]))
                for o in doc["orbits"])
            census = OrbitCensus(doc["spec"], doc["n"], doc["kind"], spec.state_dim,
                                 doc["total_states"], records)
        except (ValueError, KeyError, TypeError, AssertionError) as exc:
            return failures + [f"census output does not parse as a partition: {exc}"]
        summary = f"orbits={census.orbit_count} states={census.total_states} "
        if summary not in stdout:
            failures.append(f"summary line does not read {summary.strip()!r}")
        with run.tracer.span("classify.predict"):
            pred = predict(self.n, spec.kind)
        observed = {h: sorted(r.cardinality for r in rows)
                    for h, rows in census.by_height().items()}
        expected = {h: sorted(card for _, card in rows) for h, rows in pred.by_height.items()}
        if observed != expected:
            bad = sorted(h for h in expected.keys() | observed.keys()
                         if observed.get(h) != expected.get(h))
            failures.append(f"per-height layout differs from classify.predict at heights {bad[:4]}")
        try:
            with run.tracer.span("classify.label_orbits"):
                label_orbits(census, pred)
        except LabelingError as exc:
            failures.append(f"labeling: {exc}")
        return failures

    def traced_extra(self, run: Run) -> dict:
        """Serial enumerate_stratum over a seeded sample of heights, at the reference speed."""
        strata = 1 << len(height_functionals(_spec(self.action, self.n)))
        rng = random.Random(f"{run.args.seed}:strata:{self.action}:{self.n}")
        heights = sorted(rng.sample(range(strata), min(self.sample, strata)))
        child, result = run.worker(
            "strata", "--action", self.action, "--n", str(self.n),
            "--heights", ",".join(map(str, heights)), trace=True, pin=True)
        if child.rc != 0:
            raise RuntimeError(f"stratum sample failed: {child.log.strip()[-300:]}")
        rows = [dict(r, seconds=r["seconds"] / child.slowdown) for r in result["strata"]]
        return {"strata": rows, "strata_slowdown": child.slowdown,
                "strata_spans": spanlib.rescaled(result["spans"], child.slowdown)}

    def layer_metrics(self, run: Run, op: Op, extra: dict, m: dict) -> float:
        """Fill the census-only per-layer metrics; returns engine seconds."""
        gens, strata, visited = _shape([(self.action, self.n)])
        times = [r["seconds"] for r in extra["strata"]]
        m["orbits.stratum_s.p50"] = statistics.median(times)
        m["orbits.stratum_s.max"] = max(times)
        m["orbits.stratum_s.sum"] = statistics.fmean(times) * strata
        m["orbits.stratum_sample"] = len(times)
        m["orbits.strata"] = strata
        m["orbits.visited_bytes"] = visited
        m["actions.generators"] = gens
        m["orbits.parallel_efficiency"] = (m["orbits.stratum_s.sum"]
                                           / (run.workers * m["orbits.enumerate_orbits_s"]))
        return m["orbits.stratum_s.sum"]


def _random_e6_graph(rng: random.Random, vertices: int) -> Graph:
    """Connected graph with an induced E6 and 3V/2 edges, vertices shuffled."""
    order = list(range(vertices))
    rng.shuffle(order)
    e6 = order[:6]
    edges = {tuple(sorted((e6[a], e6[b]))) for a, b in ((0, 1), (1, 2), (2, 3), (3, 4), (2, 5))}
    placed = list(e6)
    for v in order[6:]:
        edges.add(tuple(sorted((rng.choice(placed), v))))
        placed.append(v)
    core = set(e6)
    spare = [(u, v) for u in range(vertices) for v in range(u + 1, vertices)
             if (u, v) not in edges and not (u in core and v in core)]
    rng.shuffle(spare)
    edges.update(spare[:max(0, 3 * vertices // 2 - len(edges))])
    return Graph.from_edge_list(vertices, sorted(edges))


@dataclass(frozen=True)
class Graphs:
    """`f2orbits graph` plus check_vanishing and delta_closure per graph file."""

    hex_n: int | None
    random: int
    vertices: int

    def inputs(self, run: Run) -> dict:
        graphs = [hex_lattice_graph(self.hex_n)] if self.hex_n else []
        rng = random.Random(f"{run.args.seed}:graphs:{self.vertices}")
        graphs += [_random_e6_graph(rng, self.vertices) for _ in range(self.random)]
        files, texts = [], []
        for i, graph in enumerate(graphs):
            text = "\n".join([f"{graph.vertex_count} {len(graph.edges)}"]
                             + [f"{u} {v}" for u, v in graph.edges]) + "\n"
            path = run.work / f"graph{i}.txt"
            path.write_text(text)
            files.append(str(path))
            texts.append(text)
        return {"files": files, "content": texts}

    def setup_code(self, inputs: dict) -> str:
        return ("import f2orbits\nfrom f2orbits.lattice import parse_graph_file\n"
                f"for f in {inputs['files']!r}:\n"
                "    parse_graph_file(open(f).read()).masked_generators()\n")

    def op(self, run: Run, inputs: dict, trace: bool) -> Op:
        outs = [str(run.path(f"graph{i}.json")) for i in range(len(inputs["files"]))]
        # single-threaded: the unstratified search never starts a pool
        child, result = run.worker(
            "graph", "--inputs", *inputs["files"], "--outs", *outs,
            "--threads", str(run.workers), trace=trace, pin=True)
        rows = result.get("graphs", [])
        op = Op(child.wall, child.cpu, child.rss_kib, child.slowdown,
                sum(r["states"] for r in rows), len(inputs["files"]), result=result)
        if child.rc != 0 or len(rows) != len(inputs["files"]):
            for i in range(op.attempted):
                op.fail(i, f"graph worker exited {child.rc}: {child.log.strip()[-300:]}")
            return op
        for i, r in enumerate(rows):
            name = Path(r["input"]).name
            if r["rc"] != 0 or "matches enumeration" not in r["stdout"]:
                op.fail(i, f"{name}: graph exited {r['rc']}, census != predict_census_nonspecial")
            if not r["vanishing"] or not r["single_orbit"]:
                op.fail(i, f"{name}: vanishing={r['vanishing']} single_orbit={r['single_orbit']}")
            if r["closure_states"] != r["q1_orbit"]:
                op.fail(i, f"{name}: closure has {r['closure_states']} states, "
                           f"the enumerated q=1 orbit {r['q1_orbit']}")
        op.json_bytes = sum(Path(o).stat().st_size for o in outs)
        op.counts = {"orbits.states": op.states, "orbits.orbits": sum(r["orbits"] for r in rows),
                     "orbits.gen_apps": sum(r["states"] * r["generators"] for r in rows),
                     "lattice.closure_states": sum(r["closure_states"] for r in rows)}
        return op

    def traced_extra(self, run: Run) -> dict:
        return {}

    def layer_metrics(self, run: Run, op: Op, extra: dict, m: dict) -> float:
        rows = op.result["graphs"]
        m["orbits.strata"] = len(rows)  # each graph is one unstratified search
        m["orbits.visited_bytes"] = max(r["states"] for r in rows)
        m["actions.generators"] = sum(r["generators"] for r in rows)
        return m["orbits.enumerate_orbits_s"]


WORKLOADS = {
    "full": {
        "graph-lattice": Graphs(7, 3, 18),
        "census-first7": Census("first", 7, 16),
        "census-second8": Census("second", 8, 2),
    },
    "smoke": {
        "graph-lattice": Graphs(None, 1, 12),
        "census-first7": Census("first", 5, 4),
        "census-second8": Census("second", 6, 2),
    },
}
