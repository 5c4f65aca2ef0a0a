"""Command-line behavior: commands, formats, exit codes, determinism."""

import hashlib
import json
import os
import re
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from f2orbits import classify, cli, lattice, orbits
from f2orbits.actions import ActionKind
from f2orbits.cli import main
from f2orbits.lattice import hex_lattice_graph


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def grown_stratum(pred):
    """`pred` with each orbit at height 1 (printed 10000 at n = 5) one
    state larger."""
    return replace(pred, by_height={**pred.by_height, 1: tuple(
        (label, card + 1) for label, card in pred.by_height[1])})


def flipped_last_representative(predict):
    """`predict` with the first bit of its last representative flipped."""
    def altered(spec):
        pred = predict(spec)
        last = pred.records[-1]
        moved = replace(last, representative=replace(last.representative,
                                                     bits=last.representative.bits ^ 1))
        return replace(pred, records=pred.records[:-1] + (moved,))
    return altered


def write_hex_graph_file(path, n):
    g = hex_lattice_graph(n)
    lines = [f"{g.vertex_count} {len(g.edges)}"]
    lines += [f"{u} {v}" for u, v in g.edges]
    path.write_text("\n".join(lines) + "\n")


class TestCensus:
    def test_first_n4_summary(self, capsys):
        code, _, err = run(capsys, "census", "--action", "first", "--n", "4")
        assert code == 0
        assert "orbits=52" in err and "states=1024" in err

    def test_second_n5_csv_has_six_rows(self, capsys, tmp_path):
        out_file = tmp_path / "census.csv"
        code, out, _ = run(capsys, "census", "--action", "second", "--n", "5",
                           "--format", "csv", "--out", str(out_file))
        assert code == 0 and "orbits=6" in out
        rows = out_file.read_text().strip().splitlines()
        assert len(rows) == 7  # header + 6 orbits

    def test_json_schema(self, capsys, tmp_path):
        out_file = tmp_path / "census.json"
        code, _, _ = run(capsys, "census", "--action", "second", "--n", "4",
                         "--format", "json", "--out", str(out_file))
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert doc["kind"] == "second" and doc["n"] == 4
        assert doc["total_states"] == 64
        assert {"representative_hex", "cardinality", "height_bits"} <= set(doc["orbits"][0])

    def test_height_filter(self, capsys):
        code, _, err = run(capsys, "census", "--action", "first", "--n", "4",
                           "--height", "0000")
        assert code == 0 and "states=64" in err

    def test_second_action_distinguished_height(self, capsys):
        code, _, err = run(capsys, "census", "--action", "second", "--n", "6",
                           "--height", "111")
        assert code == 0 and "orbits=2" in err  # the two split orbits live here

    def test_guard_refusal_exit_3(self, capsys):
        code, _, err = run(capsys, "census", "--action", "first", "--n", "9")
        assert code == 3
        assert "refused" in err

    def test_usage_error_exit_2(self, capsys):
        code, _, err = run(capsys, "census", "--action", "first", "--n", "4",
                           "--height", "01")
        assert code == 2
        assert err == "error: height length 2 does not match 4 for first, n=4\n"

    @pytest.mark.parametrize("action", ["first-conj", "second-conj"])
    def test_height_on_a_conjugate_exit_2(self, capsys, action):
        code, out, err = run(capsys, "census", "--action", action, "--n", "4",
                             "--height", "00")
        assert code == 2 and out == ""
        assert err == f"error: {action} has no height decomposition\n"


class TestGuardsComeFirst:
    """Oversize requests are refused from the size alone, before any
    generator mask or vertex subset is built."""

    @staticmethod
    def _forbid(monkeypatch, owner, name):
        def boom(*args, **kwargs):
            raise AssertionError(f"{name} ran before the size guard")
        monkeypatch.setattr(owner, name, boom)

    def test_census_n300_refused_fast(self, capsys, monkeypatch):
        self._forbid(monkeypatch, orbits, "generator_masks")
        self._forbid(monkeypatch, orbits, "height_functionals")
        t0 = time.perf_counter()
        code, _, err = run(capsys, "census", "--action", "first", "--n", "300")
        assert time.perf_counter() - t0 < 1.0
        assert code == 3 and err.startswith("refused:") and "MiB" in err

    def test_huge_graph_header_refused_fast(self, capsys, monkeypatch, tmp_path):
        self._forbid(monkeypatch, lattice.LatticeSpec, "masked_generators")
        self._forbid(monkeypatch, lattice, "build")
        path = tmp_path / "huge.graph"
        path.write_text("20000 0\n")
        t0 = time.perf_counter()
        code, _, err = run(capsys, "graph", "--input", str(path))
        assert time.perf_counter() - t0 < 1.0
        assert code == 3 and err.startswith("refused:") and "MiB" in err

    @pytest.mark.parametrize("command", ["patterns", "arf"])
    @pytest.mark.parametrize("n", ["65", "150", "100000"])
    def test_oversize_order_refused_fast(self, capsys, monkeypatch, command, n):
        for name in ("pattern_E", "pattern_R", "pattern_P", "pattern_Ptilde",
                     "hex_graph", "hex_lattice_graph", "build"):
            self._forbid(monkeypatch, cli, name)
        t0 = time.perf_counter()
        code, _, err = run(capsys, command, "--n", n)
        assert time.perf_counter() - t0 < 1.0
        assert code == 3 and err.startswith("refused:") and "vertices" in err

    def test_order_limit_is_the_vertex_limit(self):
        cli._check_order(64)  # 2016 vertices
        with pytest.raises(orbits.EnumerationGuardError):
            cli._check_order(65)  # 2080 vertices


class TestVerify:
    def test_first_n5_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--action", "first", "--n", "5")
        assert code == 0 and "PASS" in out

    def test_second_n6_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--action", "second", "--n", "6")
        assert code == 0

    def test_observed_mode_n3(self, capsys):
        code, out, _ = run(capsys, "verify", "--action", "first", "--n", "3")
        assert code == 0
        assert "20" in out and "observed" in out

    def test_out_file_gets_the_report(self, capsys, tmp_path):
        # with --out, stdout carries the verdict alone
        out_file = tmp_path / "v.txt"
        code, out, _ = run(capsys, "verify", "--action", "first", "--n", "5",
                           "--out", str(out_file))
        report = out_file.read_text()
        assert code == 0 and out == "PASS\n"
        assert report.startswith("verify first n=5") and report.endswith("PASS\n")

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "verify", "--action", "second", "--n", "5",
                           "--format", "json")
        assert code == 0 and json.loads(out[:out.rindex("}") + 1])["passed"]

    def test_csv_is_refused(self, capsys):
        # a verification report has no csv form; argparse refuses it
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--action", "first", "--n", "3", "--format", "csv"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "--format" in captured.err

    def test_failed_verification_exit_1(self, capsys, monkeypatch):
        # one wrong stratum, at the height census output prints as 10000
        altered = grown_stratum(classify.predict(5, ActionKind.FIRST))
        monkeypatch.setattr(classify, "predict", lambda n, kind: altered)
        code, out, _ = run(capsys, "verify", "--action", "first", "--n", "5")
        assert code == 1 and out.endswith("FAIL\n")
        assert "[FAIL] per-stratum layout: expected match, observed height 10000: " in out
        # the multiset is read off the altered layout, so it fails too
        assert "[FAIL] cardinality multiset: expected {1x32, 480x8, 512x46, 513x2, 540x8}, " in out

    @pytest.mark.parametrize("n", (5, 6))
    def test_first_conj_multiset_matches_the_first_action(self, capsys, n):
        code, out, _ = run(capsys, "verify", "--action", "first-conj", "--n", str(n))
        assert code == 0 and out.endswith("PASS\n")
        assert f"verify first-conj n={n} (conjugate-count mode)\n" in out
        assert "[ok ] cardinality multiset equals the first action's: expected {1x" in out

    def test_altered_first_prediction_fails_first_conj(self, capsys, monkeypatch):
        altered = grown_stratum(classify.predict_first(5))
        monkeypatch.setattr(classify, "predict_first", lambda n: altered)
        code, out, _ = run(capsys, "verify", "--action", "first-conj", "--n", "5")
        assert code == 1 and out.endswith("FAIL\n")
        assert "[ok ] orbit count equals the base action's" in out
        assert ("[FAIL] cardinality multiset equals the first action's: "
                "expected {1x32, 480x8, 512x46, 513x2, 540x8}, ") in out

    @pytest.mark.parametrize("n", (5, 6))
    def test_second_conj_records_match_the_lattice_prediction(self, capsys, n):
        code, out, _ = run(capsys, "verify", "--action", "second-conj", "--n", str(n))
        assert code == 0 and out.endswith("PASS\n")
        assert ("[ok ] records equal the hex lattice prediction: expected match, "
                "observed match\n") in out

    def test_altered_second_conj_record_exit_1(self, capsys, monkeypatch):
        monkeypatch.setattr(classify, "predict_census_nonspecial",
                            flipped_last_representative(lattice.predict_census_nonspecial))
        code, out, _ = run(capsys, "verify", "--action", "second-conj", "--n", "5")
        assert code == 1 and out.endswith("FAIL\n")
        assert "[ok ] orbit count equals the base action's" in out
        assert ("[FAIL] records equal the hex lattice prediction: expected match, "
                "observed record 5: ('1111111111', 1) != ('0111111111', 1)\n") in out


class TestGraph:
    def test_hex4_prediction_matches(self, capsys, tmp_path):
        path = tmp_path / "h4.graph"
        write_hex_graph_file(path, 5)
        code, _, err = run(capsys, "graph", "--input", str(path))
        assert code == 0
        assert "orbits=6" in err and "matches enumeration" in err

    def test_altered_prediction_names_the_record_exit_1(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "predict_census_nonspecial",
                            flipped_last_representative(lattice.predict_census_nonspecial))
        path = tmp_path / "h4.graph"
        write_hex_graph_file(path, 5)
        code, _, err = run(capsys, "graph", "--input", str(path))
        assert code == 1
        assert ("prediction: 6 orbits (2^kappa+2); MISMATCH "
                "(record 5: ('1111111111', 1) != ('0111111111', 1))\n") in err

    def test_triangle_no_prediction(self, capsys, tmp_path):
        path = tmp_path / "tri.graph"
        path.write_text("3 3\n0 1\n1 2\n0 2\n")
        code, _, err = run(capsys, "graph", "--input", str(path))
        assert code == 0
        assert "orbits=3" in err and "not licensed" in err

    @pytest.mark.parametrize("text", [
        "7 6\n0 1\n1 2\n2 3\n3 4\n2 5\n4 6\nB: 0 1 2 3 4 5\n",  # pendant off B
        "7 5\n0 1\n1 2\n2 3\n3 4\n2 5\n",  # isolated vertex
        "8 6\n0 1\n1 2\n2 3\n3 4\n2 5\n6 7\n",  # disjoint edge
    ], ids=["pendant-off-B", "isolated-vertex", "disjoint-edge"])
    def test_e6_outside_a_vanishing_lattice_is_not_licensed(self, capsys, tmp_path, text):
        # each holds an induced E6 on B and enumerates 6 orbits, but B
        # does not generate a vanishing lattice, so no prediction applies
        path = tmp_path / "e6plus.graph"
        path.write_text(text)
        code, _, err = run(capsys, "graph", "--input", str(path))
        assert code == 0
        assert "orbits=6" in err and "not licensed (not a vanishing lattice" in err
        assert "MISMATCH" not in err

    def test_malformed_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("3 two\n0 1\n")
        code, _, err = run(capsys, "graph", "--input", str(path))
        assert code == 2

    def test_surplus_lines_exit_2(self, capsys, tmp_path):
        path = tmp_path / "surplus.graph"
        path.write_text("5 4\n" + "0 1\n" * 10)
        code, out, err = run(capsys, "graph", "--input", str(path))
        assert code == 2
        assert out == "" and err == "error: expected 4 edge lines, found more\n"

    def test_surplus_lines_are_not_held(self):
        # the parse stops at the first line past the header's count, so
        # 200,000 surplus lines cost no more than a few
        text = "5 4\n" + "0 1\n" * 200_000
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="expected 4 edge lines"):
                lattice.parse_graph_file(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "graph", "--input", str(tmp_path / "nope"))
        assert code == 2
        assert out == "" and err.startswith("error: ") and "nope" in err


SUBCOMMANDS = [
    ["census", "--action", "first", "--n", "3"],
    ["verify", "--action", "first", "--n", "3"],
    ["graph", "--input", "hex4.graph"],
    ["patterns", "--n", "5"],
    ["arf", "--n", "5"],
]


class TestUnwritableOut:
    """An --out that cannot be written is a usage error, as an unreadable
    --input is: one line on stderr, exit 2, nothing on stdout.  It is
    refused before any work starts: every engine, verify and pattern
    entry point the subcommands call fails the test if called."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def called(*args, **kwargs):
            raise AssertionError("work started before --out was checked")

        for name in ("enumerate_orbits", "enumerate_stratum", "verify", "parse_graph_file",
                     "pattern_E", "build", "hex_lattice_graph"):
            monkeypatch.setattr(cli, name, called)

    def argv(self, tmp_path, command):
        write_hex_graph_file(tmp_path / "hex4.graph", 4)
        return [str(tmp_path / a) if a.endswith(".graph") else a for a in command]

    @pytest.mark.parametrize("command", SUBCOMMANDS, ids=lambda command: command[0])
    def test_missing_directory_exit_2(self, capsys, tmp_path, command):
        argv = self.argv(tmp_path, command)
        target = tmp_path / "missing" / "x.out"
        code, out, err = run(capsys, *argv, "--out", str(target))
        assert code == 2
        assert out == "" and err.startswith("error: ") and str(target) in err
        assert not target.parent.exists()

    @pytest.mark.parametrize("target", ["directory", "under-a-file"])
    @pytest.mark.parametrize("command", SUBCOMMANDS, ids=lambda command: command[0])
    def test_refused_before_any_work(self, capsys, tmp_path, command, target):
        argv = self.argv(tmp_path, command)
        (tmp_path / "directory").mkdir()
        (tmp_path / "under-a-file").write_text("kept\n")
        before = sorted(p.name for p in tmp_path.rglob("*"))
        path = tmp_path / target if target == "directory" else tmp_path / target / "x.out"
        code, out, err = run(capsys, *argv, "--out", str(path))
        assert code == 2
        assert out == "" and err.startswith("error: ") and str(path) in err
        assert sorted(p.name for p in tmp_path.rglob("*")) == before
        assert (tmp_path / "under-a-file").read_text() == "kept\n"


class TestPatterns:
    def test_n5_has_all_families(self, capsys):
        code, out, _ = run(capsys, "patterns", "--n", "5")
        assert code == 0
        for i in range(1, 6):
            assert f"R_{i} " in out
        assert "P_1 " in out and "P_2 " in out and "~P_2 " in out
        assert "10 vertices" in out

    def test_n2_has_the_one_cell_patterns(self, capsys):
        # n // 2 = 1: P_1 = ~P_1 is the one cell of the order-1 shape
        code, out, _ = run(capsys, "patterns", "--n", "2")
        assert code == 0
        assert "E_1 " in out and "R_2 " in out
        assert out.endswith("P_1 (order 1):\n 1\n~P_1 (order 1):\n 1\n"
                            "neighbor graph of the order-1 shape: "
                            "1 vertices, 0 edges (1 of degree 0)\n")
        assert "P_2" not in out

    def test_n8_runs(self, capsys):
        code, out, _ = run(capsys, "patterns", "--n", "8")
        assert code == 0
        assert "P_4 " in out

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_nonpositive_order_is_a_usage_error(self, capsys, n):
        code, out, err = run(capsys, "patterns", "--n", n)
        assert code == 2 and out == "" and "n >= 1" in err


class TestArf:
    @pytest.mark.parametrize("n,word", [(3, "Arf1"), (5, "Arf0"), (6, "KernelNonzero")])
    def test_classes(self, capsys, n, word):
        code, out, _ = run(capsys, "arf", "--n", str(n))
        assert code == 0 and word in out

    def test_brute_match_reported(self, capsys):
        code, out, _ = run(capsys, "arf", "--n", "5")
        assert code == 0 and "(match)" in out

    @pytest.mark.parametrize("n,least", [("0", 1), ("-3", 1), ("1", 2)])
    def test_small_order_is_a_usage_error(self, capsys, n, least):
        code, out, err = run(capsys, "arf", "--n", n)
        assert code == 2 and out == "" and f"n >= {least}" in err


class TestDeterminism:
    def test_census_bytes_same_for_any_worker_count(self, capsys, tmp_path):
        blobs = set()
        for threads in (1, 2, 8):
            out_file = tmp_path / f"c{threads}.json"
            code, _, _ = run(capsys, "census", "--action", "first", "--n", "5",
                             "--format", "json", "--out", str(out_file),
                             "--threads", str(threads))
            assert code == 0
            blobs.add(out_file.read_bytes())
        assert len(blobs) == 1


class TestReferenceBytes:
    """The census bytes the benchmark gates on, pinned in the test suite."""

    REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"

    @pytest.mark.parametrize("action,n", [("first", 5), ("second", 6), ("first", 7)])
    def test_census_json_sha256(self, capsys, tmp_path, action, n):
        expected = json.loads(self.REFERENCE.read_text())["census_sha256"][f"{action}-{n}"]
        out_file = tmp_path / "census.json"
        code, _, _ = run(capsys, "census", "--action", action, "--n", str(n),
                         "--format", "json", "--out", str(out_file))
        assert code == 0
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == expected


class TestStdoutDocument:
    """Without --out, stdout carries the document alone: status lines go
    to stderr, so the JSON parses and its bytes repeat run to run."""

    @pytest.mark.parametrize("command", [
        ["census", "--action", "first", "--n", "4"],
        ["census", "--action", "second", "--n", "5", "--height", "00"],
        ["graph", "--input", "hex5.graph"],
    ])
    def test_json_on_stdout_parses_and_repeats(self, capsys, tmp_path, command):
        write_hex_graph_file(tmp_path / "hex5.graph", 5)
        argv = [str(tmp_path / a) if a.endswith(".graph") else a for a in command]
        outs = []
        for _ in range(2):
            code, out, err = run(capsys, *argv, "--format", "json")
            assert code == 0 and "orbits=" in err
            json.loads(out)
            outs.append(out.encode())
        assert outs[0] == outs[1]


GRAPH_FILES = {
    "e6.graph": "6 5\n0 1\n1 2\n2 3\n3 4\n2 5\n",
    "k33.graph": "6 9\n0 3\n0 4\n0 5\n1 3\n1 4\n1 5\n2 3\n2 4\n2 5\n",
    "b3.graph": "3 2\n0 1\n1 2\nB: 0 2\n",
    "hex6.graph": None,  # hex_lattice_graph(6)
    "bad.graph": "3 two\n0 1\n",
}


class TestOutputBytes:
    """Every byte a command writes, in both output modes: the exit code,
    stdout and stderr with the document on stdout, the same with --out,
    and the --out file, pinned on a tree where each command still wrote
    its own output."""

    PINS = json.loads(Path(__file__).with_name("cli_output_sha256.json").read_text())[
        "output_sha256"]
    ELAPSED = re.compile(r"elapsed=\d+\.\d\d")

    @pytest.mark.parametrize("case", [
        *(f"patterns --n {n}" for n in (1, 2, 5, 8)),
        *(f"arf --n {n}" for n in (2, 7)),
        "census --action first --n 4",
        "census --action second --n 6 --format csv",
        "census --action second --n 6 --format csv --height 111",
        "census --action first-conj --n 3 --height 01",  # exit 2
        "census --action first --n 9",  # exit 3
        "verify --action first --n 3",
        "verify --action first --n 6",
        "verify --action second-conj --n 6 --format json",
        "graph --input e6.graph",
        "graph --input k33.graph --format csv",
        "graph --input b3.graph",
        "graph --input hex6.graph --format json",
        "graph --input bad.graph",  # exit 2
    ])
    def test_sha256(self, capsys, tmp_path, case):
        for name, text in GRAPH_FILES.items():
            if text is None:
                write_hex_graph_file(tmp_path / name, 6)
            else:
                (tmp_path / name).write_text(text)
        argv = [str(tmp_path / a) if a.endswith(".graph") else a for a in case.split()]
        out_file = tmp_path / "doc.out"
        parts = []
        for extra in ([], ["--out", str(out_file)]):
            code, out, err = run(capsys, *argv, *extra)
            parts += [str(code), self.ELAPSED.sub("elapsed=<s>", out),
                      self.ELAPSED.sub("elapsed=<s>", err)]
        parts.append(out_file.read_text() if out_file.exists() else "<no file>")
        assert hashlib.sha256("\0".join(parts).encode()).hexdigest() == self.PINS[case]


class TestThreads:
    @pytest.mark.parametrize("threads", ["0", "-1", "two"])
    @pytest.mark.parametrize("command", [
        ["census", "--action", "first", "--n", "3"],
        ["verify", "--action", "first", "--n", "3"],
        ["graph", "--input", "unread.graph"],
    ])
    def test_rejects_non_positive_counts(self, capsys, command, threads):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--threads", threads])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_fraction_is_refused_by_the_rule(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["census", "--action", "first", "--n", "3", "--threads", "2.5"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "f2orbits census: error: argument --threads: "
            "must be an integer of at least 1, got '2.5'")

    def test_default_follows_cpu_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert orbits._default_workers() == 1

    def test_default_without_affinity_uses_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert orbits._default_workers() == 3
