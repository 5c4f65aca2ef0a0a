"""Command-line behavior: commands, formats, exit codes, determinism."""

import json
import os
import time

import pytest

from f2orbits import lattice, orbits
from f2orbits.cli import main
from f2orbits.lattice import hex_lattice_graph


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_hex_graph_file(path, n):
    g = hex_lattice_graph(n)
    lines = [f"{g.vertex_count} {len(g.edges)}"]
    lines += [f"{u} {v}" for u, v in g.edges]
    path.write_text("\n".join(lines) + "\n")


class TestCensus:
    def test_first_n4_summary(self, capsys):
        code, out, _ = run(capsys, "census", "--action", "first", "--n", "4")
        assert code == 0
        assert "orbits=52" in out and "states=1024" in out

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
        code, out, _ = run(capsys, "census", "--action", "first", "--n", "4",
                           "--height", "0000")
        assert code == 0 and "states=64" in out

    def test_second_action_distinguished_height(self, capsys):
        code, out, _ = run(capsys, "census", "--action", "second", "--n", "6",
                           "--height", "111")
        assert code == 0 and "orbits=2" in out  # the two split orbits live here

    def test_guard_refusal_exit_3(self, capsys):
        code, _, err = run(capsys, "census", "--action", "first", "--n", "9")
        assert code == 3
        assert "refused" in err

    def test_usage_error_exit_2(self, capsys):
        code, _, err = run(capsys, "census", "--action", "first", "--n", "4",
                           "--height", "01")
        assert code == 2


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

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "verify", "--action", "second", "--n", "5",
                           "--format", "json")
        assert code == 0 and json.loads(out[:out.rindex("}") + 1])["passed"]


class TestGraph:
    def test_hex4_prediction_matches(self, capsys, tmp_path):
        path = tmp_path / "h4.graph"
        write_hex_graph_file(path, 5)
        code, out, _ = run(capsys, "graph", "--input", str(path))
        assert code == 0
        assert "orbits=6" in out and "matches enumeration" in out

    def test_triangle_no_prediction(self, capsys, tmp_path):
        path = tmp_path / "tri.graph"
        path.write_text("3 3\n0 1\n1 2\n0 2\n")
        code, out, _ = run(capsys, "graph", "--input", str(path))
        assert code == 0
        assert "orbits=3" in out and "not licensed" in out

    def test_malformed_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("3 two\n0 1\n")
        code, _, err = run(capsys, "graph", "--input", str(path))
        assert code == 2

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "graph", "--input", str(tmp_path / "nope"))
        assert code == 2


class TestPatterns:
    def test_n5_has_all_families(self, capsys):
        code, out, _ = run(capsys, "patterns", "--n", "5")
        assert code == 0
        for i in range(1, 6):
            assert f"R_{i} " in out
        assert "P_1 " in out and "P_2 " in out and "~P_2 " in out
        assert "10 vertices" in out

    def test_n2_only_e_and_r(self, capsys):
        code, out, _ = run(capsys, "patterns", "--n", "2")
        assert code == 0
        assert "E_1 " in out and "R_2 " in out
        assert "P_1" not in out

    def test_n8_runs(self, capsys):
        code, out, _ = run(capsys, "patterns", "--n", "8")
        assert code == 0
        assert "P_4 " in out


class TestArf:
    @pytest.mark.parametrize("n,word", [(3, "Arf1"), (5, "Arf0"), (6, "KernelNonzero")])
    def test_classes(self, capsys, n, word):
        code, out, _ = run(capsys, "arf", "--n", str(n))
        assert code == 0 and word in out

    def test_brute_match_reported(self, capsys):
        code, out, _ = run(capsys, "arf", "--n", "5")
        assert code == 0 and "(match)" in out


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

    def test_default_follows_cpu_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert orbits._default_workers() == 1

    def test_default_without_affinity_uses_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert orbits._default_workers() == 3
