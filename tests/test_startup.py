"""What a fresh interpreter loads and starts: the lazy package namespace,
set-up that loads no numpy, annotations that resolve although their
modules load late, a census that loads no multiprocessing, and the
one-thread OpenBLAS default of the command-line front end."""

import ast
import inspect
import json
import os
import subprocess
import sys
import typing
from functools import cached_property
from pathlib import Path

import pytest

import f2orbits

SRC = Path(__file__).resolve().parents[1] / "src"

# Every name `from f2orbits import ...` bound when the package imported
# its submodules eagerly, by defining submodule.
EXPORTS = {
    "f2la": ["ArfClass", "BilinearForm", "F2Vector", "QuadraticSpace",
             "SymplecticBasis", "arf", "form_eval", "kernel_basis", "q_eval",
             "symplectic_reduce", "transvect", "value_counts_brute",
             "value_counts_closed"],
    "tri": ["HexGraph", "TriMatrix", "TriShape", "couple", "hex_graph", "pattern_E",
            "pattern_P", "pattern_Ptilde", "pattern_R", "phi", "phi_star", "psi"],
    "actions": ["ActionKind", "ActionSpec", "Generator", "apply", "generators",
                "height_first", "height_second", "psi_height"],
    "lattice": ["DeltaClosure", "Graph", "LatticeSpec", "NonspecialityUnknown",
                "VanishingReport", "build", "check_vanishing", "contains_e6",
                "delta_closure", "e6_graph", "hex_lattice_graph",
                "parse_graph_file", "predict_census_nonspecial"],
    "orbits": ["EnumerationGuardError", "OrbitCensus", "OrbitRecord",
               "enumerate_orbits", "enumerate_stratum", "orbit_of"],
    "classify": ["PredictedCensus", "VerifyReport", "epsilon", "eta_bar", "h_bar",
                 "label_orbits", "predict_first", "predict_second", "sharp",
                 "verify"],
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)


def fresh(code, *args, **env):
    """Run `code` with `args` in a new interpreter that imports f2orbits
    from this tree, its environment changed by `env` (a value of None
    removes the variable), and return its stdout read as JSON."""
    child_env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    for key, value in env.items():
        if value is None:
            child_env.pop(key, None)
        else:
            child_env[key] = value
    done = subprocess.run([sys.executable, "-c", code, *args], env=child_env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


NAMESPACE = """
import json, sys
import f2orbits
loaded = sorted(m for m in sys.modules
                if m == "numpy" or m.startswith(("numpy.", "f2orbits.")))
from importlib import import_module
exports = json.loads(sys.argv[1])
submodules = {m: getattr(f2orbits, m).__name__ for m in exports}
wrong = [name for module, names in exports.items() for name in names
         if getattr(f2orbits, name) is not getattr(import_module("f2orbits." + module), name)]
star = {}
exec("from f2orbits import *", star)
try:
    f2orbits.no_such_name
    missing = None
except AttributeError as exc:
    missing = str(exc)
print(json.dumps({"loaded": loaded, "submodules": submodules, "wrong": wrong,
                  "dir": dir(f2orbits), "all": getattr(f2orbits, "__all__", None),
                  "star": sorted(k for k in star if k != "__builtins__"),
                  "missing": missing, "version": f2orbits.__version__}))
"""


@pytest.fixture(scope="module")
def namespace():
    return fresh(NAMESPACE, json.dumps(EXPORTS))


class TestLazyNamespace:
    def test_import_loads_neither_numpy_nor_a_submodule(self, namespace):
        assert namespace["loaded"] == []

    def test_each_name_is_its_submodule_object(self, namespace):
        assert namespace["wrong"] == []
        assert namespace["submodules"] == {m: f"f2orbits.{m}" for m in EXPORTS}
        assert namespace["version"] == "0.1.0"

    def test_dir_all_and_star_import_list_the_names(self, namespace):
        assert set(NAMES) <= set(namespace["dir"])
        assert sorted(namespace["all"] or []) == NAMES
        assert namespace["star"] == NAMES

    def test_unknown_name_is_an_attribute_error(self, namespace):
        assert namespace["missing"] == "module 'f2orbits' has no attribute 'no_such_name'"


SETUP = """
import json, sys
import f2orbits.actions as a
import f2orbits.f2la as f2la
import f2orbits.tri as tri
for kind in a.ActionKind:
    spec = a.ActionSpec(7, kind)
    a.generator_masks(spec)
    a.height_functionals(spec)
tri.pattern_E(7, 3)
tri.pattern_R(7, 3)
null = f2la._nullspace([0b0011, 0b0110], 4)
print(json.dumps({"numpy": "numpy" in sys.modules, "null": null}))
"""

LATTICE = """
import json, sys
import f2orbits.lattice as L
spec = L.parse_graph_file("6 5\\n0 1\\n1 2\\n2 3\\n3 4\\n2 5\\n")
with open(sys.argv[1]) as fh:
    same = L.parse_graph_file(fh) == spec
spec.masked_generators()
report = L.check_vanishing(spec)
e6 = L.contains_e6(L.induced_basis_graph(spec))
hex7 = L.hex_lattice_graph(7)
loaded = [m for m in ("numpy", "f2orbits.orbits") if m in sys.modules]
closure = L.delta_closure(spec)
census = L.predict_census_nonspecial(spec)
print(json.dumps({"same": same, "vanishing": report.is_vanishing_lattice, "e6": e6,
                  "hex7": [hex7.vertex_count, len(hex7.edges)], "loaded": loaded,
                  "closure": [len(closure.vectors), closure.single_orbit],
                  "records": [[r.representative.bits, r.cardinality] for r in census.records]}))
"""

BRUTE = """
import json, sys
from f2orbits.f2la import BilinearForm, QuadraticSpace, value_counts_brute, value_counts_closed
triangle = QuadraticSpace.with_all_ones(BilinearForm(3, (0b110, 0b101, 0b011)))
path = QuadraticSpace(BilinearForm(4, (0b0010, 0b0101, 0b1010, 0b0100)), 0b1001)
print(json.dumps([[value_counts_brute(s), value_counts_closed(s)] for s in (triangle, path)]
                 + ["numpy" in sys.modules]))
"""


class TestSetupLoadsNoNumpy:
    """Building an action's masks, heights and patterns is int arithmetic;
    numpy loads with the search, and an f2la array helper loads it when
    called."""

    def test_masks_heights_patterns_and_null_space(self):
        loaded = fresh(SETUP)
        assert loaded["null"] == [0b0111, 0b1000]
        assert loaded["numpy"] is False

    def test_graph_parse_and_checks(self, tmp_path):
        # the E6 tree, read from a str and from an open file; the engine
        # loads only with delta_closure and predict_census_nonspecial
        path = tmp_path / "e6.graph"
        path.write_text("6 5\n0 1\n1 2\n2 3\n3 4\n2 5\n")
        run = fresh(LATTICE, str(path))
        assert run["loaded"] == []
        assert run["same"] and run["vanishing"] and run["e6"]
        assert run["hex7"] == [21, 45]
        assert run["closure"] == [36, True]
        assert run["records"] == [[0, 1], [1, 36], [5, 27]]

    def test_brute_counts_import_numpy_themselves(self):
        *pairs, numpy_loaded = fresh(BRUTE)
        assert pairs == [[[2, 6], [2, 6]], [[6, 10], [6, 10]]]
        assert numpy_loaded is True

    def test_only_orbits_imports_numpy_at_load(self):
        top_level = []
        for path in sorted((SRC / "f2orbits").glob("*.py")):
            for node in ast.parse(path.read_text()).body:
                names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                         else [node.module] if isinstance(node, ast.ImportFrom) else [])
                if any(name and name.split(".")[0] == "numpy" for name in names):
                    top_level.append(path.name)
        assert top_level == ["orbits.py"]


COMMANDS = """
import contextlib, io, json, sys
import f2orbits.cli as cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "classify": "f2orbits.classify" in sys.modules,
                  "multiprocessing": "multiprocessing" in sys.modules}))
"""


class TestCliLoadsClassifyForVerifyAlone:
    """classify holds the closed forms that verify diffs against; a
    census or a graph process never compiles it."""

    def test_census_and_graph(self, tmp_path):
        path = tmp_path / "e6.graph"
        path.write_text("6 5\n0 1\n1 2\n2 3\n3 4\n2 5\n")
        run = fresh(COMMANDS, json.dumps([["census", "--action", "first", "--n", "5"],
                                          ["census", "--action", "second", "--n", "5",
                                           "--height", "10"],
                                          ["graph", "--input", str(path)]]))
        assert run == {"codes": [0, 0, 0], "classify": False, "multiprocessing": False}

    def test_verify(self):
        run = fresh(COMMANDS, json.dumps([["verify", "--action", "first", "--n", "4"]]))
        assert run == {"codes": [0], "classify": True, "multiprocessing": False}


class TestCensusLoadsNoMultiprocessing:
    """A census forks its workers itself and reads their rows from
    pipes, so no multiprocessing module loads."""

    def test_census_on_two_workers(self, tmp_path):
        run = fresh(COMMANDS, json.dumps([["census", "--action", "first", "--n", "5",
                                           "--threads", "2", "--out",
                                           str(tmp_path / "c5.txt")]]))
        assert run == {"codes": [0], "classify": False, "multiprocessing": False}


BLAS = """
import json, os, sys
from importlib import import_module
for module in sys.argv[1:]:
    import_module(module)
task = "/proc/self/task"
print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"),
                  len(os.listdir(task)) if os.path.isdir(task) else None]))
"""


@pytest.fixture(scope="module")
def unset_cli():
    """(OPENBLAS_NUM_THREADS, thread count) after `import f2orbits.cli`
    in an interpreter started without the variable."""
    return fresh(BLAS, "f2orbits.cli", OPENBLAS_NUM_THREADS=None)


def skip_without_threads_to_count():
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc/self/task to count the process's threads in")
    if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("fewer than 2 usable CPUs, or no affinity to read: "
                    "OpenBLAS would start no second thread to count")


class TestCliBlasDefault:
    def test_cli_sets_one_thread(self, unset_cli):
        assert unset_cli[0] == "1"

    def test_cli_process_has_one_thread(self, unset_cli):
        skip_without_threads_to_count()
        assert unset_cli[1] == 1

    def test_actions_before_cli_has_one_thread(self):
        # the benchmark worker's order: actions loads no numpy, so the
        # cli's default is set before orbits loads it
        skip_without_threads_to_count()
        value, threads = fresh(BLAS, "f2orbits.actions", "f2orbits.cli",
                               OPENBLAS_NUM_THREADS=None)
        assert value == "1" and threads == 1

    def test_lattice_before_cli_has_one_thread(self):
        # a graph set-up's order: lattice loads no numpy either
        skip_without_threads_to_count()
        value, threads = fresh(BLAS, "f2orbits.lattice", "f2orbits.cli",
                               OPENBLAS_NUM_THREADS=None)
        assert value == "1" and threads == 1

    def test_user_setting_wins(self):
        value, _ = fresh(BLAS, "f2orbits.cli", OPENBLAS_NUM_THREADS="2")
        assert value == "2"


def _annotated(obj):
    """obj and, for a class, each function it defines, plain or as a
    static, class or (cached) property."""
    yield obj
    if isinstance(obj, type):
        for value in vars(obj).values():
            if isinstance(value, (staticmethod, classmethod)):
                value = value.__func__
            elif isinstance(value, property):
                value = value.fget
            elif isinstance(value, cached_property):
                value = value.func
            if inspect.isfunction(value):
                yield value


@pytest.mark.parametrize("name", NAMES)
def test_type_hints_resolve(name):
    # a module that imports numpy or orbits only when called must still
    # resolve the annotations of its exported names
    for obj in _annotated(getattr(f2orbits, name)):
        typing.get_type_hints(obj)
