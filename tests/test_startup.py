"""What a fresh interpreter loads and starts: the lazy package namespace,
set-up that loads no numpy, and the one-thread OpenBLAS default of the
command-line front end."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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

    def test_user_setting_wins(self):
        value, _ = fresh(BLAS, "f2orbits.cli", OPENBLAS_NUM_THREADS="2")
        assert value == "2"
