"""What importing the package and starting the CLI load and set, each
checked in a fresh interpreter, and which names the package root exports."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import roundness

SRC = os.path.dirname(os.path.dirname(os.path.abspath(roundness.__file__)))


def fresh(code: str, *argv: str, **env_overrides: str) -> str:
    """Run `code` with `argv` in a fresh interpreter that imports roundness
    from SRC, with OPENBLAS_NUM_THREADS unset unless given; return its
    stdout."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.update(env_overrides)
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_no_numpy_and_leaves_the_environment_alone():
    out = fresh(
        "import os, sys; before = dict(os.environ); import roundness; "
        "print('numpy' in sys.modules, 'OPENBLAS_NUM_THREADS' in os.environ); "
        "[getattr(roundness, name) for name in roundness.__all__]; "
        "print('numpy' in sys.modules, dict(os.environ) == before)"
    )
    assert out.split() == ["False", "False", "True", "True"]


def test_root_names_are_the_submodule_objects():
    out = fresh(
        "import importlib, roundness\n"
        "for name in roundness.__all__:\n"
        "    obj = getattr(roundness, name)\n"
        "    assert obj.__module__.startswith('roundness.'), name\n"
        "    assert obj is getattr(importlib.import_module(obj.__module__), name), name\n"
        "    assert name not in vars(roundness), name  # looked up, never cached\n"
        "print(len(roundness.__all__))"
    )
    assert int(out) == len(roundness.__all__) > 0


PUBLIC_NAMES = [
    "ClassificationResult", "FiniteMetricSpace", "GrInequalityResult", "Graph",
    "KernelCoincidenceReport", "NegTypeVerdict", "NegativeTypeWitness", "RoundnessError",
    "RoundnessResult", "build_metric_space", "check_negative_type", "classify_subset",
    "cube_distance_matrix", "det_exact", "eigen_identity_check", "factor_matrix",
    "factorization_check", "gen_family", "generalized_roundness", "gr_inequality_check",
    "kernel_basis_exact", "kernel_coincidence_check", "lifted_vertex_matrix", "load_edge_list",
    "load_solid", "null_dimension_check", "parse_edge_list", "path_embedding_witness",
    "path_metric", "rank_exact", "scan_subsets", "sign_matrix", "sign_vector", "subset_metric",
    "tree_embedding_search",
]

# search internals kept off the root, each imported from its submodule by
# the benchmark harness (perfbench/workloads.py and the spans in perfbench/spans.py)
SUBMODULE_ONLY = {
    "metric": ("power_matrix", "hyperplane_basis", "has_row_permutation_property"),
    "negtype": ("negtype_form_matrix",),
    "spectral": ("eigensym", "SpectralData"),
}


def test_public_names_are_pinned():
    assert roundness.__all__ == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 35


def test_search_internals_import_from_their_submodules_only():
    for module, names in SUBMODULE_ONLY.items():
        submodule = importlib.import_module(f"roundness.{module}")
        for name in names:
            assert callable(getattr(submodule, name)), name
            assert name not in roundness.__all__ and not hasattr(roundness, name), name


def test_root_names_follow_a_rebinding_in_their_submodule():
    out = fresh(
        "import roundness, roundness.negtype as negtype\n"
        "original = roundness.generalized_roundness\n"
        "negtype.generalized_roundness = marker = object()\n"
        "print(roundness.generalized_roundness is marker, original is not marker)"
    )
    assert out.split() == ["True", "True"]


def test_star_import_dir_and_unknown_names():
    out = fresh(
        "import json, roundness\n"
        "scope = {}\n"
        "exec('from roundness import *', scope)\n"
        "star = sorted(k for k in scope if k != '__builtins__')\n"
        "try:\n"
        "    roundness.no_such_name\n"
        "    unknown = 'bound'\n"
        "except AttributeError as exc:\n"
        "    unknown = str(exc)\n"
        "print(json.dumps([star == sorted(roundness.__all__),\n"
        "                  set(roundness.__all__) <= set(dir(roundness)), unknown]))"
    )
    star_is_all, dir_has_all, unknown = json.loads(out)
    assert star_is_all and dir_has_all
    assert "no_such_name" in unknown


def test_cli_import_defaults_openblas_threads_to_one():
    code = "import os, roundness.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert fresh(code).strip() == "1"
    assert fresh(code, OPENBLAS_NUM_THREADS="2").strip() == "2"


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_cli_import_loads_blas_on_one_thread():
    # the default is set before numpy loads OpenBLAS, so no helper thread starts
    out = fresh(
        "import sys, roundness.cli\n"
        "assert 'numpy' in sys.modules\n"
        "with open('/proc/self/status') as fh:\n"
        "    print(next(line for line in fh if line.startswith('Threads:')))"
    )
    assert out.split() == ["Threads:", "1"]


def test_cube_scan_imports_no_pool_at_any_jobs():
    code = (
        "import sys, roundness.cli\n"
        "roundness.cli.main(sys.argv[1:])\n"
        "print('concurrent.futures.process' in sys.modules)"
    )
    serial = fresh(code, "cube", "scan", "--n", "3").splitlines()
    jobs2 = fresh(code, "cube", "scan", "--n", "3", "--jobs", "2").splitlines()
    assert serial[1] == jobs2[1] == "False"
    # the reports differ only in the echoed --jobs
    assert json.loads(serial[0])["diagnostics"]["jobs"] == 1
    assert serial[0] == jobs2[0].replace('"jobs":2', '"jobs":1')


# what each command loads: its own modules, and csv only for a CSV matrix
NOT_CUBE = ("roundness.hamming", "csv")
NOT_SPACE = ("roundness.negtype", "roundness.graphs", "logging", "csv")
MODULE_SETS = [
    (["roundness", "--graph", "petersen"], "roundness.negtype", NOT_CUBE),
    (["negtype", "--graph", "cycle:5", "--p", "1"], "roundness.negtype", NOT_CUBE),
    (["verify", "--graph", "petersen"], "roundness.negtype", NOT_CUBE),
    (["roundness", "--matrix", "{json}"], "roundness.negtype", ("roundness.hamming", "csv",
                                                               "roundness.graphs")),
    (["roundness", "--matrix", "{csv}"], "csv", ("roundness.hamming", "roundness.graphs")),
    (["roundness", "--edges", "{edges}"], "roundness.graphs", NOT_CUBE),
    (["cube", "classify", "--n", "3", "--subset", "000,011,101"], "roundness.hamming", NOT_SPACE),
    (["cube", "spectrum", "--n", "3"], "roundness.hamming", NOT_SPACE),
    (["cube", "lemmas", "--n", "3"], "roundness.hamming", NOT_SPACE),
    (["tree", "witness", "--k", "5"], "roundness.hamming", NOT_SPACE),
    (["tree", "embed", "--edges", "{edges}", "--n", "3"], "roundness.graphs",
     ("roundness.negtype", "logging", "csv")),
]


@pytest.mark.parametrize("argv,loads,skips", MODULE_SETS,
                         ids=[" ".join(case[0]) for case in MODULE_SETS])
def test_each_command_imports_only_what_it_runs(tmp_path, argv, loads, skips):
    files = {"json": tmp_path / "space.json", "csv": tmp_path / "space.csv",
             "edges": tmp_path / "path4.txt"}
    files["json"].write_text('{"matrix": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}')
    files["csv"].write_text("0,1,2\n1,0,1\n2,1,0\n")
    files["edges"].write_text("4\n0 1\n1 2\n2 3\n")
    code = (
        "import json, sys, roundness.cli\n"
        "code = roundness.cli.main(sys.argv[1:])\n"
        "print(json.dumps([code, sorted(sys.modules)]))"
    )
    out = fresh(code, *(arg.format(**files) for arg in argv)).splitlines()
    exit_code, modules = json.loads(out[-1])
    assert exit_code in (0, 1), out[0]
    assert loads in modules
    assert not set(skips) & set(modules)
