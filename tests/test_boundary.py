"""The one argument boundary (`errors._integer`, `_real` and `_integers`):
a bad scalar or index sequence given to any public entry point is a
RoundnessError or a ValueError, raised before any work, and every `gr` argv
prints one JSON line and exits 0, 1 or 2.

The CI workflow runs the first 32 argvs of `fuzz_argvs` through the
installed `gr` script as well.
"""

import json
import math
import os
import random
import re
from importlib import resources

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import roundness
from roundness import (
    Graph,
    classify_subset,
    det_exact,
    gen_family,
    kernel_basis_exact,
    load_edge_list,
    path_metric,
    rank_exact,
    sign_vector,
    tree_embedding_search,
)
from roundness import cli, graphs, hamming
from roundness.errors import BadParamsError, DimensionTooLargeError, RoundnessError

EDGE_FILE = str(resources.files("roundness.data").joinpath("icosahedron.txt"))

# -- defects the boundary mends -----------------------------------------------


@pytest.mark.parametrize("call, error, message", [
    (lambda: gen_family("circulant", 7, 1), BadParamsError, "expected a sequence, got 1"),
    (lambda: classify_subset(3, None), ValueError, "expected a sequence, got None"),
    (lambda: classify_subset(3, 5), ValueError, "expected a sequence, got 5"),
], ids=["circulant-offsets-1", "subset-None", "subset-5"])
def test_a_non_iterable_sequence_is_a_library_error(call, error, message):
    # each was a bare TypeError, "'int' object is not iterable" or the like
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_non_integers_are_no_longer_accepted_silently():
    path = Graph(3, ((0, 1), (1, 2)))
    assert tree_embedding_search(path, 2) == {0: 0, 1: 1, 2: 3}
    # returned the embedding above, read as if n were 2
    with pytest.raises(DimensionTooLargeError,
                       match=r"^tree embedding supports n in 1\.\.64, got 2\.5$"):
        tree_embedding_search(path, 2.5)
    # built, and then a bare TypeError in path_metric
    with pytest.raises(ValueError, match=r"^graph needs an integer vertex count >= 1, got 2\.5$"):
        Graph(2.5, ())
    # built, and then reported as "no path between vertices 0 and 1"
    with pytest.raises(ValueError, match=r"^edge vertex 1\.5 out of range for 3 vertices$"):
        Graph(3, ((0, 1.5),))
    # integral values of any numeric type are read as the ints they are
    g = Graph(2.0, ((np.int64(1), 0.0),), labels=("a", 7))
    assert g == Graph(2, ((0, 1),), labels=("a", "7")) and type(g.n) is int
    assert type(g.edges[0][0]) is int


def test_an_edge_list_path_is_no_file_descriptor():
    # open() of an int reads, and then closes, that file descriptor
    with open(EDGE_FILE, encoding="utf-8") as fh:
        for bad in (fh.fileno(), None, 2.5):
            with pytest.raises(ValueError, match="^an edge-list path is a str, bytes or "
                                                 f"path-like, got {re.escape(repr(bad))}$"):
                load_edge_list(bad)
        assert fh.read().startswith("12")  # its descriptor still open
    assert load_edge_list(EDGE_FILE).n == 12


def test_sign_vector_is_capped_before_anything_is_built(monkeypatch):
    cap = hamming.DIMENSION_CAPS["sign vector"]
    assert len(sign_vector(cap, 0)) == 1 << cap

    def fail(*args, **kwargs):
        raise AssertionError("an array was built")

    # i = 33 asked for 2^33 int64 entries (64 GiB) before anything checked i
    monkeypatch.setattr(hamming.np, "arange", fail)
    for i in (cap + 1, 33):
        with pytest.raises(DimensionTooLargeError,
                           match=f"^sign vector supports i in 0..{cap}, got {i}$"):
            sign_vector(i, 0)


@pytest.mark.parametrize("fn, mat, message", [
    (rank_exact, [[None]], "non-integer entry None"),  # was a TypeError
    (det_exact, [[math.inf]], "non-integer entry inf"),  # was an OverflowError
    (det_exact, 5, "expected a sequence, got 5"),  # was a TypeError
    (rank_exact, [1, 2], "expected a sequence, got 1"),  # was a TypeError
    (kernel_basis_exact, [[1.5]], "non-integer entry 1.5"),
])
def test_exact_entry_points_take_rows_of_integers(fn, mat, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        fn(mat)


# -- every public callable, on junk ----------------------------------------------

# small valid values, so that no draw that passes does real work, and junk:
# non-integral, non-finite and huge numbers, strings, None and numpy scalars
SCALARS = st.one_of(
    st.integers(-2, 5),
    st.sampled_from([0.5, 2.0, 2.5, -1.0, -0.0, 1e-300, 5e-324, 1e300,
                     1.7976931348623157e308, math.inf, -math.inf, math.nan]),
    st.sampled_from([2**63, 2**64, 10**400, -10**400, True]),
    st.sampled_from([None, "1", "abc", "", b"2", 1j]),
    st.sampled_from([np.int64(2), np.int64(-2**63), np.uint64(2**64 - 1), np.int8(-1),
                     np.float64(0.5), np.float64(math.nan), np.float32(math.inf),
                     np.bool_(True), np.float16(3)]),
)
# and nested lists and pairs of them
JUNK = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner),
                    max_leaves=8)
SPACE = path_metric(gen_family("cycle", 5))
TREE = Graph(4, ((0, 1), (1, 2), (2, 3)))


def junk(count: int):
    return st.tuples(*[JUNK] * count)


# the argument tuples drawn for each callable: spaces and graphs stay valid,
# every other argument is junk
CALLS = {
    "ClassificationResult": junk(3),
    "FiniteMetricSpace": junk(2),
    "GrInequalityResult": junk(3),
    "Graph": junk(3),
    "KernelCoincidenceReport": junk(4),
    "NegTypeVerdict": junk(5),
    "NegativeTypeWitness": junk(2),
    "RoundnessError": junk(1),
    "RoundnessResult": junk(7),
    "build_metric_space": junk(2),
    "check_negative_type": junk(2).map(lambda a: (SPACE, *a)),
    "classify_subset": junk(2),
    "cube_distance_matrix": junk(1),
    "det_exact": junk(1),
    "eigen_identity_check": junk(1),
    "factor_matrix": junk(1),
    "factorization_check": junk(1),
    "gen_family": st.tuples(st.sampled_from(graphs.FAMILIES) | JUNK,
                            st.lists(JUNK, max_size=3)).map(lambda a: (a[0], *a[1])),
    "generalized_roundness": junk(3).map(lambda a: (SPACE, *a)),
    "gr_inequality_check": junk(4).map(lambda a: (SPACE, *a)),
    "kernel_basis_exact": junk(1),
    "kernel_coincidence_check": junk(1).map(lambda a: (SPACE, *a)),
    "lifted_vertex_matrix": junk(1),
    # a junk string is a path that may exist: only other junk is drawn
    "load_edge_list": st.tuples(st.just(EDGE_FILE)
                                | JUNK.filter(lambda v: not isinstance(v, (str, bytes)))),
    "load_solid": st.tuples(st.sampled_from(graphs.SOLIDS) | JUNK),
    "null_dimension_check": junk(1),
    "parse_edge_list": st.tuples(st.text("0123 \n#x.-", max_size=12) | JUNK),
    "path_embedding_witness": junk(1),
    "path_metric": st.just((TREE,)),
    "rank_exact": junk(1),
    "scan_subsets": junk(6),
    "sign_matrix": junk(1),
    "sign_vector": junk(2),
    "subset_metric": junk(2),
    "tree_embedding_search": junk(1).map(lambda a: (TREE, *a)),
}


def test_every_public_callable_is_drawn():
    assert sorted(CALLS) == roundness.__all__


@pytest.mark.parametrize("name", roundness.__all__)
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_junk_arguments_raise_only_library_errors(name, data):
    args = data.draw(CALLS[name], label="args")
    try:
        getattr(roundness, name)(*args)
    except (RoundnessError, ValueError):
        pass


# -- every gr argv -------------------------------------------------------------

FUZZ_SEED = 32
INPUTS = ["--graph", "--matrix", "--edges"]
SEARCH = ["--p-max", "--tol-p", "--tol-eig"]
# each command, a valid argv of its flags to start from, and the other flags
# it takes; "--input" stands for one of INPUTS, with a value of its own
COMMANDS = [
    (["roundness"], ["--input", "cycle:5"], SEARCH),
    (["negtype"], ["--input", "cycle:5", "--p", "1"], ["--p", "--tol-eig", "--strict"]),
    (["verify"], ["--input", "petersen"], SEARCH),
    (["cube", "classify"], ["--n", "3", "--subset", "000,011,101"], ["--n", "--subset"]),
    (["cube", "spectrum"], ["--n", "3"], ["--n"]),
    (["cube", "scan"], ["--n", "2"], ["--n", "--max-size", "--jobs"] + SEARCH),
    (["cube", "lemmas"], ["--n", "3"], ["--n", "--dump-matrices"]),
    (["tree", "embed"], ["--edges", "{edges}", "--n", "3"], ["--edges", "--n"]),
    (["tree", "witness"], ["--k", "4"], ["--k"]),
]
NO_COMMANDS = [(["cube"], [], []), (["tree"], [], []), (["frobnicate"], [], []), ([], [], [])]
# every flag but --help, which prints usage, and --pretty, which spreads the
# report over lines
FLAGS = INPUTS + SEARCH + ["--p", "--strict", "--n", "--subset", "--max-size", "--jobs",
                           "--dump-matrices", "--k", "--tol", "-x"]
SWITCHES = ("--strict", "--dump-matrices")
# the values each flag is mostly given, valid and bad, and the pool of all
GRAPHS = ["cycle:5", "petersen", "hypercube:3", "circulant:8:1,3", "complete:4", "dodecahedron",
          "cycle:2", "cycle:2.5", "cycle:x", "circulant:7:1.5", "circulant:7", "hypercube:13",
          "moebius:5", "petersen:3", "cycle:99999999999999999999"]
FILES = ["{matrix}", "{csv}", "{nan_csv}", "{edges}", "{not_json_object}", "{missing}"]
INTS = ["0", "1", "2", "3", "4", "5", "8", "65", "-1", "2.5", "99999999999999999999"]
REALS = ["0", "1", "3", "0.5", "-1", "nan", "inf", "-inf", "1e-17", "1e-300", "1e300", "1e309"]
SUBSETS = ["000,011,101", "0,3,5", "0,1,2,3", "0,1", "0,,1", "0,0", "8", "0,1.5"]
VALUES = {"--graph": GRAPHS, "--matrix": FILES, "--edges": FILES, "--subset": SUBSETS,
          **dict.fromkeys(["--n", "--k", "--max-size", "--jobs"], INTS),
          **dict.fromkeys(["--p", "--p-max", "--tol-p", "--tol-eig", "--tol"], REALS)}
ALL_VALUES = GRAPHS + FILES + INTS + REALS + SUBSETS + ["", "x", "-x"]


def fuzz_files(directory) -> dict:
    """Write the files the fuzz names into `directory`; return their paths."""
    contents = {"matrix": '{"matrix": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}',
                "csv": "0,1,1\n1,0,1\n1,1,0\n", "nan_csv": "0,nan\nnan,0\n",
                "edges": "4\n0 1\n1 2\n2 3\n", "not_json_object": "[[0, 1], [1, 0]]"}
    paths = {name: os.path.join(directory, f"fuzz_{name}.txt") for name in contents}
    for name, text in contents.items():
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(text)
    paths["missing"] = os.path.join(directory, "fuzz_missing.txt")
    return paths


def fuzz_argvs(files: dict, count: int = 200, seed: int = FUZZ_SEED) -> list[list[str]]:
    """`count` seeded argvs: a command, or none, most of its valid argv,
    then up to three flags, mostly its own, each with a value from a pool
    of valid and bad ones, or none."""
    rng = random.Random(seed)
    argvs = []
    for _ in range(count):
        command, base, own = rng.choice(COMMANDS if rng.random() < 0.9 else NO_COMMANDS)
        argv = list(command)
        for k in range(0, len(base), 2):
            flag, value = base[k:k + 2]
            if flag == "--input" and rng.random() < 0.5:
                flag = rng.choice(INPUTS)
                value = rng.choice(VALUES[flag])
            if rng.random() < 0.9:
                argv += ["--graph" if flag == "--input" else flag, value]
        for _ in range(rng.randint(0, 3)):
            flag = rng.choice(own if own and rng.random() < 0.8 else FLAGS)
            argv.append(flag)
            if (flag in SWITCHES) == (rng.random() < 0.1):
                own_values = VALUES.get(flag)
                argv.append(rng.choice(own_values if own_values and rng.random() < 0.8
                                       else ALL_VALUES))
        argvs.append([arg.format(**files) for arg in argv])
    return argvs


def test_every_argv_prints_one_json_line(tmp_path, capsys):
    codes = set()
    for argv in fuzz_argvs(fuzz_files(tmp_path)):
        code = cli.main(argv)
        lines = capsys.readouterr().out.splitlines()
        assert code in (0, 1, 2) and len(lines) == 1, (argv, code, lines)
        report = json.loads(lines[0])
        # 1 is a semantic negative, a failed hypothesis among them, with an error report
        assert ("error" in report) == (code == 2) or code == 1, (argv, report)
        codes.add(code)
    assert codes == {0, 1, 2}  # the fuzz reaches reports, negatives and errors
