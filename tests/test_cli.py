import argparse
import hashlib
import json
import subprocess
import sys

import pytest

from conftest import TRUNCATED_TETRAHEDRON_EDGES

from roundness import cli, graphs, hamming, negtype
from roundness.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_roundness_cycle4(capsys):
    code, report = run_cli(capsys, "roundness", "--graph", "cycle:4")
    assert code == 0
    assert report["command"] == "roundness"
    result = report["result"]
    assert result["status"] == "Finite"
    assert result["q"] == pytest.approx(1.0, abs=1e-6)
    assert result["method"] == "DeterminantFastPath"
    assert result["certificate"] is not None
    assert report["diagnostics"]["tol_p"] == 1e-9


def test_roundness_complete5_unbounded(capsys):
    code, report = run_cli(capsys, "roundness", "--graph", "complete:5")
    assert code == 0
    assert report["result"]["status"] == "Unbounded"
    assert report["result"]["q"] is None


def test_roundness_matrix_file(tmp_path, capsys):
    k3 = tmp_path / "k3.json"
    k3.write_text(json.dumps({"labels": ["a", "b", "c"],
                              "matrix": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}))
    code, report = run_cli(capsys, "roundness", "--matrix", str(k3))
    assert code == 0
    assert report["result"]["status"] == "Unbounded"


def test_roundness_csv_matrix(tmp_path, capsys):
    f = tmp_path / "c4.csv"
    f.write_text("0,1,2,1\n1,0,1,2\n2,1,0,1\n1,2,1,0\n")
    code, report = run_cli(capsys, "roundness", "--matrix", str(f))
    assert code == 0
    assert report["result"]["q"] == pytest.approx(1.0, abs=1e-6)


def test_tiny_tol_p_at_a_large_q(tmp_path, capsys):
    # q = 1.39e6 with tol_p = 1e-300: snapping a probe to a grid that far
    # below the float spacing at q would overflow
    f = tmp_path / "near.csv"
    f.write_text("0,1,1\n1,0,1.000001\n1,1.000001,0\n")
    code, report = run_cli(capsys, "roundness", "--matrix", str(f), "--p-max", "1e7",
                           "--tol-p", "1e-300")
    assert code == 0
    assert report["result"]["status"] == "Finite"
    assert report["result"]["q"] == pytest.approx(1386295.057, abs=1e-3)


def test_negtype_h2_equality(capsys):
    code, report = run_cli(capsys, "negtype", "--graph", "hypercube:2", "--p", "1")
    assert code == 0
    result = report["result"]
    assert result["holds"] and not result["strict"]
    eta = result["witness"]["eta"]
    assert [round(abs(x), 6) for x in eta] == [0.5] * 4
    assert eta[0] * eta[3] > 0 > eta[0] * eta[1]


def test_negtype_exit_codes(capsys):
    code, report = run_cli(capsys, "negtype", "--graph", "hypercube:2", "--p", "1.5")
    assert code == 1
    assert not report["result"]["holds"]
    assert report["result"]["witness"]["form_value"] > 0

    code, report = run_cli(capsys, "negtype", "--graph", "cycle:5", "--p", "0")
    assert code == 0
    assert report["result"]["strict"]

    # --strict turns the equality case into a semantic negative
    code, _ = run_cli(capsys, "negtype", "--graph", "hypercube:2", "--p", "1", "--strict")
    assert code == 1


def test_negtype_at_1e200_scale_gives_the_verdict_of_cycle5(tmp_path, capsys):
    # 1e200 times the 5-cycle: d^2 overflows unless the form is built on
    # d / max d; values of degree p in d that overflow print as null
    f = tmp_path / "big5.csv"
    f.write_text("0,1e200,2e200,2e200,1e200\n1e200,0,1e200,2e200,2e200\n"
                 "2e200,1e200,0,1e200,2e200\n2e200,2e200,1e200,0,1e200\n"
                 "1e200,2e200,2e200,1e200,0\n")
    reports = {}
    for p, code_expected in (("1", 0), ("2", 1)):  # q of cycle:5 is 1.388
        code, big = run_cli(capsys, "negtype", "--matrix", str(f), "--p", p)
        _, unit = run_cli(capsys, "negtype", "--graph", "cycle:5", "--p", p)
        assert code == code_expected
        assert (big["result"]["holds"], big["result"]["strict"]) == \
            (unit["result"]["holds"], unit["result"]["strict"])
        reports[p] = big["result"], unit["result"]
    big, unit = reports["1"]
    assert big["max_form_eigenvalue"] == pytest.approx(1e200 * unit["max_form_eigenvalue"],
                                                       rel=1e-12)
    big, _ = reports["2"]
    assert big["max_form_eigenvalue"] is None and big["witness"]["form_value"] is None


def test_verify_hypercube3(capsys):
    code, report = run_cli(capsys, "verify", "--graph", "hypercube:3")
    assert code == 0
    result = report["result"]
    assert result["holds"]
    assert result["max_defect"] <= 1e-6
    assert result["form_kernel_dim"] == 4


def test_verify_rejects_path(tmp_path, capsys):
    # the 3-point path, and an ultrametric: negative type at every exponent,
    # so without the hypothesis check before the search it would report
    # Unbounded
    for matrix in ([[0, 1, 2], [1, 0, 1], [2, 1, 0]], [[0, 1, 2], [1, 0, 2], [2, 2, 0]]):
        f = tmp_path / "m.json"
        f.write_text(json.dumps({"matrix": matrix}))
        code, report = run_cli(capsys, "verify", "--matrix", str(f))
        assert code == 1
        assert report["error"]["type"] == "HypothesisViolatedError"


def test_verify_eigendecomposes_d_q_once(monkeypatch, capsys, tmp_path):
    # the truncated tetrahedron's rows are permutations of each other but
    # its distance classes do not commute, so `verify` solves it densely:
    # D_q alone, whose spectrum past r(q) is the form's
    edges = tmp_path / "truncated_tetrahedron.txt"
    edges.write_text("12\n" + "".join(f"{u} {v}\n" for u, v in TRUNCATED_TETRAHEDRON_EDGES))
    shapes = []
    eigensym = negtype.eigensym

    def counted(a):
        shapes.append(a.shape)
        return eigensym(a)

    monkeypatch.setattr(negtype, "eigensym", counted)
    code, report = run_cli(capsys, "verify", "--edges", str(edges))
    assert code == 0 and report["result"]["holds"]
    assert shapes == [(12, 12)], shapes


def test_input_digest_is_the_per_entry_float_digest(tmp_path):
    # the description matrix comes from one tolist(); its digest is that of
    # the matrix read entry by entry as Python floats
    matrix = tmp_path / "space.json"
    matrix.write_text(json.dumps({"labels": [f"v{i}" for i in range(4)],
                                  "matrix": [[0, 1.25, 2, 3.5], [1.25, 0, 0.75, 2.25],
                                             [2, 0.75, 0, 1.5], [3.5, 2.25, 1.5, 0]]}))
    table = tmp_path / "space.csv"
    table.write_text("0,0.1,0.30000000000000004\n0.1,0,0.2\n0.30000000000000004,0.2,0\n")
    tree = tmp_path / "tree.txt"
    tree.write_text("5\n0 1\n1 2\n1 3\n3 4\n")
    inputs = [{"graph": g} for g in ("cycle:5", "complete:6", "hypercube:2", "petersen",
                                      "cycle:1024", "hypercube:10")]
    inputs += [{"matrix": str(matrix)}, {"matrix": str(table)}, {"edges": str(tree)}]
    for given in inputs:
        args = argparse.Namespace(**{"graph": None, "matrix": None, "edges": None, **given})
        space, desc = cli.resolve_space(args)
        entries = [[float(x) for x in row] for row in space.dist]
        assert cli.digest_of(desc) == cli.digest_of(
            {"labels": list(space.labels), "matrix": entries}), given


def test_verify_unbounded_is_semantic_negative(capsys):
    code, report = run_cli(capsys, "verify", "--graph", "complete:4")
    assert code == 1
    assert report["result"]["status"] == "Unbounded"


def test_cube_classify(capsys):
    code, report = run_cli(capsys, "cube", "classify", "--n", "3", "--subset", "000,011,101")
    assert code == 0
    assert report["result"]["strict"] and report["result"]["rank"] == 2

    code, report = run_cli(capsys, "cube", "classify", "--n", "2", "--subset", "0,1,2,3")
    assert code == 0
    assert not report["result"]["strict"]
    assert report["result"]["dependency"] == [1, 1, -1]


def test_cube_classify_reports_the_subset_in_the_given_order(capsys):
    code, report = run_cli(capsys, "cube", "classify", "--n", "3", "--subset", "7,0,1,6")
    assert code == 0
    result = report["result"]
    assert result["indices"] == [7, 0, 1, 6]
    assert result["bitstrings"] == ["111", "000", "001", "110"]
    # the dependency's coefficients go with indices[1:], relative to indices[0]
    x = [[int(b) for b in s] for s in result["bitstrings"]]
    assert x == [[(i >> k) & 1 for k in (2, 1, 0)] for i in result["indices"]]
    dep = result["dependency"]
    assert any(dep)
    assert all(sum(a * (xi[c] - x[0][c]) for a, xi in zip(dep, x[1:])) == 0 for c in range(3))


def test_cube_scan(capsys):
    code, report = run_cli(capsys, "cube", "scan", "--n", "2")
    assert code == 0
    result = report["result"]
    assert result["min_q_over_strict"] > 1.0
    assert result["argmin_subset"]["indices"] == [0, 1, 2]
    assert {"size": 3, "strict": True, "count": 4} in result["counts"]


def test_cube_spectrum_and_lemmas(capsys):
    code, report = run_cli(capsys, "cube", "spectrum", "--n", "3")
    assert code == 0
    assert report["result"]["eigen_identities"]["ok"]
    assert report["result"]["null_dimension"]["expected"] == 4

    code, report = run_cli(capsys, "cube", "lemmas", "--n", "4", "--dump-matrices")
    assert code == 0
    assert report["result"]["ok"]
    assert report["result"]["factor_determinant"] == 16
    assert report["result"]["matrices"]["factor"][1][1] == -2


@pytest.mark.parametrize("n", ["9", "10"])
def test_cube_spectrum_checks_the_rank_cap_before_any_work(monkeypatch, capsys, n):
    # the identity check accepts n <= 10, the rank check only n <= 8
    calls = []
    monkeypatch.setattr(hamming, "eigen_identity_check", calls.append)
    code, report = run_cli(capsys, "cube", "spectrum", "--n", n)
    assert code == 2
    assert report["error"] == {"type": "DimensionTooLargeError",
                               "message": f"rank check supports n in 1..8, got {n}"}
    assert calls == []


def test_tree_commands(tmp_path, capsys):
    star = tmp_path / "star4.txt"
    star.write_text("4\n0 1\n0 2\n0 3\n")
    code, report = run_cli(capsys, "tree", "embed", "--edges", str(star), "--n", "2")
    assert code == 1
    assert not report["result"]["found"]

    path4 = tmp_path / "path4.txt"
    path4.write_text("4\n0 1\n1 2\n2 3\n")
    code, report = run_cli(capsys, "tree", "embed", "--edges", str(path4), "--n", "3")
    assert code == 0
    assert report["result"]["found"]
    assert report["result"]["embedding"]["0"] == "000"

    code, report = run_cli(capsys, "tree", "witness", "--k", "5")
    assert code == 0
    assert report["result"]["images"] == ["0000", "1000", "1100", "1110", "1111"]


def test_cube_inputs_are_capped_at_dimension_64(tmp_path, capsys):
    path4 = tmp_path / "path4.txt"
    path4.write_text("4\n0 1\n1 2\n2 3\n")
    code, report = run_cli(capsys, "cube", "classify", "--n", "65", "--subset", "0,1,2")
    assert code == 2
    assert report["error"]["type"] == "DimensionTooLargeError"
    code, report = run_cli(capsys, "tree", "witness", "--k", "66")
    assert code == 2
    assert report["error"]["type"] == "DimensionTooLargeError"
    code, report = run_cli(capsys, "tree", "embed", "--edges", str(path4), "--n", "65")
    assert code == 2
    assert report["error"]["type"] == "DimensionTooLargeError"

    code, report = run_cli(capsys, "cube", "classify", "--n", "64", "--subset", "0,1,2")
    assert code == 0
    assert report["result"]["strict"] and report["result"]["bitstrings"][2] == "0" * 62 + "10"
    code, report = run_cli(capsys, "tree", "witness", "--k", "65")
    assert code == 0
    assert report["result"]["images"][-1] == "1" * 64
    code, report = run_cli(capsys, "tree", "embed", "--edges", str(path4), "--n", "64")
    assert code == 0
    assert report["result"]["embedding"]["3"] == "0" * 61 + "111"


def test_path_witness_names_k_and_its_range(capsys):
    # the range is of the --k given, not of the cube dimension k - 1
    code, report = run_cli(capsys, "tree", "witness", "--k", "100000")
    assert code == 2
    assert report["error"] == {"type": "DimensionTooLargeError",
                               "message": "path witness supports k in 2..65, got 100000"}


def test_input_errors_exit_2(tmp_path, capsys):
    code, report = run_cli(capsys, "roundness", "--graph", "moebius:5")
    assert code == 2
    assert "error" in report

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"matrix": [[0, 1, 3], [1, 0, 1], [3, 1, 0]]}))
    code, report = run_cli(capsys, "roundness", "--matrix", str(bad))
    assert code == 2
    assert report["error"]["type"] == "TriangleViolationError"

    # the triangle check cannot be skipped
    code, report = run_cli(capsys, "roundness", "--matrix", str(bad), "--no-validate")
    assert code == 2
    assert report["error"]["type"] == "BadParamsError"

    code, report = run_cli(capsys, "roundness")
    assert code == 2

    # a subset of separators alone names no vertex
    code, report = run_cli(capsys, "cube", "classify", "--n", "3", "--subset", ",")
    assert code == 2
    assert report["error"] == {"type": "RoundnessError", "message": "empty subset"}

    # labels that are not a list: a JSON error, not a traceback
    for labels in (5, "abc", {"a": 1}):
        f = tmp_path / "labels.json"
        f.write_text(json.dumps({"labels": labels, "matrix": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}))
        code, report = run_cli(capsys, "roundness", "--matrix", str(f))
        assert code == 2
        assert "labels" in report["error"]["message"]
    f.write_text(json.dumps({"matrix": {"0": [0, 1]}}))
    code, report = run_cli(capsys, "roundness", "--matrix", str(f))
    assert code == 2
    assert report["error"]["type"] == "RoundnessError"


@pytest.mark.parametrize("entry", [{}, "x", [1]], ids=["object", "string", "list"])
def test_matrix_entry_that_is_no_number_exits_2(tmp_path, capsys, entry):
    # numpy raises TypeError on a dict entry, which must still be a JSON error
    f = tmp_path / "entries.json"
    f.write_text(json.dumps({"matrix": [[0, entry], [entry, 0]]}))
    code, report = run_cli(capsys, "roundness", "--matrix", str(f))
    assert code == 2
    assert report["error"]["type"] == "ValueError"


def test_nan_matrix_file_is_a_non_finite_matrix_error(tmp_path, capsys):
    # the type the search, the verdicts and power_matrix raise for NaN
    f = tmp_path / "nan.csv"
    f.write_text("0,nan\nnan,0\n")
    code, report = run_cli(capsys, "roundness", "--matrix", str(f))
    assert code == 2
    assert report["error"] == {"type": "NonFiniteMatrixError",
                               "message": "distance matrix contains non-finite entries"}


def test_out_of_memory_input_exits_2(monkeypatch, capsys):
    # a graph spec has no size cap, so numpy may fail to allocate its matrix
    def no_memory(graph):
        raise MemoryError("cannot allocate the distance matrix")

    monkeypatch.setattr(graphs, "path_metric", no_memory)
    code, report = run_cli(capsys, "roundness", "--graph", "cycle:5")
    assert code == 2
    assert report["error"] == {"type": "MemoryError",
                               "message": "cannot allocate the distance matrix"}


def test_solid_graph_spec(capsys):
    code, report = run_cli(capsys, "roundness", "--graph", "dodecahedron")
    assert code == 0
    assert report["result"]["status"] == "Finite"
    assert report["result"]["q"] == pytest.approx(1.0, abs=1e-6)


def test_circulant_graph_spec_is_its_path_metric(tmp_path, capsys):
    # vertex i adjacent to i +/- 1 and i +/- 3 mod 8; the distances by a
    # breadth-first search written here
    n, steps = 8, (1, 3)
    row, frontier = [0] + [None] * (n - 1), [0]
    while frontier:
        reached = []
        for v in frontier:
            for w in ((v + s) % n for s in steps + tuple(-s for s in steps)):
                if row[w] is None:
                    row[w] = row[v] + 1
                    reached.append(w)
        frontier = reached
    f = tmp_path / "circulant8.json"
    f.write_text(json.dumps({"labels": [str(i) for i in range(n)],
                             "matrix": [[row[(j - i) % n] for j in range(n)] for i in range(n)]}))
    main(["roundness", "--graph", "circulant:8:1,3"])
    graph = capsys.readouterr().out
    main(["roundness", "--matrix", str(f)])
    assert capsys.readouterr().out == graph
    assert json.loads(graph)["result"]["status"] == "Finite"


@pytest.mark.parametrize("spec", ["petersen:3", "dodecahedron:2", "circulant:8", "cycle"])
def test_malformed_graph_spec_exits_2(capsys, spec):
    code, report = run_cli(capsys, "roundness", "--graph", spec)
    assert code == 2
    assert report["error"]["type"] == "RoundnessError"


@pytest.mark.parametrize("spec", ["cycle:99999999999999999999", "complete:4097",
                                  "complete_bipartite:2049", "circulant:5000:1,3"])
def test_oversized_graph_family_exits_2(capsys, spec):
    # the vertex budget is checked before any edge is built
    code, report = run_cli(capsys, "roundness", "--graph", spec)
    assert code == 2
    assert report["error"]["type"] == "BadParamsError"
    assert "at most 4096 are supported" in report["error"]["message"]


@pytest.mark.parametrize("spec", ["complete:4096", "complete_bipartite:2048",
                                  "circulant:4096:" + ",".join(map(str, range(1, 130)))],
                         ids=["complete", "complete_bipartite", "circulant"])
def test_graph_family_over_the_edge_budget_exits_2(capsys, spec):
    # within the vertex budget, the edge budget is checked before any edge is built
    code, report = run_cli(capsys, "roundness", "--graph", spec)
    assert code == 2
    assert report["error"]["type"] == "BadParamsError"
    assert "edges; at most 524288 are supported" in report["error"]["message"]


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_cube_scan_rejects_bad_jobs(capsys, jobs):
    code, report = run_cli(capsys, "cube", "scan", "--n", "2", "--jobs", jobs)
    assert code == 2
    assert report["error"]["type"] == "BadParamsError"


SEARCH_COMMANDS = [["roundness", "--graph", "cycle:5"], ["cube", "scan", "--n", "2"]]
SEARCH_FLAGS = [
    ["--tol-p", "0"], ["--tol-p", "-1"], ["--tol-eig", "-1"], ["--p-max", "0"],
    ["--tol-p", "nan"],
]


@pytest.mark.parametrize("command,flags", [
    # every bad root-search flag on both commands that run the root search
    *(pytest.param(command, flags, id=f"command{i}-flags{j}")
      for j, flags in enumerate(SEARCH_FLAGS) for i, command in enumerate(SEARCH_COMMANDS)),
    # bad tolerances outside the root search, each on a command that takes it
    pytest.param(["negtype", "--graph", "cycle:4", "--p", "1"], ["--tol-eig", "nan"],
                 id="negtype-tol-eig-nan"),
    # flags that no longer exist: every check runs at the one relative tolerance
    pytest.param(["verify", "--graph", "cycle:4"], ["--tol", "-1"], id="verify-tol-negative"),
    pytest.param(["verify", "--graph", "petersen"], ["--tol", "1e-6"], id="verify-tol"),
    # a flag is only ever read as spelled in full, never from a unique prefix
    pytest.param(["negtype", "--graph", "cycle:4", "--p", "1"], ["--tol", "1e-3"],
                 id="negtype-tol-prefix"),
    pytest.param(["cube", "scan", "--n", "2"], ["--max", "2", "--job", "3"],
                 id="scan-max-job-prefixes"),
    pytest.param(["roundness", "--graph", "cycle:5"], ["--tol-e", "0.5"],
                 id="roundness-tol-e-prefix"),
    pytest.param(["roundness", "--graph", "cycle:5"], ["--row-perm-tol", "-1"],
                 id="roundness-row-perm-tol-negative"),
    pytest.param(["verify", "--graph", "petersen"], ["--row-perm-tol", "nan"],
                 id="verify-row-perm-tol-nan"),
    pytest.param(["roundness", "--graph", "cycle:5"], ["--row-perm-tol", "0"],
                 id="roundness-row-perm-tol-0"),
    pytest.param(["roundness", "--graph", "cycle:5"], ["--no-validate"], id="roundness-no-validate"),
    pytest.param(["negtype", "--graph", "cycle:5", "--p", "1"], ["--no-validate"],
                 id="negtype-no-validate"),
    pytest.param(["verify", "--graph", "cycle:5"], ["--no-validate"], id="verify-no-validate"),
    # exactly one of --graph, --matrix and --edges
    pytest.param(["roundness", "--graph", "cycle:5"], ["--matrix", "m.json"],
                 id="roundness-graph-and-matrix"),
    pytest.param(["verify", "--edges", "e.txt"], ["--graph", "cycle:5"],
                 id="verify-edges-and-graph"),
    pytest.param(["negtype", "--p", "1"], [], id="negtype-no-input"),
    # arguments argparse itself rejects
    pytest.param(["cube", "classify", "--n", "3"], [], id="classify-missing-subset"),
    pytest.param(["cube", "scan"], ["--n", "x"], id="scan-non-integer-n"),
    pytest.param(["cube", "classify", "--n", "3"], ["--subset", "-1,2"],
                 id="classify-subset-read-as-flag"),
])
def test_bad_search_params_exit_2(capsys, command, flags):
    code, report = run_cli(capsys, *command, *flags)
    assert code == 2
    assert report["error"]["type"] == "BadParamsError"


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        main(["cube", "scan", "--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: gr cube scan")


def test_reports_are_byte_identical(capsys):
    main(["roundness", "--graph", "petersen"])
    first = capsys.readouterr().out
    main(["roundness", "--graph", "petersen"])
    second = capsys.readouterr().out
    assert first == second

    # --jobs is accepted and has no effect: same result payload
    main(["cube", "scan", "--n", "2", "--jobs", "2"])
    jobs2 = json.loads(capsys.readouterr().out)
    main(["cube", "scan", "--n", "2"])
    jobs1 = json.loads(capsys.readouterr().out)
    assert jobs2["result"] == jobs1["result"]
    assert jobs2["inputs_digest"] == jobs1["inputs_digest"]


# sha256 of stdout and the exit code of reports from exact arithmetic: a change
# to these bytes is a change to the report format. Reports holding floats are
# left out, since their last bits depend on the LAPACK build
PINNED_REPORTS = [
    (["cube", "classify", "--n", "3", "--subset", "000,011,101"], 0,
     "a5ccf8bd74ce23abae1a48e2e8e06ba76699053fe418b319ad96bac9c9dc00eb",
     "e808a14215b90f25b8502a435799819e12f16c3719c314923fee7909d3d8d8bd"),
    (["cube", "classify", "--n", "3", "--subset", "0,1,2,3"], 0,
     "e34a4fe141179d49a16ea9c96a56f93ae6c592cc0210e02d3ae3b60c1a953c45",
     "1f1402afa53f9797671414117669314e9a48ee6a98d4ac52d492ac5f1a6c40b2"),
    (["cube", "spectrum", "--n", "4"], 0,
     "18ec36966cd42ac853f7df4adf45d587d63751087c474bec45092553cba3e55c",
     "a5cce114347530c6daa66bfef2e84ab75af37df48f54ad0eb643dc865d231387"),
    (["cube", "lemmas", "--n", "4", "--dump-matrices"], 0,
     "7bbfcf077d123f52aa074a35bb81c77139626774f4ba79004548d86189eccd36",
     "28459712df066891c68038b71a3380accacb6bc78283e095d467d3fe305ac9f7"),
    (["tree", "embed", "--edges", "path4.txt", "--n", "3"], 0,
     "964ade544f997b74ac494ed63782843230c5a72a8a7cb9f6c51a2fccd72350f9",
     "2668cf12ac4af67377c89ee2f6a8c1c0ff9935e80154a97deb641c1e926c1e0f"),
    (["tree", "embed", "--edges", "star4.txt", "--n", "2"], 1,
     "97e5e92a01af4aaf5cfc65dd1936062256e02d01c202d2b2dbf5074d75f550e7",
     "76ecbd186fd3fc32c20f227fa488920af50cd681e67fa390f679da71d530ced3"),
    (["tree", "witness", "--k", "5"], 0,
     "2a59cb84a6847c5ac9ffcc95212ce1b587f1102cb9c8ceb486b90d7ddfb5f0d5",
     "73c3fac587893db87827f2ed52483bed0b05e45869cf130a8ebaf3b715292bf0"),
    (["cube", "spectrum", "--n", "9"], 2,
     "40db966428c6ecc575ac37b44d3698c93a8ccc394e25dfc2d10721fe8b69844a",
     "a2da34fff1f031b6770c882dc4e03edbe9bed6ae014252532210e14683969f7f"),
    (["tree", "witness", "--k", "1"], 2,
     "4e9444e90b2803de5e740024f36b558965ad42efeb2fcb8bf2d34d24dc84aed7",
     "7d972660e67ba227f29f1ccdd3b8d973812a9d23a42ff6561a2ec9683bf01eec"),
]


@pytest.mark.parametrize("argv,code,compact,pretty", PINNED_REPORTS,
                         ids=[" ".join(case[0]) for case in PINNED_REPORTS])
def test_exact_reports_are_pinned(tmp_path, monkeypatch, capsys, argv, code, compact, pretty):
    # the edge files are named relative to the working directory; a report
    # digests the edges, not the path
    (tmp_path / "path4.txt").write_text("4\n0 1\n1 2\n2 3\n")
    (tmp_path / "star4.txt").write_text("4\n0 1\n0 2\n0 3\n")
    monkeypatch.chdir(tmp_path)
    for flags, digest in (([], compact), (["--pretty"], pretty)):
        assert main([*argv, *flags]) == code
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, out


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "roundness.cli", "roundness", "--graph", "cycle:6", "--pretty"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["result"]["q"] == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("argv, head", [
    (["cube", "lemmas", "--n", "10", "--dump-matrices", "--pretty"], 50),  # 300 KB, past a pipe
    (["roundness", "--graph", "nope"], 0),  # an error report to a reader already gone
])
def test_a_reader_gone_early_ends_gr_quietly(argv, head):
    # as `gr ... | head -c 50`: no traceback, and not the exit status of a
    # semantic negative or an input error
    proc = subprocess.Popen([sys.executable, "-m", "roundness.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(head)) == head
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == cli.EXIT_READER_GONE == 141
    assert err == b""
