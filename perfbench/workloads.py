"""Workloads of the roundness benchmark: seeded inputs, items and checks.

A workload is a fixed list of items run one after another by a single caller
(a closed loop). Each item has a timed `run` and an untimed `check` that
compares the outcome with a reference and returns a failure reason or None.

- fleet_q: dense roundness through library calls, one item per metric space.
- cube_scan: two exhaustive Hamming-cube subset scans, one item per call.
- cli_mix: fresh-interpreter CLI runs covering every subcommand, one item
  per command.

Seeded inputs come from `random.Random`, keyed by the workload seed, so the
same seed gives the same inputs on any machine. cube_scan has no seeded
input: its two scans are fixed by definition.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from roundness.graphs import gen_family, load_solid, path_metric
from roundness.hamming import scan_subsets
from roundness.metric import build_metric_space, has_row_permutation_property, hyperplane_basis
from roundness.negtype import check_negative_type, generalized_roundness, kernel_coincidence_check

Q_TOL = 1e-6  # accuracy on q promised by the README
CLI_TIMEOUT_S = 120

GOLDEN = (1 + math.sqrt(5)) / 2

FLEET_TRANSITIVE = ["cycle:5", "petersen", "icosahedron", "dodecahedron", "hypercube:4",
                    "hypercube:5", "circulant:24:1,5", "cycle:25"]
FLEET_SEEDED = ["eucl:24", "wgraph:24"]
FLEET_REDUCED = ["cycle:5", "petersen", "icosahedron", "eucl:8", "wgraph:8"]

CUBE_SCANS = [(3, 8), (4, 3)]
CUBE_SCANS_REDUCED = [(3, 8)]

WORKLOADS = ("fleet_q", "cube_scan", "cli_mix")


@dataclass
class Item:
    name: str
    run: Callable[[], dict]
    check: Callable[[dict], str | None]


@dataclass
class Workload:
    name: str
    items: list[Item]
    sizes: tuple[int, ...]  # point counts whose hyperplane basis set-up fills

    def prefill(self) -> None:
        for n in self.sizes:
            hyperplane_basis(n)


def digest(outcome: dict) -> str:
    """Short digest of an item's outcome, recorded for information only."""
    blob = json.dumps(outcome, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def build(name: str, seed: int, workdir: str, reference: dict, reduced: bool,
          cli_runner: "CliRunner") -> Workload:
    if name == "fleet_q":
        return _fleet(seed, reference["fleet_q"], reduced)
    if name == "cube_scan":
        return _cube(reference["cube_scan"], reduced)
    if name == "cli_mix":
        return _cli(seed, workdir, reference["cli_mix"], reduced, cli_runner)
    raise ValueError(f"unknown workload {name!r} (known: {', '.join(WORKLOADS)})")


# -- seeded inputs ----------------------------------------------------------------


def _rng(seed: int, tag: str) -> random.Random:
    return random.Random(f"{seed}:{tag}")


def euclidean_points(seed: int, n: int, dim: int = 3) -> list[list[float]]:
    """n points in the unit cube of R^dim; their metric has roundness 2."""
    rng = _rng(seed, f"eucl:{n}:{dim}")
    pts = [[rng.random() for _ in range(dim)] for _ in range(n)]
    return [[math.dist(a, b) for b in pts] for a in pts]


def weighted_graph_metric(seed: int, n: int) -> list[list[float]]:
    """Shortest paths on the complete graph with integer weights 1..9."""
    rng = _rng(seed, f"wgraph:{n}")
    d = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = float(rng.randint(1, 9))
    for k in range(n):
        dk = d[k]
        for i in range(n):
            di, dik = d[i], d[i][k]
            for j in range(n):
                if dik + dk[j] < di[j]:
                    di[j] = dik + dk[j]
    return d


def random_tree(seed: int, tag: str, k: int) -> list[tuple[int, int]]:
    rng = _rng(seed, tag)
    return [(rng.randrange(v), v) for v in range(1, k)]


def oracle_q(dist, p_max: float = 64.0, tol_p: float = 1e-9, tol_eig: float = 1e-9) -> float | None:
    """Roundness by the same bracket-and-bisect rule, written independently:
    zero-sum basis from a QR of the centring matrix, eigenvalues from LAPACK.
    Returns None when negative type still holds at p_max."""
    d = np.asarray(dist, dtype=float)
    n = d.shape[0]
    basis = np.linalg.qr(np.eye(n) - 1.0 / n)[0][:, : n - 1]

    def holds(p: float) -> bool:
        dp = np.where(d > 0, d, 1.0) ** p
        np.fill_diagonal(dp, 0.0)
        m = basis.T @ dp @ basis
        w = np.linalg.eigvalsh((m + m.T) / 2.0)
        return w[-1] <= tol_eig * max(1.0, abs(w[-1]), abs(w[0]))

    lo, hi, probe = 0.0, None, 1.0
    while hi is None:
        probe = min(probe, p_max)
        if holds(probe):
            if probe >= p_max:
                return None
            lo, probe = probe, probe * 2.0
        else:
            hi = probe
    while hi - lo > tol_p:
        mid = (lo + hi) / 2.0
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


# -- fleet_q ------------------------------------------------------------------------


def _closed_form_q(spec: str) -> float | None:
    family = spec.split(":")[0]
    if spec == "cycle:5":
        return 2 * math.log2(GOLDEN)
    if spec == "petersen" or family == "hypercube":
        return 1.0
    if family == "eucl":
        return 2.0
    return None


def _graph(spec: str):
    parts = spec.split(":")
    if parts[0] in ("icosahedron", "dodecahedron"):
        return load_solid(parts[0])
    if parts[0] == "petersen":
        return gen_family("petersen")
    if parts[0] == "circulant":
        return gen_family("circulant", int(parts[1]), [int(s) for s in parts[2].split(",")])
    return gen_family(parts[0], int(parts[1]))


def _fleet(seed: int, ref: dict, reduced: bool) -> Workload:
    specs = FLEET_REDUCED if reduced else FLEET_TRANSITIVE + FLEET_SEEDED
    items, sizes = [], set()
    for spec in specs:
        family, _, size = spec.partition(":")
        if family in ("eucl", "wgraph"):
            n = int(size)
            matrix = euclidean_points(seed, n) if family == "eucl" else weighted_graph_metric(seed, n)
            expected = _closed_form_q(spec)
            if expected is None:
                expected = oracle_q(matrix)
            items.append(_fleet_item(spec, lambda m=matrix: build_metric_space(m), expected,
                                     "SpectralBisection"))
        else:
            graph = _graph(spec)
            n = graph.n
            expected = _closed_form_q(spec)
            if expected is None:
                expected = ref[spec]
            items.append(_fleet_item(spec, lambda g=graph: path_metric(g), expected,
                                     "DeterminantFastPath"))
        sizes.add(n)
    return Workload("fleet_q", items, tuple(sorted(sizes)))


def _fleet_item(spec: str, make_space, expected_q: float, expected_method: str) -> Item:
    def run() -> dict:
        space = make_space()
        res = generalized_roundness(space)
        out = {"status": res.status, "q": res.q, "method": res.method}
        if res.status != "Finite":
            return out
        if has_row_permutation_property(space):
            out["kernel_holds"] = kernel_coincidence_check(space, res.q).holds
        out["strict_at_half_q"] = check_negative_type(space, res.q / 2).strict
        return out

    def check(out: dict) -> str | None:
        if out["status"] != "Finite":
            return f"status {out['status']}, expected Finite"
        if abs(out["q"] - expected_q) > Q_TOL:
            return f"q = {out['q']!r}, reference {expected_q!r}"
        if out["method"] != expected_method:
            return f"method {out['method']}, expected {expected_method}"
        if out.get("kernel_holds") is False:
            return "kernel coincidence fails at q"
        if expected_method == "DeterminantFastPath" and "kernel_holds" not in out:
            return "row-permutation property missing"
        if not out["strict_at_half_q"]:
            return "negative type at q/2 is not strict"
        return None

    return Item(spec, run, check)


# -- cube_scan ----------------------------------------------------------------------


def _cube(ref: dict, reduced: bool) -> Workload:
    items = []
    for n, max_size in CUBE_SCANS_REDUCED if reduced else CUBE_SCANS:
        expected = ref[f"{n}:{max_size}"]

        def run(n=n, max_size=max_size) -> dict:
            s = scan_subsets(n, max_size=max_size, jobs=1)
            return {
                "counts": [[size, strict, c] for (size, strict), c in sorted(s.counts.items())],
                "min_q": s.min_q_over_strict,
                "argmin": list(s.argmin_subset),
                "unbounded": s.unbounded_strict_count,
            }

        def check(out: dict, expected=expected) -> str | None:
            if out["counts"] != expected["counts"]:
                return f"counts {out['counts']}, reference {expected['counts']}"
            if out["unbounded"] != expected["unbounded"]:
                return f"unbounded count {out['unbounded']}, reference {expected['unbounded']}"
            if abs(out["min_q"] - expected["min_q"]) > Q_TOL:
                return f"min q {out['min_q']!r}, reference {expected['min_q']!r}"
            if out["argmin"] != expected["argmin"]:
                return f"argmin {out['argmin']}, reference {expected['argmin']}"
            return None

        items.append(Item(f"scan:{n}:{max_size}", run, check))
    # scans touch 3- and 4-point subset metrics only
    return Workload("cube_scan", items, (3, 4))


# -- cli_mix ------------------------------------------------------------------------


class CliRunner:
    """Runs one CLI command in a fresh interpreter.

    Untraced, the command is `python -m roundness.cli ARGS`. With
    `spans_dir` set, it goes through `traced_cli.py`, which records layer
    spans and writes them to a file; each file's spans are appended to
    `collected`. `bytes_out` counts the reports' bytes.
    """

    def __init__(self, env: dict):
        self.env = env
        self.spans_dir: str | None = None
        self.collected: list[list] = []
        self.bytes_out = 0
        self._count = 0

    def run(self, args: list[str]) -> dict:
        if self.spans_dir is None:
            cmd = [sys.executable, "-m", "roundness.cli", *args]
            spans_file = None
        else:
            self._count += 1
            spans_file = os.path.join(self.spans_dir, f"cli-{self._count}.json")
            traced = os.path.join(os.path.dirname(os.path.abspath(__file__)), "traced_cli.py")
            cmd = [sys.executable, traced, spans_file, *args]
        proc = subprocess.run(cmd, env=self.env, capture_output=True, timeout=CLI_TIMEOUT_S)
        self.bytes_out += len(proc.stdout)
        if spans_file is not None and os.path.exists(spans_file):
            with open(spans_file, encoding="utf-8") as fh:
                self.collected.append(json.load(fh))
            os.remove(spans_file)
        lines = proc.stdout.decode("utf-8", "replace").strip().splitlines()
        try:
            report = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            report = None
        return {"exit": proc.returncode, "report": report,
                "stderr": proc.stderr.decode("utf-8", "replace")[-300:]}


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _edge_list(k: int, edges) -> str:
    return "\n".join([str(k)] + [f"{u} {v}" for u, v in edges]) + "\n"


def cli_inputs(seed: int, workdir: str) -> dict:
    """Write the seeded input files; return their paths and expectations."""
    os.makedirs(workdir, exist_ok=True)
    space = weighted_graph_metric(seed, 12)
    tree = random_tree(seed, "tree:10", 10)
    tree_dist = tree_distances(10, tree)
    csv_dist = euclidean_points(seed, 8)
    rng = _rng(seed, "classify")
    subset = sorted(rng.sample(range(8), 4))
    bits = [[(v >> (2 - c)) & 1 for c in range(3)] for v in subset]
    diffs = np.array([[b[c] - bits[0][c] for c in range(3)] for b in bits[1:]])
    asym = [[0, 1, 2, 2], [1, 0, 1, 2], [2, 1, 0, 1], [2, 2, 1.5, 0]]
    return {
        "json": _write(os.path.join(workdir, "space.json"), json.dumps(
            {"labels": [f"v{i}" for i in range(12)], "matrix": space})),
        "json_q": oracle_q(space),
        "tree": _write(os.path.join(workdir, "tree.txt"), _edge_list(10, tree)),
        "tree_q": oracle_q(tree_dist),
        "csv": _write(os.path.join(workdir, "space.csv"),
                      "\n".join(",".join(repr(x) for x in row) for row in csv_dist) + "\n"),
        "embed": _write(os.path.join(workdir, "embed.txt"),
                        _edge_list(6, random_tree(seed, "embed:6", 6))),
        "asym": _write(os.path.join(workdir, "asym.json"), json.dumps({"matrix": asym})),
        "subset": ",".join(str(v) for v in subset),
        "subset_strict": int(np.linalg.matrix_rank(diffs)) == len(subset) - 1,
    }


def tree_distances(k: int, edges) -> list[list[float]]:
    """Tree distances by breadth-first search, independent of the library."""
    adj = [[] for _ in range(k)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    dist = []
    for s in range(k):
        row = [-1] * k
        row[s] = 0
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if row[w] < 0:
                        row[w] = row[u] + 1
                        nxt.append(w)
            frontier = nxt
        dist.append([float(x) for x in row])
    return dist


def _expect_q(q_ref):
    return lambda r: None if abs(r["result"]["q"] - q_ref) <= Q_TOL else f"q {r['result']['q']!r}, reference {q_ref!r}"


def _cli_commands(inp: dict, ref: dict) -> list[tuple[str, list[str], Callable[[dict], str | None]]]:
    """(name, argv, check of the parsed report). Exit codes and error types
    come from the reference file."""
    scan = ref["cube scan n=3"]
    return [
        ("roundness cycle:5", ["roundness", "--graph", "cycle:5"], _expect_q(2 * math.log2(GOLDEN))),
        ("roundness complete:6", ["roundness", "--graph", "complete:6"],
         lambda r: None if r["result"]["status"] == "Unbounded" else "expected Unbounded"),
        ("roundness json", ["roundness", "--matrix", inp["json"]], _expect_q(inp["json_q"])),
        ("roundness tree", ["roundness", "--edges", inp["tree"]], _expect_q(inp["tree_q"])),
        ("negtype hypercube:2", ["negtype", "--graph", "hypercube:2", "--p", "1"],
         lambda r: None if r["result"]["holds"] and not r["result"]["strict"]
         else "expected non-strict 1-negative type"),
        ("negtype csv strict", ["negtype", "--matrix", inp["csv"], "--p", "1", "--strict"],
         lambda r: None if r["result"]["strict"] else "expected strict 1-negative type"),
        ("verify petersen", ["verify", "--graph", "petersen"],
         lambda r: None if r["result"]["holds"] else "kernel coincidence fails"),
        ("cube classify", ["cube", "classify", "--n", "3", "--subset", inp["subset"]],
         lambda r: None if r["result"]["strict"] == inp["subset_strict"]
         else f"strict {r['result']['strict']}, rank oracle says {inp['subset_strict']}"),
        ("cube spectrum n=8", ["cube", "spectrum", "--n", "8"],
         lambda r: None if r["result"]["null_dimension"]["ok"] else "rank structure check fails"),
        ("cube scan n=3", ["cube", "scan", "--n", "3", "--jobs", "2"],
         lambda r: None if abs(r["result"]["min_q_over_strict"] - scan["min_q"]) <= Q_TOL
         and r["result"]["argmin_subset"]["indices"] == scan["argmin"]
         else "minimum roundness or its subset differs from the reference"),
        ("cube lemmas n=10", ["cube", "lemmas", "--n", "10", "--dump-matrices"],
         lambda r: None if r["result"]["ok"] and len(r["result"]["matrices"]["sign"]) == 11
         else "factorization identity fails"),
        ("tree embed", ["tree", "embed", "--edges", inp["embed"], "--n", "4"],
         lambda r: None if not r["result"]["found"] else "embedding below dimension k-1 found"),
        ("tree witness k=7", ["tree", "witness", "--k", "7"],
         lambda r: None if r["result"]["verified"] and len(r["result"]["images"]) == 7
         else "path witness not verified"),
        ("roundness asymmetric", ["roundness", "--matrix", inp["asym"]], lambda r: None),
    ]


CLI_REDUCED = ("roundness cycle:5", "roundness json", "cube classify", "tree witness k=7",
               "roundness asymmetric")


def _cli(seed: int, workdir: str, ref: dict, reduced: bool, runner: CliRunner) -> Workload:
    inp = cli_inputs(seed, workdir)
    items = []
    for name, argv, check_report in _cli_commands(inp, ref):
        if reduced and name not in CLI_REDUCED:
            continue
        expected = ref["expect"][name]

        def run(argv=argv) -> dict:
            return runner.run(argv)

        def check(out: dict, expected=expected, check_report=check_report) -> str | None:
            if out["exit"] != expected["exit"]:
                return f"exit {out['exit']}, expected {expected['exit']}: {out['stderr']!r}"
            report = out["report"]
            if report is None:
                return "no JSON report on stdout"
            if "error_type" in expected:
                got = report.get("error", {}).get("type")
                return None if got == expected["error_type"] else \
                    f"error type {got}, expected {expected['error_type']}"
            if "result" not in report:
                return f"unexpected report {report}"
            return check_report(report)

        items.append(Item(name, run, check))
    return Workload("cli_mix", items, ())
