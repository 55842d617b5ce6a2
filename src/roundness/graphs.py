"""Graph families and shortest-path metrics.

Everything here feeds the metric layer: a graph becomes a finite metric
space via breadth-first search, from every vertex or, when its adjacency
matrix is circulant or in cube order, from vertex 0 alone, whose row is
read through that order's index in `spectral`. The generated families
(cycles, complete and complete bipartite graphs, hypercubes, the Petersen
graph, circulants) are all vertex-transitive, so their path metrics have the
row-permutation property. Two Platonic solids ship as edge-list data files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

import numpy as np

from .errors import BadParamsError, DisconnectedError, UnknownFamilyError, _integer, _integers
from .metric import FiniteMetricSpace, _labels, _readonly
from .spectral import _row0_index, _row0_order_of_edges

SOLIDS = ("dodecahedron", "icosahedron")

FAMILIES = ("cycle", "complete", "complete_bipartite", "hypercube", "petersen", "circulant")

# Most vertices a generated family may have, that of hypercube:12: a path
# metric holds n^2 floats, so a family's size is checked before any edge is
# built
MAX_FAMILY_VERTICES = 4096
# Most edges a generated family may have, just above the 523,776 of
# complete:1024: each edge is a Python tuple, so the count, which n and the
# offsets fix, is checked before any edge is built
MAX_FAMILY_EDGES = 2**19
# the bounds of n in each family that takes it (2n vertices, and 2^n in hypercube)
FAMILY_N = {"cycle": (3, None), "complete": (2, None), "complete_bipartite": (1, None),
            "hypercube": (1, 12), "circulant": (3, None)}


@dataclass(frozen=True)
class Graph:
    n: int
    edges: tuple[tuple[int, int], ...]
    labels: tuple[str, ...] | None = field(default=None)

    def __post_init__(self):
        n = _integer(self.n, 1, None, "graph needs an integer vertex count >= 1, got {!r}")
        message = f"edge vertex {{!r}} out of range for {n} vertices"
        seen, norm = set(), []
        try:
            for u, v in self.edges:  # a TypeError where edges, or an edge, is no sequence
                u, v = _integer(u, 0, n - 1, message), _integer(v, 0, n - 1, message)
                if u == v:
                    raise ValueError(f"self-loop at vertex {u}")
                key = (min(u, v), max(u, v))
                if key in seen:
                    raise ValueError(f"duplicate edge {key}")
                seen.add(key)
                norm.append(key)
        except TypeError:
            raise ValueError(f"edges must be a sequence of pairs, got {self.edges!r}") from None
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(sorted(norm)))
        if self.labels is not None:
            object.__setattr__(self, "labels", _labels(self.labels, n))


def adjacency(g: Graph) -> dict[int, list[int]]:
    """The neighbours of each vertex that has an edge, whatever n is."""
    adj: dict[int, list[int]] = {}
    for u, v in g.edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    return adj


def path_metric(g: Graph) -> FiniteMetricSpace:
    """Shortest-path distance matrix by breadth-first search.

    The BFS from vertex 0 runs first, and a vertex it misses is a
    DisconnectedError before anything of size n is built. When the
    adjacency matrix is circulant or in cube order, as its edge set tells
    (`spectral._row0_order_of_edges`), so is the distance matrix, which is
    that row read through the order's index; otherwise BFS runs from every
    vertex. Distances are integers stored exactly; the result is a metric,
    so the triangle-inequality revalidation is skipped.
    """
    if g.n < 2:
        raise ValueError("a metric space needs at least 2 vertices")
    adj = adjacency(g)
    n = g.n
    row = _bfs(adj, 0)
    if len(row) < n:
        t = next(t for t in range(n) if t not in row)
        raise DisconnectedError(f"no path between vertices 0 and {t}")
    order = _row0_order_of_edges(n, np.array(g.edges, dtype=np.intp).reshape(-1, 2))
    if order:
        dist = np.array([row[t] for t in range(n)], dtype=float)[_row0_index(order, n)]
    else:
        rows = [row] + [_bfs(adj, s) for s in range(1, n)]
        dist = np.array([[r[t] for t in range(n)] for r in rows], dtype=float)
    labels = g.labels if g.labels is not None else tuple(str(i) for i in range(n))
    return FiniteMetricSpace(labels=tuple(labels), dist=_readonly(dist))


def _bfs(adj: dict[int, list[int]], s: int) -> dict[int, int]:
    """The distance from s of each vertex s reaches."""
    row = {s: 0}
    frontier = [s]
    while frontier:
        nxt = []
        for u in frontier:
            for w in adj.get(u, ()):
                if w not in row:
                    row[w] = row[u] + 1
                    nxt.append(w)
        frontier = nxt
    return row


def gen_family(family: str, *params) -> Graph:
    """Build a named parametric graph family.

    cycle(n>=3), complete(n>=2), complete_bipartite(n>=1) for the balanced
    two-sided graph, hypercube(n>=1) in binary-counting vertex order,
    petersen, circulant(n, offsets) connecting i ~ i +/- s mod n, each n
    an integer in its FAMILY_N bounds. A family of more than
    MAX_FAMILY_VERTICES vertices or MAX_FAMILY_EDGES edges is a
    BadParamsError, raised before any edge is built.
    """
    if family not in FAMILIES:
        raise UnknownFamilyError(f"unknown graph family {family!r} (known: {', '.join(FAMILIES)})")
    arity = {"petersen": 0, "circulant": 2}.get(family, 1)
    if len(params) != arity:
        raise BadParamsError(f"{family} takes {arity} parameter(s), got {len(params)}")
    if family == "petersen":
        edges = []
        for i in range(5):
            edges.append((i, (i + 1) % 5))
            edges.append((5 + i, 5 + (i + 2) % 5))
            edges.append((i, i + 5))
        return Graph(10, tuple(edges))
    lo, hi = FAMILY_N[family]
    bounds = f">= {lo}" if hi is None else f"in {lo}..{hi}"
    n = _integer(params[0], lo, hi, f"{family} needs an integer n {bounds}, got {{!r}}",
                 BadParamsError)
    if family == "cycle":
        _check_size(family, n, n)
        return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))
    if family == "complete":
        _check_size(family, n, n * (n - 1) // 2)
        return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))
    if family == "complete_bipartite":
        _check_size(family, 2 * n, n * n)
        return Graph(2 * n, tuple((i, n + j) for i in range(n) for j in range(n)))
    if family == "hypercube":
        size = 1 << n
        edges = tuple(
            (i, i ^ (1 << b)) for i in range(size) for b in range(n) if i < (i ^ (1 << b))
        )
        labels = tuple(format(i, f"0{n}b") for i in range(size))
        return Graph(size, edges, labels=labels)
    if family == "circulant":
        offsets = sorted(set(_integers(params[1], 1, n // 2, f"circulant offsets must be "
                                       f"integers in 1..{n // 2}, got {{!r}}", BadParamsError)))
        if not offsets:
            raise BadParamsError("circulant needs at least one offset")
        # n edges per offset, but n / 2 for the offset n / 2, where i + s = i - s mod n
        _check_size(family, n, sum(n // 2 if 2 * s == n else n for s in offsets))
        g = n
        for s in offsets:
            g = gcd(g, s)
        if g > 1:
            raise BadParamsError(f"offsets {offsets} generate a disconnected circulant (gcd {g})")
        edges = {tuple(sorted((i, (i + s) % n))) for i in range(n) for s in offsets}
        return Graph(n, tuple(sorted(edges)))


def _check_size(family: str, n: int, edges: int) -> None:
    if n > MAX_FAMILY_VERTICES:
        raise BadParamsError(f"{family} would have {n} vertices; at most "
                             f"{MAX_FAMILY_VERTICES} are supported")
    if edges > MAX_FAMILY_EDGES:
        raise BadParamsError(f"{family} would have {edges} edges; at most "
                             f"{MAX_FAMILY_EDGES} are supported")


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format: first line the vertex count, then one
    'u v' pair per line (0-indexed). Blank lines and '#' comments allowed."""
    if not isinstance(text, str):
        raise ValueError(f"an edge list is text, got {text!r}")
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty edge list")
    n = int(lines[0])
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return Graph(n, tuple(edges))


def load_edge_list(path) -> Graph:
    if not (isinstance(path, (str, bytes)) or hasattr(path, "__fspath__")):  # no file descriptor
        raise ValueError(f"an edge-list path is a str, bytes or path-like, got {path!r}")
    with open(path, encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def load_solid(name: str) -> Graph:
    if name not in SOLIDS:
        raise UnknownFamilyError(f"unknown solid {name!r} (bundled: {', '.join(SOLIDS)})")
    from importlib import resources

    text = resources.files("roundness.data").joinpath(f"{name}.txt").read_text(encoding="utf-8")
    return parse_edge_list(text)
