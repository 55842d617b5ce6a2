import math

import pytest

from roundness import Graph, gen_family, path_metric
from roundness.metric import FiniteMetricSpace

# Closed-form roundness values for the graph fleet, derived from circulant /
# adjacency spectra (see test_negtype for the derivations). None = unbounded.
FLEET_Q = {
    "cycle:4": 1.0,
    "cycle:5": 2 * math.log2((1 + math.sqrt(5)) / 2),
    "cycle:6": 1.0,
    "petersen": 1.0,
    "complete_bipartite:3": math.log2(1.5),
    "hypercube:2": 1.0,
    "hypercube:3": 1.0,
}


# The truncated tetrahedron, a Cayley graph of the alternating group A_4: four
# triangles, each pair of them joined by one edge. It is vertex-transitive, so
# its distance-matrix rows are permutations of each other, but its distance
# classes do not commute, so every consumer solves it densely.
TRUNCATED_TETRAHEDRON_EDGES = (
    (0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (6, 7), (6, 8), (7, 8),
    (9, 10), (9, 11), (10, 11), (0, 3), (1, 6), (2, 9), (4, 7), (5, 10), (8, 11),
)


def truncated_tetrahedron():
    return Graph(12, TRUNCATED_TETRAHEDRON_EDGES)


def dense_copy(sp):
    """`sp` with no row-0 order and no class spectrum, so that every
    consumer takes the dense source."""
    copy = FiniteMetricSpace(labels=sp.labels, dist=sp.dist)
    vars(copy).update(order=None, classes=None)
    return copy


def sympy_kernel(rows):
    """sympy's rational kernel basis of an integer matrix, each vector scaled
    to canonical form: primitive integers, first nonzero entry positive."""
    import sympy

    basis = []
    for vec in sympy.Matrix(rows).nullspace():
        ints = [int(x) for x in vec * math.lcm(*(sympy.Rational(x).q for x in vec))]
        g = math.gcd(*ints)
        if next(x for x in ints if x) < 0:
            g = -g
        basis.append([x // g for x in ints])
    return basis


def build_fleet():
    spaces = {}
    for spec in FLEET_Q:
        family, _, param = spec.partition(":")
        args = (int(param),) if param else ()
        spaces[spec] = path_metric(gen_family(family, *args))
    return spaces


@pytest.fixture(scope="session")
def fleet():
    return build_fleet()


@pytest.fixture(scope="session")
def complete_spaces():
    return {n: path_metric(gen_family("complete", n)) for n in range(3, 7)}
