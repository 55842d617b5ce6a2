import math

import pytest

from roundness import gen_family, path_metric

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
