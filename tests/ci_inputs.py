"""Write the distance-matrix files that the CI's console-script step reads.

Usage: python tests/ci_inputs.py DIR

Each file is a JSON object {"labels": [...], "matrix": [[...], ...]} that
`gr ... --matrix FILE` takes. Every matrix is built here with the standard
library alone, without `roundness`, so the CI compares the package against
an independent construction:

- cycle64.json, hypercube6.json: the path metrics of cycle:64 and
  hypercube:6, whose reports must equal those of the `--graph` spec;
- circulant256.json: circulant:256:1,5 with vertices 1 and 2 swapped, which
  has no row-0 order but whose distance classes commute;
- eucl256.json: 256 seeded points of the unit cube, a dense search;
- truncated_tetrahedron.json: a Cayley graph of A_4, whose rows permute but
  whose distance classes do not commute.
"""

import json
import math
import os
import random
import sys


def cycle_and_hypercube(n=64):
    return {
        "cycle64": ([str(i) for i in range(n)],
                    [[min(abs(i - j), n - abs(i - j)) for j in range(n)] for i in range(n)]),
        "hypercube6": ([format(i, "06b") for i in range(n)],
                       [[bin(i ^ j).count("1") for j in range(n)] for i in range(n)]),
    }


def relabelled_circulant(n=256, steps=(1, 5)):
    dist, frontier = [0] + [None] * (n - 1), [0]
    while frontier:
        nxt = []
        for v in frontier:
            for s in steps:
                for w in ((v + s) % n, (v - s) % n):
                    if dist[w] is None:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
        frontier = nxt
    perm = list(range(n))
    perm[1], perm[2] = 2, 1
    matrix = [[dist[(perm[j] - perm[i]) % n] for j in range(n)] for i in range(n)]
    return [str(v) for v in perm], matrix


def euclidean(n=256, seed=11):
    rng = random.Random(seed)
    points = [[rng.random() for _ in range(3)] for _ in range(n)]
    return [str(i) for i in range(n)], [[math.dist(a, b) for b in points] for a in points]


def truncated_tetrahedron():
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (6, 7), (6, 8), (7, 8),
             (9, 10), (9, 11), (10, 11), (0, 3), (1, 6), (2, 9), (4, 7), (5, 10), (8, 11)]
    adj = [[] for _ in range(12)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    matrix = []
    for s in range(12):
        dist, frontier = {s: 0}, [s]
        while frontier:
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        matrix.append([dist[v] for v in range(12)])
    return [str(v) for v in range(12)], matrix


def main(directory):
    spaces = {**cycle_and_hypercube(), "circulant256": relabelled_circulant(),
              "eucl256": euclidean(), "truncated_tetrahedron": truncated_tetrahedron()}
    for name, (labels, matrix) in spaces.items():
        with open(os.path.join(directory, name + ".json"), "w") as fh:
            json.dump({"labels": labels, "matrix": matrix}, fh)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/ci_inputs.py DIR")
    main(sys.argv[1])
