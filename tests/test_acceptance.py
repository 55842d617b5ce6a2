"""Acceptance criteria, one test per criterion, each printing a pass/fail line
with its runtime (run with ``pytest tests/test_acceptance.py -v -s``)."""

import itertools
import time

import numpy as np
import pytest

from conftest import build_fleet

from roundness import (
    Graph,
    build_metric_space,
    check_negative_type,
    classify_subset,
    cube_distance_matrix,
    eigen_identity_check,
    factorization_check,
    gen_family,
    generalized_roundness,
    gr_inequality_check,
    kernel_coincidence_check,
    null_dimension_check,
    path_embedding_witness,
    path_metric,
    scan_subsets,
    subset_metric,
    tree_embedding_search,
)
from roundness.metric import power_matrix


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def report(num: int, ok: bool, elapsed: float, limit: float, detail: str = ""):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} in {elapsed:6.2f}s (limit {limit:.0f}s)"
    if detail:
        line += f"  {detail}"
    print(line)
    assert ok, f"criterion {num} failed: {detail}"
    assert elapsed < limit, f"criterion {num} over its runtime budget ({elapsed:.2f}s)"


def popcount_matrix(n):
    pc = np.array([int(i).bit_count() for i in range(1 << n)], dtype=np.int64)
    idx = np.arange(1 << n)
    return pc[idx[:, None] ^ idx[None, :]]


def test_criterion_01_cube_eigen_identities():
    with Timer() as t:
        ok = True
        for n in range(1, 9):
            ok &= eigen_identity_check(n) == {"ok": True, "failures": []}
            ok &= bool(np.array_equal(cube_distance_matrix(n), popcount_matrix(n)))
    report(1, ok, t.elapsed, 10, "exact eigenvector identities + popcount oracle, n=1..8")


def test_criterion_02_exact_rank_structure():
    with Timer() as t:
        ok = True
        for n in range(1, 9):
            r = null_dimension_check(n)
            ok &= r["ok"] and r["distance_rank"] == n + 1
            ok &= r["computed"] == (1 << n) - n - 1
            ok &= r["sign_rank"] == n + 1 and r["kernel_annihilates"]
    report(2, ok, t.elapsed, 30, "rank(D_n)=n+1, nullity=2^n-n-1, exact kernel annihilation")


def test_criterion_03_factorization_identity():
    with Timer() as t:
        ok = all(factorization_check(n) for n in range(1, 11))
    report(3, ok, t.elapsed, 5, "factor matrix invertible and factorization exact, n=1..10")


def spectral_strict(n: int, indices) -> bool:
    return check_negative_type(subset_metric(n, indices), 1.0, tol_eig=1e-9).strict


def test_criterion_04_classifier_cross_oracle():
    with Timer() as t:
        disagreements = 0
        total = 0
        for n in (2, 3):
            for size in range(2, (1 << n) + 1):
                for ids in itertools.combinations(range(1 << n), size):
                    total += 1
                    disagreements += classify_subset(n, ids).strict != spectral_strict(n, ids)
        rng = np.random.default_rng(20240517)
        for n in (4, 5):
            for _ in range(500):
                size = int(rng.integers(2, (1 << n) + 1))
                ids = np.sort(rng.choice(1 << n, size=size, replace=False)).tolist()
                total += 1
                disagreements += classify_subset(n, ids).strict != spectral_strict(n, ids)
    report(4, disagreements == 0, t.elapsed, 120,
           f"exact rank vs spectral strictness on {total} subsets, "
           f"{disagreements} disagreements")


def relative_min_eigenvalue(a) -> float:
    """min |eigenvalue| / max |eigenvalue|, the measure `det_normalized`
    reports for D_q."""
    magnitudes = np.abs(np.linalg.eigvalsh(a))
    return float(magnitudes.min() / magnitudes.max())


def test_criterion_05_determinant_criterion_consistency():
    with Timer() as t:
        ok = True
        fleet = build_fleet()
        fleet["hypercube:6"] = path_metric(gen_family("hypercube", 6))
        worst_q, least_half = 0.0, 1.0
        for spec, sp in fleet.items():
            for c in (1e-3, 1.0, 1e3):
                scaled = build_metric_space(c * sp.dist)
                res = generalized_roundness(scaled)
                ok &= res.status == "Finite"
                ok &= 0 <= res.det_normalized <= 1e-6
                half = relative_min_eigenvalue(power_matrix(scaled, res.q / 2))
                ok &= half > 1e-6
                worst_q, least_half = max(worst_q, res.det_normalized), min(least_half, half)
        for n in range(3, 7):
            res = generalized_roundness(path_metric(gen_family("complete", n)))
            ok &= res.status == "Unbounded"
    report(5, ok, t.elapsed, 30,
           f"relative min |eig| of D_q <= {worst_q:.1e}, of D_q/2 >= {least_half:.1e} "
           "at c in {1e-3, 1, 1e3}; complete graphs unbounded")


def test_criterion_06_kernel_coincidence():
    with Timer() as t:
        ok = True
        for spec, sp in build_fleet().items():
            res = generalized_roundness(sp)
            rep = kernel_coincidence_check(sp, res.q)
            ok &= rep.holds and rep.max_defect <= 1e-6
    report(6, ok, t.elapsed, 30, "form kernel = matrix kernel at q, defect <= 1e-6")


def test_criterion_07_cube_roundness_is_one():
    with Timer() as t:
        q2 = generalized_roundness(path_metric(gen_family("hypercube", 2))).q
        q3 = generalized_roundness(path_metric(gen_family("hypercube", 3))).q
        ok = abs(q2 - 1.0) <= 1e-6 and abs(q3 - 1.0) <= 1e-6
    report(7, ok, t.elapsed, 10, f"q(2-cube)={q2:.9f}, q(3-cube)={q3:.9f}")


def test_criterion_08_subset_scans():
    with Timer() as t:
        full = scan_subsets(3, max_size=8)
        big_sizes_never_strict = all(
            not strict for (size, strict) in full.counts if size >= 5 and strict
        )
        mins = []
        for n in (2, 3):
            summary = scan_subsets(n)  # sizes up to n+1
            mins.append((n, summary.min_q_over_strict, summary.argmin_subset))
        ok = big_sizes_never_strict and all(m[1] > 1 + 1e-3 for m in mins)
        detail = "; ".join(f"min q over strict subsets of the {n}-cube = {q:.6f} at {sub}"
                           for n, q, sub in mins)
    report(8, ok, t.elapsed, 180, detail)


def test_criterion_09_tree_embeddings():
    with Timer() as t:
        star4 = Graph(4, ((0, 1), (0, 2), (0, 3)))
        path4 = Graph(4, ((0, 1), (1, 2), (2, 3)))
        ok = tree_embedding_search(star4, 2) is None
        ok &= tree_embedding_search(path4, 2) is None
        for k in range(2, 8):
            images = path_embedding_witness(k)
            for i in range(k):
                for j in range(i + 1, k):
                    ok &= (images[i] ^ images[j]).bit_count() == j - i
    report(9, ok, t.elapsed, 60, "no 4-star/4-path in the 2-cube; prefix paths exact, k=2..7")


def test_criterion_10_inequality_sampling():
    with Timer() as t:
        rng = np.random.default_rng(8675309)
        ok = True
        fleet = build_fleet()
        # constant-distance spaces have unbounded roundness; p=2 stands in for q/2
        for n in range(3, 7):
            fleet[f"complete:{n}"] = path_metric(gen_family("complete", n))
        for spec, sp in fleet.items():
            res = generalized_roundness(sp)
            half_q = res.q / 2 if res.status == "Finite" else 2.0
            for p in (0.5, 1.0, half_q):
                verdict = check_negative_type(sp, p, tol_eig=1e-9)
                if verdict.holds:
                    for _ in range(1000):
                        m = int(rng.integers(1, 5))
                        a = rng.integers(0, sp.n, size=m).tolist()
                        b = rng.integers(0, sp.n, size=m).tolist()
                        ok &= gr_inequality_check(sp, p, a, b).holds
                if not verdict.strict:
                    eta = verdict.witness.eta
                    ok &= verdict.witness.form_value >= -1e-9
                    ok &= abs(float(np.sum(eta))) <= 1e-9
                    ok &= float(eta @ power_matrix(sp, p) @ eta) == pytest.approx(
                        verdict.witness.form_value
                    )
    report(10, ok, t.elapsed, 120, "no sampled violations under negative type; witnesses valid")
