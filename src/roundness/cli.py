"""Command-line interface: deterministic JSON reports over the library.

Commands
--------
roundness   compute the supremal negative-type exponent of a metric space
negtype     decide (strict) p-negative type at a given exponent
cube        classify / spectrum / scan / lemmas for Hamming-cube subsets
tree        embed a tree into a cube, or emit the prefix path embedding
verify      kernel-coincidence check at the computed exponent

Inputs, exactly one per command, are graph specs (``cycle:5``,
``circulant:8:1,3``, ``petersen``, ``dodecahedron``), matrix files (JSON
``{"labels": [...], "matrix": [[...]]}`` or bare CSV), or edge-list files
(first line the vertex count, then ``u v`` lines). Reports are
byte-identical for identical inputs and flags. Flags are read only as
spelled in full. Exit codes: 0 success/holds, 1 semantic negative (violated,
hypothesis failed, none found), 2 input error, and 141 (128 + SIGPIPE, as a
shell reports a filter that SIGPIPE ended) when the reader of stdout goes
away before the report is written, which ends `gr` quietly, with nothing on
stderr. Set ROUNDNESS_LOG=DEBUG for diagnostics on stderr.

A `gr` process compiles and imports only the modules its command runs.
`metric` and `spectral`, which every command uses, load with this module;
each handler imports `graphs`, `hamming` or `negtype` where it calls them;
`csv` loads only for a CSV matrix, and `logging` only with ROUNDNESS_LOG
set or with `negtype`, which logs its searches. So `roundness`, `negtype`
and `verify` load no `hamming`, and `cube classify|spectrum|lemmas` and
`tree witness` no `negtype`, `graphs` or `logging`.

Importing this module sets OPENBLAS_NUM_THREADS to 1 unless it is already
set, before numpy loads (with `metric`, below), so a `gr` process runs
OpenBLAS on one thread: most of its matrices are small, and on those helper
threads only spin. A value set by the caller wins. The library modules
never touch the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

# before numpy is first imported, below: OpenBLAS reads it once, at load
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import BadParamsError, HypothesisViolatedError, RoundnessError
from .metric import build_metric_space
from .spectral import det_exact

EXIT_READER_GONE = 141  # 128 + SIGPIPE's 13, without loading `signal`


# -- input handling -----------------------------------------------------------


def graph_from_spec(spec: str):
    from .graphs import SOLIDS, gen_family, load_solid

    parts = spec.split(":")
    name = parts[0]
    if name in SOLIDS or name == "petersen":
        if len(parts) > 1:
            raise RoundnessError(f"{name} takes no parameters")
        return load_solid(name) if name in SOLIDS else gen_family(name)
    if name == "circulant":
        if len(parts) != 3:
            raise RoundnessError("circulant spec is circulant:N:s1,s2,...")
        offsets = [int(s) for s in parts[2].split(",") if s]
        return gen_family("circulant", int(parts[1]), offsets)
    if len(parts) != 2:
        raise RoundnessError(f"graph spec {spec!r} should look like family:param")
    return gen_family(name, int(parts[1]))


def load_matrix_file(path: str):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        import csv
        import io

        rows = [[float(x) for x in row] for row in csv.reader(io.StringIO(text)) if row]
        return rows, None
    if not isinstance(obj, dict) or not isinstance(obj.get("matrix"), list):
        raise RoundnessError('matrix JSON must be an object with a "matrix" list')
    labels = obj.get("labels")
    if not (labels is None or isinstance(labels, list)):
        raise RoundnessError('"labels" in matrix JSON must be a list')
    return obj["matrix"], labels


def resolve_space(args):
    """Turn --graph/--matrix/--edges (exactly one, which the parser
    enforces) into a metric space plus a canonical description used for the
    input digest."""
    if args.matrix is not None:
        space = build_metric_space(*load_matrix_file(args.matrix))
    else:
        from .graphs import load_edge_list, path_metric

        if args.graph is not None:
            space = path_metric(graph_from_spec(args.graph))
        else:
            space = path_metric(load_edge_list(args.edges))
    desc = {"labels": list(space.labels), "matrix": space.dist.tolist()}
    return space, desc


def digest_of(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _write_json(payload, pretty: bool) -> None:
    """Print payload as sorted-key JSON: indented with --pretty, compact
    otherwise. Reports and errors both go through here."""
    layout = {"indent": 2} if pretty else {"separators": (",", ":")}
    print(json.dumps(payload, sort_keys=True, **layout))


def emit(command: str, inputs, result: dict, diagnostics: dict, pretty: bool) -> None:
    _write_json({"command": command, "inputs_digest": digest_of(inputs), "result": result,
                 "diagnostics": diagnostics}, pretty)


def emit_error(exc: Exception, pretty: bool) -> None:
    _write_json({"error": {"type": type(exc).__name__, "message": str(exc)}}, pretty)


# -- subcommand handlers --------------------------------------------------------


def cmd_roundness(args) -> int:
    from .negtype import generalized_roundness

    space, desc = resolve_space(args)
    res = generalized_roundness(space, p_max=args.p_max, tol_p=args.tol_p, tol_eig=args.tol_eig)
    result = {
        "status": res.status,
        "q": res.q,
        "bracket": list(res.bracket) if res.bracket else None,
        "method": res.method,
        "certificate": [float(x) for x in res.certificate] if res.certificate is not None else None,
        "det_normalized": res.det_normalized,
    }
    diag = {"p_max": args.p_max, "tol_p": args.tol_p, "tol_eig": args.tol_eig,
            "iterations": res.iterations}
    emit("roundness", desc, result, diag, args.pretty)
    return 0


def _finite_or_none(x: float) -> float | None:
    """x, or None (JSON null) where it is inf or nan, which JSON cannot hold:
    a value in the unit of d can overflow where its verdict does not."""
    return x if math.isfinite(x) else None


def cmd_negtype(args) -> int:
    from .negtype import check_negative_type

    space, desc = resolve_space(args)
    verdict = check_negative_type(space, args.p, tol_eig=args.tol_eig)
    w = verdict.witness
    witness = None if w is None else {"eta": [float(x) for x in w.eta],
                                      "form_value": _finite_or_none(w.form_value)}
    result = {"p": verdict.p, "holds": verdict.holds, "strict": verdict.strict,
              "max_form_eigenvalue": _finite_or_none(verdict.max_form_eigenvalue),
              "witness": witness}
    diag = {"tol_eig": args.tol_eig, "require_strict": args.strict}
    emit("negtype", desc, result, diag, args.pretty)
    ok = verdict.strict if args.strict else verdict.holds
    return 0 if ok else 1


def cmd_verify(args) -> int:
    from .negtype import _require_rows_permute, _space_search, kernel_coincidence_check

    space, desc = resolve_space(args)
    _require_rows_permute(space)
    # the report prints only q, so the search runs without the certificate
    found = _space_search(space, args.p_max, args.tol_p, args.tol_eig)
    diag = {"p_max": args.p_max, "tol_p": args.tol_p, "tol_eig": args.tol_eig}
    if found is None:
        result = {"status": "Unbounded", "holds": None,
                  "note": "kernel coincidence requires a finite roundness exponent"}
        emit("verify", desc, result, diag, args.pretty)
        return 1
    q = found[0]
    report = kernel_coincidence_check(space, q)
    result = {
        "status": "Finite",
        "q": q,
        "holds": report.holds,
        "max_defect": report.max_defect,
        "form_kernel_dim": report.form_kernel_dim,
        "matrix_kernel_dim": report.matrix_kernel_dim,
    }
    emit("verify", desc, result, diag, args.pretty)
    return 0 if report.holds else 1


def parse_subset(n: int, text: str) -> list[int]:
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if not tokens:
        raise RoundnessError("empty subset")
    if all(len(t) == n and set(t) <= {"0", "1"} for t in tokens):
        return [int(t, 2) for t in tokens]
    return [int(t) for t in tokens]


def _bitstrings(indices, n: int) -> list[str]:
    return [format(i, f"0{n}b") for i in indices]


def cmd_cube_classify(args) -> int:
    from .hamming import classify_subset

    subset = parse_subset(args.n, args.subset)
    cls = classify_subset(args.n, subset)
    result = {"n": args.n, "indices": subset, "bitstrings": _bitstrings(subset, args.n),
              "strict": cls.strict, "rank": cls.rank,
              "dependency": list(cls.dependency) if cls.dependency else None}
    emit("cube.classify", {"n": args.n, "subset": result["bitstrings"]}, result, {}, args.pretty)
    return 0


def cmd_cube_spectrum(args) -> int:
    from .hamming import eigen_identity_check, null_dimension_check

    # the rank check has the lower of the two dimension caps, so it goes first
    ranks = null_dimension_check(args.n)
    identities = eigen_identity_check(args.n)
    result = {"n": args.n, "eigen_identities": identities, "null_dimension": ranks}
    emit("cube.spectrum", {"n": args.n}, result, {}, args.pretty)
    return 0 if identities["ok"] and ranks["ok"] else 1


def cmd_cube_scan(args) -> int:
    from .hamming import scan_subsets

    summary = scan_subsets(args.n, max_size=args.max_size, p_max=args.p_max,
                           tol_p=args.tol_p, tol_eig=args.tol_eig, jobs=args.jobs)
    argmin = summary.argmin_subset
    if argmin is not None:
        argmin = {"indices": list(argmin), "bitstrings": _bitstrings(argmin, args.n)}
    result = {
        "n": summary.n,
        "max_size": summary.max_size,
        "counts": [{"size": size, "strict": strict, "count": count}
                   for (size, strict), count in sorted(summary.counts.items())],
        "min_q_over_strict": summary.min_q_over_strict,
        "argmin_subset": argmin,
        "unbounded_strict_count": summary.unbounded_strict_count,
        "note": "sizes 1-2 are excluded from the minimum (their roundness is unbounded)",
    }
    diag = {"p_max": args.p_max, "tol_p": args.tol_p, "tol_eig": args.tol_eig,
            "jobs": args.jobs}
    emit("cube.scan", {"n": args.n, "max_size": summary.max_size}, result, diag, args.pretty)
    return 0


def cmd_cube_lemmas(args) -> int:
    from .hamming import factor_matrix, factorization_check, lifted_vertex_matrix, sign_matrix

    ok = factorization_check(args.n)
    result = {"n": args.n, "ok": ok, "factor_determinant": det_exact(factor_matrix(args.n))}
    if args.dump_matrices:
        result["matrices"] = {
            "sign": sign_matrix(args.n).tolist(),
            "lifted_vertex": lifted_vertex_matrix(args.n).tolist(),
            "factor": factor_matrix(args.n).tolist(),
        }
    emit("cube.lemmas", {"n": args.n}, result, {}, args.pretty)
    return 0 if ok else 1


def cmd_tree_embed(args) -> int:
    from .graphs import load_edge_list
    from .hamming import tree_embedding_search

    tree = load_edge_list(args.edges)
    embedding = tree_embedding_search(tree, args.n)
    result = {"k": tree.n, "n": args.n, "found": embedding is not None, "embedding": None}
    if embedding is not None:
        result["embedding"] = {str(v): format(embedding[v], f"0{args.n}b")
                               for v in sorted(embedding)}
    emit("tree.embed", {"edges": sorted(tree.edges), "k": tree.n, "n": args.n},
         result, {}, args.pretty)
    return 0 if embedding is not None else 1


def cmd_tree_witness(args) -> int:
    from .hamming import path_embedding_witness

    images = path_embedding_witness(args.k)
    result = {"k": args.k, "dimension": args.k - 1, "images": _bitstrings(images, args.k - 1),
              "verified": True}
    emit("tree.witness", {"k": args.k}, result, {}, args.pretty)
    return 0


# -- parser ---------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that raises BadParamsError on bad arguments, so they
    get the JSON error report, instead of printing usage and exiting. It and
    every subparser (which argparse makes of the same class) take flags only
    as spelled in full: no prefix of a flag stands for it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise BadParamsError(message)


def _command(sub, name: str, func, help: str) -> argparse.ArgumentParser:
    """A leaf command bound to its handler, with the --pretty every command takes."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--pretty", action="store_true", help="indent the JSON report")
    p.set_defaults(func=func)
    return p


def _add_n(p: argparse.ArgumentParser, help: str | None = None) -> None:
    p.add_argument("--n", type=int, required=True, help=help)


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph", help="graph spec, e.g. cycle:5, hypercube:3, circulant:8:1,3")
    source.add_argument("--matrix", help="matrix file (JSON or CSV)")
    source.add_argument("--edges", help="edge-list file")


def _add_tol_eig(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol-eig", type=float, default=1e-9, dest="tol_eig",
                   help="relative eigenvalue tolerance (default 1e-9)")


def _add_search_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--p-max", type=float, default=64.0, dest="p_max",
                   help="exponent cutoff before reporting Unbounded (default 64)")
    p.add_argument("--tol-p", type=float, default=1e-9, dest="tol_p",
                   help="final bracket width in the exponent (default 1e-9)")
    _add_tol_eig(p)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gr",
        description="Generalized roundness and negative type of finite metric spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "roundness", cmd_roundness, "supremal negative-type exponent")
    _add_input_flags(p)
    _add_search_flags(p)

    p = _command(sub, "negtype", cmd_negtype, "decide (strict) p-negative type")
    _add_input_flags(p)
    p.add_argument("--p", type=float, required=True, help="exponent to test")
    _add_tol_eig(p)
    p.add_argument("--strict", action="store_true",
                   help="exit 0 only if the type is strict")

    p = _command(sub, "verify", cmd_verify, "kernel coincidence at the computed exponent")
    _add_input_flags(p)
    _add_search_flags(p)

    cube = sub.add_parser("cube", help="Hamming-cube subset tooling").add_subparsers(
        dest="cube_cmd", required=True)
    c = _command(cube, "classify", cmd_cube_classify, "exact strictness of a subset")
    _add_n(c)
    c.add_argument("--subset", required=True,
                   help="comma-separated bitstrings (000,011) or indices (0,3)")
    _add_n(_command(cube, "spectrum", cmd_cube_spectrum, "eigenvector identities and exact ranks"))
    c = _command(cube, "scan", cmd_cube_scan, "classify all subsets and minimize roundness")
    _add_n(c)
    c.add_argument("--max-size", type=int, default=None, dest="max_size")
    c.add_argument("--jobs", type=int, default=1)
    _add_search_flags(c)
    c = _command(cube, "lemmas", cmd_cube_lemmas, "exact factorization identities")
    _add_n(c)
    c.add_argument("--dump-matrices", action="store_true", dest="dump_matrices")

    tree = sub.add_parser("tree", help="tree-into-cube embeddings").add_subparsers(
        dest="tree_cmd", required=True)
    t = _command(tree, "embed", cmd_tree_embed, "isometric embedding by edge coordinates")
    t.add_argument("--edges", required=True, help="edge-list file of the tree")
    _add_n(t, help="cube dimension")
    t = _command(tree, "witness", cmd_tree_witness, "prefix embedding of the k-vertex path")
    t.add_argument("--k", type=int, required=True)

    return parser


def main(argv=None) -> int:
    try:
        code = _main(argv)
        sys.stdout.flush()  # here, so that a reader gone early is seen below, not at exit
    except BrokenPipeError:
        # the null device takes what is still buffered, so the flush at exit
        # raises nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_READER_GONE
    return code


def _main(argv) -> int:
    level = os.environ.get("ROUNDNESS_LOG")
    if level:
        import logging

        logging.basicConfig(level=getattr(logging, level.upper(), logging.INFO),
                            stream=sys.stderr)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except BadParamsError as exc:
        emit_error(exc, pretty=False)
        return 2
    try:
        return args.func(args)
    except HypothesisViolatedError as exc:
        emit_error(exc, args.pretty)
        return 1
    except (RoundnessError, ValueError, OSError, MemoryError) as exc:
        emit_error(exc, args.pretty)
        return 2


if __name__ == "__main__":
    sys.exit(main())
