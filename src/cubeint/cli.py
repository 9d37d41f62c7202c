"""Command line interface with deterministic, hash-stamped reports."""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from fractions import Fraction

from . import __version__
from .codim1 import codim1_table, large_codim1_sizes
from .cube import (
    LinearMap,
    as_fraction,
    evaluate_pattern,
    intersection_size,
    oracle_enumerate,
)
from .search import (
    EXHAUSTIVE_LARGE,
    NON_REDUNDANT_SMALL,
    SearchConfig,
    bfs_search,
)
from .shapes import Shape, canonical_form, classify_star, max_intersection
from .theorems import (
    antichain_bound_check,
    expected_h_n_window,
    h_n_window,
    ints_window_check,
    verify_large_sets,
    verify_small_window,
)

USAGE_ERROR = 2
VERIFY_FAILURE = 1

SEARCH_MODES = {
    "small": NON_REDUNDANT_SMALL,
    "exhaustive-large": EXHAUSTIVE_LARGE,
}


def _fraction(text: str) -> Fraction:
    try:
        return as_fraction(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _emit(payload: dict, args) -> None:
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(body.encode()).hexdigest()
    envelope = {
        "tool": "cubeint",
        "version": __version__,
        "config": {
            k: v
            for k, v in sorted(vars(args).items())
            if k not in {"func", "out"} and v is not None
        },
        "content_hash": digest,
        "result": payload,
    }
    # the config's Fractions are the only values json cannot write itself
    text = json.dumps(envelope, sort_keys=True, indent=2, default=str) + "\n"
    _write(text, args)


def _write(text: str, args) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit_tsv(rows, header: str, args, meta: dict) -> None:
    body = header + "\n" + "".join(
        "\t".join(str(v) for v in row) + "\n" for row in rows
    )
    digest = hashlib.sha256(body.encode()).hexdigest()
    lines = [f"# tool=cubeint version={__version__} hash={digest}"]
    for key in sorted(meta):
        lines.append(f"# {key}={meta[key]}")
    _write("\n".join(lines) + "\n" + body, args)


def _emit_sizes(sizes: tuple[int, ...], n: int, k: int, source: str, args) -> None:
    """A size list as {n, k, sizes, provenance}, every size labelled source."""
    provenance = {str(s): source for s in sizes}
    _emit({"n": n, "k": k, "sizes": list(sizes), "provenance": provenance}, args)


def _cmd_sizes(args) -> int:
    if args.table == "codim1":
        _emit_tsv(codim1_table(), "a\tb\tt", args, {"table": "codim1"})
        return 0
    _emit_sizes(large_codim1_sizes(args.k), args.k + 1, args.k, "construction", args)
    return 0


def _cmd_search(args) -> int:
    config = SearchConfig(
        SEARCH_MODES[args.mode],
        args.k,
        threshold=args.threshold,
        max_edges=args.max_edges,
    )
    result = bfs_search(config)
    depths = []
    for depth_index, records in enumerate(result.depths, start=1):
        shapes = []
        for rec in records:
            entry = {
                "shape": rec.shape.to_json_dict(),
                "max": rec.max_size,
                "fraction": str(rec.fraction),
                "raw_multiplicity": rec.raw,
            }
            shapes.append(entry)
        depths.append({"edges": depth_index, "shapes": shapes})
    payload = {
        "config": {
            "mode": config.mode,
            "threshold": str(config.threshold),
            "max_edge_size": config.max_edge_size,
            "max_edges": config.max_edges,
            "max_vertices": config.k,
        },
        "depths": depths,
        "pruned": result.pruned_count,
        "terminated_naturally": result.terminated_naturally,
    }
    _emit(payload, args)
    return 0


def _cmd_verify(args) -> int:
    if args.what == "large":
        report = verify_large_sets(args.k)
    elif args.what == "small":
        report = verify_small_window(args.k)
    elif args.what == "antichain":
        report = antichain_bound_check(args.ell)
    else:
        report = ints_window_check(args.k)
    _emit(report.to_json_dict(), args)
    return 0 if report.passed else VERIFY_FAILURE


def _cmd_window(args) -> int:
    witnesses = h_n_window(args.n)
    sizes = sorted(witnesses)
    expected = list(expected_h_n_window(args.n))
    payload = {
        "n": args.n,
        "sizes": sizes,
        "expected": expected,
        "witnesses": {str(s): m.to_json_dict() for s, m in witnesses.items()},
        "match": sizes == expected
        and all(intersection_size(m) == s for s, m in witnesses.items()),
    }
    _emit(payload, args)
    return 0 if payload["match"] else VERIFY_FAILURE


def _cmd_oracle(args) -> int:
    entries = args.entries.split(",")
    sizes = oracle_enumerate(args.k, args.m, entries, keep_above=args.keep_above)
    _emit_sizes(sizes, args.k + args.m, args.k, "oracle", args)
    return 0


def _cmd_shape(args) -> int:
    if args.json is not None:
        shape = Shape.from_json_dict(json.loads(args.json))
    else:
        edges = [
            [int(v) for v in part.split(",") if v]
            for part in args.edges.split(";")
            if part
        ]
        shape = Shape.from_edges(edges)
    canon = canonical_form(shape)
    best, witness = max_intersection(canon)
    payload = {
        "shape": shape.to_json_dict(),
        "canonical": canon.to_json_dict(),
        "classification": classify_star(canon),
        "max": best,
        "fraction": str(Fraction(best, 1 << canon.vertex_count)),
        "witness": [list(row) for row in witness],
    }
    _emit(payload, args)
    return 0


def _cmd_map(args) -> int:
    # decimals are read exactly from their text, not through a binary float
    linear_map = LinearMap.from_json_dict(json.loads(args.json, parse_float=as_fraction))
    mask = evaluate_pattern(linear_map)
    payload = {
        "map": linear_map.to_json_dict(),
        "size": mask.bit_count(),
        "pattern_hex": format(mask, "x"),
    }
    _emit(payload, args)
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error: ...`` line; subparsers inherit it."""

    def error(self, message):
        self.exit(USAGE_ERROR, f"error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the command line, built on the first call; parsing
    leaves it unchanged, so every later main call reuses it."""
    parser = _Parser(
        prog="cubeint",
        description="Exact hypercube/subspace intersection-size toolkit",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    # every verb writes its report to --out, or to stdout without one
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out")

    p_sizes = sub.add_parser("sizes", help="closed-form size tables")
    sizes_sub = p_sizes.add_subparsers(dest="table", required=True)
    p_codim1 = sizes_sub.add_parser(
        "codim1", help="single-condition (a,b,t) table", parents=[out]
    )
    p_codim1.set_defaults(func=_cmd_sizes)
    p_large = sizes_sub.add_parser(
        "large", help="above-half single-condition sizes", parents=[out]
    )
    p_large.add_argument("--k", type=int, required=True)
    p_large.set_defaults(func=_cmd_sizes)

    p_search = sub.add_parser(
        "search", help="breadth-first shape search", parents=[out]
    )
    p_search.add_argument("--mode", choices=SEARCH_MODES, required=True)
    p_search.add_argument("--k", type=int, required=True)
    p_search.add_argument("--threshold", type=_fraction, default=None)
    p_search.add_argument("--max-edges", type=int, default=None)
    p_search.set_defaults(func=_cmd_search)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    verify_sub = p_verify.add_subparsers(dest="what", required=True)
    v_large = verify_sub.add_parser("large", parents=[out])
    v_large.add_argument("--k", type=int, required=True)
    v_large.set_defaults(func=_cmd_verify)
    v_small = verify_sub.add_parser("small", parents=[out])
    v_small.add_argument("--k", type=int, default=8)
    v_small.set_defaults(func=_cmd_verify)
    v_anti = verify_sub.add_parser("antichain", parents=[out])
    v_anti.add_argument("--ell", type=int, required=True)
    v_anti.set_defaults(func=_cmd_verify)
    v_ints = verify_sub.add_parser("ints", parents=[out])
    v_ints.add_argument("--k", type=int, required=True)
    v_ints.add_argument("--seed", type=int, default=0)
    v_ints.set_defaults(func=_cmd_verify)

    p_window = sub.add_parser("window", help="whole-cube top-quarter window")
    window_sub = p_window.add_subparsers(dest="which", required=True)
    w_hn = window_sub.add_parser("hn", parents=[out])
    w_hn.add_argument("--n", type=int, required=True)
    w_hn.set_defaults(func=_cmd_window)

    p_oracle = sub.add_parser(
        "oracle", help="brute-force size enumeration", parents=[out]
    )
    p_oracle.add_argument("--k", type=int, required=True)
    p_oracle.add_argument("--m", type=int, required=True)
    p_oracle.add_argument("--entries", default="-1,0,1")
    p_oracle.add_argument("--keep-above", type=_fraction, default=Fraction(0))
    p_oracle.set_defaults(func=_cmd_oracle)

    p_shape = sub.add_parser("shape", help="inspect one shape", parents=[out])
    shape_input = p_shape.add_mutually_exclusive_group(required=True)
    shape_input.add_argument("--edges", help='edges as "1,2;1,3"')
    shape_input.add_argument("--json", help="shape as JSON")
    p_shape.set_defaults(func=_cmd_shape)

    p_map = sub.add_parser("map", help="evaluate one map", parents=[out])
    p_map.add_argument("--json", required=True)
    p_map.set_defaults(func=_cmd_map)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    # argparse reads "--opt=--" as an empty list of values; every option here
    # takes exactly one
    for name, value in vars(args).items():
        if value == []:
            parser.error(f"argument --{name.replace('_', '-')}: expected one argument")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
