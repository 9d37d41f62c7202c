#!/usr/bin/env python3
"""Run the small-window verification at k=8 and show the surviving families."""
import argparse
import json

from cubeint.search import NON_REDUNDANT_SMALL, SearchConfig, bfs_search
from cubeint.shapes import classify_star
from cubeint.theorems import verify_small_window


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k", type=int, default=8)
    parser.add_argument("--max-edges", type=int, default=10)
    parser.add_argument("--out")
    args = parser.parse_args()

    search = bfs_search(SearchConfig(NON_REDUNDANT_SMALL, args.k, max_edges=args.max_edges))
    print("survivors per condition count:")
    for depth, records in enumerate(search.depths, start=1):
        raw = sum(r.raw_count() for r in records)
        print(f"  {depth} condition(s): {len(records)} canonical, {raw} raw")
    if len(search.depths) >= 4:
        print("four-condition families:")
        for rec in search.survivors(4):
            print(f"  {rec.shape.edges}  max={rec.max_size}  [{classify_star(rec.shape)}]")

    report = verify_small_window(args.k, max_edges=args.max_edges)
    for check in report.checks:
        marker = "ok " if check.passed else "FAIL"
        print(f"[{marker}] {check.name}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report.to_json_dict(), handle, indent=2, sort_keys=True)
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
