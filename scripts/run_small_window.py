#!/usr/bin/env python3
"""Run the small-window verification at one k (8 by default, 8..12 accepted)
and show the surviving families; the search runs to its default depth, k + 1."""
import argparse
import json

from cubeint.search import NON_REDUNDANT_SMALL, SearchConfig, bfs_search
from cubeint.shapes import classify_star
from cubeint.theorems import verify_small_window


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k", type=int, default=8)
    parser.add_argument("--out")
    args = parser.parse_args()

    search = bfs_search(SearchConfig(NON_REDUNDANT_SMALL, args.k))
    print("survivors per condition count:")
    for depth, records in enumerate(search.depths, start=1):
        raw = sum(r.raw_count() for r in records)
        print(f"  {depth} condition(s): {len(records)} canonical, {raw} raw")
    if len(search.depths) >= 4:
        print("four-condition families:")
        for rec in search.survivors(4):
            print(f"  {rec.shape.edges}  max={rec.max_size}  [{classify_star(rec.shape)}]")

    report = verify_small_window(args.k)
    for check in report.checks:
        marker = "ok " if check.passed else "FAIL"
        print(f"[{marker}] {check.name}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report.to_json_dict(), handle, indent=2, sort_keys=True)
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
