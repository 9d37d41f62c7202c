"""Correctness gate: every certificate report must carry the seed commit's facts.

Only representative-independent facts are compared: size chains, the window,
survivor counts and row counts.  The content hash is not, because a faster
canonical labelling may pick another representative and with it change the
hash of a correct report.
"""
from __future__ import annotations

# Computed H+(n, k) chains of ``verify large --k k``, keyed by k then n.
LARGE_CHAINS = {
    6: {
        7: [35, 40, 48, 64],
        8: [35, 36, 40, 48, 64],
        9: [35, 36, 40, 48, 64],
        10: [34, 35, 36, 40, 48, 64],
        11: [33, 34, 35, 36, 40, 48, 64],
        12: [33, 34, 35, 36, 40, 48, 64],
    },
    7: {
        8: [70, 80, 96, 128],
        9: [70, 72, 80, 96, 128],
        10: [70, 72, 80, 96, 128],
        11: [68, 70, 72, 80, 96, 128],
        12: [66, 68, 70, 72, 80, 96, 128],
        13: [65, 66, 68, 70, 72, 80, 96, 128],
        14: [65, 66, 68, 70, 72, 80, 96, 128],
    },
    8: {
        9: [140, 160, 192, 256],
        10: [140, 144, 160, 192, 256],
        11: [140, 144, 160, 192, 256],
        12: [136, 140, 144, 160, 192, 256],
        13: [132, 136, 140, 144, 160, 192, 256],
        14: [130, 132, 136, 140, 144, 160, 192, 256],
        15: [129, 130, 132, 136, 140, 144, 160, 192, 256],
        16: [129, 130, 132, 136, 140, 144, 160, 192, 256],
    },
}

# ``verify small --k 8``: the window, its strict interior, and the raw and
# canonical four-condition survivor counts.
SMALL_WINDOW = {8: {"window": [120, 126, 128], "interior": [126], "raw": 10, "canonical": 6}}

# ``verify ints --k k``: distinct row masks with a non-unit entry, and without.
INTS_ROWS = {5: {"bad_rows": 6967, "pure_rows": 238}}


def _option(argv: list[str], flag: str) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else None


def _details(result: dict, name: str) -> dict | None:
    for check in result.get("checks", ()):
        if check.get("name") == name:
            return check.get("details", {})
    return None


def _expect(problems: list[str], label: str, got, want) -> None:
    if got != want:
        problems.append(f"{label}: got {got!r}, want {want!r}")


def check_report(argv: list[str], exit_code, report: dict | None) -> list[str]:
    """Problems with one ``cubeint verify`` run; an empty list means it passed."""
    problems: list[str] = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code!r}")
    if not isinstance(report, dict) or not isinstance(report.get("result"), dict):
        return problems + ["no report"]
    result = report["result"]
    if result.get("passed") is not True:
        problems.append("report not passed")
    what, k = argv[1], int(_option(argv, "--k"))
    facts = {"large": LARGE_CHAINS, "small": SMALL_WINDOW, "ints": INTS_ROWS}.get(what, {}).get(k)
    if facts is None:
        return problems + [f"no recorded facts for verify {what} --k {k}"]

    if what == "large":
        for n, chain in facts.items():
            details = _details(result, f"H+({n},{k}) matches") or {}
            _expect(problems, f"H+({n},{k})", details.get("computed"), chain)
    elif what == "small":
        window = _details(result, "window altogether") or {}
        interior = _details(result, "strict interior of the window") or {}
        survivors = _details(result, "four-condition survivors") or {}
        _expect(problems, "window", window.get("window"), facts["window"])
        _expect(problems, "interior", interior.get("found"), facts["interior"])
        _expect(problems, "raw survivors", survivors.get("raw"), facts["raw"])
        _expect(problems, "canonical survivors", survivors.get("canonical"), facts["canonical"])
    else:
        details = _details(result, "no stray sizes from non-unit entries") or {}
        for key, want in facts.items():
            _expect(problems, key, details.get(key), want)
        seed = int(_option(argv, "--seed") or 0)
        _expect(problems, "config.seed", report.get("config", {}).get("seed"), seed)
    return problems
