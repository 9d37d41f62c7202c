"""Each script in scripts/ runs end to end at its cheapest arguments."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=120,
    )


@pytest.mark.parametrize(
    "name, args, line",
    [
        ("run_large_chain.py", ["--k", "6"], "[ok ] k=6: H+(7,6) matches"),
        ("run_small_window.py", ["--k", "8"], "[ok ] strict interior of the window"),
        ("emit_tables.py", [], "a\tb\tt"),
        ("emit_tables.py", ["--n", "24"], "top-quarter window, n=24: "
         "[4194304, 4587520, 5242880, 6291456, 8388608, 16777216]"),
    ],
    ids=["run_large_chain", "run_small_window", "emit_tables", "emit_tables_n24"],
)
def test_script_runs(name, args, line):
    result = run_script(name, *args)
    assert result.returncode == 0, result.stderr
    assert line in result.stdout.splitlines()
    assert "[FAIL]" not in result.stdout


def test_small_window_script_has_no_depth_option():
    result = run_script("run_small_window.py", "--max-edges", "10")
    assert result.returncode == 2
    assert "unrecognized arguments: --max-edges" in result.stderr
