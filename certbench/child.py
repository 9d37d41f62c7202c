"""One fresh interpreter of the benchmark: the program's module caches start cold.

    child.py probe          import cubeint.cli, print "ready", exit
    child.py run SPEC_JSON  call cubeint.cli.main once per argv in the spec

SPEC_JSON is ``{"calls": [[argv...], ...], "spans": path or null}``.  With a
spans path the tracer from spans.py is installed before the first call and the
spans are written there when the run ends.  The last stdout line is a JSON
summary; the reports themselves go to the ``--out`` files in each argv.

The host's speed drifts by +-20 % over minutes on a shared machine, for this
program and for any other.  So while the calls run, a SIGALRM handler times a
fixed reference block every SAMPLE_INTERVAL_S seconds.  The time spent in it
is taken out of wall_s and cpu_s, and the mean rate of the block (blocks per
second) turns them into host-speed-independent reference units.
"""
from __future__ import annotations

import json
import resource
import signal
import sys
import time
import traceback


SAMPLE_INTERVAL_S = 0.2


def reference_block() -> int:
    """About a millisecond of dict, tuple and int work, fixed forever: changing
    it changes the unit of every *_ref metric."""
    table: dict = {}
    total = 0
    for i in range(3000):
        key = (i & 63, i >> 6)
        table[key] = table.get(key, 0) + i
        total += len(table) ^ i
    return total


class SpeedSampler:
    """Times reference_block() at the start, every SAMPLE_INTERVAL_S, and at the end."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        reference_block()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def rate(self) -> float:
        """Mean reference blocks per second over the samples."""
        return sum(1 / d for d in self.samples) / len(self.samples)


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _row_mask_counters() -> dict:
    """Builds and hits of the row-mask builder's lru_cache, or absent."""
    try:
        from cubeint import cube

        info = cube._row_mask.cache_info()
        return {"cube.row_mask.builds": info.misses, "cube.row_mask.hits": info.hits}
    except (ImportError, AttributeError):
        return {"cube.row_mask.builds": None, "cube.row_mask.hits": None}


def _search_counters(results) -> dict:
    """Totals over every SearchResult that bfs_search returned, or absent."""
    try:
        return {
            "search.pruned": sum(r.pruned_count for r in results),
            "search.survivors": sum(len(d) for r in results for d in r.depths),
            "search.depths": sum(len(r.depths) for r in results),
        }
    except (AttributeError, TypeError):
        return {"search.pruned": None, "search.survivors": None, "search.depths": None}


def _call(main, argv, tracer):
    try:
        if tracer is None:
            return main(argv), None
        return tracer.span("cli.main", main, argv), None
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2, f"SystemExit({exc.code!r})"
    except Exception:  # a crash is a failed certificate run, reported to the parent
        return None, traceback.format_exc(limit=5)


def run(spec: dict) -> dict:
    from cubeint import cli

    tracer = None
    if spec.get("spans"):
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    calls = []
    start, cpu_start = time.perf_counter(), _cpu_seconds()
    with SpeedSampler() as sampler:
        for argv in spec["calls"]:
            code, error = _call(cli.main, argv, tracer)
            calls.append({"argv": argv, "exit": code, "error": error})
    sampling = sum(sampler.samples)
    wall = time.perf_counter() - start - sampling
    cpu = _cpu_seconds() - cpu_start - sampling

    summary = {
        "wall_s": wall,
        "cpu_s": cpu,
        "rate": sampler.rate(),
        "wall_ref": wall * sampler.rate(),
        "cpu_ref": cpu * sampler.rate(),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "calls": calls,
        "cubeint_file": cli.__file__,
    }
    if tracer is not None:
        with open(spec["spans"], "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle, separators=(",", ":"))
        counters = {**_row_mask_counters(), **_search_counters(tracer.search_results)}
        summary.update(
            counters=counters,
            distinct=tracer.distinct(),
            installed=sorted(tracer.installed),
        )
    return summary


def main() -> int:
    if sys.argv[1:] == ["probe"]:
        import cubeint.cli  # noqa: F401  (the import is what is timed)

        sys.stdout.write("ready\n")
        sys.stdout.flush()
        return 0
    if len(sys.argv) != 3 or sys.argv[1] != "run":
        print("usage: child.py probe | child.py run SPEC_JSON", file=sys.stderr)
        return 2
    summary = run(json.loads(sys.argv[2]))
    sys.stdout.write(json.dumps(summary) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
