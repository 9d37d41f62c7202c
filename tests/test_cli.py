import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubeint import cli, shapes
from cubeint.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestParsing:
    def test_sizes_codim1(self):
        args = build_parser().parse_args(["sizes", "codim1"])
        assert args.verb == "sizes" and args.table == "codim1"

    def test_search_small(self):
        args = build_parser().parse_args(
            ["search", "--mode", "small", "--k", "8", "--threshold", "15/32"]
        )
        assert args.mode == "small" and str(args.threshold) == "15/32"

    def test_verify_large_k13_rejected(self, capsys):
        assert main(["verify", "large", "--k", "13"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_bad_rational_rejected(self):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(
                ["search", "--mode", "small", "--k", "8", "--threshold", "x"]
            )
        assert err.value.code == 2

    def test_unknown_verb_rejected(self):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(["frobnicate"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "antichain", "--ell", "8", "--trials", "5"],
            ["verify", "large", "--k", "nine"],
            ["frobnicate"],
            [],
            ["verify"],
            ["search", "--mode", "small", "--k", "8", "--threshold", "x"],
            ["window", "hn", "--n", "three"],
            ["shape"],
            ["verify", "large", "--k", "6", "--n-max", "6"],
            ["sizes", "codim1", "--format", "json"],
        ],
    )
    def test_usage_error_is_one_line(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(argv)
        stderr = capsys.readouterr().err
        assert err.value.code == 2
        assert stderr.startswith("error: ") and stderr.count("\n") == 1

    @pytest.mark.parametrize("option", [["--trials", "5"], ["--seed", "1"]])
    def test_verify_antichain_takes_no_sampling_options(self, option):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(["verify", "antichain", "--ell", "8", *option])
        assert err.value.code == 2


class TestTables:
    def test_codim1_table_rows(self, capsys):
        code, out = run(capsys, "sizes", "codim1")
        assert code == 0
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert lines[0] == "a\tb\tt"
        assert len(lines) == 10
        assert lines[1] == "1\t1\t3" and lines[-1] == "4\t3\t70"

    def test_large_sizes_json(self, capsys):
        code, out = run(capsys, "sizes", "large", "--k", "6")
        data = json.loads(out)
        assert code == 0
        assert data["result"]["sizes"] == [35, 40, 48, 64]


class TestDeterminism:
    def test_byte_identical_runs(self, capsys):
        _, first = run(capsys, "search", "--mode", "large", "--k", "6", "--max-edges", "2")
        _, second = run(capsys, "search", "--mode", "large", "--k", "6", "--max-edges", "2")
        assert first == second

    def test_envelope_fields(self, capsys):
        _, out = run(capsys, "window", "hn", "--n", "10")
        data = json.loads(out)
        assert data["tool"] == "cubeint"
        assert set(data) == {"tool", "version", "config", "content_hash", "result"}
        assert len(data["content_hash"]) == 64


class TestCommands:
    def test_window_values(self, capsys):
        code, out = run(capsys, "window", "hn", "--n", "8")
        data = json.loads(out)
        assert code == 0
        assert data["result"]["sizes"] == [64, 70, 80, 96, 128, 256]
        assert data["result"]["match"] is True

    def test_oracle(self, capsys):
        code, out = run(
            capsys, "oracle", "--k", "4", "--m", "1", "--keep-above", "1/2"
        )
        data = json.loads(out)
        assert code == 0
        assert data["result"]["sizes"] == [10, 12, 16]

    def test_shape_inspection(self, capsys):
        code, out = run(capsys, "shape", "--edges", "1,2,3;2,3,4")
        data = json.loads(out)
        assert code == 0
        assert data["result"]["max"] == 10
        assert data["result"]["classification"] == "star32"
        assert data["result"]["fraction"] == "5/8"

    def test_shape_walks_once(self, capsys, monkeypatch):
        calls = []
        walk = shapes.max_intersection

        def counted(shape):
            calls.append(shape)
            return walk(shape)

        monkeypatch.setattr(cli, "max_intersection", counted)
        monkeypatch.setattr(shapes, "max_intersection", counted)
        code, _ = run(capsys, "shape", "--edges", "1,2,3;2,3,4")
        assert code == 0 and len(calls) == 1

    def test_map_evaluation(self, capsys):
        code, out = run(
            capsys, "map", "--json", '{"k":2,"m":1,"entries":[["1","-1"]]}'
        )
        data = json.loads(out)
        assert code == 0
        assert data["result"]["size"] == 3

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ["shape", "--edges", "1,2,3;2,3,4"],
                {"max": 10, "fraction": "5/8", "witness": [[-1, 1, 1], [-1, 1, 1]]},
            ),
            (
                ["shape", "--edges", ";".join(f"1,{v}" for v in range(2, 12))],
                {"max": 1025, "witness": [[-1, 1]] * 10},
            ),
            (
                ["map", "--json", '{"k":2,"entries":[["1","-1"]]}'],
                {"size": 3, "pattern_hex": "b"},
            ),
            (
                ["map", "--json", '{"k":3,"entries":[["1/2","1/2","0"],["1","-1","1"]]}'],
                {"size": 4, "pattern_hex": "99"},
            ),
        ],
    )
    def test_golden_payloads(self, capsys, argv, expected):
        code, out = run(capsys, *argv)
        result = json.loads(out)["result"]
        assert code == 0
        assert {key: result[key] for key in expected} == expected

    def test_verify_antichain_exit_zero(self, capsys):
        code, out = run(capsys, "verify", "antichain", "--ell", "4")
        assert code == 0
        assert json.loads(out)["result"]["passed"] is True

    def test_search_threshold_override_rescales_edges(self, capsys):
        code, out = run(
            capsys,
            "search", "--mode", "small", "--k", "6",
            "--threshold", "7/16", "--max-edges", "2",
        )
        config = json.loads(out)["result"]["config"]
        assert code == 0
        assert config["threshold"] == "7/16"
        assert config["max_edge_size"] == 6  # support bound capped by k

    def test_search_k_range_guard(self, capsys):
        assert main(["search", "--mode", "large", "--k", "30"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_search_output_schema(self, capsys):
        code, out = run(
            capsys, "search", "--mode", "small", "--k", "6", "--max-edges", "2"
        )
        data = json.loads(out)
        assert code == 0
        depths = data["result"]["depths"]
        assert depths[0]["edges"] == 1
        entry = depths[0]["shapes"][0]
        assert set(entry) >= {"shape", "max", "fraction"}

    def test_window_at_max_dimension_is_prompt(self, capsys):
        start = time.perf_counter()
        code, out = run(capsys, "window", "hn", "--n", "24")
        assert time.perf_counter() - start < 2
        assert code == 0
        assert json.loads(out)["result"]["match"] is True

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code = main(["window", "hn", "--n", "10", "--out", str(target)])
        assert code == 0
        data = json.loads(target.read_text())
        assert data["result"]["match"] is True


class TestPaperCommands:
    """The command lines README gives for reproducing the paper's results."""

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["verify", "large", "--k", "6"], "H+(7,6) matches"),
            (["verify", "small", "--k", "8"], "strict interior of the window"),
        ],
        ids=["verify_large_k6", "verify_small_k8"],
    )
    def test_verify_passes_every_check(self, capsys, argv, name):
        code, out = run(capsys, *argv)
        checks = json.loads(out)["result"]["checks"]
        assert code == 0
        assert name in [c["name"] for c in checks]
        assert all(c["passed"] for c in checks)

    def test_small_search_survivors_per_depth(self, capsys):
        code, out = run(capsys, "search", "--mode", "small", "--k", "8")
        result = json.loads(out)["result"]
        assert code == 0 and result["terminated_naturally"] is True
        survivors = [(d["edges"], len(d["shapes"])) for d in result["depths"]]
        assert survivors == [
            (1, 7), (2, 20), (3, 24), (4, 6), (5, 6), (6, 6), (7, 5), (8, 2)
        ]

    def test_codim1_table_header(self, capsys):
        code, out = run(capsys, "sizes", "codim1")
        assert code == 0
        assert "a\tb\tt" in out.splitlines()

    def test_large_sizes_k6(self, capsys):
        code, out = run(capsys, "sizes", "large", "--k", "6")
        assert code == 0
        assert json.loads(out)["result"]["sizes"] == [35, 40, 48, 64]

    def test_top_quarter_window_n24(self, capsys):
        code, out = run(capsys, "window", "hn", "--n", "24")
        assert code == 0
        assert json.loads(out)["result"]["sizes"] == [
            4194304, 4587520, 5242880, 6291456, 8388608, 16777216
        ]


class TestExitContract:
    @pytest.mark.parametrize(
        "argv",
        [
            ["oracle", "--k", "8", "--m", "3"],
            ["map", "--json", "{}"],
            ["map", "--json", "[1]"],
            ["map", "--json", '{"k":2,"entries":[1]}'],
            ["shape", "--json", "{}"],
            ["search", "--mode", "large", "--k", "6", "--threshold", "1/100"],
            ["window", "hn", "--n", "8", "--out", "{missing_dir}/report.json"],
            ["verify", "antichain", "--ell", "3"],
            ["verify", "antichain", "--ell", "17"],
            ["shape", "--edges", ";".join(f"{a},{b}" for a in range(1, 8) for b in range(a + 1, 8))],
            ["map", "--json", '{"k":2,"entries":[["1/0","1"]]}'],
            ["oracle", "--k", "2", "--m", "1", "--entries", "1/0"],
            ["oracle", "--k", "2", "--m", "0"],
            ["oracle", "--k", "2", "--m", "-1"],
            ["search", "--mode", "large", "--k", "6", "--max-edges", "0"],
            ["oracle", "--k", "6", "--m", "3"],
            ["oracle", "--k", "8", "--m", "1", "--entries=-1,0,1,2"],
            ["oracle", "--k", "8", "--m", "100000000"],
            ["shape", "--edges", "1;2,3"],
        ],
    )
    def test_bad_input_exits_two_with_one_line(self, capsys, tmp_path, argv):
        argv = [a.replace("{missing_dir}", str(tmp_path / "missing")) for a in argv]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    # limits that live in the library, and flags that exclude each other; the
    # first two ran out of memory or time, and the last for 5 s, before
    # anything rejected them
    @pytest.mark.parametrize(
        "argv",
        [
            ["window", "hn", "--n", "1000000000000"],
            ["sizes", "large", "--k", "2000"],
            ["window", "hn", "--n", "3"],
            ["window", "hn", "--n", "30"],
            ["verify", "large", "--k", "5"],
            ["verify", "large", "--k", "13"],
            ["verify", "small", "--k", "13"],
            ["verify", "small", "--k", "7"],
            ["verify", "ints", "--k", "0"],
            ["search", "--mode", "large", "--k", "30"],
            ["oracle", "--k", "0", "--m", "1"],
            ["shape", "--json", '{"edges":[[true,2]]}'],
            ["shape", "--edges", "1,2", "--json", '{"edges":[[1,2]]}'],
            ["oracle", "--k", "11", "--m", "2", "--entries", "0,1"],
        ],
    )
    def test_refusal_is_one_line_and_prompt(self, argv):
        start = time.perf_counter()
        code, err = run_quietly(argv)
        assert time.perf_counter() - start < 1
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_ten_edge_star_exits_zero(self, capsys):
        edges = ";".join(f"1,{v}" for v in range(2, 12))
        code, out = run(capsys, "shape", "--edges", edges)
        assert code == 0
        assert json.loads(out)["result"]["classification"] == "star21"


def run_shape_edges(text):
    """Exit code of ``cubeint shape --edges=<text>``, argparse errors included."""
    try:
        return main(["shape", f"--edges={text}"])
    except SystemExit as exc:
        return exc.code


_edge_text = st.lists(
    st.lists(st.integers(-2, 7).map(str), max_size=4).map(",".join),
    max_size=5,
).map(";".join)


@given(st.one_of(_edge_text, st.text(alphabet="0123,;-x ", max_size=12)))
def test_shape_edges_fuzz_exits_zero_or_two(text):
    # empty parts, repeated, unsorted and negative labels, one-vertex edges
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = run_shape_edges(text)
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    assert ("error: " in err.getvalue()) == (code == 2)


def run_quietly(argv):
    """Exit code and stderr of ``cubeint <argv>``, argparse errors included."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def assert_exit_contract(code, err):
    assert code in (0, 2)
    assert "Traceback" not in err
    error_lines = [line for line in err.splitlines() if "error: " in line]
    assert len(error_lines) == (1 if code == 2 else 0)


_odd_rationals = st.sampled_from(
    ["-1", "0", "1", "2", "-2", "1/2", "-1/2", "3/4", "1/0", "0.5", "1e2", "-0", "x", "", " 1"]
)


@given(
    st.integers(-1, 9),
    st.integers(-1, 3),
    st.one_of(
        st.none(),
        st.lists(_odd_rationals, max_size=5).map(",".join),
        st.text(alphabet="-012/,.x ", max_size=8),
    ),
    st.one_of(st.none(), _odd_rationals),
)
def test_oracle_fuzz_exits_zero_or_two(k, m, entries, keep_above):
    argv = ["oracle", "--k", str(k), "--m", str(m)]
    if entries is not None:
        argv.append(f"--entries={entries}")
    if keep_above is not None:
        argv.append(f"--keep-above={keep_above}")
    assert_exit_contract(*run_quietly(argv))


_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 6),
    st.floats(-2, 6),
    st.sampled_from(["1", "-1/2", "1/0", "x", "", "2.5", "3"]),
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["k", "m", "entries", "x"]), inner, max_size=4),
    max_leaves=12,
)
# objects shaped like a map, with wrong counts, lengths and entries
_near_maps = st.fixed_dictionaries(
    {
        "k": st.one_of(st.integers(-1, 5), _json_scalars),
        "entries": st.one_of(st.lists(st.lists(_json_scalars, max_size=4), max_size=3), _json_values),
    },
    optional={"m": st.one_of(st.integers(-1, 4), _json_scalars)},
)


@given(st.one_of(_near_maps.map(json.dumps), _json_values.map(json.dumps), st.text(max_size=10)))
def test_map_json_fuzz_exits_zero_or_two(text):
    assert_exit_contract(*run_quietly(["map", "--json", text]))


_dimensions = st.one_of(st.integers(1, 8), st.sampled_from([-3, 0, 1, 25, 10**9]))


@settings(deadline=None)
@given(
    st.sampled_from(["large", "small", "exhaustive-large", "bogus"]),
    _dimensions,
    st.one_of(st.none(), st.integers(-1, 3)),
    st.one_of(st.none(), st.sampled_from(["1/2", "15/32", "3/4", "0", "1", "x", "1/0"])),
)
def test_search_fuzz_exits_zero_or_two(mode, k, max_edges, threshold):
    argv = ["search", "--mode", mode, "--k", str(k)]
    # the default depth grows with k: only a k that is refused may leave it unset
    if max_edges is not None or 2 <= k <= 8:
        argv.append(f"--max-edges={3 if max_edges is None else max_edges}")
    if threshold is not None:
        argv.append(f"--threshold={threshold}")
    assert_exit_contract(*run_quietly(argv))


@given(
    st.one_of(st.integers(4, 12), st.sampled_from([-3, 0, 1, 25, 10**9])),
    st.sampled_from(["large", "codim1"]),
)
def test_sizes_fuzz_exits_zero_or_two(k, table):
    argv = ["sizes", table] + (["--k", str(k)] if table == "large" else [])
    assert_exit_contract(*run_quietly(argv))
