import io
import json
import os
import resource
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cubeint
from cubeint import cli, shapes, theorems
from cubeint.cli import build_parser, main
from cubeint.search import SearchConfig


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
            ["search", "--mode", "large", "--k", "6"],
        ],
    )
    def test_usage_error_is_one_line(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(argv)
        stderr = capsys.readouterr().err
        assert err.value.code == 2
        assert stderr.startswith("error: ") and stderr.count("\n") == 1

    def test_one_parser_parses_every_verb_in_turn(self, capsys):
        # the parser is built once per process; parsing leaves nothing behind
        parser = build_parser()
        assert build_parser() is parser
        large = parser.parse_args(["verify", "large", "--k", "6"])
        with pytest.raises(SystemExit):
            parser.parse_args(["verify", "large", "--k", "nine"])
        assert capsys.readouterr().err.startswith("error: ")
        search = parser.parse_args(["search", "--mode", "small", "--k", "8"])
        ints = parser.parse_args(["verify", "ints", "--k", "5"])
        codim1 = parser.parse_args(["sizes", "codim1", "--out", "table.tsv"])
        again = parser.parse_args(["verify", "large", "--k", "7"])
        assert vars(large) == {
            "verb": "verify", "what": "large", "k": 6, "out": None, "func": cli._cmd_verify
        }
        assert vars(search) == {
            "verb": "search",
            "mode": "small",
            "k": 8,
            "threshold": None,
            "max_edges": None,
            "out": None,
            "func": cli._cmd_search,
        }
        assert vars(ints) == {**vars(large), "what": "ints", "k": 5, "seed": 0}
        assert vars(codim1) == {
            "verb": "sizes", "table": "codim1", "out": "table.tsv", "func": cli._cmd_sizes
        }
        assert vars(again) == {**vars(large), "k": 7}

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
        argv = ["search", "--mode", "exhaustive-large", "--k", "6", "--max-edges", "2"]
        _, first = run(capsys, *argv)
        _, second = run(capsys, *argv)
        assert first == second

    @pytest.mark.parametrize("what, ks", [("large", (6, 7, 8)), ("small", (8, 9, 10))])
    def test_chained_reports_equal_cold_ones(self, capsys, monkeypatch, what, ks):
        # in one process each certificate grows the last one's search; its
        # report must be the one a call with no earlier search writes
        monkeypatch.setattr(theorems, "_last_search", {})
        chained = [run(capsys, "verify", what, "--k", str(k)) for k in ks]
        cold = []
        for k in ks:
            theorems._last_search.clear()
            cold.append(run(capsys, "verify", what, "--k", str(k)))
        assert chained == cold
        assert all(code == 0 for code, _out in cold)

    # content hashes of the size-list and window payloads; a change to their
    # output format changes these
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["sizes", "large", "--k", "6"],
                "ecc0bc4409e44d69f48fca0c0d70b0c9fa492c395640ebfe7c9f41403538b69c",
            ),
            (
                ["oracle", "--k", "4", "--m", "1", "--keep-above", "1/2"],
                "05b457a4e9439f5c40e415f7e0c46888299dbfb34d9abce30a03f6d897a51562",
            ),
            (
                ["window", "hn", "--n", "10"],
                "82e587a319a2bfdb43c43b2df0808cf37d9eda1926b89d23f8935e36105d5283",
            ),
            (
                ["window", "hn", "--n", "24"],
                "17b9d8862c02032e1ebf2a608e09b201c111daacaf7097e2e7b3917e41f8edb7",
            ),
            # canonical representatives: a change to canonical_form or to
            # child generation that moves one changes these
            (
                ["verify", "large", "--k", "6"],
                "20cb6be38f78a9a2d83e8ab6317b340f6bb280d5ddf40bd176586baa5024abc4",
            ),
            (
                ["verify", "large", "--k", "7"],
                "904a6bfdbd3aa93c174a9faa2f4c60fc0d8ea78d2fbd7774b41f089fc3aa3033",
            ),
            (
                ["verify", "large", "--k", "8"],
                "21070580fcfe6cf0e73a69e88536a542204533287ec4a909189d6789771d5e0e",
            ),
            (
                ["verify", "small", "--k", "8"],
                "5c4c0d2a7b64ceee2810098139561256609766c22f9614dee88ca72dce2dfa05",
            ),
            (
                ["search", "--mode", "exhaustive-large", "--k", "6"],
                "85f8bb9fddbff1171f0fcf3d9184be1e4b4758026fb6fab997b18fbf9a59c9f4",
            ),
            (
                ["search", "--mode", "small", "--k", "8"],
                "14f0e6f79b4bd65d0ad8e91b8f6573f0bc99805ae2c9bbdad651cd63f30e2415",
            ),
            (
                ["shape", "--edges", "1,5;2,5,6;3,4,5,7"],
                "b187ad7ecdceab80d954ee56d97fc331c525aded4ecf1895b992e26bd62df218",
            ),
            # witnesses: a change to the sign choices of an edge, to their
            # order or to how a witness's signs are read off its masks
            # changes these; 15 vertices read a bit past LEVEL_SET_BITS
            (
                ["shape", "--edges", "1,2,3,4,5,6,7,8,9,10,11,12,13,14;1,15"],
                "68058003e1e0dfa99c74ff4efbe6abcbf52a834711497d67748e16e658880810",
            ),
            (
                ["shape", "--edges", "1,2,3;1,2,4;1,2,5;1,2"],
                "5ca41b1a09a34c05781ef0a7274f33eae623290d36ee275b768d785184f0f0a6",
            ),
            (
                ["shape", "--edges", ";".join(f"1,{v}" for v in range(2, 15))],
                "1a7db3190a02ac1cefef5c882bc7268a51866cb03041af00bb7816a6b58471d9",
            ),
            # the integrality sweep and the intersection closure: a change to
            # row_masks, the pure/bad classification or the closure rule that
            # moves a mask changes these
            (
                ["verify", "ints", "--k", "4"],
                "fc1052b20d7a80519d62375a0df22bdba6f99c26d039a74d45c2d470a8921b79",
            ),
            (
                ["verify", "ints", "--k", "5"],
                "eeff79bb9460f4c9947762918d39f1468daca791ec9e0aa2a0d9ca96037e7e9e",
            ),
            (
                ["oracle", "--k", "4", "--m", "2"],
                "2b6363c12862b2a1e092b589d1e499652ed1b4ff0ffd8fedbdb83f73c3ee0c63",
            ),
            (
                [
                    "oracle", "--k", "3", "--m", "3",
                    "--entries=-2,-1,-1/2,0,1/2,1,2", "--keep-above", "15/32",
                ],
                "e531a53075785f261fcaaf7aa15787c4b49dae9e19b29efb98815f5eefd20e73",
            ),
        ],
        ids=[
            "sizes_large_k6",
            "oracle_k4_m1",
            "window_n10",
            "window_n24",
            "verify_large_k6",
            "verify_large_k7",
            "verify_large_k8",
            "verify_small_k8",
            "search_large_k6",
            "search_small_k8",
            "shape_mixed",
            "shape_15_vertices",
            "shape_shared_pair",
            "shape_star21_13_edges",
            "verify_ints_k4",
            "verify_ints_k5",
            "oracle_k4_m2",
            "oracle_k3_m3_ints_entries",
        ],
    )
    def test_golden_content_hash(self, capsys, argv, digest):
        code, out = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["content_hash"] == digest

    # set and dict iteration over ints and tuples of ints does not depend
    # on the hash seed; a set of strings would
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "small", "--k", "8"],
            ["shape", "--edges", "1,2,3;1,2,4;1,2"],
            # a record's keys are a set; its raw multiplicity is their number,
            # and at 3/8 keys collide
            ["search", "--mode", "exhaustive-large", "--k", "5", "--threshold", "3/8"],
        ],
        ids=["verify_small_k8", "shape_centre_edge", "search_large_k5_three_eighths"],
    )
    def test_output_does_not_depend_on_the_hash_seed(self, argv):
        src = os.path.dirname(os.path.dirname(cubeint.__file__))
        outputs = []
        for seed in ("0", "12345"):
            proc = subprocess.run(
                [sys.executable, "-m", "cubeint.cli", *argv],
                capture_output=True,
                text=True,
                timeout=120,
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

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
        assert main(["search", "--mode", "exhaustive-large", "--k", "30"]) == 2
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


# three disjoint 5-cycles: no transposition maps the shape onto itself, so
# canonical_form prunes nothing and passes its leaf budget
FIVE_CYCLES = ";".join(f"{5 * c + i + 1},{5 * c + (i + 1) % 5 + 1}" for c in range(3) for i in range(5))


class TestExitContract:
    @pytest.mark.parametrize(
        "argv",
        [
            ["oracle", "--k", "8", "--m", "3"],
            ["map", "--json", "{}"],
            ["map", "--json", "[1]"],
            ["map", "--json", '{"k":2,"entries":[1]}'],
            ["shape", "--json", "{}"],
            ["search", "--mode", "exhaustive-large", "--k", "6", "--threshold", "0"],
            ["window", "hn", "--n", "8", "--out", "{missing_dir}/report.json"],
            ["verify", "antichain", "--ell", "3"],
            ["verify", "antichain", "--ell", "17"],
            ["shape", "--edges", FIVE_CYCLES],
            ["map", "--json", '{"k":2,"entries":[["1/0","1"]]}'],
            ["oracle", "--k", "2", "--m", "1", "--entries", "1/0"],
            ["oracle", "--k", "2", "--m", "0"],
            ["oracle", "--k", "2", "--m", "-1"],
            ["search", "--mode", "exhaustive-large", "--k", "6", "--max-edges", "0"],
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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["oracle", "--k", "6", "--m", "3"], "closure of 723 masks needs more than 5000000 intersections"),
            (["oracle", "--k", "9", "--m", "1"], "3^9 rows of 2^9 points exceed the work budget 5000000"),
            (
                ["shape", "--edges", FIVE_CYCLES],
                "shape too symmetric to label: more than 5000 refinement leaves",
            ),
        ],
        ids=["oracle-closure", "oracle-rows", "canonical-leaves"],
    )
    def test_budget_refusal_is_one_named_line(self, capsys, argv, message):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {message}\n"

    # each ran, as k = 2, m = 1 or an entry of 1, and exited 0 before the map
    # reader took k and m as JSON integers only and refused booleans
    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"k":2.5,"entries":[["1","-1"]]}', "'k' and 'm' must be integers"),
            ('{"k":2,"m":1.9,"entries":[["1","-1"]]}', "'k' and 'm' must be integers"),
            ('{"k":true,"entries":[["1"]]}', "'k' and 'm' must be integers"),
            ('{"k":2,"m":true,"entries":[["1","-1"]]}', "'k' and 'm' must be integers"),
            ('{"k":"2","entries":[["1","-1"]]}', "'k' and 'm' must be integers"),
            ('{"k":2,"entries":[[true,"-1"]]}', "entries must be numbers, not booleans"),
        ],
    )
    def test_map_refuses_inexact_counts_and_booleans(self, capsys, text, message):
        code = main(["map", "--json", text])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: map {message}\n"

    def test_map_reads_decimals_exactly(self, capsys):
        # 0.1 as a binary float is 3602879701896397/2^55, and ten of them on
        # k = 10 kept only the origin
        sizes = {}
        for entry in ("0.1", '"1/10"', "1e-1"):
            text = f'{{"k":10,"entries":[[{", ".join([entry] * 10)}]]}}'
            code, out = run(capsys, "map", "--json", text)
            result = json.loads(out)["result"]
            assert code == 0 and result["map"]["entries"] == [["1/10"] * 10]
            sizes[entry] = result["size"]
        assert set(sizes.values()) == {2}

    @pytest.mark.parametrize("k", ["-3", "0", "1", "25"])
    def test_search_names_a_k_out_of_range(self, capsys, k):
        code = main(["search", "--mode", "exhaustive-large", "--k", k])
        assert code == 2
        assert capsys.readouterr().err == f"error: search dimension k={k} is outside 2..24\n"

    # a threshold in [3/4, 1) admits no support of two coordinates, since the
    # best two-coordinate row covers 3/4 of its square
    @pytest.mark.parametrize("threshold", ["3/4", "7/8"])
    def test_search_names_a_threshold_that_leaves_no_edge(self, capsys, threshold):
        code = main(["search", "--mode", "small", "--k", "8", "--threshold", threshold])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: threshold {threshold} leaves edges of at most 1 vertex, "
            "and edges have at least two vertices\n"
        )

    # the edge bound's scan stops at k: this exited 2 with "too small to
    # resolve" after scanning 4,096 support sizes for about 2 s
    def test_search_scans_support_sizes_up_to_k_only(self, capsys):
        start = time.perf_counter()
        code = main(["search", "--mode", "exhaustive-large", "--k", "4", "--threshold", "1/100"])
        assert time.perf_counter() - start < 1
        assert code == 0
        assert json.loads(capsys.readouterr().out)["result"]["config"]["max_edge_size"] == 4

    # limits that live in the library, and flags that exclude each other; the
    # first two ran out of memory or time, as did the 25-vertex shapes and
    # the rationals with an exponent past 4300, and the last for 5 s, before
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
            ["search", "--mode", "exhaustive-large", "--k", "30"],
            ["oracle", "--k", "0", "--m", "1"],
            ["shape", "--json", '{"edges":[[true,2]]}'],
            ["shape", "--edges", "1,2", "--json", '{"edges":[[1,2]]}'],
            ["oracle", "--k", "3", "--m", "1", "--entries=--"],
            ["verify", "large", "--k=--"],
            ["shape", "--edges", ",".join(map(str, range(1, 26)))],
            ["shape", "--json", json.dumps({"edges": [list(range(1, 26))]})],
            ["map", "--json", '{"k":1,"entries":[[1e999999999]]}'],
            ["map", "--json", '{"k":1,"entries":[["1e-999_999_999"]]}'],
            ["oracle", "--k", "1", "--m", "1", "--entries", "1E+999999999"],
            ["search", "--mode", "small", "--k", "8", "--threshold", "1e999999999"],
            ["oracle", "--k", "11", "--m", "2", "--entries", "0,1"],
            ["oracle", "--k", "7", "--m", "3"],
            ["sizes", "large", "--k", "5"],
        ],
    )
    def test_refusal_is_one_line_and_prompt(self, argv):
        start = time.perf_counter()
        code, err = run_quietly(argv)
        assert time.perf_counter() - start < 1
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        if argv[:2] == ["sizes", "large"]:
            assert err == "error: single-row large sizes are listed for k in 6..24\n"

    def test_wrong_window_witness_exits_one_with_a_report(self, capsys, monkeypatch):
        padded = theorems._padded

        def wrong(rows, k, m):
            # x1 + x2 + x3 in {0, 1} holds on half the cube, x1 - x2 on 3/4
            return padded([[1, 1, 1]] if rows == [[1, -1]] else rows, k, m)

        monkeypatch.setattr(theorems, "_padded", wrong)
        code = main(["window", "hn", "--n", "8"])
        captured = capsys.readouterr()
        assert code == 1
        assert json.loads(captured.out)["result"]["match"] is False
        assert captured.err == ""

    def failed_large_checks(self, capsys):
        code = main(["verify", "large", "--k", "6"])
        captured = capsys.readouterr()
        assert code == 1 and captured.err == ""
        checks = json.loads(captured.out)["result"]["checks"]
        return {c["name"]: c["details"] for c in checks if not c["passed"]}

    def test_dropped_large_size_exits_one_with_a_report(self, capsys, monkeypatch):
        witnesses = theorems.large_membership_witnesses

        def without_35(k, extra_rows):
            claimed = witnesses(k, extra_rows)
            del claimed[35 << (k - 6)]
            return claimed

        monkeypatch.setattr(theorems, "large_membership_witnesses", without_35)
        failed = self.failed_large_checks(capsys)
        assert list(failed) == [f"H+({6 + extra},6) matches" for extra in range(1, 7)]
        for details in failed.values():
            assert 35 in details["computed"] and 35 not in details["claimed"]

    def test_wrong_large_witness_exits_one_with_a_report(self, capsys, monkeypatch):
        witnesses = theorems.large_membership_witnesses

        def wrong_48(k, extra_rows):
            # the map for 48 of 64 points replaced by the one for 40
            claimed = witnesses(k, extra_rows)
            claimed[3 << (k - 2)] = claimed[5 << (k - 3)]
            return claimed

        monkeypatch.setattr(theorems, "large_membership_witnesses", wrong_48)
        failed = self.failed_large_checks(capsys)
        assert list(failed) == [f"witnesses for n={6 + extra}" for extra in range(1, 7)]
        for details in failed.values():
            assert details["failures"] == {"48": "construction gives 40"}

    def test_missed_star_exits_one_with_a_report(self, capsys, monkeypatch):
        classify = theorems.classify_star

        def no_star32(shape):
            # every 3-2 star taken for some other minimal shape
            family = classify(shape)
            return shapes.OTHER if family == shapes.STAR32 else family

        monkeypatch.setattr(theorems, "classify_star", no_star32)
        failed = self.failed_large_checks(capsys)
        name = "minimal survivors of three or more conditions are the 2-1 and 3-2 stars"
        assert list(failed) == [name]
        details = failed[name]
        assert details["star21_depths"] == [3, 4, 5] and details["star32_depths"] == []
        assert [(f["family"], f["max"]) for f in details["failures"]] == [
            ("other", 18), ("other", 34)
        ]

    def test_small_search_stopped_early_fails_depth_four(self, capsys, monkeypatch):
        search = theorems.bfs_search

        def three_deep(config):
            return search(SearchConfig(config.mode, config.k, max_edges=3))

        monkeypatch.setattr(theorems, "bfs_search", three_deep)
        code = main(["verify", "small", "--k", "8"])
        captured = capsys.readouterr()
        assert code == 1 and captured.err == ""
        checks = json.loads(captured.out)["result"]["checks"]
        four = [c for c in checks if c["name"] == "four-condition survivors"]
        assert len(four) == 1 and four[0]["passed"] is False
        assert four[0]["details"]["raw"] == 0 and four[0]["details"]["canonical"] == 0

    def test_search_budget_exits_two_with_one_line(self, capsys, monkeypatch):
        monkeypatch.setattr("cubeint.search.MAX_FRONTIER_STATES", 5)
        code = main(["search", "--mode", "exhaustive-large", "--k", "6"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: frontier exceeded 5 states\n"
        assert captured.out == ""

    def test_alternating_power_row_maps_in_512_mb(self):
        # a row of (-2)^i takes a distinct value at each of its 2^k points, so
        # level sets over the whole row once ran out of memory here
        row = [str((-2) ** i) for i in range(20)]
        text = json.dumps({"k": 20, "entries": [row]})
        src = os.path.dirname(os.path.dirname(cubeint.__file__))
        cap = 512 << 20

        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        proc = subprocess.run(
            [sys.executable, "-m", "cubeint.cli", "map", "--json", text],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": src},
            preexec_fn=limit_address_space,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["result"]["size"] == 2

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
