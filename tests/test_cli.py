"""End-to-end CLI behavior: every subcommand, exit codes, determinism."""
from __future__ import annotations

import csv
import json
import re

import pytest

from partition_oracle import (
    GraphFormatError,
    OracleConfigError,
    ParamError,
    PartitionOracle,
    PhaseThresholds,
    SeedContext,
    SolverCapError,
    cli,
    derive_params,
    gen_grid,
    load_graph,
    save_graph,
)
from partition_oracle.applications import oracle_overrides
from partition_oracle.cli import main

from conftest import CONFIG_DIR, DATA_DIR, bridge_graph, load_json, piece_map

# The calibrated bridge bundle, spelled as --set pairs.
GOLDEN_SETTINGS = {
    "ell": 20, "rho": 0.001, "phi": 0.1, "beta": 0.1, "delta": 0.2,
    "h_bar": 10, "k_max": 50, "sample_count": 200, "keep_count": 100,
}


def set_args(**over) -> list[str]:
    merged = dict(GOLDEN_SETTINGS)
    merged.update(over)
    out: list[str] = []
    for key, value in merged.items():
        out += ["--set", f"{key}={value}"]
    return out


@pytest.fixture
def bridge_file(tmp_path) -> str:
    path = tmp_path / "bridge.graph"
    save_graph(bridge_graph(), path)
    return str(path)


def run_json(argv, tmp_path, name="out.json") -> tuple[int, dict, bytes]:
    out = tmp_path / name
    rc = main(argv + ["--out", str(out)])
    raw = out.read_bytes()
    return rc, json.loads(raw), raw


# ----------------------------------------------------------------------- gen

def test_gen_grid_writes_the_expected_header(tmp_path, capsys):
    out = tmp_path / "grid.graph"
    assert main(["gen", "grid", "3", "4", "--out", str(out)]) == 0
    g = load_graph(out)
    assert (g.n, g.d) == (12, 4)
    assert out.read_text().splitlines()[0] == "12 4"
    captured = capsys.readouterr()
    assert captured.out == ""
    wrote, timing = captured.err.splitlines()
    assert wrote == f"wrote grid graph: n=12 d=4 -> {out}"
    assert re.fullmatch(r"gen: \d+\.\d{3}s", timing)


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a.graph", tmp_path / "b.graph"
    main(["gen", "tree", "40", "3", "9", "--out", str(a)])
    main(["gen", "tree", "40", "3", "9", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    main(["gen", "tree", "40", "3", "10", "--out", str(b)])
    assert a.read_bytes() != b.read_bytes()


def test_gen_tri_grid(tmp_path):
    out = tmp_path / "tri.graph"
    assert main(["gen", "tri-grid", "3", "3", "--out", str(out)]) == 0
    assert load_graph(out).d == 6


def test_gen_rejects_wrong_dimension_counts(tmp_path, capsys):
    out = tmp_path / "x.graph"
    assert main(["gen", "grid", "3", "--out", str(out)]) == 1
    assert main(["gen", "tree", "10", "2", "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err


# ----------------------------------------------------------------- partition

def test_partition_reports_the_golden_bridge_cut(bridge_file, tmp_path):
    rc, payload, _ = run_json(
        ["partition", "--graph", bridge_file, "--seed", "0"] + set_args(), tmp_path
    )
    assert rc == 0
    assert payload["command"] == "partition"
    assert payload["n"] == 8
    assert payload["thresholds"][:2] == [4, 4]
    assert payload["cut_report"]["cut_edges"] == 1
    assert len(payload["anchors"]) == 8
    assert payload["params"]["k_candidates"] == "1..50"


def test_partition_reruns_are_byte_identical(bridge_file, tmp_path):
    argv = ["partition", "--graph", bridge_file, "--seed", "0"] + set_args()
    _, _, first = run_json(argv, tmp_path, "a.json")
    _, _, second = run_json(argv, tmp_path, "b.json")
    assert first == second


def test_partition_global_flag_matches_the_query_path(bridge_file, tmp_path):
    argv = ["partition", "--graph", bridge_file, "--seed", "0"] + set_args()
    _, local, _ = run_json(argv, tmp_path, "local.json")
    _, global_, _ = run_json(argv + ["--global"], tmp_path, "global.json")
    assert local["anchors"] == global_["anchors"]
    assert local["cut_report"] == global_["cut_report"]


def test_partition_check_gate_passes(bridge_file, tmp_path):
    argv = ["partition", "--graph", bridge_file, "--check"] + set_args()
    rc, payload, _ = run_json(argv, tmp_path)
    assert rc == 0
    assert payload["cut_report"]["cut_edges"] >= 1


def test_partition_exact_arithmetic_matches_double(bridge_file, tmp_path):
    argv = ["partition", "--graph", bridge_file, "--seed", "0"] + set_args()
    rc, exact, _ = run_json(argv + ["--set", "exact=1"], tmp_path, "exact.json")
    assert rc == 0
    assert exact["params"]["arithmetic"] == "exact"
    _, double, _ = run_json(argv + ["--set", "exact=0"], tmp_path, "double.json")
    assert double["params"]["arithmetic"] == "double"
    assert exact["anchors"] == double["anchors"]
    assert exact["thresholds"] == double["thresholds"]


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_out_of_range_seed_exits_one(bridge_file, seed, capsys):
    assert main(["query", "--graph", bridge_file, "--seed", seed, "0"] + set_args()) == 1
    assert "master seed must be in [0, 2**64)" in capsys.readouterr().err


def test_partition_paper_mode_is_rejected_at_desk_scale(bridge_file, capsys):
    assert main(["partition", "--graph", bridge_file, "--mode", "paper"]) == 1
    assert "beyond desk scale" in capsys.readouterr().err


@pytest.mark.parametrize(
    "setting, message",
    [
        ("ell=20.5", "ell must be an integer, got 20.5"),
        ("h_bar=10.5", "h_bar must be an integer, got 10.5"),
        ("sample_count=200.5", "sample_count must be an integer, got 200.5"),
        ("keep_count=2.5", "keep_count must be an integer, got 2.5"),
        ("k_max=7.9", "k_max must be an integer >= 1, got 7.9"),
        ("k_candidates=5",
         "k_candidates must be a range, list or tuple of integers, got 5"),
        ("k_candidates=2.5",
         "k_candidates must be a range, list or tuple of integers, got 2.5"),
        ("k_candidates=abc",
         "k_candidates must be a range, list or tuple of integers, got 'abc'"),
    ],
)
def test_non_integer_settings_exit_one(bridge_file, capsys, setting, message):
    argv = ["query", "--graph", bridge_file, "0"] + set_args() + ["--set", setting]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "setting, message",
    [
        (["--eps", "nan"], "epsilon must be a finite number, got nan"),
        (["--set", "rho=nan"], "rho must be a finite number, got nan"),
        (["--set", "phi=inf"], "phi must be a finite number, got inf"),
        (["--set", "beta=-inf"], "beta must be a finite number, got -inf"),
        (["--set", "alpha=nan"], "alpha must be a finite number, got nan"),
        (["--set", "delta=nan"], "delta must be a finite number, got nan"),
        (["--set", "exact=nan"], "exact must be a finite number, got nan"),
        (["--set", "exact=inf"], "exact must be a finite number, got inf"),
    ],
)
def test_non_finite_settings_exit_one(bridge_file, capsys, setting, message):
    argv = ["query", "--graph", bridge_file, "0"] + set_args() + setting
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_partition_missing_graph_exits_one(tmp_path, capsys):
    assert main(["partition", "--graph", str(tmp_path / "nope.graph")]) == 1
    assert "error:" in capsys.readouterr().err


def test_partition_malformed_graph_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("3 2\n1 0\n", encoding="ascii")
    assert main(["partition", "--graph", str(bad)]) == 1
    assert "u < v" in capsys.readouterr().err


def test_bad_set_pair_exits_one(bridge_file, capsys):
    assert main(["partition", "--graph", bridge_file, "--set", "ell"]) == 1
    assert "key=val" in capsys.readouterr().err


# --------------------------------------------------------------------- query

def test_query_returns_a_piece_containing_the_vertex(bridge_file, tmp_path):
    argv = ["query", "--graph", bridge_file, "--seed", "0", "6"] + set_args()
    rc, payload, first = run_json(argv, tmp_path, "q1.json")
    assert rc == 0
    assert payload["v"] == 6
    assert 6 in payload["piece"]
    assert payload["anchor"] in payload["piece"]
    _, _, second = run_json(argv, tmp_path, "q2.json")
    assert first == second


def test_query_on_the_grid50_config_returns_the_golden_piece(tmp_path):
    """A cold CLI query chooses only the thresholds its scan needs, and its
    anchor and piece are those of the global pass at the golden thresholds."""
    config = load_json(CONFIG_DIR / "partition_grid50.json")
    golden = load_json(DATA_DIR / "grid50_golden.json")
    g = gen_grid(config["graph"]["rows"], config["graph"]["cols"])
    params = derive_params(
        config["eps"], g.d, config["mode"], oracle_overrides(config["overrides"])
    )
    thresholds = PhaseThresholds(tuple(golden["thresholds"]))
    reference = PartitionOracle(g, SeedContext(config["seed"], params), thresholds)
    partition = reference.global_partition()
    graph = tmp_path / "grid50.graph"
    save_graph(g, graph)
    argv = ["query", "--graph", str(graph), "--seed", str(config["seed"]),
            "--eps", str(config["eps"]), "1275"]
    for key, value in config["overrides"].items():
        argv += ["--set", f"{key}={value}"]
    rc, payload, _ = run_json(argv, tmp_path)
    assert rc == 0
    assert payload["anchor"] == partition.anchors[1275]
    assert tuple(payload["piece"]) == piece_map(g, partition)[1275]


@pytest.mark.parametrize(
    "argv",
    [
        ["partition"] + set_args(),
        ["partition", "--global"] + set_args(),
        ["partition", "--check"] + set_args(),
        ["query", "0"] + set_args(),
        ["census", "--kind", "viability"] + set_args(),
        ["census", "--kind", "leaky"] + set_args(),
        ["census", "--kind", "good-seed"] + set_args(),
        ["census", "--kind", "good-seed", "--free", "free.txt"] + set_args(),
        ["test", "--property", "bipartite"],
        ["estimate", "--scorer", "matching"],
        ["estimate", "--scorer", "matching", "--samples", "all"],
    ],
    ids=lambda argv: " ".join(a for a in argv if not a.startswith("--set") and "=" not in a),
)
def test_a_graph_with_no_vertices_exits_one(tmp_path, capsys, monkeypatch, argv):
    empty = tmp_path / "empty.graph"
    empty.write_text("0 2\n", encoding="ascii")
    (tmp_path / "free.txt").write_text("0\n", encoding="ascii")
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    assert main(argv[:1] + ["--graph", str(empty), "--out", str(out)] + argv[1:]) == 1
    assert capsys.readouterr().err == "error: graph has no vertices\n"
    assert not out.exists()


def test_query_rejects_out_of_range_vertex(bridge_file, capsys):
    assert main(["query", "--graph", bridge_file, "99"] + set_args()) == 1
    assert capsys.readouterr().err == "error: vertex id must be an integer in [0, 7], got 99\n"


# ---------------------------------------------------------------------- test

def write_tester_config(tmp_path) -> str:
    path = tmp_path / "tester.json"
    path.write_text(
        json.dumps(
            {"overrides": GOLDEN_SETTINGS, "cut_threshold": 0.5, "retries": 2}
        ),
        encoding="utf-8",
    )
    return str(path)


def test_tester_accepts_the_bipartite_bridge(bridge_file, tmp_path):
    config = write_tester_config(tmp_path)
    argv = ["test", "--graph", bridge_file, "--property", "bipartite",
            "--config", config]
    rc, payload, _ = run_json(argv, tmp_path)
    assert rc == 0
    assert payload["verdict"] == "accept"
    assert payload["property"] == "bipartite"


def write_triangle(tmp_path) -> str:
    path = tmp_path / "c3.graph"
    path.write_text("3 2\n0 1\n0 2\n1 2\n", encoding="ascii")
    return str(path)


def test_tester_rejects_the_triangle(tmp_path):
    argv = ["test", "--graph", write_triangle(tmp_path), "--property", "bipartite",
            "--config", write_tester_config(tmp_path)]
    rc, payload, _ = run_json(argv, tmp_path)
    assert rc == 3
    assert payload["verdict"] == "reject"


# Config files refused by both commands; {kind} is "tester" or "estimator".
BAD_CONFIGS = [
    ('{"solver_cap": "x"}', "solver_cap must be an integer >= 1, got 'x'"),
    ('{"solver_cap": null}', "solver_cap must be an integer >= 1, got None"),
    ('{"solver_cap": 0}', "solver_cap must be an integer >= 1, got 0"),
    ('{"solver_cap": -5}', "solver_cap must be an integer >= 1, got -5"),
    ('{"overrides": [1, 2]}', "overrides expects an object or null, got [1, 2]"),
    ('{"overrides": 5}', "overrides expects an object or null, got 5"),
    ('{"overrides": {"k_max": true}}', "k_max must be an integer >= 1, got True"),
    ("[1, 2]", "a {kind} config must be a JSON object, got list"),
    ('"x"', "a {kind} config must be a JSON object, got str"),
]
BAD_TESTER_CONFIGS = [
    ('{"retries": "8"}', "retries must be an integer >= 1, got '8'"),
    ('{"retries": 2.0}', "retries must be an integer >= 1, got 2.0"),
    ('{"retries": true}', "retries must be an integer >= 1, got True"),
    ('{"phase1_probes": 2.5}', "phase1_probes must be an integer >= 1, got 2.5"),
    ('{"phase2_samples": "3"}', "phase2_samples must be an integer >= 1, got '3'"),
    ('{"cut_threshold": true}', "cut_threshold must be a number in [0, 1], got True"),
    ('{"cut_threshold": "0.5"}', "cut_threshold must be a number in [0, 1], got '0.5'"),
    ('{"cut_threshold": -1}', "cut_threshold must be a number in [0, 1], got -1"),
    ('{"cut_threshold": 1.5}', "cut_threshold must be a number in [0, 1], got 1.5"),
    ('{"phase1_probes": 0}', "phase1_probes must be an integer >= 1, got 0"),
    ('{"phase1_probes": -3}', "phase1_probes must be an integer >= 1, got -3"),
    ('{"phase2_samples": 0}', "phase2_samples must be an integer >= 1, got 0"),
    ('{"phase2_samples": -1}', "phase2_samples must be an integer >= 1, got -1"),
]


@pytest.mark.parametrize(
    "command, text, message",
    [("test", *case) for case in BAD_TESTER_CONFIGS + BAD_CONFIGS]
    + [("estimate", *case) for case in BAD_CONFIGS],
)
def test_bad_config_files_exit_one(bridge_file, tmp_path, capsys, command, text, message):
    config = tmp_path / "config.json"
    config.write_text(text, encoding="utf-8")
    extra = ["--property", "bipartite"] if command == "test" else ["--scorer", "matching"]
    argv = [command, "--graph", bridge_file, "--config", str(config)] + extra
    assert main(argv) == 1
    kind = "tester" if command == "test" else "estimator"
    assert capsys.readouterr().err == f"error: {message.format(kind=kind)}\n"


def test_null_phase_sizes_keep_their_computed_defaults(bridge_file, tmp_path):
    config = tmp_path / "tester.json"
    config.write_text(json.dumps({
        "overrides": GOLDEN_SETTINGS, "cut_threshold": 0.5, "retries": 2,
        "phase1_probes": None, "phase2_samples": None,
    }), encoding="utf-8")
    argv = ["test", "--graph", bridge_file, "--property", "bipartite",
            "--config", str(config)]
    rc, payload, _ = run_json(argv, tmp_path)
    assert rc == 0
    assert payload["phase1_probes"] == 480


def test_tester_unknown_property_exits_one(bridge_file, capsys):
    assert main(["test", "--graph", bridge_file, "--property", "planar"]) == 1
    assert "unknown property" in capsys.readouterr().err


# ------------------------------------------------------------------ estimate

def write_estimator_config(tmp_path) -> str:
    path = tmp_path / "estimator.json"
    path.write_text(json.dumps({"overrides": GOLDEN_SETTINGS}), encoding="utf-8")
    return str(path)


def test_estimate_full_enumeration_on_the_bridge(bridge_file, tmp_path):
    argv = ["estimate", "--graph", bridge_file, "--scorer", "matching",
            "--samples", "all", "--config", write_estimator_config(tmp_path)]
    rc, payload, _ = run_json(argv, tmp_path)
    assert rc == 0
    assert payload["estimate"] == 4.0
    assert payload["samples"] is None


def test_estimate_unknown_scorer_exits_one(bridge_file, capsys):
    assert main(["estimate", "--graph", bridge_file, "--scorer", "clique"]) == 1
    assert "unknown scorer" in capsys.readouterr().err


@pytest.mark.parametrize("samples", ["abc", "0", "-3", "2.5"])
def test_estimate_refuses_a_sample_count_that_is_not_a_positive_integer(
    bridge_file, capsys, samples
):
    argv = ["estimate", "--graph", bridge_file, "--scorer", "matching", "--samples", samples]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: --samples expects a positive integer or 'all', got {samples!r}\n"
    )


# -------------------------------------------------------------------- census

def read_csv(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_viability_census_csv(bridge_file, tmp_path, capsys):
    out = tmp_path / "viability.csv"
    argv = (["census", "--graph", bridge_file, "--seed", "0", "--kind", "viability",
             "--phase", "1", "--free", "all", "--out", str(out)] + set_args())
    assert main(argv) == 0
    rows = read_csv(out)
    assert [row["k"] for row in rows] == [str(k) for k in range(1, 51)]
    assert '"chosen_k": 4' in capsys.readouterr().err


@pytest.mark.parametrize("phase", ["0", "11"])
def test_viability_census_rejects_a_phase_outside_h_bar(bridge_file, tmp_path, capsys, phase):
    out = tmp_path / "viability.csv"
    argv = (["census", "--graph", bridge_file, "--kind", "viability",
             "--phase", phase, "--out", str(out)] + set_args())
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: phase must be an integer in [1, 10], got {phase}\n"
    assert not out.exists()


def test_leaky_census_with_no_free_set_always_leaks(bridge_file, tmp_path):
    out = tmp_path / "leaky.csv"
    argv = (["census", "--graph", bridge_file, "--kind", "leaky", "--source", "0",
             "--free", "none", "--out", str(out)] + set_args())
    assert main(argv) == 0
    rows = read_csv(out)
    assert len(rows) == 20
    assert all(row["leaking"] == "True" for row in rows)
    assert all(row["certificate_k"] == "" for row in rows)  # None renders empty


def test_good_seed_census_with_free_file(bridge_file, tmp_path):
    free = tmp_path / "free.txt"
    free.write_text("0\n1\n2\n3\n", encoding="utf-8")
    out = tmp_path / "good.csv"
    argv = (["census", "--graph", bridge_file, "--kind", "good-seed",
             "--free", str(free), "--out", str(out)] + set_args())
    assert main(argv) == 0
    assert read_csv(out) == [{"good_seeds": "4"}]


@pytest.mark.parametrize(
    "kind",
    [["good-seed"], ["leaky", "--source", "0"], ["viability", "--phase", "1"]],
    ids=["good-seed", "leaky", "viability"],
)
def test_census_rejects_free_ids_out_of_range(bridge_file, tmp_path, capsys, kind):
    free = tmp_path / "free.txt"
    free.write_text("0\n3\n8\n", encoding="utf-8")
    out = tmp_path / "c.csv"
    argv = (["census", "--graph", bridge_file, "--free", str(free), "--out", str(out),
             "--kind"] + kind + set_args())
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "free.txt:3: free-set vertex must be an integer in [0, 7], got 8" in err
    assert not out.exists()


def test_census_names_the_line_of_a_free_id_that_is_not_an_integer(
    bridge_file, tmp_path, capsys
):
    free = tmp_path / "free.txt"
    free.write_text("0\n3\nx\n", encoding="utf-8")
    argv = (["census", "--graph", bridge_file, "--kind", "good-seed",
             "--free", str(free)] + set_args())
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {free}:3: expected a vertex id, got 'x'\n"


def test_leaky_census_rejects_an_out_of_range_source(bridge_file, capsys):
    argv = (["census", "--graph", bridge_file, "--kind", "leaky", "--source", "8"]
            + set_args())
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: source must be an integer in [0, 7], got 8\n"


def test_census_cap_requires_force(bridge_file, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "DEFAULT_CENSUS_CAP", 4)
    out = tmp_path / "c.csv"
    argv = (["census", "--graph", bridge_file, "--kind", "good-seed",
             "--free", "all", "--out", str(out)] + set_args())
    assert main(argv) == 1
    assert "exceeds the exhaustive cap" in capsys.readouterr().err
    assert main(argv + ["--force"]) == 0
    assert read_csv(out) == [{"good_seeds": "8"}]


# ------------------------------------------------------------------- plumbing

# Each command that writes a document: its argv on the bridge graph, and the
# exit code it must end with.
RUNNER_CASES = {
    "partition": (lambda g, tmp: ["partition", "--graph", g] + set_args(), 0),
    "partition-global": (lambda g, tmp: ["partition", "--global", "--graph", g] + set_args(), 0),
    "query": (lambda g, tmp: ["query", "--graph", g, "0"] + set_args(), 0),
    "test-accept": (lambda g, tmp: ["test", "--graph", g, "--property", "bipartite",
                                    "--config", write_tester_config(tmp)], 0),
    "test-reject": (lambda g, tmp: ["test", "--graph", write_triangle(tmp), "--property",
                                    "bipartite", "--config", write_tester_config(tmp)], 3),
    "estimate": (lambda g, tmp: ["estimate", "--graph", g, "--scorer", "matching",
                                 "--samples", "all", "--config", write_estimator_config(tmp)], 0),
    "census-viability": (lambda g, tmp: ["census", "--graph", g, "--kind", "viability"]
                         + set_args(), 0),
    "census-leaky": (lambda g, tmp: ["census", "--graph", g, "--kind", "leaky"] + set_args(), 0),
    "census-good-seed": (lambda g, tmp: ["census", "--graph", g, "--kind", "good-seed"]
                         + set_args(), 0),
}


@pytest.mark.parametrize("case", list(RUNNER_CASES))
def test_json_output_goes_to_stdout_without_out(bridge_file, tmp_path, capsys, case):
    """Without ``--out`` stdout carries exactly the bytes ``--out`` writes;
    with it stdout stays empty, since the bench reads its own last stdout
    line from the process that calls ``main``.  Either way the run ends on
    one timing line on stderr."""
    build, code = RUNNER_CASES[case]
    argv = build(bridge_file, tmp_path)
    timing = re.compile(rf"{argv[0]}: \d+\.\d{{3}}s")
    assert main(argv) == code
    to_stdout = capsys.readouterr()
    assert timing.fullmatch(to_stdout.err.splitlines()[-1]), to_stdout.err
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == code
    to_file = capsys.readouterr()
    assert to_file.out == ""
    assert timing.fullmatch(to_file.err.splitlines()[-1]), to_file.err
    assert out.read_bytes() == to_stdout.out.encode("utf-8")
    if argv[0] != "census":
        assert json.loads(to_stdout.out)["command"] == argv[0]


@pytest.mark.parametrize("error", [
    GraphFormatError("bad graph"),
    ParamError("bad parameter"),
    SolverCapError("piece too large"),
    OracleConfigError("beyond desk scale"),
    OSError("disk full"),
], ids=lambda error: type(error).__name__)
def test_main_reports_a_command_error_on_one_line(bridge_file, capsys, monkeypatch, error):
    def fail(args):
        raise error

    monkeypatch.setattr(cli, "cmd_query", fail)
    assert main(["query", "--graph", bridge_file, "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"


def test_config_hash_tracks_the_resolved_settings(bridge_file, tmp_path):
    base = ["query", "--graph", bridge_file, "0"] + set_args()
    _, a, _ = run_json(base, tmp_path, "a.json")
    _, b, _ = run_json(["query", "--graph", bridge_file, "--seed", "5", "0"] + set_args(),
                       tmp_path, "b.json")
    assert a["config_hash"] != b["config_hash"]
    _, c, _ = run_json(base, tmp_path, "c.json")
    assert a["config_hash"] == c["config_hash"]
