"""Acceptance gate: one test per shipping criterion, tolerances pinned.

Each test prints a single summary line (visible with ``pytest -s``); the
pass/fail verdict is the test outcome itself.  Golden numbers live in
``tests/data`` and calibrated constants in ``configs`` — regenerating either
is a deliberate act, not a side effect of running the suite.
"""
from __future__ import annotations

import json
import random
import time
from fractions import Fraction

import partition_oracle as po
from partition_oracle import (
    PartitionOracle,
    SeedContext,
    cluster,
    derive_params,
    gen_grid,
    gen_random_tree,
    gen_triangulated_grid,
    lazy_step,
    maximum_matching,
    measure_cut,
    run_estimator,
    run_tester,
    truncate,
    truncated_diffusion,
)
from partition_oracle.applications import oracle_overrides
from partition_oracle.cli import main as cli_main

from conftest import (
    CONFIG_DIR,
    DATA_DIR,
    DESK_OVERRIDES,
    bridge_graph,
    conductance,
    cycle_graph,
    desk_params,
    global_free_sets,
    load_json,
    ls_chord,
    ls_value,
    path_graph,
    piece_map,
)

EPS = 0.1


def corpus():
    """(name, graph, master_seed) triples with n from 1 to 200."""
    entries = [
        ("grid-1x2", gen_grid(1, 2)),
        ("grid-2x2", gen_grid(2, 2)),
        ("grid-3x3", gen_grid(3, 3)),
        ("grid-4x4", gen_grid(4, 4)),
        ("grid-5x5", gen_grid(5, 5)),
        ("grid-6x6", gen_grid(6, 6)),
        ("grid-8x8", gen_grid(8, 8)),
        ("grid-10x10", gen_grid(10, 10)),
        ("grid-12x12", gen_grid(12, 12)),
        ("grid-14x14", gen_grid(14, 14)),
        ("tri-2x2", gen_triangulated_grid(2, 2)),
        ("tri-3x3", gen_triangulated_grid(3, 3)),
        ("tri-4x4", gen_triangulated_grid(4, 4)),
        ("tri-5x5", gen_triangulated_grid(5, 5)),
        ("tri-6x6", gen_triangulated_grid(6, 6)),
        ("bridge", bridge_graph()),
        ("path-50", path_graph(50)),
        ("cycle-40", cycle_graph(40)),
        ("tree-1", gen_random_tree(1, 3, 0)),
        ("tree-2", gen_random_tree(2, 3, 1)),
        ("tree-17", gen_random_tree(17, 3, 2)),
        ("tree-33", gen_random_tree(33, 3, 3)),
        ("tree-64", gen_random_tree(64, 3, 4)),
        ("tree-100", gen_random_tree(100, 3, 5)),
        ("tree-150", gen_random_tree(150, 2, 6)),
        ("tree-200", gen_random_tree(200, 3, 7)),
    ]
    return [(name, g, i % 5) for i, (name, g) in enumerate(entries)]


def test_criterion_01_local_queries_equal_global_partition():
    """Every piece query agrees with the reference global partition on a
    26-graph corpus (n = 1..200) under the pinned explicit bundle.  The
    local side runs on a fresh engine, so its thresholds come from the local
    findr and must equal the ones the global pass chose."""
    started = time.perf_counter()
    pairs = corpus()
    assert len(pairs) >= 25
    assert min(g.n for _, g, _ in pairs) == 1
    assert max(g.n for _, g, _ in pairs) == 200
    for name, g, seed in pairs:
        local = PartitionOracle(g, SeedContext(seed, desk_params(g.d)))
        global_engine = PartitionOracle(g, SeedContext(seed, desk_params(g.d)))
        reference = global_engine.global_partition()
        pieces = piece_map(g, reference)
        for v in range(g.n):
            assert local.find_partition(v) == pieces[v], (
                name, seed, v,
            )
        assert local.thresholds() == global_engine.thresholds(), (name, seed)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"criterion 01 PASS — {len(pairs)} graph/seed pairs, "
          f"local == global pieces and thresholds everywhere, {elapsed:.1f}s")


def test_criterion_02_incoming_ball_matches_brute_force():
    """find_ib equals per-vertex brute-force enumeration of all walk
    supports on every corpus graph with n <= 64."""
    small = [(name, g, seed) for name, g, seed in corpus() if g.n <= 64]
    assert len(small) >= 10
    checked = 0
    for name, g, seed in small:
        params = desk_params(g.d)
        ctx = SeedContext(seed, params)
        engine = PartitionOracle(g, ctx)
        trajectories = []
        for w in range(g.n):
            p = {w: 1.0}
            supports = [{w}]
            for _ in range(params.ell):
                if p:
                    p = truncate(lazy_step(g, p), params.rho)
                supports.append(set(p))
            trajectories.append(supports)
        for v in range(g.n):
            brute = tuple(sorted(
                w for w in range(g.n)
                if any(v in supp for supp in trajectories[w])
            ))
            assert engine.find_ib(v) == brute, (name, v)
            checked += g.n
    print(f"criterion 02 PASS — find_ib == brute force on "
          f"{len(small)} graphs ({checked} comparisons)")


def test_criterion_03_cluster_contract_holds_on_random_calls():
    """1000 randomized cluster calls: the result is the singleton fallback
    or satisfies membership, the size window, the exact conductance bound,
    and support containment."""
    graphs = [
        bridge_graph(), gen_grid(5, 5), gen_triangulated_grid(4, 4),
        gen_random_tree(50, 3, 1), cycle_graph(12),
    ]
    phi_bound = Fraction(1, 5)
    rng = random.Random(0)
    fallbacks = 0
    for i in range(1000):
        g = graphs[i % len(graphs)]
        params = desk_params(g.d)
        v = rng.randrange(g.n)
        t = rng.randrange(0, params.ell + 1)
        k = rng.randrange(0, 13)
        c = cluster(g, params, v, t, k)
        if c == (v,):
            fallbacks += 1
            continue
        assert v in c
        assert k <= len(c) <= 2 * k
        assert len(c) < g.n
        assert conductance(g, c) <= phi_bound
        support = set(truncated_diffusion(g, v, t, params.rho))
        assert set(c) <= support | {v}
    print(f"criterion 03 PASS — 1000 cluster calls honored the contract "
          f"({fallbacks} singleton fallbacks)")


def test_criterion_04_supports_never_exceed_the_truncation_cap():
    """Along every truncated trajectory, |supp| <= floor(1/rho), swept
    across five truncation levels and four graph families."""
    graphs = [gen_grid(6, 6), gen_triangulated_grid(4, 4),
              gen_random_tree(50, 3, 1), cycle_graph(8)]
    checked = 0
    for rho in (0.3, 0.1, 0.03, 0.01, 0.001):
        cap = int(1 / po.exact_number(rho))
        for g in graphs:
            for v in range(g.n):
                p = {v: 1.0}
                assert len(p) <= cap
                for _ in range(20):
                    p = truncate(lazy_step(g, p), rho)
                    assert len(p) <= cap, (rho, v)
                    checked += 1
    print(f"criterion 04 PASS — {checked} trajectory steps, "
          f"support cap floor(1/rho) never exceeded")


def test_criterion_05_walk_symmetry_and_truncation_domination():
    """The un-truncated walk is symmetric (|M^t[u,w] - M^t[w,u]| <= 1e-12),
    and in exact arithmetic truncation only removes mass pointwise."""
    graphs = [bridge_graph(), gen_grid(5, 5), cycle_graph(8), path_graph(10)]
    for g in graphs:
        walks = []
        for v in range(g.n):
            p = {v: 1.0}
            steps = [dict(p)]
            for _ in range(20):
                p = lazy_step(g, p)
                steps.append(dict(p))
            walks.append(steps)
        for t in (1, 3, 7, 20):
            for u in range(g.n):
                for w in range(u + 1, g.n):
                    lhs = walks[u][t].get(w, 0.0)
                    rhs = walks[w][t].get(u, 0.0)
                    assert abs(lhs - rhs) <= 1e-12, (g.n, t, u, w)

    rho = Fraction(1, 1000)
    for g in [bridge_graph(), cycle_graph(8), path_graph(10), gen_grid(4, 4)]:
        for v in range(g.n):
            exact = {v: Fraction(1)}
            truncated = {v: Fraction(1)}
            for t in range(1, 21):
                exact = lazy_step(g, exact, exact=True)
                truncated = truncate(
                    lazy_step(g, truncated, exact=True), rho, exact=True
                )
                assert sum(exact.values()) == 1
                for u, mass in truncated.items():
                    assert mass <= exact[u], (v, t, u)
    print("criterion 05 PASS — symmetry within 1e-12; "
          "truncated mass dominated exactly")


def test_criterion_06_ls_curves_are_concave_and_contracting():
    """On 100 random vectors: LS curves are concave, one lazy step plus
    truncation never raises the curve, and the chord bound holds."""
    g = gen_grid(6, 6)
    rng = random.Random(2024)
    for trial in range(100):
        support = rng.sample(range(g.n), rng.randrange(1, 12))
        raw = {v: rng.random() for v in support}
        total = sum(raw.values())
        p = {v: m / total for v, m in raw.items()}

        slopes = [ls_value(p, x + 1) - ls_value(p, x) for x in range(g.n)]
        assert all(a >= b for a, b in zip(slopes, slopes[1:]))

        q = truncate(lazy_step(g, p), 0.001)
        for x in range(g.n + 1):
            assert ls_value(q, x) <= ls_value(p, x) + 1e-9, (trial, x)

        for x in range(1, g.n):
            lhs, rhs = ls_chord(g, p, x)
            assert lhs <= rhs + 1e-9, (trial, x)
    print("criterion 06 PASS — 100 vectors: concavity, step dominance, "
          "and the chord bound all hold")


def test_criterion_07_is_free_matches_the_global_free_sets():
    """Queried on a fresh engine, is_free(u, h) reproduces the free sets of
    the reference global run, derived from its anchors, for every vertex
    and phase."""
    graphs = [
        ("bridge", bridge_graph()), ("grid-4x4", gen_grid(4, 4)),
        ("tri-3x3", gen_triangulated_grid(3, 3)),
        ("tree-20", gen_random_tree(20, 3, 4)), ("cycle-8", cycle_graph(8)),
    ]
    checked = 0
    for name, g in graphs:
        for seed in (0, 1):
            reference = PartitionOracle(g, SeedContext(seed, desk_params(g.d)))
            _, free_sets = global_free_sets(reference)
            fresh = PartitionOracle(g, SeedContext(seed, desk_params(g.d)))
            for h, free in sorted(free_sets.items()):
                for u in range(g.n):
                    assert fresh.is_free(u, h) == (u in free), (name, seed, u, h)
                    checked += 1
    print(f"criterion 07 PASS — {checked} (u, h) queries matched the "
          f"global free sets")


def test_criterion_08_grid50_cut_quality_and_golden_regression():
    """The calibrated 50x50 run reproduces its golden partition exactly and
    keeps the cut fraction at or below the 0.25 target."""
    started = time.perf_counter()
    config = load_json(CONFIG_DIR / "partition_grid50.json")
    golden = load_json(DATA_DIR / "grid50_golden.json")
    spec = config["graph"]
    g = gen_grid(spec["rows"], spec["cols"])
    params = derive_params(
        config["eps"], g.d, config["mode"], oracle_overrides(config["overrides"])
    )
    engine = PartitionOracle(g, SeedContext(config["seed"], params))
    assert list(engine.thresholds().k) == golden["thresholds"]
    report = measure_cut(g, engine.global_partition())
    assert report.cut_edges == golden["cut_edges"]
    assert report.cut_fraction <= golden["cut_fraction_target"]
    assert round(report.singleton_fraction * g.n) == golden["singleton_vertices"]
    assert report.singleton_fraction <= 0.5
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    print(f"criterion 08 PASS — cut {report.cut_edges} edges "
          f"(fraction {report.cut_fraction:.4f} <= 0.25), "
          f"singletons {report.singleton_fraction:.4f}, {elapsed:.1f}s")


def test_criterion_09_matching_estimates_land_within_a_tenth_of_n():
    """Sampled matching estimates hit the known totals within 0.1 n on at
    least 9 of 10 master seeds, for both benchmark graphs."""
    config = po.EstimatorConfig.load(str(CONFIG_DIR / "estimator.json"))
    started = time.perf_counter()

    path = path_graph(2000)
    path_hits = sum(
        1 for seed in range(10)
        if abs(run_estimator(path, EPS, maximum_matching, 800,
                             master_seed=seed, config=config)["estimate"] - 1000) <= 200
    )

    grid = gen_grid(20, 20)
    exact = maximum_matching(range(grid.n), grid.edges(), cap=grid.n)
    assert exact == 200
    grid_hits = sum(
        1 for seed in range(10)
        if abs(run_estimator(grid, EPS, maximum_matching, 1000,
                             master_seed=seed, config=config)["estimate"] - exact) <= 40
    )

    elapsed = time.perf_counter() - started
    assert path_hits >= 9, f"path-2000: only {path_hits}/10 within 0.1n"
    assert grid_hits >= 9, f"grid-20x20: only {grid_hits}/10 within 0.1n"
    print(f"criterion 09 PASS — path {path_hits}/10, grid {grid_hits}/10 "
          f"within 0.1 n, {elapsed:.1f}s")


def test_criterion_10_tester_separates_grid_from_triangulated_grid():
    """With the shipped tester config, the bipartiteness tester accepts the
    30x30 grid and rejects the triangulated 30x30 grid on >= 9/10 seeds."""
    config = po.TesterConfig.load(str(CONFIG_DIR / "tester.json"))
    started = time.perf_counter()
    grid = gen_grid(30, 30)
    tri = gen_triangulated_grid(30, 30)
    accepts = sum(
        1 for seed in range(10)
        if run_tester(grid, EPS, po.DECIDERS["bipartite"],
                      master_seed=seed, config=config)["verdict"] == "accept"
    )
    rejects = sum(
        1 for seed in range(10)
        if run_tester(tri, EPS, po.DECIDERS["bipartite"],
                      master_seed=seed, config=config)["verdict"] != "accept"
    )
    elapsed = time.perf_counter() - started
    assert accepts >= 9, f"grid-30x30: only {accepts}/10 accepted"
    assert rejects >= 9, f"tri-30x30: only {rejects}/10 rejected"
    print(f"criterion 10 PASS — grid accepted {accepts}/10, tri-grid "
          f"rejected {rejects}/10, {elapsed:.1f}s")


def test_criterion_11_cli_reruns_are_byte_identical(tmp_path):
    """The partition and query commands emit byte-identical JSON when rerun
    with the same inputs."""
    graph_path = tmp_path / "bridge.graph"
    po.save_graph(bridge_graph(), graph_path)
    settings = []
    for key, value in DESK_OVERRIDES.items():
        if key == "k_candidates":
            settings += ["--set", "k_max=50"]
        else:
            settings += ["--set", f"{key}={value}"]

    for argv_base, name in [
        (["partition", "--graph", str(graph_path), "--seed", "0"], "partition"),
        (["query", "--graph", str(graph_path), "--seed", "0", "3"], "query"),
    ]:
        a, b = tmp_path / f"{name}-a.json", tmp_path / f"{name}-b.json"
        assert cli_main(argv_base + settings + ["--out", str(a)]) == 0
        assert cli_main(argv_base + settings + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        json.loads(a.read_text())
    print("criterion 11 PASS — partition and query reruns byte-identical")
