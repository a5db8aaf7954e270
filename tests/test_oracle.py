"""Clustering, incoming balls, threshold search, and the query pipeline."""
from __future__ import annotations

from fractions import Fraction

import pytest

from partition_oracle import (
    BoundedDegreeGraph,
    Partition,
    PartitionOracle,
    PhaseThresholds,
    cluster,
    SeedContext,
    conductance,
    derive_params,
    gen_grid,
    truncated_diffusion,
)
from partition_oracle.applications import oracle_overrides
from partition_oracle.params import OracleConfigError, check_desk_scale

from conftest import (
    CONFIG_DIR,
    DATA_DIR,
    bridge_graph,
    brute_incoming_ball,
    cycle_graph,
    desk_context,
    desk_params,
    load_json,
    piece_map,
)


# ----------------------------------------------------------------- thresholds

def test_phase_thresholds_validation():
    PhaseThresholds((0,))
    PhaseThresholds((3, 1, 0))
    with pytest.raises(ValueError, match="at least one phase"):
        PhaseThresholds(())
    with pytest.raises(ValueError, match="final-phase threshold"):
        PhaseThresholds((3, 1))
    with pytest.raises(ValueError, match="nonnegative"):
        PhaseThresholds((-1, 0))
    for k in ((2.5, 3, 0), (True, 3, 0), (3, 1, 0.0), ("3", 0)):
        with pytest.raises(ValueError, match="size thresholds must be integers"):
            PhaseThresholds(k)


def test_for_phase_is_one_indexed():
    th = PhaseThresholds((5, 2, 0))
    assert th.for_phase(1) == 5
    assert th.for_phase(3) == 0
    with pytest.raises(ValueError):
        th.for_phase(0)
    with pytest.raises(ValueError):
        th.for_phase(4)


# ------------------------------------------------------------------ partition

def test_partition_pieces_split_disconnected_anchor_classes():
    g = BoundedDegreeGraph.from_edges(4, 2, [(0, 1), (2, 3)])
    part = Partition(anchors=(0, 0, 0, 0))
    assert part.pieces(g) == [[0, 1], [2, 3]]
    pieces = piece_map(g, part)
    assert pieces[1] == (0, 1)
    assert pieces[3] == (2, 3)


def test_partition_pieces_are_ordered_by_smallest_member():
    g = BoundedDegreeGraph.from_edges(6, 2, [(i, i + 1) for i in range(5)])
    part = Partition(anchors=(9, 9, 5, 5, 5, 9))
    assert part.pieces(g) == [[0, 1], [2, 3, 4], [5]]


# -------------------------------------------------------------------- cluster

@pytest.mark.parametrize(
    "phi,expected,phi_value",
    [
        (0.2, (0, 1, 2, 3, 4, 7), Fraction(1, 6)),
        (0.15, (0, 1, 2, 3, 4), Fraction(1, 9)),
        (0.1, (0, 1, 2, 3), Fraction(1, 24)),
    ],
)
def test_cluster_tightens_with_the_conductance_target(phi, expected, phi_value):
    """The downward size scan accepts the first low-conductance level set,
    so shrinking the target peels the cluster back to the 4-cycle."""
    g = bridge_graph()
    params = desk_params(g.d, phi=phi)
    got = cluster(g, params, 0, 12, 3)
    assert got == expected
    assert conductance(g, got) == phi_value


def test_cluster_members_come_from_the_support():
    g = bridge_graph()
    params = desk_params(g.d)
    c = cluster(g, params, 0, 12, 3)
    support = set(truncated_diffusion(g, 0, 12, params.rho))
    assert set(c) <= support | {0}
    assert 0 in c


def test_cluster_size_window_and_fallback():
    g = bridge_graph()
    params = desk_params(g.d)
    assert cluster(g, params, 0, 12, 0) == (0,)
    # k = 8 demands size in [8, 16] but pieces must stay below n = 8
    assert cluster(g, params, 0, 12, 8) == (0,)


def test_cluster_at_t_zero_only_sees_the_start_vertex():
    g = bridge_graph()
    params = desk_params(g.d)
    # supp = {v}: a singleton has conductance 3/6 = 1/2 > 0.2, so no
    # candidate passes and the scan falls back to the singleton anyway
    assert cluster(g, params, 0, 0, 1) == (0,)


def test_cluster_validates_inputs():
    g = bridge_graph()
    params = desk_params(g.d)
    with pytest.raises(ValueError):
        cluster(g, params, 0, -1, 3)
    with pytest.raises(ValueError):
        cluster(g, params, 0, params.ell + 1, 3)
    with pytest.raises(ValueError):
        cluster(g, params, 0, 3, -2)


def test_engine_cluster_at_matches_module_cluster():
    """The engine's cluster of each vertex is the module cluster at its t_s."""
    g = bridge_graph()
    ctx = desk_context(g)
    engine = PartitionOracle(g, ctx)
    params = ctx.params
    for v in range(g.n):
        t_v = ctx.walk_len_of(v)
        for k in (0, 1, 2, 3, 4):
            assert engine.cluster_at(v, k) == cluster(g, params, v, t_v, k), (v, k)


# -------------------------------------------------------------- incoming ball

def test_find_ib_on_an_edge():
    g = BoundedDegreeGraph.from_edges(2, 2, [(0, 1)])
    engine = PartitionOracle(g, SeedContext(0, desk_params(g.d)))
    assert engine.find_ib(0) == (0, 1)
    assert engine.find_ib(1) == (0, 1)


def test_find_ib_contains_the_center():
    g = bridge_graph()
    engine = PartitionOracle(g, SeedContext(0, desk_params(g.d)))
    for v in range(g.n):
        assert v in engine.find_ib(v)


def test_find_ib_matches_brute_enumeration_on_bridge():
    g = bridge_graph()
    params = desk_params(g.d)
    engine = PartitionOracle(g, SeedContext(0, params))
    for v in range(g.n):
        assert engine.find_ib(v) == brute_incoming_ball(g, params, v)


def test_find_ib_ignores_the_master_seed(bridge):
    ctx = desk_context(bridge)
    engine = PartitionOracle(bridge, ctx)
    seed_zero = PartitionOracle(bridge, SeedContext(0, ctx.params))
    for v in range(bridge.n):
        assert engine.find_ib(v) == seed_zero.find_ib(v)


# --------------------------------------------------------------------- findr

def test_findr_on_bridge_is_deterministic_and_pinned():
    g = bridge_graph()
    th = PartitionOracle(g, desk_context(g, 42)).thresholds()
    assert th.k == (3, 0, 0, 0, 0, 0, 0, 0, 0, 0)
    again = PartitionOracle(g, desk_context(g, 42)).thresholds()
    assert again.k == th.k


def test_findr_final_phase_is_always_zero():
    g = bridge_graph()
    for seed in range(4):
        th = PartitionOracle(g, desk_context(g, seed)).thresholds()
        assert th.k[-1] == 0
        assert len(th.k) == 10
        assert all(k >= 0 for k in th.k)


def test_phase_sample_is_reproducible():
    g = bridge_graph()
    engine = PartitionOracle(g, desk_context(g))
    sample = engine.phase_sample(1)
    assert len(sample) == 200
    assert all(0 <= v < g.n for v in sample)
    assert sample == PartitionOracle(g, desk_context(g)).phase_sample(1)


# ------------------------------------------------------------------- is_free

def test_everything_is_free_at_phase_one(bridge):
    engine = PartitionOracle(bridge, desk_context(bridge))
    assert all(engine.is_free(u, 1) for u in range(bridge.n))


def test_is_free_matches_global_free_sets(bridge):
    for seed in (0, 3, 42):
        ctx = desk_context(bridge, seed)
        engine = PartitionOracle(bridge, ctx)
        _, free_sets = engine.global_partition_with_free_sets()
        for h, free in sorted(free_sets.items()):
            for u in range(bridge.n):
                assert engine.is_free(u, h) == (u in free), (seed, u, h)


def test_free_sets_shrink_with_the_phase(bridge):
    engine = PartitionOracle(bridge, desk_context(bridge))
    _, free_sets = engine.global_partition_with_free_sets()
    assert free_sets[1] == frozenset(range(bridge.n))
    for h in range(2, 11):
        assert free_sets[h] <= free_sets[h - 1]


def test_is_free_validates_phase(bridge):
    ctx = desk_context(bridge)
    engine = PartitionOracle(bridge, ctx)
    with pytest.raises(ValueError):
        engine.is_free(0, 0)
    with pytest.raises(ValueError):
        engine.is_free(0, 11)
    engine.thresholds()
    assert engine.is_free(0, 1)


# --------------------------------------------------- anchors and local pieces

def test_find_anchor_returns_the_minimal_capturing_seed(bridge):
    ctx = desk_context(bridge)
    engine = PartitionOracle(bridge, ctx)
    for v in range(bridge.n):
        anchor = engine.find_anchor(v)
        capturers = [
            s for s in engine.find_ib(v) if v in engine.seed_cluster(s)
        ]
        assert anchor == min(capturers, key=ctx.order_key)
        assert v in engine.seed_cluster(anchor)


def test_local_queries_agree_with_the_global_partition(bridge):
    for seed in (0, 1, 2, 42):
        local = PartitionOracle(bridge, desk_context(bridge, seed))
        global_engine = PartitionOracle(bridge, desk_context(bridge, seed))
        reference = global_engine.global_partition()
        pieces = piece_map(bridge, reference)
        for v in range(bridge.n):
            assert local.find_partition(v) == pieces[v]
            assert local.find_anchor(v) == reference.anchors[v]
        assert local.thresholds() == global_engine.thresholds()


def test_bridge_partition_with_desk_seed_is_pinned(bridge):
    engine = PartitionOracle(bridge, desk_context(bridge, 42))
    part = engine.global_partition()
    assert part.pieces(bridge) == [[0, 1, 2, 3, 4, 5], [6, 7]]


def test_zero_thresholds_give_the_identity_partition(bridge):
    ctx = desk_context(bridge)
    engine = PartitionOracle(bridge, ctx, PhaseThresholds((0,) * 10))
    part = engine.global_partition()
    assert part.anchors == tuple(range(bridge.n))
    assert all(engine.find_anchor(v) == v for v in range(bridge.n))
    assert all(engine.find_partition(v) == (v,) for v in range(bridge.n))


def test_partition_pieces_cover_every_vertex_once(bridge):
    for seed in range(4):
        part = PartitionOracle(bridge, desk_context(bridge, seed)).global_partition()
        flat = [v for piece in part.pieces(bridge) for v in piece]
        assert sorted(flat) == list(range(bridge.n))


def test_engine_given_thresholds_matches_engine_results(bridge):
    ctx = desk_context(bridge)
    engine = PartitionOracle(bridge, ctx)
    th = engine.thresholds()
    assert PartitionOracle(bridge, ctx, th).find_anchor(2) == engine.find_anchor(2)
    assert PartitionOracle(bridge, ctx, th).find_partition(2) == engine.find_partition(2)
    got = PartitionOracle(bridge, desk_context(bridge)).global_partition()
    assert got.anchors == engine.global_partition().anchors


# ----------------------------------------------------------------- desk scale

def test_desk_scale_guard_rejects_formula_walk_lengths():
    from partition_oracle import derive_params

    paper = derive_params(0.5, 2, "paper")
    with pytest.raises(OracleConfigError, match="beyond desk scale"):
        check_desk_scale(paper)
    check_desk_scale(desk_params(3))


def test_engine_refuses_formula_parameters_when_built(bridge):
    """Given thresholds skip findr, so the engine itself checks ell and
    h_bar: the global pass would otherwise allocate one list per phase."""
    paper = derive_params(0.5, 2, "paper")
    with pytest.raises(OracleConfigError, match="beyond desk scale"):
        PartitionOracle(bridge, SeedContext(0, paper), PhaseThresholds((0,)))
    with pytest.raises(OracleConfigError, match="h_bar="):
        PartitionOracle(bridge, desk_context(bridge, h_bar=10**7), PhaseThresholds((0,)))


@pytest.mark.parametrize("phases", [3, 13])
def test_engine_refuses_thresholds_that_do_not_cover_h_bar(bridge, phases):
    with pytest.raises(ValueError, match="thresholds cover"):
        PartitionOracle(bridge, desk_context(bridge), PhaseThresholds((0,) * phases))


def test_engine_given_thresholds_refuses_findr_samples_beyond_desk_scale(bridge):
    ctx = desk_context(bridge, sample_count=10**8)
    with pytest.raises(OracleConfigError, match="sample_count="):
        PartitionOracle(bridge, ctx, PhaseThresholds((0,) * 10))


# ------------------------------------------------------- shared step tables

def test_engines_on_one_graph_walk_in_turn_like_separate_runs():
    """Engines on one graph share its step scratch (two double-mode engines
    with different bounds, one exact); advancing their walks in turn gives
    each the vectors and reach sets of a run on a graph of its own."""
    g = gen_grid(6, 6)
    contexts = [
        desk_context(g),
        desk_context(g, rho=0.02),
        desk_context(g, arithmetic="exact"),
    ]
    ell = contexts[0].params.ell
    shared = [PartitionOracle(g, ctx) for ctx in contexts]
    in_turn: dict = {}
    for t in range(1, ell):
        for s in range(g.n):
            for i, engine in enumerate(shared):
                in_turn[i, s, t] = list(engine._walk_to(s, t)[1].items())
    for i, ctx in enumerate(contexts):
        alone = PartitionOracle(gen_grid(6, 6), ctx)
        for s in range(g.n):
            for t in range(1, ell):
                assert list(alone._walk_to(s, t)[1].items()) == in_turn[i, s, t]
            assert alone.trajectory_masks(s) == shared[i].trajectory_masks(s)


def golden_grid50() -> tuple[BoundedDegreeGraph, SeedContext, PhaseThresholds]:
    """The grid-50 config's graph and seed context, and its golden thresholds."""
    config = load_json(CONFIG_DIR / "partition_grid50.json")
    golden = load_json(DATA_DIR / "grid50_golden.json")
    g = gen_grid(50, 50)
    params = derive_params(
        config["eps"], g.d, config["mode"], oracle_overrides(config["overrides"])
    )
    return g, SeedContext(config["seed"], params), PhaseThresholds(tuple(golden["thresholds"]))


def test_a_cold_query_reuses_the_graph_step_tables():
    """A fresh engine on a graph with built tables builds nothing of size n:
    it takes the graph's tables, and its own caches stay local."""
    g, ctx, thresholds = golden_grid50()
    first = PartitionOracle(g, ctx, thresholds)
    first.find_partition(0)
    derived = dict(g.derived)
    cold = PartitionOracle(g, ctx, thresholds)
    assert cold._diffuser.tables is first._diffuser.tables
    cold.find_partition(1275)
    assert g.derived.keys() == derived.keys()
    assert all(g.derived[key] is table for key, table in derived.items())
    sizes = {
        name: len(value)
        for name, value in vars(cold).items()
        if isinstance(value, (dict, list, tuple, set, frozenset))
    }
    assert max(sizes.values()) < g.n // 4, sizes


def test_a_cold_query_walks_only_what_its_piece_needs():
    """A cold query asks for the anchor of no neighbour that the anchor's
    cluster, or an earlier seed's cluster, rules out.  Without that pruning
    this query walks 249 sources and opens 42 capture scans."""
    g, ctx, thresholds = golden_grid50()
    cold = PartitionOracle(g, ctx, thresholds)
    piece = cold.find_partition(1275)
    assert len(cold._walks) <= 204
    assert len(cold._capture) <= 25
    reference = PartitionOracle(g, ctx, thresholds).global_partition()
    assert piece == piece_map(g, reference)[1275]
