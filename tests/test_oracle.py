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
    conductance,
    find_ib,
    truncated_diffusion,
)
from partition_oracle.oracle import OracleConfigError, ensure_desk_scale

from conftest import (
    bridge_graph,
    brute_incoming_ball,
    cycle_graph,
    desk_context,
    desk_params,
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
    g = bridge_graph()
    ctx = desk_context(g)
    engine = PartitionOracle(g, ctx)
    params = ctx.params
    for t, k in [(12, 3), (5, 2), (20, 1)]:
        assert engine.cluster_at(0, t, k) == cluster(g, params, 0, t, k)


# -------------------------------------------------------------- incoming ball

def test_find_ib_on_an_edge():
    g = BoundedDegreeGraph.from_edges(2, 2, [(0, 1)])
    params = desk_params(g.d)
    assert find_ib(g, params, 0) == (0, 1)
    assert find_ib(g, params, 1) == (0, 1)


def test_find_ib_contains_the_center():
    g = bridge_graph()
    params = desk_params(g.d)
    for v in range(g.n):
        assert v in find_ib(g, params, v)


def test_find_ib_matches_brute_enumeration_on_bridge():
    g = bridge_graph()
    params = desk_params(g.d)
    for v in range(g.n):
        assert find_ib(g, params, v) == brute_incoming_ball(g, params, v)


def test_engine_find_ib_matches_module_find_ib(bridge):
    ctx = desk_context(bridge)
    engine = PartitionOracle(bridge, ctx)
    for v in range(bridge.n):
        assert engine.find_ib(v) == find_ib(bridge, ctx.params, v)


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
        ensure_desk_scale(paper)
    ensure_desk_scale(desk_params(3))
