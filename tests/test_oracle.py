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
    measure_cut,
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
    global_free_sets,
    load_json,
    piece_map,
    reference_global_partition,
)


# ----------------------------------------------------------------- thresholds

def test_phase_thresholds_validation():
    PhaseThresholds((0,))
    PhaseThresholds((3, 1, 0))
    with pytest.raises(ValueError, match="at least one phase"):
        PhaseThresholds(())
    with pytest.raises(ValueError, match="final-phase threshold"):
        PhaseThresholds((3, 1))
    with pytest.raises(ValueError, match=r"^size threshold must be an integer >= 0, got -1$"):
        PhaseThresholds((-1, 0))
    for k, bad in (((2.5, 3, 0), 2.5), ((True, 3, 0), True), ((3, 1, 0.0), 0.0), (("3", 0), "3")):
        message = rf"^size threshold must be an integer >= 0, got {bad!r}$"
        with pytest.raises(ValueError, match=message):
            PhaseThresholds(k)
    # for_phase(True) answered k_1; for_phase(1.0) died indexing the tuple.
    for h in (True, 1.0, "1"):
        message = rf"^phase must be an integer in \[1, 3\], got {h!r}$"
        with pytest.raises(ValueError, match=message):
            PhaseThresholds((3, 1, 0)).for_phase(h)


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
    # t=True answered the t=1 cluster; t=2.5 died with a bare TypeError.
    for t in (True, 2.5):
        message = rf"^walk length must be an integer in \[0, 20\], got {t}$"
        with pytest.raises(ValueError, match=message):
            cluster(g, params, 0, t, 3)


@pytest.mark.parametrize("k", [True, False, 2.0, -5])
@pytest.mark.parametrize("build", [
    lambda g, ctx, k: PartitionOracle(g, ctx).cluster_at(0, k),
    lambda g, ctx, k: cluster(g, ctx.params, 0, 3, k),
], ids=["cluster_at", "cluster"])
def test_a_bool_non_int_or_negative_size_threshold_is_refused(build, k):
    """True would alias k = 1 and False k = 0; a negative k answered the
    singleton and a float died in the sweep with a bare TypeError."""
    g = bridge_graph()
    with pytest.raises(ValueError, match=rf"^size threshold must be an integer >= 0, got {k}$"):
        build(g, desk_context(g), k)


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


def test_a_cold_anchor_query_searches_only_the_phases_its_scan_reaches(
    bridge, monkeypatch
):
    """The scan of ``v`` meets seeds in phase order and stops at the anchor,
    so it needs k_1..k_p for an anchor of phase p (k_h_bar is 0 without a
    search): a vertex captured in phase 1 runs exactly one search."""
    ctx = desk_context(bridge, 2)
    anchors = PartitionOracle(bridge, ctx).global_partition().anchors
    phases = [ctx.phase_of(a) for a in anchors]
    assert 1 in phases and max(phases) > 2
    last_search = ctx.params.h_bar - 1
    searched = []
    search = PartitionOracle.threshold_search

    def counting_search(self, h, *args, **kwargs):
        searched.append(h)
        return search(self, h, *args, **kwargs)

    monkeypatch.setattr(PartitionOracle, "threshold_search", counting_search)
    for v, p in enumerate(phases):
        searched.clear()
        assert PartitionOracle(bridge, ctx).find_anchor(v) == anchors[v]
        assert searched == list(range(1, min(p, last_search) + 1)), v


# ------------------------------------------------------------------- is_free

def test_everything_is_free_at_phase_one(bridge):
    engine = PartitionOracle(bridge, desk_context(bridge))
    assert all(engine.is_free(u, 1) for u in range(bridge.n))


def test_is_free_matches_global_free_sets(bridge):
    for seed in (0, 3, 42):
        ctx = desk_context(bridge, seed)
        engine = PartitionOracle(bridge, ctx)
        _, free_sets = global_free_sets(engine)
        for h, free in sorted(free_sets.items()):
            for u in range(bridge.n):
                assert engine.is_free(u, h) == (u in free), (seed, u, h)


def test_is_free_validates_phase(bridge):
    ctx = desk_context(bridge)
    engine = PartitionOracle(bridge, ctx)
    with pytest.raises(ValueError):
        engine.is_free(0, 0)
    with pytest.raises(ValueError):
        engine.is_free(0, 11)
    engine.thresholds()
    assert engine.is_free(0, 1)


@pytest.mark.parametrize("h", [True, 2.0, "2"])
def test_is_free_refuses_a_bool_or_non_int_phase(bridge, h):
    """``is_free(u, True)`` answered as phase 1."""
    engine = PartitionOracle(bridge, desk_context(bridge))
    with pytest.raises(ValueError, match=rf"^phase must be an integer in \[1, 10\], got {h!r}$"):
        engine.is_free(0, h)


@pytest.mark.parametrize("v", [True, False, -1, 8, 2 ** 64])
@pytest.mark.parametrize("query", [
    lambda engine, v: engine.find_anchor(v),
    lambda engine, v: engine.find_partition(v),
    lambda engine, v: engine.is_free(v, 2),
    lambda engine, v: engine.seed_cluster(v),
    lambda engine, v: engine.vec_at(v),
    lambda engine, v: engine.cluster_at(v, 3),
], ids=["find_anchor", "find_partition", "is_free", "seed_cluster", "vec_at", "cluster_at"])
def test_engine_vertex_ids_outside_the_graph_are_rejected(bridge, query, v):
    """A bool would alias vertex 0 or 1, and an id outside [0, n) would
    answer for a vertex that is not there or fail deep in a walk."""
    engine = PartitionOracle(bridge, desk_context(bridge))
    with pytest.raises(ValueError, match=rf"^vertex id must be an integer in \[0, 7\], got {v}$"):
        query(engine, v)


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
    with different bounds, one exact); walking each source in turn on all
    three, to t_s and to ell, gives each engine the vectors and reach sets
    of a run on a graph of its own."""
    g = gen_grid(6, 6)
    contexts = [
        desk_context(g),
        desk_context(g, rho=0.02),
        desk_context(g, arithmetic="exact"),
    ]
    shared = [PartitionOracle(g, ctx) for ctx in contexts]
    in_turn: dict = {}
    for s in range(g.n):
        for i, engine in enumerate(shared):
            in_turn[i, s] = list(engine.vec_at(s).items())
            in_turn[i, s, "reach"] = set(engine.trajectory_masks(s))
    for i, ctx in enumerate(contexts):
        alone = PartitionOracle(gen_grid(6, 6), ctx)
        for s in range(g.n):
            assert list(alone.vec_at(s).items()) == in_turn[i, s], (i, s)
            assert alone.trajectory_masks(s) == in_turn[i, s, "reach"], (i, s)


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
    """A cold query walks only the seeds its own capture scan passes and
    the earlier seeds within reach of its anchor's cluster, and opens no
    capture scan for another vertex.  Asking each neighbour for its anchor
    instead walks 36 sources and opens 42 capture scans."""
    g, ctx, thresholds = golden_grid50()
    cold = PartitionOracle(g, ctx, thresholds)
    piece = cold.find_partition(1275)
    assert len(cold._scans) <= 11  # one walk each
    assert len(cold._capture) <= 25
    reference = PartitionOracle(g, ctx, thresholds).global_partition()
    assert piece == piece_map(g, reference)[1275]


def test_a_cold_query_opens_one_capture_scan():
    g, ctx, thresholds = golden_grid50()
    cold = PartitionOracle(g, ctx, thresholds)
    cold.find_partition(1275)
    assert set(cold._capture) == {1275}
    assert len(cold._scans) <= 11


def test_every_cold_query_opens_one_capture_scan_and_walks_at_most_32_sources():
    """Over every 7th grid-50 vertex, each cold query opens its own capture
    scan only, walks at most 32 sources, and returns the global piece."""
    g, ctx, thresholds = golden_grid50()
    pieces = piece_map(g, PartitionOracle(g, ctx, thresholds).global_partition())
    for v in range(0, g.n, 7):
        cold = PartitionOracle(g, ctx, thresholds)
        assert cold.find_partition(v) == pieces[v], v
        assert set(cold._capture) == {v}, v
        assert len(cold._scans) <= 32, v


def count_whole_graph_builds(monkeypatch) -> list:
    """Record each engine that builds every candidate list at once."""
    builds = []
    build = PartitionOracle._all_candidates

    def counted(self):
        builds.append(self)
        return build(self)

    monkeypatch.setattr(PartitionOracle, "_all_candidates", counted)
    return builds


def test_a_cold_query_never_builds_the_whole_graph_lists(monkeypatch):
    """A cold query opens a few dozen capture scans, far from a quarter of
    the vertices, so each searches its own candidate list."""
    builds = count_whole_graph_builds(monkeypatch)
    g, ctx, thresholds = golden_grid50()
    cold = PartitionOracle(g, ctx, thresholds)
    cold.find_partition(1275)
    assert builds == [] and cold._lists is None


def test_a_local_sweep_builds_the_whole_graph_lists_once(monkeypatch):
    """Asking every vertex for its anchor on a fresh engine, findr
    included, builds every candidate list once, when scans are open for a
    quarter of the vertices.  Later scans share the table's lists, no scan
    changes them, and the answers equal the global pass."""
    builds = count_whole_graph_builds(monkeypatch)
    g, ctx, _ = golden_grid50()
    sweep = PartitionOracle(g, ctx)
    anchors = tuple(sweep.find_anchor(v) for v in range(g.n))
    assert builds == [sweep]
    reference = PartitionOracle(g, ctx)
    assert anchors == reference.global_partition().anchors
    assert sweep.thresholds() == reference.thresholds()
    assert sweep._lists == reference._all_candidates()
    searched = [u for u, scan in sweep._capture.items() if scan[0] is not sweep._lists[u]]
    assert len(sweep._capture) == g.n and len(searched) == -(-g.n // 4)


def test_a_cold_query_builds_no_incoming_ball(monkeypatch):
    """Capture scans walk candidate lists, so a cold piece query neither
    searches an incoming ball nor walks a source on to ell."""
    g, ctx, thresholds = golden_grid50()
    calls = {"find_ib": 0, "trajectory_masks": 0}
    for name in calls:
        method = getattr(PartitionOracle, name)

        def counted(self, v, name=name, method=method):
            calls[name] += 1
            return method(self, v)

        monkeypatch.setattr(PartitionOracle, name, counted)
    PartitionOracle(g, ctx, thresholds).find_partition(1275)
    assert calls == {"find_ib": 0, "trajectory_masks": 0}


def test_the_global_pass_walks_only_the_seeds_with_a_free_vertex_within_reach():
    """On the golden grid-50, a fresh engine's global pass, findr included,
    walks at most 600 sources, where the pass that walks every seed walks
    1,310.  Its thresholds are the golden ones, its anchors those of that
    pass, and its cut the golden cut."""
    g, ctx, thresholds = golden_grid50()
    golden = load_json(DATA_DIR / "grid50_golden.json")
    fast = PartitionOracle(g, ctx)
    partition = fast.global_partition()
    assert len(fast._scans) <= 600  # one walk each
    assert fast.thresholds() == thresholds
    assert partition == reference_global_partition(PartitionOracle(g, ctx))
    report = measure_cut(g, partition)
    assert report.cut_edges == golden["cut_edges"]
    assert round(report.singleton_fraction * g.n) == golden["singleton_vertices"]
