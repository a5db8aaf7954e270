"""Property tests: the global pass and the local oracle on random small graphs.

Graphs are drawn from bounded-degree families: random trees, grids with
random edge deletions, two cycles joined by a bridge, and triangulated
grids.  Each property compares two engines that share nothing but the
graph, the parameters and the master seed, or a fast path with its
reference definition.
"""
from __future__ import annotations

import hashlib
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from partition_oracle import (
    BoundedDegreeGraph,
    PartitionOracle,
    PhaseThresholds,
    SeedContext,
    gen_grid,
    gen_random_tree,
    gen_triangulated_grid,
    geometric_from_uniform,
    lazy_step,
    truncate,
    truncated_diffusion,
)
from partition_oracle.diffusion import Diffuser, exact_number, support_radius
from partition_oracle.seeds import _FLOAT_DELTA_FLOOR

from conftest import (
    brute_incoming_ball,
    cycle_graph,
    desk_params,
    distances,
    free_within_reach,
    global_free_sets,
    path_graph,
    piece_map,
    record_witness_skips,
    reference_global_partition,
    reference_walk,
)

# Each example runs the local findr on a graph of at most 36 vertices.
# Shrinking is off: it reruns findr hundreds of times and a failure would
# take minutes to report; the unshrunk falsifying example is printed.
PROPERTY_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    derandomize=True,
    database=None,
    phases=(Phase.explicit, Phase.generate),
)


@st.composite
def trees(draw) -> BoundedDegreeGraph:
    n = draw(st.integers(1, 30))
    d = draw(st.integers(2, 4))
    return gen_random_tree(n, d, draw(st.integers(0, 2 ** 32)))


@st.composite
def grids_with_deletions(draw) -> BoundedDegreeGraph:
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(2, 6))
    edges = gen_grid(rows, cols).edges()
    keep = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    kept = [e for e, k in zip(edges, keep) if k]
    return BoundedDegreeGraph.from_edges(rows * cols, 4, kept)


@st.composite
def bridges(draw) -> BoundedDegreeGraph:
    """Cycles on 0..a-1 and a..a+b-1, joined by the edge (a-1, a)."""
    a, b = draw(st.integers(3, 8)), draw(st.integers(3, 8))
    edges = [(i, i + 1) for i in range(a - 1)] + [(0, a - 1)]
    edges += [(a + i, a + i + 1) for i in range(b - 1)] + [(a, a + b - 1)]
    edges.append((a - 1, a))
    return BoundedDegreeGraph.from_edges(a + b, 3, edges)


@st.composite
def caterpillars(draw) -> BoundedDegreeGraph:
    """A path with pendant leaves: a walk from a spine vertex soon puts more
    mass on its leaves than on itself, so the seed falls outside the top of
    its own sweep order."""
    d = draw(st.integers(3, 4))
    legs = draw(st.lists(st.integers(0, d - 2), min_size=1, max_size=8))
    spine = len(legs)
    edges = [(i, i + 1) for i in range(spine - 1)]
    n = spine
    for i, count in enumerate(legs):
        edges += [(i, n + j) for j in range(count)]
        n += count
    return BoundedDegreeGraph.from_edges(n, d, edges)


graphs = st.one_of(trees(), grids_with_deletions(), bridges())
master_seeds = st.integers(0, 2 ** 64 - 1)


def engine(g: BoundedDegreeGraph, seed: int) -> PartitionOracle:
    return PartitionOracle(g, SeedContext(seed, desk_params(g.d)))


@PROPERTY_SETTINGS
@given(graphs, master_seeds)
def test_global_pass_matches_the_local_oracle(g, seed):
    """The global findr chooses the local findr's thresholds, and the fused
    pass assigns every vertex the anchor a separate local engine finds."""
    reference = engine(g, seed)
    partition = reference.global_partition()
    local = engine(g, seed)
    assert [local.find_anchor(v) for v in range(g.n)] == list(partition.anchors)
    assert local.thresholds() == reference.thresholds()


@PROPERTY_SETTINGS
@given(graphs, master_seeds)
def test_global_free_sets_match_is_free(g, seed):
    _, free_sets = global_free_sets(engine(g, seed))
    fresh = engine(g, seed)
    for h, free in sorted(free_sets.items()):
        assert {u for u in range(g.n) if fresh.is_free(u, h)} == free, h


@PROPERTY_SETTINGS
@given(graphs, master_seeds, st.data())
def test_capture_scan_answers_in_any_order(g, seed, data):
    """One capture scan per vertex serves ``is_free`` and ``find_anchor``
    asked in any order: anchors before free tests, and phases descending
    as well as ascending.  The answers match a separate global pass.  The
    local engine is given the thresholds, so no findr runs ahead of the
    drawn order."""
    reference = engine(g, seed)
    partition, free_sets = global_free_sets(reference)
    phases = sorted(free_sets)
    queries = [("anchor", v, None) for v in range(g.n)]
    queries += [("free", u, h) for u in range(g.n) for h in phases]
    # Anchors first and phases descending, then shuffled by the draw.
    queries.sort(key=lambda q: (q[0] != "anchor", -(q[2] or 0)))
    head = data.draw(st.integers(0, len(queries)))
    queries = queries[:head] + data.draw(st.permutations(queries[head:]))
    local = PartitionOracle(g, reference.ctx, reference.thresholds())
    for kind, u, h in queries:
        if kind == "anchor":
            assert local.find_anchor(u) == partition.anchors[u], u
        else:
            assert local.is_free(u, h) == (u in free_sets[h]), (u, h)


@PROPERTY_SETTINGS
@given(graphs, master_seeds, st.data())
def test_a_fresh_engine_chooses_thresholds_on_first_use_in_any_order(g, seed, data):
    """An engine with no thresholds answers free tests, anchors and pieces
    in a drawn order, choosing each phase's threshold when a query first
    needs it; every answer, and the thresholds it ends with, match a
    separate global pass."""
    reference = engine(g, seed)
    partition, free_sets = global_free_sets(reference)
    pieces = piece_map(g, partition)
    queries = [(kind, v, None) for kind in ("anchor", "piece") for v in range(g.n)]
    queries += [("free", u, h) for u in range(g.n) for h in sorted(free_sets)]
    local = engine(g, seed)
    for kind, u, h in data.draw(st.permutations(queries)):
        if kind == "anchor":
            assert local.find_anchor(u) == partition.anchors[u], u
        elif kind == "piece":
            assert local.find_partition(u) == pieces[u], u
        else:
            assert local.is_free(u, h) == (u in free_sets[h]), (u, h)
    assert local.thresholds() == reference.thresholds()


@PROPERTY_SETTINGS
@given(graphs, master_seeds)
def test_a_cold_piece_query_opens_scans_only_inside_the_anchor_cluster(g, seed):
    """A fresh engine given the thresholds returns each vertex's piece of the
    global partition, and opens a capture scan only for the vertex and for
    members of its anchor's cluster: the piece search rules out every other
    neighbour without building its incoming ball."""
    reference = engine(g, seed)
    partition = reference.global_partition()
    pieces = piece_map(g, partition)
    for v in range(g.n):
        local = PartitionOracle(g, reference.ctx, reference.thresholds())
        assert local.find_partition(v) == pieces[v], v
        cluster = reference.seed_cluster(partition.anchors[v])
        assert set(local._capture) <= {v, *cluster}, v


def count_cluster_searches(engine: PartitionOracle) -> list[int]:
    """Count this engine's ``_seeds_near`` searches and candidate-list
    searches, in a live ``[searches, lists]``; every search that builds no
    list is a piece search."""
    counts = [0, 0]
    near, candidates = engine._seeds_near, engine._candidates

    def counted_near(sources, h_end):
        counts[0] += 1
        return near(sources, h_end)

    def counted_candidates(u):
        counts[1] += 1
        return candidates(u)

    engine._seeds_near, engine._candidates = counted_near, counted_candidates
    return counts


def assert_cold_queries_match(g: BoundedDegreeGraph, reference: PartitionOracle) -> None:
    """A fresh engine per vertex, given the reference's thresholds, returns
    the vertex's piece of the reference's global partition after opening
    one capture scan, the vertex's own, and one piece search."""
    pieces = piece_map(g, reference.global_partition())
    for v in range(g.n):
        local = PartitionOracle(g, reference.ctx, reference.thresholds())
        searches = count_cluster_searches(local)
        assert local.find_partition(v) == pieces[v], v
        assert set(local._capture) == {v}, v
        assert searches[0] - searches[1] == 1, v


@PROPERTY_SETTINGS
@given(graphs, master_seeds)
def test_a_cold_piece_query_opens_one_capture_scan(g, seed):
    assert_cold_queries_match(g, engine(g, seed))


@PROPERTY_SETTINGS
@given(grids_with_deletions(), master_seeds)
def test_cold_piece_queries_in_exact_arithmetic_match_the_global_pass(g, seed):
    """The same in exact arithmetic, on grids, where the two modes also
    agree with each other."""
    exact = PartitionOracle(g, SeedContext(seed, desk_params(g.d, arithmetic="exact")))
    assert_cold_queries_match(g, exact)
    assert piece_map(g, exact.global_partition()) == piece_map(
        g, engine(g, seed).global_partition()
    )


@PROPERTY_SETTINGS
@given(graphs, master_seeds, st.data())
def test_a_warm_engine_searches_each_piece_once(g, seed, data):
    """One engine asked for every vertex's piece, in a drawn order, returns
    each vertex's piece of the global partition, and runs the piece search
    once per piece: later members are answered from the finished piece."""
    reference = engine(g, seed)
    pieces = piece_map(g, reference.global_partition())
    local = PartitionOracle(g, reference.ctx, reference.thresholds())
    searches = count_cluster_searches(local)
    for v in data.draw(st.permutations(range(g.n))):
        assert local.find_partition(v) == pieces[v], v
    assert searches[0] - searches[1] == len(set(pieces.values()))


# -- the local findr's internals ----------------------------------------------

@PROPERTY_SETTINGS
@given(graphs, st.integers(1, 20))
def test_find_ib_matches_brute_force(g, ell):
    """The search from v, admitting each neighbour of a member whose walk
    reaches v, finds exactly the brute-force incoming ball, at walk caps
    from 1 to 20; on a cold engine it walks only v, members of the ball
    and their neighbours."""
    params = desk_params(g.d, ell=ell)
    for v in range(g.n):
        oracle = PartitionOracle(g, SeedContext(0, params))
        ball = oracle.find_ib(v)
        assert ball == brute_incoming_ball(g, params, v), v
        near = {v, *ball, *(w for u in ball for w in g.adjacency[u])}
        assert set(oracle._reach_sets) <= near, v


@PROPERTY_SETTINGS
@given(
    st.one_of(graphs, caterpillars()),
    master_seeds,
    st.integers(1, 10),
    st.lists(st.integers(0, 60), max_size=12),
    st.sampled_from([0.1, 0.5, 1.0]),
    st.sampled_from([0.1, 0.5, 0.9]),
    st.randoms(use_true_random=False),
)
def test_prefix_count_viability_matches_viable(g, seed, h, extra, beta, density, rng):
    """One prefix count over a seed's sweep order gives ``viable`` for every
    candidate k, asking the free test at most once per vertex.  Every vertex
    is tried as a seed, not only the kept ones, since a seed outside its own
    accepted prefix is rare.  Larger beta and sparser free sets put the
    free-member count near its bound.  The candidates are every k in
    [0, 60] followed by a drawn list in any order, with repeats."""
    ks = list(range(61)) + extra
    oracle = PartitionOracle(g, SeedContext(seed, desk_params(g.d, beta=beta)))
    free = {u for u in range(g.n) if rng.random() < density}
    kept = [s for s in oracle.phase_sample(h) if oracle.ctx.phase_of(s) >= h]
    kept = kept[: oracle.params.keep_count]
    for s in range(g.n):
        # {s} alone: the seed's own freedom decides when it is outside the
        # accepted prefix.
        for free_set in (free, {s}):
            asked: list[int] = []

            def free_test(u):
                asked.append(u)
                return u in free_set

            flags = oracle._count_free(oracle._viable_picks(s, ks), ks, free_test)
            assert len(asked) == len(set(asked)), s
            expected = [oracle.viable(s, h, k, free_set.__contains__) for k in ks]
            assert flags == expected, s
    _, counts = oracle.threshold_search(h, free.__contains__, ks, count_when_gated=True)
    assert counts == [
        sum(oracle.viable(s, h, k, free.__contains__) for s in kept) for k in ks
    ]


@st.composite
def tiny_graphs(draw) -> BoundedDegreeGraph:
    g = draw(graphs)
    n = min(g.n, 10)
    return BoundedDegreeGraph.from_edges(
        n, g.d, [(a, b) for a, b in g.edges() if a < n and b < n]
    )


@PROPERTY_SETTINGS
@given(tiny_graphs(), master_seeds, st.sampled_from(["double", "exact"]))
def test_vec_at_and_reach_sets_match_the_reference_walks(g, seed, arithmetic):
    """``_vec_at(s)`` is the t_s-step truncated diffusion, and
    ``trajectory_masks(s)`` is the union of the supports at steps 0..ell,
    whichever of the two an engine asks for first."""
    params = desk_params(g.d, arithmetic=arithmetic)
    ctx = SeedContext(seed, params)
    vec_first = PartitionOracle(g, ctx)
    reach_first = PartitionOracle(g, ctx)
    for s in range(g.n):
        t_s = ctx.walk_len_of(s)
        expected = truncated_diffusion(g, s, t_s, params.rho, exact=params.exact)
        assert vec_first._vec_at(s) == expected, s
        reached = reach_first.trajectory_masks(s)
        assert reach_first._vec_at(s) == expected, s
        assert vec_first.trajectory_masks(s) == reached, s
        assert reached == {
            u
            for t in range(params.ell + 1)
            for u in truncated_diffusion(g, s, t, params.rho, exact=params.exact)
        }, s


# -- the fused diffusion step --------------------------------------------------

@st.composite
def triangulated_grids(draw) -> BoundedDegreeGraph:
    """d = 6 with mixed degrees: corners, borders and interior differ."""
    return gen_triangulated_grid(draw(st.integers(2, 5)), draw(st.integers(2, 6)))


@st.composite
def with_isolated_vertex(draw) -> BoundedDegreeGraph:
    """A drawn graph with one extra, edgeless vertex at a drawn id."""
    g = draw(graphs)
    i = draw(st.integers(0, g.n))
    edges = [(a + (a >= i), b + (b >= i)) for a, b in g.edges()]
    return BoundedDegreeGraph.from_edges(g.n + 1, g.d, edges)


def exactly(p: dict) -> list:
    """Keys in order, each with its mass's type and exact value."""
    return [
        (v, type(m), m.hex() if isinstance(m, float) else m) for v, m in p.items()
    ]


@pytest.mark.parametrize(
    "family",
    [graphs, triangulated_grids(), with_isolated_vertex()],
    ids=["families", "triangulated", "isolated"],
)
@pytest.mark.parametrize("exact", [False, True], ids=["double", "exact"])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_fused_step_equals_the_reference_step(family, exact, data):
    """``Diffuser.step`` returns ``truncate(lazy_step(...))``: every value
    bit for bit, of the same type, under the same keys in the same order.
    Checked at every step of a walk from every vertex, and on one signed
    vector, where masses cancel and a bound <= 0 must still drop them."""
    g = data.draw(family)
    rho = data.draw(st.sampled_from([0.001, 0.02, 0.07, 0.2]))
    step = Diffuser(g, rho, exact).step
    one = Fraction(1) if exact else 1.0
    for s in range(g.n):
        p = {s: one}
        for t in range(1, 13):
            expected = truncate(lazy_step(g, p, exact), rho, exact)
            assert exactly(step(p)) == exactly(expected), (s, t)
            p = expected
            if not p:
                break
    signed = data.draw(st.lists(st.integers(-4, 4).filter(bool), min_size=1, max_size=g.n))
    signed_rho = data.draw(st.sampled_from([-0.05, 0.0, 0.01]))
    vec = {v: one * m / 4 for v, m in enumerate(signed)}
    expected = truncate(lazy_step(g, vec, exact), signed_rho, exact)
    assert exactly(Diffuser(g, signed_rho, exact).step(vec)) == exactly(expected)


@pytest.mark.parametrize(
    "family",
    [graphs, triangulated_grids(), with_isolated_vertex()],
    ids=["families", "triangulated", "isolated"],
)
@pytest.mark.parametrize("exact", [False, True], ids=["double", "exact"])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_walk_yields_the_reference_walk(family, exact, data):
    """``Diffuser.walk(s, t)`` yields ``reference_walk``'s vectors for steps
    0..t: the same values, of the same type, under the same keys in the same
    order.  At rho = 0.5 a walk from a vertex of full degree is empty after
    one step, and the walk yields the empty vector from then on without
    stepping again."""
    g = data.draw(family)
    t = data.draw(st.integers(0, 15))
    one = Fraction(1) if exact else 1.0
    for rho in (0.001, 0.07, 0.5):
        diffuser = Diffuser(g, rho, exact)
        step, calls = diffuser.step, []
        diffuser.step = lambda p: calls.append(len(p)) or step(p)
        for s in range(g.n):
            expected = [[(s, one)]] + reference_walk(g, s, t, rho, exact)
            got = [exactly(p) for p in diffuser.walk(s, t)]
            assert got == [exactly(dict(items)) for items in expected], (rho, s)
        assert 0 not in calls, rho


# -- candidate lists, walk reach, and the two arithmetic modes -----------------

@PROPERTY_SETTINGS
@given(st.one_of(graphs, triangulated_grids(), caterpillars()), st.data())
def test_rings_are_the_breadth_first_distance_layers(g, data):
    """``_rings(sources, r)`` yields r + 1 layers, layer j holding each
    vertex at distance j from the sources once.  Radii run past the
    farthest vertex, so trailing layers come out empty; with no sources
    every layer is empty."""
    sources = data.draw(st.lists(st.integers(0, g.n - 1), unique=True, max_size=4))
    dist = distances(g, *sources)
    radius = data.draw(st.integers(0, max(dist.values(), default=0) + 2))
    engine = PartitionOracle(g, SeedContext(0, desk_params(g.d)))
    layers = list(engine._rings(sources, radius))
    assert len(layers) == radius + 1
    for r, layer in enumerate(layers):
        assert len(layer) == len(set(layer)), r
        assert set(layer) == {u for u, d in dist.items() if d == r}, r


@pytest.mark.parametrize("arithmetic", ["double", "exact"])
@PROPERTY_SETTINGS
@given(
    st.one_of(grids_with_deletions(), triangulated_grids(), trees()),
    master_seeds,
    st.data(),
)
def test_candidate_lists_hold_every_capturing_seed(arithmetic, g, seed, data):
    """Every seed whose cluster contains ``u`` is on ``u``'s candidate
    list, checked by brute force over all seeds.  The thresholds are drawn,
    so clusters of every size occur, not only those findr would choose."""
    params = desk_params(g.d, arithmetic=arithmetic)
    phases = params.h_bar - 1
    ks = data.draw(st.lists(st.integers(0, g.n), min_size=phases, max_size=phases))
    oracle = PartitionOracle(g, SeedContext(seed, params), PhaseThresholds((*ks, 0)))
    for s in range(g.n):
        for u in oracle.seed_cluster(s):
            assert s in oracle._candidates(u), (s, u)


# Tail values put rho on the inclusive boundary.  Binomial tails
# P(Bin(t, 1/2) >= r): 1/2 (t = 1, r = 1), 11/1024 (t = 10, r = 9),
# 1351/2^20 (t = 20, r = 17).  Tails P(Y_t >= r) of support_radius's
# chain: d = 4, t = 20, r = 14, and d = 6, t = 20, r = 15.
REACH_RHOS = [
    0.001, 0.02, 0.07, 0.2, 0.4,
    Fraction(1, 2), Fraction(11, 1024), Fraction(1351, 2 ** 20),
    Fraction(467693448336135, 2 ** 58),
    Fraction(371712481689453125, 212986666247081951232),
]


@pytest.mark.parametrize("exact", [False, True], ids=["double", "exact"])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_walk_supports_stay_within_reach(exact, data):
    """For every source and every t <= ell, the support of the truncated
    diffusion lies within graph distance reach(t) of the source.  The
    single edge with d = 1 moves half the mass at each step, the most any
    lazy step moves: with rho = 0.4 its support reaches distance 1 =
    reach(1) at t = 1, and with rho = 1/2, on the boundary, reach(1) = 0
    and the support is empty."""
    edge = BoundedDegreeGraph.from_edges(2, 1, [(0, 1)])
    g = data.draw(st.one_of(st.just(edge), graphs, triangulated_grids(), caterpillars()))
    rho = data.draw(st.sampled_from(REACH_RHOS))
    ell = data.draw(st.integers(1, 20))
    for s in range(g.n):
        dist = distances(g, s)
        for t in range(ell + 1):
            support = truncated_diffusion(g, s, t, rho, exact=exact)
            reach = support_radius(t, rho, g.d)
            assert all(dist[v] <= reach for v in support), (s, t)
    assert support_radius(1, 0.4, 1) == 1 and support_radius(1, Fraction(1, 2), 1) == 0
    assert set(truncated_diffusion(edge, 0, 1, 0.4, exact=exact)) == {0, 1}
    assert truncated_diffusion(edge, 0, 1, Fraction(1, 2), exact=exact) == {}


def chain_laws(d: int, steps: int) -> list[dict[int, Fraction]]:
    """The law of support_radius's chain Y after t = 0..steps moves, by
    enumerating every sequence of moves (out, stay, back)."""
    def moves(j: int) -> list[tuple[int, Fraction]]:
        if j == 0:
            return [(1, Fraction(1, 2)), (0, Fraction(1, 2))]
        return [(j + 1, Fraction(d - 1, 2 * d)), (j, Fraction(1, 2)), (j - 1, Fraction(1, 2 * d))]

    laws = []
    paths_now = [(0, Fraction(1))]
    for t in range(steps + 1):
        if t:
            paths_now = [(k, p * q) for j, p in paths_now for k, q in moves(j) if q]
        law: dict[int, Fraction] = {}
        for j, p in paths_now:
            law[j] = law.get(j, 0) + p
        laws.append(law)
    return laws


def binomial_radius(t: int, rho: Fraction) -> int:
    """The largest r with P(Bin(t, 1/2) >= r) > rho, or 0."""
    tails = [Fraction(sum(math.comb(t, i) for i in range(r, t + 1)), 2 ** t)
             for r in range(t + 1)]
    return max((r for r in range(t + 1) if tails[r] > rho), default=0)


@pytest.mark.parametrize("d", range(1, 7))
def test_reach_table_matches_the_enumerated_chain(d):
    """For t <= 8, support_radius is the largest r with P(Y_t >= r) > rho
    for rho at every tail value of Y_t (on the boundary) and just below."""
    for t, law in enumerate(chain_laws(d, 8)):
        assert sum(law.values()) == 1
        tails = [sum(p for j, p in law.items() if j >= r) for r in range(t + 2)]
        for q in tails[1:]:
            for rho in (q, q - Fraction(1, 10 ** 30)):
                expected = max((r for r in range(t + 1) if tails[r] > rho), default=0)
                assert support_radius(t, rho, d) == expected, (t, rho)


def test_reach_is_never_above_the_binomial_radius():
    for d in range(1, 9):
        for rho in map(exact_number, REACH_RHOS):
            for t in range(41):
                assert support_radius(t, rho, d) <= binomial_radius(t, rho), (d, rho, t)


def test_reach_hand_values():
    assert binomial_radius(20, Fraction(1, 1000)) == 17
    assert [support_radius(t, 0.001, 4) for t in (10, 20)] == [9, 14]
    assert [support_radius(20, 0.001, d) for d in (2, 3, 6)] == [10, 13, 15]
    assert support_radius(0, 0.001, 4) == 0
    with pytest.raises(ValueError, match="step count"):
        support_radius(-1, 0.001, 4)
    with pytest.raises(ValueError, match="degree cap"):
        support_radius(3, 0.001, 0)


@PROPERTY_SETTINGS
@given(st.one_of(grids_with_deletions(), triangulated_grids(), trees()), master_seeds)
def test_candidate_lists_equal_their_definition(g, seed):
    """Each candidate list is exactly u plus every seed s of phase < h_bar
    with dist(s, u) <= reach(t_s), in processing order, whether searched
    from u or built with every other list from the seeds' side."""
    params = desk_params(g.d)
    oracle = PartitionOracle(g, SeedContext(seed, params))
    lists = PartitionOracle(g, SeedContext(seed, params))._all_candidates()
    assert len(lists) == g.n
    ctx = SeedContext(seed, params)
    dist = {s: distances(g, s) for s in range(g.n)}
    for u in range(g.n):
        expected = [
            s for s in sorted(range(g.n), key=lambda s: (ctx.phase_of(s), s))
            if s == u or (
                ctx.phase_of(s) < params.h_bar
                and dist[s].get(u, math.inf) <= support_radius(ctx.walk_len_of(s), params.rho, g.d)
            )
        ]
        assert oracle._candidates(u) == expected, u
        assert lists[u] == expected, u


def reference_u64(seed: int, tag: str, *indices: int) -> int:
    """Keyed BLAKE2b over the tag and each index as 0x1f, length, bytes."""
    h = hashlib.blake2b(digest_size=8, key=seed.to_bytes(8, "little"))
    h.update(tag.encode("ascii"))
    for i in indices:
        data = i.to_bytes(max(1, (i.bit_length() + 7) // 8), "little")
        h.update(bytes([0x1F, len(data)]) + data)
    return int.from_bytes(h.digest(), "little")


def reference_below(seed: int, upper: int, tag: str, *indices: int) -> int:
    """Rejection sampling over 64-bit blocks, keyed by attempt and block."""
    bits = (upper - 1).bit_length()
    blocks = (bits + 63) // 64
    for attempt in itertools.count():
        value = 0
        for b in range(blocks):
            value = (value << 64) | reference_u64(seed, tag, *indices, attempt, b)
        value >>= blocks * 64 - bits
        if value < upper:
            return value


@pytest.mark.parametrize("seed", [0, 7, 2 ** 64 - 1])
@pytest.mark.parametrize("delta", [_FLOAT_DELTA_FLOOR / 1000, 0.05, 1.0])
def test_seed_hashes_equal_a_keyed_blake2b_reference(seed, delta):
    """Phases, walk lengths, ``u64`` and ``below`` are keyed BLAKE2b values:
    a phase is ``geometric_from_uniform`` of the top 53 bits of its hash,
    on each of that function's three branches of delta."""
    params = desk_params(4, delta=delta, ell=13)
    ctx = SeedContext(seed, params)
    for v in [*range(300), 65535, 65536, 2 ** 64]:
        u = (reference_u64(seed, "phase", v) >> 11) / 2 ** 53
        assert ctx.phase_of(v) == geometric_from_uniform(u, delta, params.h_bar), v
        assert ctx.walk_len_of(v) == reference_below(seed, 13, "walk", v) + 1, v
    for indices in [(), (0,), (3, 0), (0, 3), (2 ** 70, 1)]:
        assert ctx.u64("x", *indices) == reference_u64(seed, "x", *indices)
    for upper in (1, 2, 3, 1000, 2 ** 64, 2 ** 64 + 1, 3 * 2 ** 100):
        for i in range(20):
            assert ctx.below(upper, "b", i) == reference_below(seed, upper, "b", i)


@PROPERTY_SETTINGS
@given(
    master_seeds,
    st.lists(st.integers(0, 2 ** 70), max_size=20),
    st.lists(st.integers(0, 2 ** 70), max_size=20),
)
def test_phase_and_walk_tables_draw_the_reference_values_on_first_read(
    seed, phase_reads, walk_reads
):
    """A fresh context's ``phases[v]`` and ``walk_lens[v]`` are the keyed
    BLAKE2b draws, read in any order and with repeats, and each table
    holds exactly the vertices read from it."""
    params = desk_params(4, delta=0.05, ell=13)
    ctx = SeedContext(seed, params)
    for v in phase_reads:
        u = (reference_u64(seed, "phase", v) >> 11) / 2 ** 53
        assert ctx.phases[v] == geometric_from_uniform(u, 0.05, params.h_bar), v
    for v in walk_reads:
        assert ctx.walk_lens[v] == reference_below(seed, 13, "walk", v) + 1, v
    assert ctx.phases.keys() == set(phase_reads)
    assert ctx.walk_lens.keys() == set(walk_reads)


@st.composite
def paths(draw) -> BoundedDegreeGraph:
    n = draw(st.integers(1, 30))
    return BoundedDegreeGraph.from_edges(n, 2, [(i, i + 1) for i in range(n - 1)])


@PROPERTY_SETTINGS
@given(st.one_of(grids_with_deletions(), paths()), master_seeds)
def test_exact_and_double_agree_where_2d_is_a_power_of_two(g, seed):
    """With 2d a power of two (grids, paths), double mode ranks the sweeps
    as exact mode does, so the global pass chooses the same thresholds and
    anchors in both modes."""
    runs = [
        PartitionOracle(g, SeedContext(seed, desk_params(g.d, arithmetic=mode)))
        for mode in ("exact", "double")
    ]
    exact_run, double_run = (engine.global_partition() for engine in runs)
    assert double_run.anchors == exact_run.anchors
    assert runs[1].thresholds() == runs[0].thresholds()


@PROPERTY_SETTINGS
@given(st.one_of(triangulated_grids(), trees()), master_seeds)
def test_double_mode_reorders_sweeps_only_within_exact_ties(g, seed):
    """Where 2d is not a power of two (triangulated grids, trees with d = 3),
    roundoff can order masses that are tied exactly, where exact mode falls
    back to ids.  Every seed's two sweep orders still list the same exact
    masses position by position: the reordered ids of any seed whose orders
    differ are tied in exact mode."""
    exact_engine, double_engine = (
        PartitionOracle(g, SeedContext(seed, desk_params(g.d, arithmetic=mode)))
        for mode in ("exact", "double")
    )
    for s in range(g.n):
        exact_vec = exact_engine._vec_at(s)
        exact_order = exact_engine._scan(s).order
        double_order = double_engine._scan(s).order
        assert [exact_vec.get(v) for v in double_order] == [
            exact_vec[v] for v in exact_order
        ], s


# -- the global pass's skip of dead seeds ----------------------------------------

@st.composite
def two_components(draw) -> BoundedDegreeGraph:
    """Two drawn graphs side by side, with no edge between them."""
    a, b = draw(graphs), draw(graphs)
    edges = a.edges() + [(u + a.n, v + a.n) for u, v in b.edges()]
    return BoundedDegreeGraph.from_edges(a.n + b.n, max(a.d, b.d), edges)


@st.composite
def long_paths_and_cycles(draw) -> BoundedDegreeGraph:
    """A path or a cycle of 60 to 150 vertices: long enough that whole
    stretches are cleared before the last phases, so dead seeds are common."""
    n = draw(st.integers(60, 150))
    return draw(st.sampled_from([path_graph, cycle_graph]))(n)


@pytest.mark.parametrize("arithmetic", ["double", "exact"])
@pytest.mark.parametrize("thresholds", ["chosen", "given"])
@PROPERTY_SETTINGS
@given(
    st.one_of(
        graphs, triangulated_grids(), with_isolated_vertex(), two_components(),
        long_paths_and_cycles(),
    ),
    master_seeds,
)
# On each of these, a live set that left out the phase-h_bar seeds would
# change the thresholds the pass chooses.
@example(g=gen_random_tree(60, 3, 1), seed=0)
@example(g=cycle_graph(40), seed=4)
@example(g=gen_grid(12, 12), seed=0)
def test_the_global_pass_equals_the_pass_that_walks_every_seed(arithmetic, thresholds, g, seed):
    """Skipping the seeds with no free vertex within reach changes neither
    an anchor nor a threshold, whether the pass chooses the thresholds or
    is given them."""
    ctx = SeedContext(seed, desk_params(g.d, arithmetic=arithmetic))
    reference = PartitionOracle(g, ctx)
    expected = reference_global_partition(reference)
    given_k = reference.thresholds() if thresholds == "given" else None
    fast = PartitionOracle(g, ctx, given_k)
    assert fast.global_partition() == expected
    assert fast.thresholds() == reference.thresholds()
    assert fast._scans.keys() <= reference._scans.keys()


def test_the_global_pass_walks_fewer_sources_on_a_long_cycle():
    """On a 150-vertex cycle the pass skips dead seeds: it walks strictly
    fewer sources than the pass that walks every seed (101 against 150),
    with the same anchors and thresholds."""
    g = cycle_graph(150)
    ctx = SeedContext(1, desk_params(g.d))
    reference = PartitionOracle(g, ctx)
    expected = reference_global_partition(reference)
    fast = PartitionOracle(g, ctx)
    assert fast.global_partition() == expected
    assert fast.thresholds() == reference.thresholds()
    assert len(fast._scans) < len(reference._scans)


@pytest.mark.parametrize("arithmetic", ["double", "exact"])
@PROPERTY_SETTINGS
@given(
    st.one_of(graphs, triangulated_grids(), two_components(), long_paths_and_cycles()),
    master_seeds,
)
@example(g=cycle_graph(150), seed=0)  # the sweep skips 6 kept seeds
def test_a_local_sweep_skips_only_kept_seeds_with_no_free_vertex_within_reach(
    arithmetic, g, seed
):
    """Every kept seed that a local sweep's threshold search for phase h
    skips unwalked, because the capture scans around it show it dead, has
    no vertex within reach(t_s) that is free at phase h.  The sweep's
    anchors and thresholds are the global pass's."""
    ctx = SeedContext(seed, desk_params(g.d, arithmetic=arithmetic))
    sweep = PartitionOracle(g, ctx)
    skips = record_witness_skips(sweep)
    anchors = [sweep.find_anchor(v) for v in range(g.n)]
    reference = PartitionOracle(g, ctx)
    partition, free_sets = global_free_sets(reference)
    assert anchors == list(partition.anchors)
    assert sweep.thresholds() == reference.thresholds()
    for s, h in skips:
        assert not free_within_reach(sweep, free_sets[h], s), (s, h)


@pytest.mark.parametrize("arithmetic", ["double", "exact"])
@PROPERTY_SETTINGS
@given(
    st.one_of(graphs, triangulated_grids(), two_components(), long_paths_and_cycles()),
    master_seeds,
)
def test_the_engines_own_free_test_counts_as_the_global_free_sets_do(arithmetic, g, seed):
    """``threshold_search(h, None, ...)`` counts as the explicit free set
    at phase h does, for every phase, on an engine given its thresholds
    whose capture scans have found anchors of every phase."""
    ctx = SeedContext(seed, desk_params(g.d, arithmetic=arithmetic))
    reference = PartitionOracle(g, ctx)
    _, free_sets = global_free_sets(reference)
    swept = PartitionOracle(g, ctx, reference.thresholds())
    for v in range(g.n):
        swept.find_anchor(v)
    ks = ctx.params.k_candidates
    for h in range(2, ctx.params.h_bar):
        _, own = swept.threshold_search(h, None, ks, count_when_gated=True)
        _, explicit = swept.threshold_search(h, free_sets[h].__contains__, ks, count_when_gated=True)
        assert own == explicit, h


@PROPERTY_SETTINGS
@given(
    st.one_of(
        grids_with_deletions(), triangulated_grids(), trees(), two_components(),
        long_paths_and_cycles(),
    ),
    master_seeds,
)
def test_the_live_test_equals_its_definition(g, seed):
    """Every live set the global pass builds, from the vertices still free
    at the start of a phase, holds a seed ``s`` of any phase exactly when
    some free vertex lies within reach(t_s) of it."""
    params = desk_params(g.d)
    oracle = PartitionOracle(g, SeedContext(seed, params))
    searches = []
    near = oracle._seeds_near

    def recorded(sources, h_end):
        sources = list(sources)
        found = near(sources, h_end)
        searches.append((sources, found))
        return found

    oracle._seeds_near = recorded
    oracle.global_partition()
    assert len(searches) == params.h_bar - 2  # phases 2..h_bar-1
    for free, found in searches:
        live = {s for _, s in found}
        assert len(live) == len(found)
        for s in range(g.n):
            reach = support_radius(oracle.ctx.walk_len_of(s), params.rho, g.d)
            near_s = distances(g, s)
            assert (s in live) == any(near_s.get(u, reach + 1) <= reach for u in free), s
