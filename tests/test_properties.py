"""Property tests: the global pass and the local oracle on random small graphs.

Graphs are drawn from three bounded-degree families: random trees, grids
with random edge deletions, and two cycles joined by a bridge.  Each
property compares two engines that share nothing but the graph, the
parameters and the master seed, or a fast path with its reference
definition.
"""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings, strategies as st

from partition_oracle import (
    BoundedDegreeGraph,
    PartitionOracle,
    SeedContext,
    gen_grid,
    gen_random_tree,
    gen_triangulated_grid,
    lazy_step,
    truncate,
    truncated_diffusion,
)
from partition_oracle.diffusion import Diffuser

from conftest import brute_incoming_ball, desk_params, piece_map

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
    _, free_sets = engine(g, seed).global_partition_with_free_sets()
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
    partition, free_sets = reference.global_partition_with_free_sets()
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
        assert set(oracle._walks) <= near, v


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

            flags = oracle.viable_flags(s, ks, free_test)
            assert len(asked) == len(set(asked)), s
            expected = [oracle.viable(s, h, k, free_set.__contains__) for k in ks]
            assert flags == expected, s
    assert oracle.viable_counts(kept, ks, free.__contains__) == [
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
def test_vec_at_resumes_one_walk(g, seed, arithmetic):
    """``vec_at(s)`` is the t_s-step truncated diffusion, whether the
    walk stopped at t_s or ran on to ell first, and finishing a walk from
    t_s records the same reach set as running it from step 0: the union of
    the supports at steps 0..ell."""
    params = desk_params(g.d, arithmetic=arithmetic)
    ctx = SeedContext(seed, params)
    partial_first = PartitionOracle(g, ctx)
    full_first = PartitionOracle(g, ctx)
    for s in range(g.n):
        t_s = ctx.walk_len_of(s)
        expected = truncated_diffusion(g, s, t_s, params.rho, exact=params.exact)
        assert partial_first.vec_at(s) == expected, s
        reached = full_first.trajectory_masks(s)
        assert full_first.vec_at(s) == expected, s
        assert partial_first.trajectory_masks(s) == reached, s
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
    Checked at every step of a walk from every vertex, where the step also
    records the reach set, and on one signed vector, where masses cancel and
    a bound <= 0 must still drop them."""
    g = data.draw(family)
    rho = data.draw(st.sampled_from([0.001, 0.02, 0.07, 0.2]))
    step = Diffuser(g, rho, exact).step
    one = Fraction(1) if exact else 1.0
    for s in range(g.n):
        p = {s: one}
        reached = {s}
        expected_reached = {s}
        for t in range(1, 13):
            expected = truncate(lazy_step(g, p, exact), rho, exact)
            expected_reached.update(expected)
            assert exactly(step(p)) == exactly(expected), (s, t)
            assert exactly(step(p, reached)) == exactly(expected), (s, t)
            assert reached == expected_reached, (s, t)
            p = expected
            if not p:
                break
    signed = data.draw(st.lists(st.integers(-4, 4).filter(bool), min_size=1, max_size=g.n))
    signed_rho = data.draw(st.sampled_from([-0.05, 0.0, 0.01]))
    vec = {v: one * m / 4 for v, m in enumerate(signed)}
    expected = truncate(lazy_step(g, vec, exact), signed_rho, exact)
    assert exactly(Diffuser(g, signed_rho, exact).step(vec)) == exactly(expected)
