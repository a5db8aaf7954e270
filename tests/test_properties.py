"""Property tests: the global pass and the local oracle on random small graphs.

Graphs are drawn from three bounded-degree families: random trees, grids
with random edge deletions, and two cycles joined by a bridge.  Each
property compares two engines that share nothing but the graph, the
parameters and the master seed.
"""
from __future__ import annotations

from hypothesis import Phase, given, settings, strategies as st

from partition_oracle import (
    BoundedDegreeGraph,
    PartitionOracle,
    SeedContext,
    gen_grid,
    gen_random_tree,
    truncated_diffusion,
)

from conftest import brute_incoming_ball, desk_params

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


# -- the local findr's internals ----------------------------------------------

@PROPERTY_SETTINGS
@given(graphs, st.integers(1, 20))
def test_find_ib_matches_brute_force(g, ell):
    """The frontier search, admitting w in round t when its first hit on v
    is at a step <= t, finds exactly the brute-force incoming ball.  Short
    walk caps make the round at which a vertex is admitted matter."""
    params = desk_params(g.d, ell=ell)
    oracle = PartitionOracle(g, SeedContext(0, params))
    for v in range(g.n):
        assert oracle.find_ib(v) == brute_incoming_ball(g, params, v), v


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
    """``vec_at(s, t_s)`` is the t_s-step truncated diffusion, whether the
    walk stopped at t_s or ran on to ell first, and finishing a walk from
    t_s records the same first hits as running it from step 0."""
    params = desk_params(g.d, arithmetic=arithmetic)
    ctx = SeedContext(seed, params)
    partial_first = PartitionOracle(g, ctx)
    full_first = PartitionOracle(g, ctx)
    for s in range(g.n):
        t_s = ctx.walk_len_of(s)
        expected = truncated_diffusion(g, s, t_s, params.rho, exact=params.exact)
        assert partial_first.vec_at(s, t_s) == expected, s
        hits = full_first.trajectory_masks(s)
        assert full_first.vec_at(s, t_s) == expected, s
        assert partial_first.trajectory_masks(s) == hits, s
        for t in range(params.ell + 1):
            support = truncated_diffusion(g, s, t, params.rho, exact=params.exact)
            assert all(hits[u] <= t for u in support), (s, t)
            assert {u for u, fh in hits.items() if fh == t} <= set(support), (s, t)
