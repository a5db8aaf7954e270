"""Graph construction, file round-trips, and generators."""
from __future__ import annotations

import random

import pytest

from partition_oracle import (
    BoundedDegreeGraph,
    GraphFormatError,
    connected_components,
    gen_grid,
    gen_random_tree,
    gen_triangulated_grid,
    induced_edges,
    load_graph,
    save_graph,
)
from partition_oracle import graphs

from conftest import BRIDGE_EDGES, bridge_graph, path_graph


def test_from_edges_basic():
    g = path_graph(3)
    assert g.n == 3
    assert g.d == 2
    assert g.adjacency == ((1,), (0, 2), (1,))
    assert g.degree(1) == 2
    assert g.edges() == [(0, 1), (1, 2)]


def test_adjacency_is_sorted_regardless_of_edge_order():
    g = BoundedDegreeGraph.from_edges(4, 3, [(2, 0), (3, 0), (0, 1)])
    assert g.adjacency[0] == (1, 2, 3)


def test_from_edges_rejects_degree_violation():
    with pytest.raises(GraphFormatError, match="degree 3 exceeding bound d=2"):
        BoundedDegreeGraph.from_edges(4, 2, [(0, 1), (0, 2), (0, 3)])


def test_from_edges_rejects_self_loop():
    with pytest.raises(GraphFormatError, match="self-loop"):
        BoundedDegreeGraph.from_edges(2, 2, [(1, 1)])


def test_from_edges_rejects_duplicate_edge():
    """A repeat is named smaller endpoint first, whichever way round it
    comes, and ahead of the degree it pushes over the bound."""
    with pytest.raises(GraphFormatError, match="^duplicate edge 0 1$"):
        BoundedDegreeGraph.from_edges(2, 2, [(0, 1), (1, 0)])
    with pytest.raises(GraphFormatError, match="^duplicate edge 1 2$"):
        BoundedDegreeGraph.from_edges(3, 1, [(2, 1), (1, 2)])


def test_from_edges_rejects_out_of_range_vertex():
    with pytest.raises(GraphFormatError, match="out of range"):
        BoundedDegreeGraph.from_edges(2, 2, [(0, 5)])


def test_from_edges_rejects_bad_counts():
    with pytest.raises(GraphFormatError):
        BoundedDegreeGraph.from_edges(-1, 2, [])
    with pytest.raises(GraphFormatError):
        BoundedDegreeGraph.from_edges(3, 0, [])


def test_vertex_count_cap_is_checked_before_allocating(tmp_path, monkeypatch):
    """A header's n is checked against the cap before any adjacency list is
    allocated.  The cap is lowered here, so even a missing check allocates
    only a few lists."""
    monkeypatch.setattr(graphs, "MAX_VERTICES", 16)
    assert BoundedDegreeGraph.from_edges(16, 2, []).n == 16
    with pytest.raises(GraphFormatError, match="vertex count 17 exceeds the cap of 16"):
        BoundedDegreeGraph.from_edges(17, 2, [])
    path = tmp_path / "big.graph"
    path.write_text("# header next\n17 2\n0 1\n", encoding="ascii")
    with pytest.raises(GraphFormatError, match=r"big\.graph:2: vertex count 17 exceeds"):
        load_graph(path)


@pytest.mark.parametrize("generate", [
    lambda: gen_grid(5, 4),
    lambda: gen_triangulated_grid(5, 4),
    lambda: gen_random_tree(17, 3, 0),
], ids=["grid", "tri-grid", "tree"])
def test_generators_refuse_an_over_cap_size_before_building_any_edge(monkeypatch, generate):
    def refuse(*args, **kwargs):
        raise AssertionError("from_edges called on an over-cap size")

    monkeypatch.setattr(graphs, "MAX_VERTICES", 16)
    monkeypatch.setattr(BoundedDegreeGraph, "from_edges", refuse)
    with pytest.raises(GraphFormatError, match=r"vertex count (20|17) exceeds the cap of 16"):
        generate()


def test_single_vertex_graph():
    g = BoundedDegreeGraph.from_edges(1, 2, [])
    assert g.n == 1
    assert g.edges() == []


def test_gen_grid_shape():
    g = gen_grid(3, 4)
    assert g.n == 12
    assert g.d == 4
    # 3 rows of 3 horizontal edges plus 4 columns of 2 vertical edges.
    assert len(g.edges()) == 3 * 3 + 4 * 2
    assert g.degree(0) == 2  # corner
    assert g.degree(5) == 4  # interior
    assert (0, 1) in g.edges() and (0, 4) in g.edges()


def test_gen_grid_rejects_empty():
    with pytest.raises(GraphFormatError):
        gen_grid(0, 3)


def test_gen_triangulated_grid_adds_one_diagonal_per_cell():
    g = gen_triangulated_grid(3, 3)
    base = gen_grid(3, 3)
    assert g.n == 9
    assert g.d == 6
    assert len(g.edges()) == len(base.edges()) + 4
    # the cell at (0, 0) gets the top-left-to-bottom-right diagonal
    assert (0, 4) in g.edges()
    assert (1, 3) not in g.edges()


def test_gen_triangulated_grid_needs_two_rows_and_cols():
    with pytest.raises(GraphFormatError):
        gen_triangulated_grid(1, 5)


@pytest.mark.parametrize("n,d,seed", [(1, 2, 0), (2, 2, 1), (30, 3, 7), (100, 2, 5)])
def test_gen_random_tree_is_a_tree(n, d, seed):
    g = gen_random_tree(n, d, seed)
    assert g.n == n
    assert len(g.edges()) == n - 1
    assert max(map(g.degree, range(n))) <= d
    assert len(connected_components(g, range(n))) == 1


def test_gen_random_tree_deterministic_in_seed():
    a = gen_random_tree(40, 3, 11)
    b = gen_random_tree(40, 3, 11)
    c = gen_random_tree(40, 3, 12)
    assert a.adjacency == b.adjacency
    assert a.adjacency != c.adjacency


def quadratic_random_tree_edges(n, d, seed):
    """gen_random_tree's definition: rescan every earlier vertex per step."""
    rng = random.Random(seed)
    deg = [0] * n
    edges = []
    for v in range(1, n):
        candidates = [u for u in range(v) if deg[u] < d]
        parent = candidates[rng.randrange(len(candidates))]
        edges.append((parent, v))
        deg[parent] += 1
        deg[v] += 1
    return sorted(edges)


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_gen_random_tree_matches_the_quadratic_definition(d):
    for n in (1, 2, 3, 5, 17, 64, 257, 600):
        for seed in range(3):
            got = gen_random_tree(n, d, seed).edges()
            assert got == quadratic_random_tree_edges(n, d, seed), (n, d, seed)


def test_save_load_round_trip(tmp_path):
    g = bridge_graph()
    path = tmp_path / "bridge.graph"
    save_graph(g, path)
    back = load_graph(path)
    assert back.n == g.n and back.d == g.d and back.adjacency == g.adjacency


def test_load_graph_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "g.graph"
    path.write_text("# a comment\n\n3 2\n0 1\n# another\n1 2\n", encoding="ascii")
    g = load_graph(path)
    assert g.edges() == [(0, 1), (1, 2)]


def test_load_graph_requires_header(tmp_path):
    path = tmp_path / "empty.graph"
    path.write_text("# nothing here\n", encoding="ascii")
    with pytest.raises(GraphFormatError, match="missing 'n d' header"):
        load_graph(path)


def test_load_graph_rejects_unordered_edge(tmp_path):
    path = tmp_path / "g.graph"
    path.write_text("3 2\n1 0\n", encoding="ascii")
    with pytest.raises(GraphFormatError, match="u < v"):
        load_graph(path)


def test_load_graph_rejects_non_integer_and_wrong_arity(tmp_path):
    path = tmp_path / "g.graph"
    path.write_text("3 2\n0 x\n", encoding="ascii")
    with pytest.raises(GraphFormatError, match="non-integer"):
        load_graph(path)
    path.write_text("3 2\n0 1 2\n", encoding="ascii")
    with pytest.raises(GraphFormatError, match="expected two integers"):
        load_graph(path)


def test_load_graph_names_the_offending_line(tmp_path):
    path = tmp_path / "g.graph"
    path.write_text("3 2\n0 1\nbroken\n", encoding="ascii")
    with pytest.raises(GraphFormatError, match=r"g\.graph:3"):
        load_graph(path)


def test_induced_edges_on_bridge():
    g = bridge_graph()
    assert induced_edges(g, [0, 1, 2, 3]) == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert induced_edges(g, [3, 4]) == [(3, 4)]
    assert induced_edges(g, [0, 5]) == []


def test_connected_components_ordering():
    g = BoundedDegreeGraph.from_edges(6, 2, [(0, 1), (3, 4)])
    comps = connected_components(g, range(6))
    assert comps == [[0, 1], [2], [3, 4], [5]]
    assert connected_components(g, [4, 3]) == [[3, 4]]
    assert connected_components(g, []) == []


def test_bridge_fixture_shape():
    g = bridge_graph()
    assert g.n == 8 and g.d == 3
    assert len(g.edges()) == len(BRIDGE_EDGES)
    assert g.degree(3) == 3 and g.degree(1) == 2
