"""Bounded-degree graph representation, file I/O, and test-graph generators.

Vertices are dense integer ids ``0..n-1``.  Graphs are immutable after
construction: every algorithm in this package relies on the input being
frozen, and the query interface is only consistent against a fixed graph.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

# A VertexSet is a strictly increasing tuple of vertex ids in [0, n).
VertexSet = tuple[int, ...]

# A graph allocates one adjacency list per vertex before reading any edge;
# vertex counts above this cap (about a gigabyte of lists) are rejected up
# front, so a bad header cannot exhaust memory.
MAX_VERTICES = 10_000_000


class GraphFormatError(ValueError):
    """Raised for malformed or invariant-violating graph input."""


def _check_vertex_count(n: int) -> None:
    if n < 0:
        raise GraphFormatError(f"vertex count must be nonnegative, got {n}")
    if n > MAX_VERTICES:
        raise GraphFormatError(f"vertex count {n} exceeds the cap of {MAX_VERTICES}")


def _check_vertex(v: int, n: int) -> None:
    if not 0 <= v < n:
        raise GraphFormatError(f"vertex id {v} out of range [0, {n})")


def check_has_vertices(g: "BoundedDegreeGraph") -> None:
    """Refuse a graph with no vertices: there is nothing to partition."""
    if g.n == 0:
        raise ValueError("graph has no vertices")


@dataclass(frozen=True)
class BoundedDegreeGraph:
    """Immutable undirected graph with a hard degree cap ``d``.

    ``adjacency[v]`` is the sorted tuple of neighbors of ``v``.  Construction
    validates symmetry, the degree bound, and the absence of self-loops and
    parallel edges; use :meth:`from_edges` rather than the raw constructor.
    """

    n: int
    d: int
    adjacency: tuple[tuple[int, ...], ...] = field(repr=False)
    derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_edges(cls, n: int, d: int, edges: Iterable[tuple[int, int]]) -> "BoundedDegreeGraph":
        _check_vertex_count(n)
        if d < 1:
            raise GraphFormatError(f"degree bound must be positive, got {d}")
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            _check_vertex(u, n)
            _check_vertex(v, n)
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {u}")
            adj[u].append(v)
            adj[v].append(u)
        adjacency = tuple(tuple(sorted(nbrs)) for nbrs in adj)
        # A repeated edge repeats a neighbour in both endpoints' lists, so the
        # first list with a repeat is that of the edge's smaller endpoint.
        for u, nbrs in enumerate(adjacency):
            if len(set(nbrs)) < len(nbrs):
                w = next(a for a, b in zip(nbrs, nbrs[1:]) if a == b)
                raise GraphFormatError(f"duplicate edge {u} {w}")
        for v, nbrs in enumerate(adjacency):
            if len(nbrs) > d:
                raise GraphFormatError(
                    f"vertex {v} has degree {len(nbrs)} exceeding bound d={d}"
                )
        return cls(n=n, d=d, adjacency=adjacency)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, ascending."""
        out = []
        for u in range(self.n):
            for v in self.adjacency[u]:
                if u < v:
                    out.append((u, v))
        return out


def load_graph(path: str | Path) -> BoundedDegreeGraph:
    """Read a graph from the edge-list text format.

    Format: first non-comment line is ``n d``; every following non-empty,
    non-comment line is one edge ``u v`` with ``u < v``.  Lines starting with
    ``#`` are comments.  Errors name the offending line number.
    """
    path = Path(path)
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    with path.open("r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise GraphFormatError(f"{path}:{lineno}: expected two integers, got {line!r}")
            try:
                a, b = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphFormatError(f"{path}:{lineno}: non-integer field in {line!r}") from None
            if header is None:
                try:
                    _check_vertex_count(a)
                except GraphFormatError as exc:
                    raise GraphFormatError(f"{path}:{lineno}: {exc}") from None
                header = (a, b)
                continue
            if not a < b:
                raise GraphFormatError(f"{path}:{lineno}: edge must satisfy u < v, got {line!r}")
            edges.append((a, b))
    if header is None:
        raise GraphFormatError(f"{path}: missing 'n d' header line")
    n, d = header
    try:
        return BoundedDegreeGraph.from_edges(n, d, edges)
    except GraphFormatError as exc:
        raise GraphFormatError(f"{path}: {exc}") from None


def save_graph(g: BoundedDegreeGraph, path: str | Path) -> None:
    """Write ``g`` in the edge-list format; round-trips with load_graph."""
    path = Path(path)
    lines = [f"{g.n} {g.d}\n"]
    lines.extend(f"{u} {v}\n" for u, v in g.edges())
    path.write_text("".join(lines), encoding="ascii")


def gen_grid(rows: int, cols: int) -> BoundedDegreeGraph:
    """rows x cols grid graph: d=4, connected, bipartite, planar."""
    if rows < 1 or cols < 1:
        raise GraphFormatError(f"grid dimensions must be >= 1, got {rows}x{cols}")
    n = rows * cols
    _check_vertex_count(n)  # before building any edge
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return BoundedDegreeGraph.from_edges(n, 4, edges)


def gen_triangulated_grid(rows: int, cols: int) -> BoundedDegreeGraph:
    """Grid plus one diagonal per unit cell: d=6, planar, non-bipartite.

    Every cell gets the same diagonal orientation (top-left to bottom-right),
    giving (rows-1)*(cols-1) extra edges and two triangles per cell.
    """
    if rows < 2 or cols < 2:
        raise GraphFormatError(f"triangulated grid needs rows, cols >= 2, got {rows}x{cols}")
    base = gen_grid(rows, cols)
    edges = base.edges()
    for r in range(rows - 1):
        for c in range(cols - 1):
            v = r * cols + c
            edges.append((v, v + cols + 1))
    return BoundedDegreeGraph.from_edges(rows * cols, 6, edges)


def gen_random_tree(n: int, d: int, seed: int) -> BoundedDegreeGraph:
    """Uniform-attachment random tree respecting the degree cap.

    Vertex ``v`` attaches to a parent drawn uniformly from the vertices
    ``0..v-1`` that still have spare degree: the ``rng.randrange(count)``-th
    of them in ascending order.  A Fenwick tree over the spare-degree
    indicator finds that vertex in O(log n).  Deterministic in ``seed``.
    """
    if n < 1:
        raise GraphFormatError(f"tree needs n >= 1, got {n}")
    if d < 2:
        raise GraphFormatError(f"tree generator needs d >= 2, got {d}")
    _check_vertex_count(n)
    rng = random.Random(seed)
    deg = [0] * n
    tree = [0] * (n + 1)  # Fenwick tree: 1-based prefix counts of spare vertices

    def add(u: int, delta: int) -> None:
        i = u + 1
        while i <= n:
            tree[i] += delta
            i += i & -i

    def kth_spare(k: int) -> int:
        pos, step = 0, 1 << n.bit_length()
        while step:
            if pos + step <= n and tree[pos + step] <= k:
                pos += step
                k -= tree[pos]
            step >>= 1
        return pos

    add(0, 1)
    spare = 1
    edges: list[tuple[int, int]] = []
    for v in range(1, n):
        parent = kth_spare(rng.randrange(spare))
        edges.append((parent, v))
        deg[parent] += 1
        if deg[parent] == d:
            add(parent, -1)
            spare -= 1
        deg[v] = 1
        add(v, 1)
        spare += 1
    return BoundedDegreeGraph.from_edges(n, d, edges)


def induced_edges(g: BoundedDegreeGraph, vertices: Sequence[int]) -> list[tuple[int, int]]:
    """Edges of the subgraph induced by ``vertices`` (pairs of original ids)."""
    inside = set(vertices)
    out = []
    for u in vertices:
        for v in g.adjacency[u]:
            if u < v and v in inside:
                out.append((u, v))
    return out


def connected_components(g: BoundedDegreeGraph, vertices: Iterable[int]) -> list[list[int]]:
    """Connected components of the induced subgraph, each sorted ascending.

    Components are returned in order of their smallest vertex.
    """
    inside = set(vertices)
    seen: set[int] = set()
    comps: list[list[int]] = []
    for start in sorted(inside):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        stack = [start]
        while stack:
            u = stack.pop()
            for w in g.adjacency[u]:
                if w in inside and w not in seen:
                    seen.add(w)
                    comp.append(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps
