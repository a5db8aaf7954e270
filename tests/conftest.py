"""Shared graphs, parameter bundles, and data paths for the test suite."""
from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from partition_oracle import (
    BoundedDegreeGraph,
    Partition,
    SeedContext,
    derive_params,
    lazy_step,
    ranked_vertices,
    truncate,
    truncated_diffusion,
)
from partition_oracle.diffusion import exact_number, support_radius

TESTS_DIR = Path(__file__).parent
REPO_ROOT = TESTS_DIR.parent
DATA_DIR = TESTS_DIR / "data"
CONFIG_DIR = REPO_ROOT / "configs"

# Two 4-cycles joined by one bridge edge.  The smallest graph with an
# unambiguous best partition (cut the bridge), used all over the suite.
BRIDGE_EDGES = [
    (0, 1), (1, 2), (2, 3), (0, 3),
    (4, 5), (5, 6), (6, 7), (4, 7),
    (3, 4),
]

# Desk-scale parameter overrides used by most oracle-level tests: small
# enough to run in milliseconds, large enough to exercise every code path.
DESK_OVERRIDES = {
    "ell": 20,
    "rho": 0.001,
    "phi": 0.2,
    "beta": 0.1,
    "delta": 0.2,
    "h_bar": 10,
    "k_candidates": range(1, 51),
    "sample_count": 200,
    "keep_count": 100,
}


def bridge_graph() -> BoundedDegreeGraph:
    return BoundedDegreeGraph.from_edges(8, 3, BRIDGE_EDGES)


def path_graph(n: int, d: int = 2) -> BoundedDegreeGraph:
    return BoundedDegreeGraph.from_edges(n, d, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int, d: int = 2) -> BoundedDegreeGraph:
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    return BoundedDegreeGraph.from_edges(n, d, edges)


def desk_params(d: int, eps: float = 0.1, **over):
    merged: dict = dict(DESK_OVERRIDES)
    merged.update(over)
    return derive_params(eps, d, "explicit", merged)


def desk_context(g: BoundedDegreeGraph, master_seed: int = 42, **over) -> SeedContext:
    return SeedContext(master_seed, desk_params(g.d, **over))


def reference_walk(g: BoundedDegreeGraph, s: int, steps: int, rho, exact: bool) -> list[list]:
    """The items of the truncated diffusion from ``s`` after steps
    1..``steps``, from ``lazy_step`` and ``truncate`` alone."""
    p = {s: Fraction(1) if exact else 1.0}
    out = []
    for _ in range(steps):
        p = truncate(lazy_step(g, p, exact), rho, exact)
        out.append(list(p.items()))
    return out


def conductance(g: BoundedDegreeGraph, s) -> Fraction:
    """Cut edges of ``s`` over ``2 * min(|S|, |V \\ S|) * d``, exactly;
    ``s`` is neither empty nor every vertex."""
    inside = set(s)
    cut = sum(w not in inside for u in inside for w in g.adjacency[u])
    return Fraction(cut, 2 * min(len(inside), g.n - len(inside)) * g.d)


def ls_value(p: dict, x):
    """The Lovász–Simonovits curve of ``p`` at ``x``: its ``floor(x)``
    largest masses plus the fraction ``x - floor(x)`` of the next one,
    flat beyond the support."""
    masses = sorted(p.values(), reverse=True)
    i = math.floor(x)
    return sum(masses[:i]) + (x - i) * (masses[i] if i < len(masses) else 0)


def ls_chord(g: BoundedDegreeGraph, p: dict, x: int) -> tuple:
    """``(lhs, rhs)`` of the chord bound for one un-truncated lazy step q of
    the float vector ``p``, 1 <= x <= n - 1.  lhs is q's curve at x; rhs is
    the midpoint of p's curve at x -+ 2 * min(x, n - x) * phi(S), S being
    q's x heaviest vertices, then those outside its support by id.  The
    bound is lhs <= rhs, up to roundoff."""
    q = lazy_step(g, p)
    ranked = ranked_vertices(q)
    level = ranked + sorted(set(range(g.n)).difference(ranked))
    offset = 2 * min(x, g.n - x) * float(conductance(g, level[:x]))
    return ls_value(q, x), (ls_value(p, x - offset) + ls_value(p, x + offset)) / 2


def brute_incoming_ball(g: BoundedDegreeGraph, params, v: int) -> tuple[int, ...]:
    """Every w whose truncated diffusion puts mass on ``v`` at some t <= ell."""
    hit = set()
    for w in range(g.n):
        for t in range(params.ell + 1):
            if v in truncated_diffusion(g, w, t, params.rho, exact=params.exact):
                hit.add(w)
                break
    return tuple(sorted(hit))


def global_free_sets(engine) -> tuple[Partition, dict[int, frozenset]]:
    """``engine.global_partition()`` and the free set at the start of each
    phase h, derived from its anchors: F_h = {u : phase(anchor(u)) >= h}.

    The global pass clears a vertex in the phase of the seed that anchors
    it, and every vertex is anchored in its own phase at the latest.
    """
    partition = engine.global_partition()
    anchor_phase = [engine.ctx.phase_of(a) for a in partition.anchors]
    return partition, {
        h: frozenset(u for u, phase in enumerate(anchor_phase) if phase >= h)
        for h in range(1, engine.params.h_bar + 1)
    }


def record_witness_skips(engine) -> list[tuple[int, int]]:
    """Record each (kept seed, phase) the engine's threshold searches skip
    unwalked because the capture scans around the seed show it dead."""
    skips = []
    witness = engine._captured_around

    def recording(s, h):
        dead = witness(s, h)
        if dead:
            skips.append((s, h))
        return dead

    engine._captured_around = recording
    return skips


def free_within_reach(engine, free: frozenset, s: int) -> set[int]:
    """The members of ``free`` within reach(t_s) of ``s``, by plain search."""
    reach = support_radius(
        engine.ctx.walk_len_of(s), exact_number(engine.params.rho), engine.g.d
    )
    ball = {s}
    frontier = [s]
    for _ in range(reach):
        frontier = [x for w in frontier for x in engine.g.adjacency[w] if x not in ball]
        ball.update(frontier)
    return ball & free


def reference_global_partition(engine) -> Partition:
    """The global pass with no seed skipped: every seed of each phase
    builds its cluster and claims its free members, and findr's search
    counts every kept seed against ``free.__getitem__``."""
    n, ctx = engine.g.n, engine.ctx
    free = [True] * n
    anchors = [-1] * n
    for h in range(1, engine.params.h_bar + 1):
        engine._k_of(h, free.__getitem__)
        for v in range(n):
            if ctx.phase_of(v) == h:
                for u in engine._seed_set(v):
                    if free[u]:
                        anchors[u] = v
                        free[u] = False
    return Partition(anchors=tuple(anchors))


def piece_map(g: BoundedDegreeGraph, partition: Partition) -> dict[int, tuple[int, ...]]:
    """Each vertex's piece of ``partition``, from ``Partition.pieces``."""
    return {v: tuple(piece) for piece in partition.pieces(g) for v in piece}


def load_json(path: Path) -> dict:
    with path.open("r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture
def bridge() -> BoundedDegreeGraph:
    return bridge_graph()
