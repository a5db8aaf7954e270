"""Lazy-walk steps, truncation, the fused step, and LS curves under a step."""
from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction

import pytest

from partition_oracle import (
    BoundedDegreeGraph,
    exact_number,
    gen_grid,
    lazy_step,
    ranked_vertices,
    truncate,
    truncated_diffusion,
)
from partition_oracle.diffusion import Diffuser, step_tables

from conftest import (
    BRIDGE_EDGES,
    bridge_graph,
    cycle_graph,
    ls_chord,
    ls_value,
    path_graph,
    reference_walk,
)


def test_exact_number_reads_float_decimals_literally():
    assert exact_number(0.1) == Fraction(1, 10)
    assert exact_number(0.001) == Fraction(1, 1000)
    assert exact_number(Fraction(1, 3)) == Fraction(1, 3)
    assert exact_number(2) == Fraction(2)


def test_lazy_step_on_path_center():
    g = path_graph(3)
    out = lazy_step(g, {1: 1.0})
    assert out == {0: 0.25, 1: 0.5, 2: 0.25}


def test_lazy_step_exact_mode_returns_fractions():
    g = path_graph(3)
    out = lazy_step(g, {1: Fraction(1)}, exact=True)
    assert out == {0: Fraction(1, 4), 1: Fraction(1, 2), 2: Fraction(1, 4)}
    assert all(isinstance(m, Fraction) for m in out.values())


def test_lazy_step_preserves_mass_exactly():
    g = bridge_graph()
    p = {0: Fraction(1, 2), 5: Fraction(1, 2)}
    for _ in range(6):
        p = lazy_step(g, p, exact=True)
    assert sum(p.values()) == 1


def test_lazy_step_is_symmetric():
    """The walk matrix is symmetric: mass u->w equals mass w->u."""
    g = bridge_graph()
    for u, w in [(0, 5), (2, 7), (1, 3)]:
        pu = {u: Fraction(1)}
        pw = {w: Fraction(1)}
        for _ in range(4):
            pu = lazy_step(g, pu, exact=True)
            pw = lazy_step(g, pw, exact=True)
        assert pu.get(w, Fraction(0)) == pw.get(u, Fraction(0))


def test_truncate_boundary_is_inclusive():
    assert truncate({0: 0.25, 1: 0.5}, 0.25) == {1: 0.5}
    exact = truncate({0: Fraction(1, 4), 1: Fraction(1, 2)}, Fraction(1, 4), exact=True)
    assert exact == {1: Fraction(1, 2)}


def test_truncate_keeps_just_above_boundary():
    assert truncate({0: 0.2500001}, 0.25) == {0: 0.2500001}


def test_two_step_truncated_diffusion_on_cycle():
    g = cycle_graph(4)
    out = truncated_diffusion(g, 0, 2, 1e-6, exact=True)
    assert out == {
        0: Fraction(3, 8),
        1: Fraction(1, 4),
        2: Fraction(1, 8),
        3: Fraction(1, 4),
    }


def test_truncated_diffusion_zero_steps_and_bad_steps():
    g = cycle_graph(4)
    assert truncated_diffusion(g, 2, 0, 0.5) == {2: 1.0}
    with pytest.raises(ValueError, match=">= 0"):
        truncated_diffusion(g, 0, -1, 0.5)


@pytest.mark.parametrize("rho", [0.3, 0.1, 0.05, 0.01])
def test_truncated_support_never_exceeds_inverse_rho(rho):
    g = gen_grid(6, 6)
    bound = int(1 / exact_number(rho))
    for t in range(0, 15):
        p = truncated_diffusion(g, 14, t, rho)
        assert len(p) <= bound


def test_ranked_vertices_breaks_ties_by_ascending_id():
    assert ranked_vertices({2: 0.3, 0: 0.3, 1: 0.4}) == [1, 0, 2]


def test_one_step_curve_is_dominated():
    """A lazy step followed by truncation never raises the LS curve."""
    g = gen_grid(5, 5)
    rng = random.Random(9)
    for _ in range(10):
        support = rng.sample(range(g.n), 6)
        raw = {v: rng.random() for v in support}
        total = sum(raw.values())
        p = {v: m / total for v, m in raw.items()}
        q = truncate(lazy_step(g, p), 0.001)
        for x in range(g.n + 1):
            assert ls_value(q, x) <= ls_value(p, x) + 1e-9


def test_chord_comparison_holds_on_random_vectors():
    g = gen_grid(5, 5)
    rng = random.Random(17)
    for _ in range(10):
        support = rng.sample(range(g.n), 5)
        raw = {v: rng.random() for v in support}
        total = sum(raw.values())
        p = {v: m / total for v, m in raw.items()}
        for x in range(1, g.n):
            lhs, rhs = ls_chord(g, p, x)
            assert lhs <= rhs + 1e-9


# ------------------------------------------------------- the fused step

class Poison:
    """A mass whose comparison raises: a step on it fails in the gather."""

    def __mul__(self, other):
        return self

    __rmul__ = __add__ = __radd__ = __mul__

    def __gt__(self, other):
        raise ArithmeticError("poisoned mass")


@pytest.mark.parametrize("exact", [False, True])
def test_a_step_that_raises_leaves_the_scratch_zeroed(exact):
    """An out-of-range id raises partway through the push, after earlier
    vertices have added their shares; a poisoned mass raises partway
    through the gather, after vertex 0 has been kept.  Either way the
    scratch is zeroed and the next step is still exact."""
    g = gen_grid(4, 4)
    diffuser = Diffuser(g, 0.001, exact)
    one = Fraction(1) if exact else 1.0
    for bad, error in (({0: one, 5: one, g.n: one}, IndexError),
                       ({0: one, 5: Poison()}, ArithmeticError)):
        with pytest.raises(error):
            diffuser.step(bad)
        assert all(x == 0 for x in diffuser.tables[2])
    p = {5: one}
    for got in reference_walk(g, 5, 6, 0.001, exact):
        p = diffuser.step(p)
        assert list(p.items()) == got


# On the path 0-1-2 (d = 2) vertex 1 first takes 1/2 from vertex 0, cancels
# to exactly zero on vertex 1's own stay share of -1/2, and takes 1 from
# vertex 2 last: the reference inserts it at its first touch.
CANCELLING = {0: 2, 1: -1, 2: 4}


@pytest.mark.parametrize("exact", [False, True])
def test_a_sum_that_cancels_partway_keeps_its_first_place(exact):
    g = path_graph(3)
    one = Fraction(1) if exact else 1.0
    p = {v: one * m for v, m in CANCELLING.items()}
    expected = truncate(lazy_step(g, p, exact), 0.001, exact)
    assert list(expected) == [0, 1, 2]
    got = Diffuser(g, 0.001, exact).step(p)
    assert [(v, type(x), x) for v, x in got.items()] == [
        (v, type(x), x) for v, x in expected.items()
    ]


@pytest.mark.parametrize("exact", [False, True])
def test_a_zero_mass_takes_its_place_from_the_first_push_into_it(exact):
    """Vertex 0 holds no mass on the path 0-1, so its stay share is zero
    and the reference inserts it only when vertex 1 pushes into it."""
    g = path_graph(2)
    zero, one = (Fraction(0), Fraction(1)) if exact else (0.0, 1.0)
    p = {0: zero, 1: one}
    expected = truncate(lazy_step(g, p, exact), 0.001, exact)
    assert list(expected) == [1, 0]
    got = Diffuser(g, 0.001, exact).step(p)
    assert [(v, type(x), x) for v, x in got.items()] == [
        (v, type(x), x) for v, x in expected.items()
    ]


class TallyScratch(list):
    """A scratch that counts the reads and writes of a step."""

    reads = writes = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)

    def __setitem__(self, i, x):
        self.writes += 1
        super().__setitem__(i, x)


@pytest.mark.parametrize("exact", [False, True])
def test_the_gather_reads_first_touches_and_zeroes_only_slots_with_mass(exact):
    """The push reads and writes one slot per add: a stay share per vertex
    and a share per edge end, 7 here.  The gather reads the 4 noted
    touches (vertex 1 twice, once more after its sum cancelled) and zeroes
    the 3 slots that still hold mass."""
    g = path_graph(3)
    adj, stay, scratch, edge_w, zero = step_tables(g, exact)
    tally = TallyScratch(scratch)
    g.derived[("step", exact)] = (adj, stay, tally, edge_w, zero)
    one = Fraction(1) if exact else 1.0
    Diffuser(g, 0.001, exact).step({v: one * m for v, m in CANCELLING.items()})
    assert (tally.reads, tally.writes) == (7 + 4, 7 + 3)
    assert all(x == 0 for x in tally)


def test_diffusers_on_one_graph_share_tables_and_walk_in_turn():
    """Every Diffuser of one mode on a graph uses the graph's one scratch;
    walks advanced in turn, with different bounds, match separate runs."""
    g = gen_grid(5, 5)
    rhos = (0.001, 0.02)
    diffusers = [Diffuser(g, rho) for rho in rhos]
    assert diffusers[0].tables is diffusers[1].tables
    assert Diffuser(g, 0.001, exact=True).tables[2] is not diffusers[0].tables[2]
    walks = [{7: 1.0}, {12: 1.0}]
    got: list[list] = [[], []]
    for _ in range(10):
        for i, diffuser in enumerate(diffusers):
            walks[i] = diffuser.step(walks[i])
            got[i].append(list(walks[i].items()))
    assert got[0] == reference_walk(gen_grid(5, 5), 7, 10, rhos[0], False)
    assert got[1] == reference_walk(gen_grid(5, 5), 12, 10, rhos[1], False)


@pytest.mark.parametrize("exact", [False, True])
def test_step_tables_hold_one_stay_factor_per_degree_present(exact):
    """A header bound far above every degree costs no memory: the tables
    hold a stay factor only for the degrees present, one object shared by
    the vertices of each degree, with the reference's values."""
    d = 10**6
    g = BoundedDegreeGraph.from_edges(8, d, BRIDGE_EDGES)
    tracemalloc.start()
    try:
        _, stay, *_ = step_tables(g, exact)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    edge_w = Fraction(1, 2 * d) if exact else 1.0 / (2 * d)
    for u, a in enumerate(g.adjacency):
        assert stay[u] == 1 - len(a) * edge_w and type(stay[u]) is type(edge_w), u
        first = next(w for w in range(g.n) if len(g.adjacency[w]) == len(a))
        assert stay[u] is stay[first], u
