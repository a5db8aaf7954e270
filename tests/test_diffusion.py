"""Lazy-walk steps, truncation, level sets, conductance, and LS curves."""
from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction

import pytest

from partition_oracle import (
    BoundedDegreeGraph,
    conductance,
    cut_size,
    exact_number,
    gen_grid,
    lazy_step,
    level_set,
    ls_check_chord,
    ls_curve,
    ranked_vertices,
    truncate,
    truncated_diffusion,
)
from partition_oracle.diffusion import Diffuser, step_tables

from conftest import BRIDGE_EDGES, bridge_graph, cycle_graph, path_graph


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


def test_level_set_is_total_beyond_the_support():
    p = {4: 0.6, 1: 0.4}
    assert level_set(p, 1, 6) == (4,)
    assert level_set(p, 2, 6) == (1, 4)
    # vertices outside the support fill in by ascending id
    assert level_set(p, 4, 6) == (0, 1, 2, 4)
    assert level_set(p, 6, 6) == (0, 1, 2, 3, 4, 5)
    assert level_set({}, 2, 5) == (0, 1)


def test_level_set_rejects_bad_sizes():
    with pytest.raises(ValueError):
        level_set({0: 1.0}, -1, 3)
    with pytest.raises(ValueError):
        level_set({0: 1.0}, 4, 3)


def test_cut_size_and_conductance_examples():
    p3 = path_graph(3)
    assert cut_size(p3, {0}) == 1
    assert conductance(p3, (0,)) == Fraction(1, 4)

    c8 = cycle_graph(8)
    assert cut_size(c8, {0, 1, 2, 3}) == 2
    assert conductance(c8, (0, 1, 2, 3)) == Fraction(1, 8)

    bridge = bridge_graph()
    assert conductance(bridge, (0, 1, 2, 3)) == Fraction(1, 24)
    assert conductance(bridge, (0, 1, 2, 3, 4, 5)) == Fraction(1, 6)


def test_conductance_undefined_on_trivial_sets():
    g = path_graph(3)
    with pytest.raises(ValueError, match="empty"):
        conductance(g, ())
    with pytest.raises(ValueError, match="full"):
        conductance(g, (0, 1, 2))


def test_ls_curve_interpolates_and_flattens():
    curve = ls_curve({0: 0.5, 1: 0.3, 2: 0.2}, 5)
    assert curve.value(0) == 0
    assert curve.value(1) == 0.5
    assert curve.value(1.5) == pytest.approx(0.65)
    assert curve.value(3) == pytest.approx(1.0)
    assert curve.value(5) == pytest.approx(1.0)  # flat beyond the support
    assert curve.total == pytest.approx(1.0)
    with pytest.raises(ValueError):
        curve.value(-0.1)
    with pytest.raises(ValueError):
        curve.value(5.1)


def test_ls_curve_slopes_are_nonincreasing():
    rng = random.Random(3)
    for _ in range(20):
        p = {v: rng.random() for v in rng.sample(range(30), 8)}
        slopes = ls_curve(p, 30).slopes()
        assert all(a >= b for a, b in zip(slopes, slopes[1:]))


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
        before = ls_curve(p, g.n)
        after = ls_curve(q, g.n)
        for x in range(g.n + 1):
            assert after.value(x) <= before.value(x) + 1e-9


def test_chord_comparison_holds_on_random_vectors():
    g = gen_grid(5, 5)
    rng = random.Random(17)
    for _ in range(10):
        support = rng.sample(range(g.n), 5)
        raw = {v: rng.random() for v in support}
        total = sum(raw.values())
        p = {v: m / total for v, m in raw.items()}
        for x in range(1, g.n):
            lhs, rhs = ls_check_chord(g, p, x)
            assert lhs <= rhs + 1e-9


def test_chord_comparison_validates_x():
    g = cycle_graph(6)
    with pytest.raises(ValueError):
        ls_check_chord(g, {0: 1.0}, 0)
    with pytest.raises(ValueError):
        ls_check_chord(g, {0: 1.0}, 6)


# ------------------------------------------------------- the fused step

def reference_walk(g, s, steps, rho, exact):
    p = {s: Fraction(1) if exact else 1.0}
    out = []
    for _ in range(steps):
        p = truncate(lazy_step(g, p, exact), rho, exact)
        out.append(list(p.items()))
    return out


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
    scratch is zeroed, the reach set is as given, and the next step is
    still exact."""
    g = gen_grid(4, 4)
    diffuser = Diffuser(g, 0.001, exact)
    one = Fraction(1) if exact else 1.0
    for bad, error in (({0: one, 5: one, g.n: one}, IndexError),
                       ({0: one, 5: Poison()}, ArithmeticError)):
        reached = {5}
        with pytest.raises(error):
            diffuser.step(bad, reached)
        assert reached == {5}
        assert all(x == 0 for x in diffuser.tables[3])
    p = {5: one}
    for got in reference_walk(g, 5, 6, 0.001, exact):
        p = diffuser.step(p)
        assert list(p.items()) == got


def test_diffusers_on_one_graph_share_tables_and_walk_in_turn():
    """Every Diffuser of one mode on a graph uses the graph's one scratch;
    walks advanced in turn, with different bounds, match separate runs."""
    g = gen_grid(5, 5)
    rhos = (0.001, 0.02)
    diffusers = [Diffuser(g, rho) for rho in rhos]
    assert diffusers[0].tables is diffusers[1].tables
    assert Diffuser(g, 0.001, exact=True).tables[3] is not diffusers[0].tables[3]
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
