"""Deterministic lazy-walk diffusion: the step, truncation, and their fused form.

A mass vector is a sparse ``dict`` mapping vertex id to a strictly positive
mass.  Two arithmetic modes are supported: exact rationals
(:class:`fractions.Fraction` values) for small verification runs, and doubles
for benchmark-scale runs.  Double-mode results are deterministic across
platforms because every accumulation happens in ascending vertex-id order.
``support_radius`` bounds how far from its start a truncated diffusion of
t steps can put mass, from the degree cap alone, and ``ranked_vertices``
gives the order in which a sweep reads a vector.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Union

from .graphs import BoundedDegreeGraph

Mass = Union[int, float, Fraction]
MassVector = dict[int, Mass]

# Relative slack applied to the truncation threshold in double mode so that
# masses which are exactly on the boundary up to roundoff are still removed.
DOUBLE_TRUNCATION_SLACK = 1e-12


def exact_number(x: Mass) -> Fraction:
    """Convert a parameter to an exact Fraction.

    Floats go through their shortest decimal repr, so 0.001 becomes 1/1000
    rather than the binary float it is stored as.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(repr(x))


def lazy_step(g: BoundedDegreeGraph, p: MassVector, exact: bool = False) -> MassVector:
    """One step of the lazy walk: mass 1/2d to each neighbor, remainder stays.

    The transition matrix is doubly stochastic and symmetric, so total mass
    is preserved (exactly in rational mode, to roundoff in double mode).
    """
    if exact:
        edge_w: Mass = Fraction(1, 2 * g.d)
        one: Mass = Fraction(1)
    else:
        edge_w = 1.0 / (2 * g.d)
        one = 1.0
    out: MassVector = {}
    for u in sorted(p):
        m = p[u]
        stay = m * (one - len(g.adjacency[u]) * edge_w)
        if stay:
            out[u] = out.get(u, 0) + stay
        share = m * edge_w
        for v in g.adjacency[u]:
            out[v] = out.get(v, 0) + share
    return {v: m for v, m in out.items() if m > 0}


def truncate(p: MassVector, rho: Mass, exact: bool = False) -> MassVector:
    """Zero out every coordinate whose mass is at most ``rho``.

    The boundary is inclusive: a mass exactly equal to ``rho`` is removed.
    In double mode the comparison allows a relative slack of 1e-12 so the
    boundary behaves identically across platforms.
    """
    if exact:
        bound = exact_number(rho)
    else:
        bound = float(rho) * (1.0 + DOUBLE_TRUNCATION_SLACK)
    return {v: m for v, m in p.items() if m > bound}


def step_tables(g: BoundedDegreeGraph, exact: bool) -> tuple:
    """:class:`Diffuser`'s tables for one mode, built once into ``g.derived``: adjacency,
    stay factors (one shared per degree present), dense scratch, edge weight, zero."""
    key = ("step", exact)
    if key not in g.derived:
        edge_w = Fraction(1, 2 * g.d) if exact else 1.0 / (2 * g.d)
        stay = {deg: 1 - deg * edge_w for deg in set(map(len, g.adjacency))}
        zero = 0 if exact else 0.0
        g.derived[key] = (g.adjacency, [stay[len(a)] for a in g.adjacency], [zero] * g.n,
                          edge_w, zero)
    return g.derived[key]


class Diffuser:
    """``truncate(lazy_step(g, p, exact), rho, exact)`` as one fused step.

    The push adds shares into a dense scratch in ``lazy_step``'s order and
    notes each slot it finds at zero: the first touches, in the order
    ``lazy_step`` inserts its keys.  The gather reads the noted slots,
    skipping those already zeroed, so a slot noted again after its sum
    cancelled to zero keeps its first place, and a zero stay share notes
    nothing.  Values and key order are the reference's.  Diffusers on one
    graph share its tables and scratch.  Walks go through ``walk``, the
    only caller of ``step``.
    """

    def __init__(self, g: BoundedDegreeGraph, rho: Mass, exact: bool = False):
        bound = exact_number(rho) if exact else float(rho) * (1.0 + DOUBLE_TRUNCATION_SLACK)
        self.bound = max(bound, 0)  # lazy_step drops masses <= 0 as well
        self.exact = exact
        self.tables = step_tables(g, exact)

    def walk(self, s: int, t: int) -> Iterator[MassVector]:
        """The vectors after steps 0..``t`` of the walk from the unit vector at ``s``.

        Once the support is empty no step is taken: the empty vector is
        yielded for each step left.
        """
        p: MassVector = {s: Fraction(1) if self.exact else 1.0}
        yield p
        for _ in range(t):
            if p:
                p = self.step(p)
            yield p

    def step(self, p: MassVector) -> MassVector:
        """One step.  A step that raises leaves the scratch zeroed."""
        adj, stay, acc, edge_w, zero = self.tables
        bound = self.bound
        touched: list[int] = []
        note = touched.append
        out: MassVector = {}
        try:
            for u in sorted(p):
                m = p[u]
                x = acc[u]
                s = m * stay[u]
                if not x and s:  # lazy_step inserts no zero stay share
                    note(u)
                acc[u] = x + s
                share = m * edge_w
                for v in adj[u]:
                    x = acc[v]
                    if not x:
                        note(v)
                    acc[v] = x + share
            for v in touched:
                x = acc[v]
                if x:
                    acc[v] = zero
                    if x > bound:
                        out[v] = x
        except BaseException:
            acc[:] = [zero] * len(acc)
            raise
        return out


# Per (rho, d): the chain's scaled masses at the last step grown, and the
# radius of every step so far (see ``support_radius``).  A table is only
# ever replaced whole, so callers in other threads see a complete one.
_REACH_TABLES: dict[tuple[Fraction, int], tuple[list[int], tuple[int, ...]]] = {}


def support_radius(t: int, rho: Mass, d: int) -> int:
    """reach(t): no ``t``-step truncated diffusion with threshold ``rho`` on
    a graph of degree cap ``d`` has support farther than this graph
    distance from its start.

    Let D_t be the distance of the untruncated lazy walk from its source.
    From the source the walk moves out with probability deg/(2d) <= 1/2.
    From distance j >= 1 at least one neighbour (the one a shortest path
    comes through) lies at j - 1, so the walk moves out with probability at
    most (d - 1)/(2d) and back with probability at least 1/(2d).  So D_t
    is stochastically dominated by the birth-death chain Y that at 0 moves
    out with probability 1/2 and stays otherwise, and at j >= 1 moves out
    with (d - 1)/(2d), back with 1/(2d) and stays with 1/2: Y is
    stochastically monotone, and an induction on t gives
    P(D_t >= r) <= P(Y_t >= r).  The untruncated mass at distance >= r is
    P(D_t >= r); truncation only lowers masses, and it removes masses
    <= rho, boundary included.  Double mode keeps a relative slack of
    1e-12 on the bound, far above the roundoff of a walk, so a kept double
    mass has exact mass above rho too.  So reach(t) is the largest r with
    P(Y_t >= r) > rho, or 0 when there is none.

    Y never moves out faster than Bin(t, 1/2), so this radius is at most
    the binomial one.  For rho = 0.001 and d = 4, reach(20) = 14 (17 by
    the binomial) and reach(10) = 9; for d = 2, 3 and 6, reach(20) is 10,
    13 and 15.

    The chain's masses after t steps are integers over (2d)^t, so the test
    is exact.  One table per (rho, d), kept for the process, grows step by
    step and keeps every radius, so each step costs O(t) integer operations
    once: under 1 ms to reach t = 20, about 20 ms to 200 and under 1 s to 1,000
    (Python 3.11, one core).
    """
    if t < 0:
        raise ValueError(f"step count must be >= 0, got {t}")
    if d < 1:
        raise ValueError(f"degree cap must be >= 1, got {d}")
    bound = exact_number(rho)
    y, radii = _REACH_TABLES.get((bound, d), ([1], (0,)))
    if t < len(radii):
        return radii[t]
    grown = list(radii)
    while len(grown) <= t:
        # P(Y = j) was y[j] / (2d)^(step - 1); it becomes y[j] / (2d)^step.
        # In units of 1/(2d), Y stays with d and moves back with 1, and
        # moves out with d from 0 and d - 1 from farther.
        step = len(grown)
        p = y + [0, 0]
        y = [d * p[0] + p[1], d * p[0] + d * p[1] + p[2]]
        y += [(d - 1) * p[j - 1] + d * p[j] + p[j + 1] for j in range(2, step + 1)]
        # P(Y >= r) > rho reads tail * rho.den > rho.num * (2d)^step.
        limit = bound.numerator * (2 * d) ** step
        tail, r = 0, step
        while r > 0:
            tail += y[r]
            if tail * bound.denominator > limit:
                break
            r -= 1
        grown.append(r)
    _REACH_TABLES[bound, d] = (y, tuple(grown))
    return grown[t]


def truncated_diffusion(
    g: BoundedDegreeGraph, v: int, t: int, rho: Mass, exact: bool = False
) -> MassVector:
    """The ``t``-step truncated diffusion started from the unit vector at ``v``.

    Truncation is applied after every step; ``t = 0`` returns the start
    vector untouched.  The support never exceeds ``floor(1/rho)``.
    """
    if t < 0:
        raise ValueError(f"step count must be >= 0, got {t}")
    for p in Diffuser(g, rho, exact).walk(v, t):
        pass
    return p


def ranked_vertices(p: MassVector) -> list[int]:
    """Support of ``p`` ranked by (mass descending, id ascending)."""
    return [v for v, _ in sorted(p.items(), key=lambda item: (-item[1], item[0]))]
