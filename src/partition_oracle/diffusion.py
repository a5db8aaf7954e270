"""Deterministic lazy-walk diffusion, truncation, level sets, and conductance.

A mass vector is a sparse ``dict`` mapping vertex id to a strictly positive
mass.  Two arithmetic modes are supported: exact rationals
(:class:`fractions.Fraction` values) for small verification runs, and doubles
for benchmark-scale runs.  Double-mode results are deterministic across
platforms because every accumulation happens in ascending vertex-id order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Union

from .graphs import BoundedDegreeGraph, VertexSet

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
    stay factors (one shared per degree present), closed neighborhoods, dense scratch,
    edge weight, zero."""
    key = ("step", exact)
    if key not in g.derived:
        edge_w = Fraction(1, 2 * g.d) if exact else 1.0 / (2 * g.d)
        stay = {deg: 1 - deg * edge_w for deg in set(map(len, g.adjacency))}
        zero = 0 if exact else 0.0
        g.derived[key] = (g.adjacency, [stay[len(a)] for a in g.adjacency],
                          [(u,) + a for u, a in enumerate(g.adjacency)], [zero] * g.n,
                          edge_w, zero)
    return g.derived[key]


class Diffuser:
    """``truncate(lazy_step(g, p, exact), rho, exact)`` as one fused step.

    The push adds shares into a dense scratch in ``lazy_step``'s order and
    the gather reads the touched slots in its first-touch order, zeroing
    each; so values and key order are the reference's while no stay share
    is zero.  Diffusers on one graph share its tables and scratch.
    """

    def __init__(self, g: BoundedDegreeGraph, rho: Mass, exact: bool = False):
        bound = exact_number(rho) if exact else float(rho) * (1.0 + DOUBLE_TRUNCATION_SLACK)
        self.bound = max(bound, 0)  # lazy_step drops masses <= 0 as well
        self.tables = step_tables(g, exact)

    def step(self, p: MassVector, reached: set[int] | None = None) -> MassVector:
        """One step; with ``reached``, adds each kept vertex to it.

        The set grows only once the step has succeeded, so a step that
        raises leaves it, like the scratch, as it was.
        """
        adj, stay, closed, acc, edge_w, zero = self.tables
        bound = self.bound
        order = sorted(p)
        out: MassVector = {}
        try:
            for u in order:
                m = p[u]
                acc[u] += m * stay[u]
                share = m * edge_w
                for v in adj[u]:
                    acc[v] += share
            for v in dict.fromkeys(chain.from_iterable(map(closed.__getitem__, order))):
                x = acc[v]
                acc[v] = zero
                if x > bound:
                    out[v] = x
        except BaseException:
            acc[:] = [zero] * len(acc)
            raise
        if reached is not None:
            # Only the new vertices: a set updated with all of ``out`` reserves
            # room for every key and ends up about twice as large.
            reached.update(out.keys() - reached)
        return out


def truncated_diffusion(
    g: BoundedDegreeGraph, v: int, t: int, rho: Mass, exact: bool = False
) -> MassVector:
    """The ``t``-step truncated diffusion started from the unit vector at ``v``.

    Truncation is applied after every step; ``t = 0`` returns the start
    vector untouched.  The support never exceeds ``floor(1/rho)``.
    """
    if t < 0:
        raise ValueError(f"step count must be >= 0, got {t}")
    p: MassVector = {v: Fraction(1) if exact else 1.0}
    step = Diffuser(g, rho, exact).step
    for _ in range(t):
        p = step(p)
        if not p:
            break
    return p


def ranked_vertices(p: MassVector) -> list[int]:
    """Support of ``p`` ranked by (mass descending, id ascending)."""
    return [v for v, _ in sorted(p.items(), key=lambda item: (-item[1], item[0]))]


def level_set(p: MassVector, k: int, n: int) -> VertexSet:
    """The ``k`` vertices of largest mass, ties broken by ascending id.

    Vertices outside the support rank below every supported vertex, ordered
    by id among themselves, which makes the operation total for any k <= n.
    """
    if k < 0:
        raise ValueError(f"level-set size must be >= 0, got {k}")
    if k > n:
        raise ValueError(f"level-set size {k} exceeds vertex count {n}")
    ranked = ranked_vertices(p)
    if k <= len(ranked):
        return tuple(sorted(ranked[:k]))
    chosen = set(ranked)
    fill = []
    for v in range(n):
        if v not in chosen:
            fill.append(v)
            if len(ranked) + len(fill) == k:
                break
    return tuple(sorted(ranked + fill))


def cut_size(g: BoundedDegreeGraph, inside: set[int]) -> int:
    """Number of edges with exactly one endpoint in ``inside``."""
    cut = 0
    for u in inside:
        for v in g.adjacency[u]:
            if v not in inside:
                cut += 1
    return cut


def conductance(g: BoundedDegreeGraph, s: VertexSet) -> Fraction:
    """Cut edges over ``2 * min(|S|, |V \\ S|) * d``, as an exact ratio.

    Undefined (raises) for the empty set and the full vertex set.
    """
    size = len(s)
    if size == 0:
        raise ValueError("conductance undefined for the empty set")
    if size >= g.n:
        raise ValueError("conductance undefined for the full vertex set")
    inside = set(s)
    return Fraction(cut_size(g, inside), 2 * min(size, g.n - size) * g.d)


@dataclass(frozen=True)
class LSCurve:
    """Concave piecewise-linear curve ``x -> sum of the x heaviest masses``.

    Stored as masses sorted descending with prefix sums; evaluation between
    integers interpolates linearly, and beyond the support the curve is flat.
    """

    n: int
    masses: tuple[Mass, ...]
    prefix: tuple[Mass, ...]

    @property
    def total(self) -> Mass:
        return self.prefix[-1]

    def value(self, x: Mass) -> Mass:
        if x < 0 or x > self.n:
            raise ValueError(f"curve argument {x} outside [0, {self.n}]")
        i = math.floor(x)
        frac = x - i
        base = self.prefix[i] if i < len(self.prefix) else self.prefix[-1]
        slope = self.masses[i] if i < len(self.masses) else 0
        return base + frac * slope

    def slopes(self) -> tuple[Mass, ...]:
        """Per-unit slopes of the segments; nonincreasing by construction."""
        return self.masses


def ls_curve(p: MassVector, n: int) -> LSCurve:
    masses = sorted(p.values(), reverse=True)
    prefix: list[Mass] = [0]
    for m in masses:
        prefix.append(prefix[-1] + m)
    return LSCurve(n=n, masses=tuple(masses), prefix=tuple(prefix))


def ls_check_chord(
    g: BoundedDegreeGraph, p: MassVector, x: int
) -> tuple[Mass, Mass]:
    """Chord comparison for one un-truncated lazy step.

    Returns ``(lhs, rhs)`` where lhs is the curve of the stepped vector at
    ``x`` and rhs is the chord midpoint of the original curve at
    ``x -+ 2 * min(x, n-x) * phi(S_x)``, ``S_x`` being the level set of the
    stepped vector with ``x`` vertices.  Every valid input must satisfy
    ``lhs <= rhs`` up to arithmetic tolerance; the test harness asserts it.
    """
    n = g.n
    if not 1 <= x <= n - 1:
        raise ValueError(f"chord check needs 1 <= x <= n-1, got x={x}")
    q = lazy_step(g, p)
    s_x = level_set(q, x, n)
    phi = conductance(g, s_x)
    exact = any(isinstance(m, Fraction) for m in p.values())
    offset = 2 * min(x, n - x) * (phi if exact else float(phi))
    curve_p = ls_curve(p, n)
    lhs = ls_curve(q, n).value(x)
    rhs = (curve_p.value(x - offset) + curve_p.value(x + offset)) / 2
    return lhs, rhs
