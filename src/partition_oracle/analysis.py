"""Measurement harness: cut accounting, censuses, and differential audits.

Censuses are exhaustive over their domain (every seed, every size threshold)
rather than sampled — they are the ground truth the sampled search is judged
against — so they are desk-scale tools by construction.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Mapping

from .diffusion import Diffuser, exact_number
from .graphs import BoundedDegreeGraph, VertexSet, check_has_vertices
from .oracle import Partition, PartitionOracle, PhaseThresholds, SweepScan
from .params import OracleParams, check_degree_bound, check_desk_scale, check_int
from .seeds import SeedContext


@dataclass(frozen=True)
class CutReport:
    """Exact cut accounting for one partition of one graph."""

    n: int
    d: int
    cut_edges: int
    cut_fraction: float
    piece_size_histogram: dict[int, int]
    singleton_fraction: float

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "cut_edges": self.cut_edges,
            "cut_fraction": self.cut_fraction,
            "piece_size_histogram": {
                str(size): count
                for size, count in sorted(self.piece_size_histogram.items())
            },
            "singleton_fraction": self.singleton_fraction,
        }


@dataclass(frozen=True)
class CensusReport:
    """Generic census container: one row per record plus a summary."""

    kind: str
    rows: tuple[Mapping, ...]
    summary: Mapping


@dataclass(frozen=True)
class DifferentialReport:
    """Local-vs-global audit result."""

    checked: int
    divergences: int
    first_divergence: Mapping | None

    @property
    def ok(self) -> bool:
        return self.divergences == 0


def measure_cut(g: BoundedDegreeGraph, partition: Partition) -> CutReport:
    """Count edges crossing pieces (each once) and piece-size statistics."""
    label = [-1] * g.n
    histogram: dict[int, int] = {}
    singleton_vertices = 0
    for idx, piece in enumerate(partition.pieces(g)):
        size = len(piece)
        histogram[size] = histogram.get(size, 0) + 1
        if size == 1:
            singleton_vertices += 1
        for v in piece:
            label[v] = idx
    cut_edges = sum(1 for u, v in g.edges() if label[u] != label[v])
    dn = g.d * g.n
    return CutReport(
        n=g.n,
        d=g.d,
        cut_edges=cut_edges,
        cut_fraction=cut_edges / dn if dn else 0.0,
        piece_size_histogram=histogram,
        singleton_fraction=singleton_vertices / g.n if g.n else 0.0,
    )


def _free_set(g: BoundedDegreeGraph, F: VertexSet) -> frozenset:
    """``F`` as a set, its ids checked first: True would merge into 1."""
    for u in F:
        check_int(u, "free-set vertex", 0, g.n - 1)
    return frozenset(F)


def viability_census(
    g: BoundedDegreeGraph,
    ctx: SeedContext,
    h: int,
    F: VertexSet,
    k_range: Iterable[int],
) -> CensusReport:
    """Replay the threshold search at phase ``h`` against an explicit free set.

    Uses the same sampling stream, retention filter, gate, quota, and
    argmax tie-break as the search itself, so with ``F`` equal to the true
    free set the reported choice is bit-identical to the chosen threshold.
    """
    check_int(h, "phase", 1, ctx.params.h_bar)
    engine = PartitionOracle(g, ctx)
    free = _free_set(g, F)
    # The census scans k_range in place of the bundle's candidates.
    check_desk_scale(replace(ctx.params, k_candidates=k_range))
    ks = tuple(k_range)
    summary, counts = engine.threshold_search(
        h, free.__contains__, ks, count_when_gated=True
    )
    quota = summary["quota"]
    rows = [
        {"h": h, "k": k, "viable": count, "meets_quota": count >= quota}
        for k, count in zip(ks, counts)
    ]
    summary["quota"] = float(quota)
    return CensusReport(kind="viability", rows=tuple(rows), summary=summary)


def leaky_census(
    g: BoundedDegreeGraph, params: OracleParams, s: int, F: VertexSet
) -> CensusReport:
    """Classify each timestep of the diffusion from ``s`` as leaking or not.

    A timestep is non-leaking when some level set stays within the support,
    keeps at least an alpha^2*k/400 share of free vertices, and has
    conductance below 1/(d * ell^(1/3)); the smallest such k is recorded as
    the certificate.
    """
    check_has_vertices(g)
    check_int(s, "source", 0, g.n - 1)
    free = _free_set(g, F)
    check_desk_scale(params)
    check_degree_bound(params, g.d)
    alpha_sq = exact_number(params.alpha) ** 2
    phi_bound = Fraction(1) / (g.d * exact_number(params.ell ** (1 / 3)))
    k_cap = params.k_cap

    rows: list[dict] = []
    non_leaking = 0
    walk = Diffuser(g, params.rho, params.exact).walk(s, params.ell)
    next(walk)  # t = 0: the start vector is no timestep
    for t, p in enumerate(walk, start=1):
        scan = SweepScan(g, p, s)
        certificate: int | None = None
        cert_phi: Fraction | None = None
        top = min(k_cap, scan.support_size, g.n - 1)
        for k in range(1, top + 1):
            in_free = sum(1 for u in scan.order[:k] if u in free)
            if Fraction(in_free) < alpha_sq * k / 400:
                continue
            phi = Fraction(scan.cutpref[k], 2 * min(k, g.n - k) * g.d)
            if phi < phi_bound:
                certificate = k
                cert_phi = phi
                break
        leaking = certificate is None
        if not leaking:
            non_leaking += 1
        rows.append(
            {
                "s": s,
                "t": t,
                "leaking": leaking,
                "certificate_k": certificate,
                "conductance": float(cert_phi) if cert_phi is not None else None,
            }
        )
    summary = {
        "s": s,
        "ell": params.ell,
        "non_leaking_timesteps": non_leaking,
        "leaking_timesteps": params.ell - non_leaking,
    }
    return CensusReport(kind="leaky", rows=tuple(rows), summary=summary)


def good_seed_census(
    g: BoundedDegreeGraph, params: OracleParams, F: VertexSet
) -> int:
    """Count seeds in ``F`` whose diffusion keeps mass on ``F`` long enough.

    A seed qualifies when at least beta*ell/8 of the timesteps 1..ell leave
    truncated-diffusion mass at least beta/16 inside ``F``.
    """
    check_has_vertices(g)
    if not F:
        raise ValueError("the free set must contain at least one vertex")
    free = _free_set(g, F)
    check_desk_scale(params)
    check_degree_bound(params, g.d)
    beta = exact_number(params.beta)
    mass_bound = beta / 16
    step_quota = beta * params.ell / 8
    diffuser = Diffuser(g, params.rho, params.exact)
    count = 0
    for s in sorted(free):
        walk = diffuser.walk(s, params.ell)
        next(walk)  # t = 0: the start vector is no timestep
        good_steps = 0
        for p in walk:
            mass_in_free = sum(mass for u, mass in p.items() if u in free)
            if Fraction(mass_in_free) >= mass_bound:
                good_steps += 1
        if Fraction(good_steps) >= step_quota:
            count += 1
    return count


def differential_check(
    g: BoundedDegreeGraph,
    ctx: SeedContext,
    thresholds: PhaseThresholds | None = None,
) -> DifferentialReport:
    """Audit that a separate local engine reproduces the global partition.

    Without given ``thresholds`` each side chooses its own, and every phase
    whose thresholds differ is a divergence, reported ahead of any vertex.
    """
    reference_engine = PartitionOracle(g, ctx, thresholds)
    reference = reference_engine.global_partition()
    local = PartitionOracle(g, ctx, thresholds)

    divergences = 0
    first: dict | None = None
    if thresholds is None:
        pairs = zip(local.thresholds().k, reference_engine.thresholds().k)
        for h, (k_local, k_global) in enumerate(pairs, start=1):
            if k_local != k_global:
                divergences += 1
                if first is None:
                    first = {"phase": h, "local": k_local, "global": k_global}
    piece_of = {u: tuple(piece) for piece in reference.pieces(g) for u in piece}
    for v in range(g.n):
        expected = piece_of[v]
        got = local.find_partition(v)
        if got != expected:
            divergences += 1
            if first is None:
                first = {"v": v, "local": got, "global": expected}
    return DifferentialReport(
        checked=g.n, divergences=divergences, first_divergence=first
    )
