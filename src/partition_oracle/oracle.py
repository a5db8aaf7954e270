"""The partition oracle: clustering, local queries, and the global reference.

The same fixed randomness — per-vertex phases and walk lengths derived from
one master seed — drives both the one-shot global partitioning procedure
and the per-vertex local query path, and the two are exactly equivalent: a
local query returns precisely the piece the global procedure would assign.
Both read that randomness from the seed context's tables ``phases`` and
``walk_lens``.  The :class:`PartitionOracle` engine keeps one sweep scan of
the walk to t_s and one cluster per seed, and one resumable capture scan
per vertex, which answers both ``is_free`` and ``find_anchor``.  The engine
has one local primitive, ``_seeds_near``: one breadth-first search
(``_rings``) from a set of vertices finds every seed whose walk can reach
one of them.  A capture scan walks its vertex's candidate list, the result
of that search from the vertex alone; in a sweep the engine builds every
list at once instead, one search per seed, before the local threshold
search whose free tests would open scans for a quarter of the vertices, or
else once scans are open for a quarter of them.  That search also skips a
kept seed unwalked when the capture scans around it already show it holds
no free vertex.  A piece query opens one capture scan, its vertex's, and
then runs the search from the members of its anchor's cluster to find every
earlier seed that can take one of them; the engine keeps each finished
piece.  The global pass runs the search from the still-free vertices, and
walks a seed only when it is found: any other seed claims nothing and is
viable for no threshold.  How far a walk of t steps can reach, reach(t), is
``diffusion.support_radius``, a bound that uses the degree cap: a walk
moves outward at most as fast as a birth-death chain that steps out with
probability 1/2 only from its start.  Batches of local queries share all of
it.  Public methods check the vertex ids they are given; the inner paths
(findr's free test, the piece search) do not.
"""
from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Container, Iterable, Iterator, Sequence

from .diffusion import (
    Diffuser,
    MassVector,
    exact_number,
    ranked_vertices,
    support_radius,
    truncated_diffusion,
)
from .graphs import (
    BoundedDegreeGraph,
    VertexSet,
    check_has_vertices,
    connected_components,
)
from .params import OracleParams, check_degree_bound, check_desk_scale, check_int
from .seeds import SeedContext


@dataclass(frozen=True)
class PhaseThresholds:
    """Size thresholds k_1..k_h_bar; the final phase is always 0."""

    k: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.k:
            raise ValueError("thresholds must cover at least one phase")
        for x in self.k:
            check_int(x, "size threshold", 0)
        if self.k[-1] != 0:
            raise ValueError("the final-phase threshold must be 0")

    def for_phase(self, h: int) -> int:
        return self.k[check_int(h, "phase", 1, len(self.k)) - 1]


@dataclass(frozen=True)
class Partition:
    """Vertex-to-anchor assignment; pieces are same-anchor components."""

    anchors: tuple[int, ...]

    def pieces(self, g: BoundedDegreeGraph) -> list[list[int]]:
        """All pieces, each sorted ascending, ordered by smallest member."""
        by_anchor: dict[int, list[int]] = {}
        for v, a in enumerate(self.anchors):
            by_anchor.setdefault(a, []).append(v)
        out: list[list[int]] = []
        for a in sorted(by_anchor):
            out.extend(connected_components(g, by_anchor[a]))
        out.sort(key=lambda piece: piece[0])
        return out


class SweepScan:
    """Prefix sweep of one diffusion vector, for level-set cluster queries.

    Vertices are ranked by (mass descending, id ascending); prefix cut sizes
    are precomputed so that the cut of ``L(k') ∪ {v}`` for any ``k'`` costs
    O(log d).
    """

    def __init__(self, g: BoundedDegreeGraph, vec: MassVector, v: int):
        self.g = g
        self.v = v
        order = ranked_vertices(vec)
        self.order = order
        self.support_size = len(order)
        pos = dict(zip(order, range(len(order))))
        self.pos_v = pos.get(v)
        cutpref = [0]
        cut = 0
        rank = pos.get
        for i, w in enumerate(order):
            nbrs = g.adjacency[w]
            cut += len(nbrs)
            for x in nbrs:
                if rank(x, i) < i:  # x is in the prefix before w
                    cut -= 2
            cutpref.append(cut)
        self.cutpref = cutpref
        self.v_nbr_pos = sorted(pos[x] for x in g.adjacency[v] if x in pos)
        self.deg_v = g.degree(v)

    def members(self, kp: int, v_in_prefix: bool) -> VertexSet:
        chosen = self.order[:kp] if v_in_prefix else self.order[:kp] + [self.v]
        return tuple(sorted(chosen))

    def picks(self, phi: Fraction, ks: Sequence[int]) -> list[tuple[int, bool] | None]:
        """For each k, the first acceptable ``L(k') ∪ {v}`` scanning k' down from 2k.

        Accepts when the size lands in [k, 2k], the set stays inside the
        support, and its conductance is at most phi (the full vertex set has
        none).  A pick is ``(k', v already in the prefix)``, or None when
        nothing qualifies.  Each k' is tested once, whatever the k.
        """
        picks: list[tuple[int, bool] | None] = [None] * len(ks)
        positive = [k for k in ks if k > 0]
        if not positive or self.pos_v is None:  # v fell out of its own support
            return picks
        n, d = self.g.n, self.g.d
        num, den = phi.numerator, phi.denominator
        cutpref, pos_v = self.cutpref, self.pos_v
        v_nbr_pos, deg_v = self.v_nbr_pos, self.deg_v
        top = min(2 * max(positive), self.support_size)
        last = [0] * (top + 1)  # the largest acceptable k'' <= k', or 0
        inside = [False] * (top + 1)
        for kp in range(min(positive), top + 1):
            if pos_v < kp:  # v is already in the prefix
                size, cut = kp, cutpref[kp]
                inside[kp] = True
            else:
                size = kp + 1
                cut = cutpref[kp] + deg_v - 2 * bisect_left(v_nbr_pos, kp)
            ok = size < n and cut * den <= num * 2 * min(size, n - size) * d
            last[kp] = kp if ok else last[kp - 1]
        for i, k in enumerate(ks):
            if not 0 < k <= top:
                continue
            kp = last[min(2 * k, top)]
            if kp == 2 * k and not inside[kp]:  # size 2k + 1 is over the cap
                kp = last[kp - 1]
            if kp >= k:
                picks[i] = (kp, inside[kp])
        return picks

    def cluster(self, phi: Fraction, k: int) -> VertexSet:
        """The accepted cluster for ``k``, or the singleton ``{v}``."""
        pick = self.picks(phi, (k,))[0]
        return self.members(*pick) if pick is not None else (self.v,)


def cluster(
    g: BoundedDegreeGraph, params: OracleParams, v: int, t: int, k: int
) -> VertexSet:
    """The candidate cluster grown from ``v`` by a ``t``-step diffusion.

    Returns the singleton ``{v}`` when ``k`` is zero, when ``v`` fell out of
    its own truncated diffusion, or when no level set qualifies.  The
    bundle must be derived for the graph's degree bound.
    """
    check_degree_bound(params, g.d)
    check_int(v, "vertex id", 0, g.n - 1)
    check_int(t, "walk length", 0, params.ell)
    if check_int(k, "size threshold", 0) == 0:
        return (v,)
    vec = truncated_diffusion(g, v, t, params.rho, exact=params.exact)
    return SweepScan(g, vec, v).cluster(exact_number(params.phi), k)


class PartitionOracle:
    """Shared engine behind both the local query path and the global run.

    Thresholds are chosen phase by phase on first use, once per (graph,
    seed, params): the threshold of phase h when a query or the global pass
    first needs it, after those of the phases before it.  The bundle is
    checked against desk scale and the graph's degree bound when the engine
    is built, the graph must have a vertex, and given thresholds must cover
    exactly h_bar phases.
    An engine is not safe to share between threads.
    """

    def __init__(
        self,
        g: BoundedDegreeGraph,
        ctx: SeedContext,
        thresholds: PhaseThresholds | None = None,
    ):
        check_has_vertices(g)
        check_desk_scale(ctx.params)
        check_degree_bound(ctx.params, g.d)
        if thresholds is not None and len(thresholds.k) != ctx.params.h_bar:
            raise ValueError(
                f"thresholds cover {len(thresholds.k)} phases, expected h_bar={ctx.params.h_bar}"
            )
        self.g = g
        self.ctx = ctx
        self.params = ctx.params
        self._phi = exact_number(self.params.phi)
        self._beta = exact_number(self.params.beta)
        self._ks: list[int] = list(thresholds.k) if thresholds else []
        self._diffuser = Diffuser(g, self.params.rho, self.params.exact)
        # Per source: the sweep scan of its vector at t_s.
        self._scans: dict[int, SweepScan] = {}
        # Per source, for find_ib only: the reach set of its walk to ell.
        self._reach_sets: dict[int, set[int]] = {}
        # reach(t) for t = 0..ell, the farthest a t-step support can lie;
        # filled by the first candidate search.
        self._radii: list[int] = []
        # Per seed: its cluster at t_s and k_{h_s}.
        self._seed_cluster: dict[int, frozenset] = {}
        # Per vertex: [candidate list in processing order, cursor, anchor].
        self._capture: dict[int, list] = {}
        # Every vertex's candidate list, built from the seeds' side once a
        # sweep is under way (see ``_capturer``).
        self._lists: list[list[int]] | None = None
        # Per vertex: its finished piece.
        self._pieces: dict[int, VertexSet] = {}

    # -- diffusion caches ---------------------------------------------------

    def trajectory_masks(self, w: int) -> set[int]:
        """The reach set of the truncated diffusion from ``w``: every vertex
        in its support at some step t = 0..ell.  Only ``find_ib`` reads it.

        (The name predates reach sets and is kept: ``bench/tracing.py``
        wraps it.)
        """
        reached = self._reach_sets.get(w)
        if reached is None:
            reached = set()
            for p in self._diffuser.walk(w, self.params.ell):
                # Only the new vertices: a set updated with all of ``p`` reserves
                # room for every key and ends up about twice as large.
                reached.update(p.keys() - reached)
            self._reach_sets[w] = reached
        return reached

    def _vertex(self, v: int) -> int:
        """``v`` itself, checked where a caller hands the engine a vertex id."""
        return check_int(v, "vertex id", 0, self.g.n - 1)

    def _vec_at(self, s: int) -> MassVector:
        """The truncated diffusion from ``s`` after its walk length t_s,
        walked anew on each call: the engine keeps only its sweep scan."""
        for p in self._diffuser.walk(s, self.ctx.walk_lens[s]):
            pass
        return p

    def _scan(self, s: int) -> SweepScan:
        scan = self._scans.get(s)
        if scan is None:
            scan = SweepScan(self.g, self._vec_at(s), s)
            self._scans[s] = scan
        return scan

    def cluster_at(self, s: int, k: int) -> VertexSet:
        """cluster(s, t_s, k), backed by the per-seed sweep cache."""
        self._vertex(s)
        return self._scan(s).cluster(self._phi, k) if check_int(k, "size threshold", 0) else (s,)

    # -- thresholds (findr) -------------------------------------------------

    def thresholds(self) -> PhaseThresholds:
        """Per-phase size thresholds, choosing those not yet known."""
        self._k_of(self.params.h_bar)
        return PhaseThresholds(tuple(self._ks))

    def _k_of(
        self,
        h: int,
        free_test: Callable[[int], bool] | None = None,
        live: Container[int] | None = None,
    ) -> int:
        """k_h, after choosing k_1..k_h in phase order where not yet known.

        Phase j < h_bar is chosen by ``threshold_search`` with ``free_test``
        and ``live`` when j == h and ``free_test`` is given, else with the
        engine's own free test; k_h_bar is 0.  The list ``_ks`` grows only
        here.

        The search for phase j may run inside a capture scan (a seed of
        phase j asks for its cluster), and it calls back into capture scans.
        That is safe.  Its free tests read only seeds of phases < j, whose
        thresholds are already in the list, so no search starts inside
        another.  And a search that starts during the capture scan of ``u``
        can only re-scan a prefix of ``u``'s candidate list: the outer scan
        has passed every seed of phase < j there without a capture, and it
        writes its own cursor last.
        """
        ks = self._ks
        while len(ks) < h:
            j = len(ks) + 1
            if j == self.params.h_bar:
                ks.append(0)
                continue
            test, alive = (free_test, live) if free_test and j == h else (None, None)
            summary, _ = self.threshold_search(j, test, self.params.k_candidates, live=alive)
            ks.append(summary["chosen_k"])
        return ks[h - 1]

    def phase_sample(self, h: int) -> list[int]:
        """The findr sampling stream for phase ``h`` in [1, h_bar] (uar)."""
        check_int(h, "phase", 1, self.params.h_bar)
        n, below = self.g.n, self.ctx.below
        return [below(n, "findr", h, i) for i in range(self.params.sample_count)]

    def viable(self, s: int, h: int, k: int, free_test: Callable[[int], bool]) -> bool:
        """findr's viability predicate for seed ``s`` at phase ``h``.

        The candidate cluster must be non-singleton and contain at least
        beta^3 * k vertices passing ``free_test``.  This is the definition;
        findr evaluates it for every k at once with ``_viable_picks`` and
        ``_count_free``.
        """
        c = self.cluster_at(s, k)
        if len(c) <= 1:
            return False
        free_members = sum(1 for u in c if free_test(u))
        return Fraction(free_members) >= self._beta ** 3 * k

    def _viable_picks(
        self, s: int, ks: Sequence[int]
    ) -> tuple[SweepScan, list[tuple[int, bool] | None], int]:
        """The sweep scan of ``s``, its pick for each k in ``ks`` (None where
        no cluster or only the singleton {s}, which is never viable, is
        accepted) and the longest accepted prefix: all but the free tests."""
        scan = self._scan(s)
        picks = [
            pick if pick is not None and (pick[0] > 1 or not pick[1]) else None
            for pick in scan.picks(self._phi, ks)
        ]
        longest = max((pick[0] for pick in picks if pick is not None), default=0)
        return scan, picks, longest

    def _count_free(
        self,
        picked: tuple[SweepScan, list[tuple[int, bool] | None], int],
        ks: Sequence[int],
        free_test: Callable[[int], bool],
    ) -> list[bool]:
        """``viable(s, h, k, free_test)`` for every k in ``ks``, given
        ``_viable_picks(s, ks)``: every candidate cluster is a prefix of the
        ranked order plus ``s``, so one prefix count of free members serves
        every k, and ``free_test`` sees each vertex at most once."""
        scan, picks, longest = picked
        s = scan.v
        free_before = [0]
        s_free: bool | None = None
        for u in scan.order[:longest]:
            free = free_test(u)
            if u == s:
                s_free = free
            free_before.append(free_before[-1] + free)
        b3 = self._beta ** 3
        flags = []
        for k, pick in zip(ks, picks):
            if pick is None:
                flags.append(False)
                continue
            kp, s_inside = pick
            free_members = free_before[kp]
            if not s_inside:
                if s_free is None:
                    s_free = free_test(s)
                free_members += s_free
            flags.append(free_members * b3.denominator >= b3.numerator * k)
        return flags

    def threshold_search(
        self,
        h: int,
        free_test: Callable[[int], bool] | None,
        ks: Sequence[int],
        count_when_gated: bool = False,
        live: Container[int] | None = None,
    ) -> tuple[dict, list[int]]:
        """findr's search for k_h, given which vertices are free at phase
        ``h``, which must be in [1, h_bar] (``phase_sample`` checks it).

        Returns a summary and the viable count of each candidate in ``ks``.
        The choice (``chosen_k``) is 0 when too few sampled seeds reach
        phase ``h`` (the gate) or no candidate makes enough kept seeds
        viable (the quota); otherwise it is the candidate with the most
        viable seeds, larger k breaking ties.  A closed gate skips the
        counting unless ``count_when_gated``.  Every kept seed that counts
        is walked before the first free test.

        A kept seed not in ``live``, when given, counts 0 for every k
        unwalked: the caller vouches that none of its clusters holds a
        free vertex, and a viable cluster needs at least one.

        ``free_test`` None means the engine's own free test, ``is_free``
        without its checks.  From phase 2 on, that search also counts 0
        unwalked a kept seed not yet walked that ``_captured_around``
        shows dead.  And when the vertices with open scans, plus the kept
        seeds that count and their prefixes up to the longest accepted
        pick, cover a quarter of the graph, it builds every candidate list
        at once (``_all_candidates``) before its first free test, which
        would open a scan for most of them.  Neither changes a count.
        """
        params = self.params
        sample = self.phase_sample(h)
        retained = [v for v in sample if self.ctx.phases[v] >= h]
        gated = Fraction(len(retained)) <= self._beta * params.sample_count / 2
        kept = retained[: params.keep_count]
        quota = 12 * self._beta ** 4 * len(kept)
        counts = []
        if count_when_gated or not gated:
            times = Counter(kept)
            seeds = [s for s in times if live is None or s in live]
            own = free_test is None and h > 1
            if own:
                seeds = [s for s in seeds if s in self._scans or not self._captured_around(s, h)]
            picked = [self._viable_picks(s, ks) for s in seeds]
            if own and self._lists is None:
                region = set(self._capture)
                for scan, _, longest in picked:
                    region.add(scan.v)
                    region.update(scan.order[:longest])
                if 4 * len(region) >= self.g.n:
                    self._lists = self._all_candidates()
            test = free_test or (lambda u: self._free(u, h))
            counts = [0] * len(ks)
            for s, seed_picks in zip(seeds, picked):
                for i, ok in enumerate(self._count_free(seed_picks, ks, test)):
                    counts[i] += ok * times[s]
        best = max(((c, k) for k, c in zip(ks, counts) if c >= quota), default=None)
        summary = {
            "h": h,
            "samples": len(sample),
            "retained": len(retained),
            "kept": len(kept),
            "gated": gated,
            "quota": quota,
            "chosen_k": 0 if gated or best is None else best[1],
        }
        return summary, counts

    def _captured_around(self, s: int, h: int) -> bool:
        """Whether every vertex within reach(t_s) of ``s`` has a capture
        scan whose anchor is found and has phase < ``h``.

        Then ``s`` is viable for no k at phase h, as a walk of ``s`` would
        show: its clusters lie within reach(t_s) of it, a found anchor
        never changes, so none of those vertices is free at phase h, and a
        viable cluster needs a free member.  The search stops at the first
        vertex without such a scan, before it builds the next ring.
        """
        capture, phases = self._capture, self.ctx.phases
        for ring in self._rings((s,), self._reach_radii()[self.ctx.walk_lens[s]]):
            for w in ring:
                scan = capture.get(w)
                if scan is None or scan[2] is None or phases[scan[2]] >= h:
                    return False
        return True

    # -- local query path ---------------------------------------------------

    def seed_cluster(self, s: int) -> VertexSet:
        """cluster(s, t_s, k_{h_s}): the cluster ``s`` grows as a seed."""
        return tuple(sorted(self._seed_set(self._vertex(s))))

    def _seed_set(self, s: int) -> frozenset:
        c = self._seed_cluster.get(s)
        if c is None:
            c = frozenset(self.cluster_at(s, self._k_of(self.ctx.phases[s])))
            self._seed_cluster[s] = c
        return c

    def find_ib(self, v: int) -> VertexSet:
        """All vertices whose truncated diffusion ever puts mass on ``v``.

        A search from ``v``: each neighbour of a member is admitted exactly
        when ``v`` is in its reach set, and the search stops when no
        admitted member is left to expand.  This is the paper's incoming
        ball, kept as the reference definition; capture scans walk the
        shorter candidate list of ``_candidates`` instead.
        """
        seen = {v}
        ball = [v]
        for u in ball:
            for w in self.g.adjacency[u]:
                if w not in seen:
                    seen.add(w)
                    if v in self.trajectory_masks(w):
                        ball.append(w)
        return tuple(sorted(ball))

    def _rings(self, sources: Iterable[int], radius: int) -> Iterator[list[int]]:
        """The distance layers 0..``radius`` around ``sources``, in
        breadth-first order, each built only when asked for."""
        adjacency = self.g.adjacency
        ring = list(sources)
        seen = set(ring)
        yield ring
        for _ in range(radius):
            outer = []
            for w in ring:
                for x in adjacency[w]:
                    if x not in seen:
                        seen.add(x)
                        outer.append(x)
            ring = outer
            yield ring

    def _seeds_near(self, sources: Iterable[int], h_end: int) -> list[tuple[int, int]]:
        """(phase, id) of every seed of phase < ``h_end`` whose walk can
        reach one of ``sources``: the engine's only multi-source seed search.

        A seed's clusters lie in the support of its walk at t_s, plus the
        seed, and that support lies within reach(t_s) of the seed
        (``support_radius``).  So these are the seeds ``s`` with
        dist(s, sources) <= reach(t_s), sources included, found in the
        rings around all sources at once out to radius reach(ell);
        unsorted.  Candidate lists pass ``h_end`` = h_bar, since seeds of
        phase h_bar have singleton clusters; a piece query passes one past
        its anchor's phase; the global pass's live test passes h_bar + 1.
        A walk length is read only for a vertex whose phase is below
        ``h_end``.
        """
        radii = self._reach_radii()
        phases, walk_lens = self.ctx.phases, self.ctx.walk_lens
        found = []
        for r, ring in enumerate(self._rings(sources, radii[-1])):
            for w in ring:
                h = phases[w]
                if h < h_end and r <= radii[walk_lens[w]]:
                    found.append((h, w))
        return found

    def _candidates(self, u: int) -> list[int]:
        """``u`` and every seed that can capture it, in processing order:
        the one-source case of ``_seeds_near``.

        This is the search for cold queries, and the tests' reference.
        Once a sweep is under way, later scans take the same lists from
        ``_all_candidates``, built from the seeds' side (see ``_capturer``).
        """
        found = self._seeds_near((u,), self.params.h_bar)
        h = self.ctx.phases[u]
        if h == self.params.h_bar:
            found.append((h, u))
        found.sort()
        return [x for _, x in found]

    def _reach_radii(self) -> list[int]:
        """reach(t) for t = 0..ell, computed on first use."""
        radii = self._radii
        if not radii:
            rho, d = exact_number(self.params.rho), self.g.d
            radii[:] = [support_radius(t, rho, d) for t in range(self.params.ell + 1)]
        return radii

    def _all_candidates(self) -> list[list[int]]:
        """Every vertex's candidate list, built from the seeds' side.

        For each seed ``s`` of phase < h_bar in processing order, one
        breadth-first search to radius reach(t_s) appends ``s`` to the list
        of every vertex it reaches, ``s`` included; each vertex of phase
        h_bar then goes last on its own list.  Distance is symmetric, so
        list u equals ``_candidates(u)`` entry for entry.
        """
        # Stamps, not ``_rings``: a seen set per seed built grid-50's table in 38 ms, not 28.
        radii = self._reach_radii()
        phases, walk_lens = self.ctx.phases, self.ctx.walk_lens
        h_bar, adjacency = self.params.h_bar, self.g.adjacency
        n = self.g.n
        lists: list[list[int]] = [[] for _ in range(n)]
        last = [-1] * n  # the seed whose search last reached each vertex
        for h, s in sorted((phases[v], v) for v in range(n)):
            lists[s].append(s)
            if h == h_bar:
                continue
            last[s] = s
            frontier = [s]
            for _ in range(radii[walk_lens[s]]):
                ring = []
                for w in frontier:
                    for x in adjacency[w]:
                        if last[x] != s:
                            last[x] = s
                            lists[x].append(s)
                            ring.append(x)
                if not ring:
                    break
                frontier = ring
        return lists

    def _capturer(self, u: int, h: int) -> int | None:
        """Resume the capture scan of ``u`` through the seeds of phases < ``h``.

        The scan walks the candidate list of ``u``, which is in processing
        order, and stops at the first seed whose cluster contains ``u``:
        the anchor, as the global pass defines it.  Returns the anchor once
        found, whatever its phase, else None.

        A scan takes its list from one of two builders and must never
        change it.  A cold piece query given its thresholds opens one
        scan, its vertex's, searched from that vertex (``_candidates``).
        A sweep (the tester, the estimator, a local ``partition``) opens
        one for almost every vertex, and neighbouring searches repeat each
        other: building every list at once from the seeds' side
        (``_all_candidates``) costs as much as about 0.09 n per-vertex
        searches on grids, triangulated grids and trees.  So the table is
        built by whichever comes first: the local threshold search whose
        free tests are about to reach a quarter of the vertices (see
        ``threshold_search``), or, in a sweep given its thresholds, the
        scan that opens when scans are already open for a quarter of the
        vertices.  Every later scan takes its list from the table by
        reference; earlier scans keep their own.  Work that reaches fewer
        vertices than that never pays for the table: a cold query given its
        thresholds opens one scan, and one that chooses its own opens scans
        only for the kept seeds' prefixes of the phases it searches, at
        most keep_count (2 max k + 1) vertices a phase.  So on larger
        graphs per-query work stays independent of n.
        """
        scan = self._capture.get(u)
        if scan is None:
            lists = self._lists
            if lists is None and 4 * len(self._capture) >= self.g.n:
                lists = self._lists = self._all_candidates()
            scan = [self._candidates(u) if lists is None else lists[u], 0, None]
            self._capture[u] = scan
        seeds, i, anchor = scan
        if anchor is None:
            phases = self.ctx.phases
            while i < len(seeds) and phases[seeds[i]] < h:
                if u in self._seed_set(seeds[i]):
                    anchor = seeds[i]
                    break
                i += 1
            scan[1], scan[2] = i, anchor
        return anchor

    def is_free(self, u: int, h: int) -> bool:
        """Whether ``u`` is still unclustered when phase ``h`` starts.

        Only seeds of earlier phases can have captured ``u``, and every such
        seed is on the candidate list of ``u``, so the check never needs a
        global pass.
        """
        return self._free(self._vertex(u), check_int(h, "phase", 1, self.params.h_bar))

    def _free(self, u: int, h: int) -> bool:
        """``is_free`` without the checks: findr's free test."""
        if h == 1:
            return True
        anchor = self._capturer(u, h)
        return anchor is None or self.ctx.phases[anchor] >= h

    def find_anchor(self, v: int) -> int:
        """The first seed in processing order whose cluster contains ``v``."""
        return self._anchor(self._vertex(v))

    def _anchor(self, v: int) -> int:
        anchor = self._capturer(v, self.params.h_bar + 1)
        if anchor is None:
            raise RuntimeError(
                f"no capturing seed found for vertex {v}; "
                "the candidate search is incomplete"
            )
        return anchor

    def find_partition(self, v: int) -> VertexSet:
        """The full piece containing ``v``: the same-anchor vertices
        connected to it, searched from the seeds' side.

        A member ``w`` of the anchor ``a``'s cluster has anchor ``a``
        exactly when no seed before ``a`` in processing order has ``w`` in
        its cluster, and every such seed lies within reach(t_s) of ``w``.
        So the piece is ``v``'s component of the cluster after dropping the
        clusters of the seeds ``v``'s capture scan passed, and then of the
        earlier seeds that one ``_seeds_near`` search from what is left
        finds; every one of them has phase at most phase(a).  A query opens
        one capture scan, ``v``'s.  Each piece is kept under every one of
        its members.
        """
        piece = self._pieces.get(self._vertex(v))
        if piece is None:
            a = self._anchor(v)
            seeds, cursor, _ = self._capture[v]

            def component(inside: set[int]) -> list[int]:
                return next(c for c in connected_components(self.g, inside) if v in c)

            rest = set(component(self._seed_set(a).difference(
                *map(self._seed_set, seeds[:cursor]))))
            key = (self.ctx.phases[a], a)
            earlier = [s for h, s in self._seeds_near(rest, key[0] + 1) if (h, s) < key]
            piece = tuple(component(rest.difference(*map(self._seed_set, earlier))))
            self._pieces.update(dict.fromkeys(piece, piece))
        return piece

    # -- global reference ---------------------------------------------------

    def global_partition(self) -> Partition:
        """The global procedure, phase by phase over a plain free array.

        This is also the global findr: a k_h not yet known is chosen at the
        start of phase h, when ``free`` holds exactly the vertices that no
        earlier phase's seed captured.  So the free set at the start of
        phase h is {u : phase(anchor(u)) >= h}.

        From phase 2 on, a seed ``s`` is walked only if it is live: some
        vertex free at the start of the phase lies within reach(t_s) of it,
        which is to say ``_seeds_near`` from the free vertices finds it.
        Every cluster of ``s`` lies in the support of its walk at t_s, plus
        ``s``, so within reach(t_s) of ``s``.  The free set only shrinks
        during a phase, so a dead seed's cluster holds no free vertex: as a
        seed of phase h it claims nothing, and as a kept seed of findr's
        phase-h search it is viable for no k.  Skipping both is exact.  The
        search takes seeds of every phase, h_bar included, since findr's
        kept seeds may have phase h_bar.  Phase h_bar itself is not tested:
        its clusters are singletons, unwalked.
        """
        n = self.g.n
        h_bar = self.params.h_bar
        seeds_of: list[list[int]] = [[] for _ in range(h_bar + 1)]
        for v in range(n):
            seeds_of[self.ctx.phases[v]].append(v)
        free = [True] * n
        anchors = [-1] * n
        for h in range(1, h_bar + 1):
            live = None
            if 1 < h < h_bar:
                sources = [u for u in range(n) if free[u]]
                live = {s for _, s in self._seeds_near(sources, h_bar + 1)}
            self._k_of(h, free.__getitem__, live)
            for v in seeds_of[h]:
                if live is None or v in live:
                    for u in self._seed_set(v):
                        if free[u]:
                            anchors[u] = v
                            free[u] = False
        return Partition(anchors=tuple(anchors))
