"""The partition oracle: clustering, local queries, and the global reference.

The same fixed randomness — per-vertex phases and walk lengths derived from
one master seed — drives both the one-shot global partitioning procedure and
the per-vertex local query path, and the two are exactly equivalent: a local
query returns precisely the piece the global procedure would assign.  The
:class:`PartitionOracle` engine keeps one resumable diffusion walk and one
sweep scan per source, one cluster per seed, and one resumable capture scan
per vertex, which answers both ``is_free`` and ``find_anchor``; batches of
local queries share all of it.
"""
from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .diffusion import (
    Diffuser,
    MassVector,
    exact_number,
    ranked_vertices,
    truncated_diffusion,
)
from .graphs import BoundedDegreeGraph, VertexSet, connected_components
from .params import OracleParams, check_desk_scale, is_integer
from .seeds import SeedContext


@dataclass(frozen=True)
class PhaseThresholds:
    """Size thresholds k_1..k_h_bar; the final phase is always 0."""

    k: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.k:
            raise ValueError("thresholds must cover at least one phase")
        if not all(map(is_integer, self.k)):
            raise ValueError(f"size thresholds must be integers, got {self.k}")
        if self.k[-1] != 0:
            raise ValueError("the final-phase threshold must be 0")
        if any(x < 0 for x in self.k):
            raise ValueError("size thresholds must be nonnegative")

    def for_phase(self, h: int) -> int:
        if not 1 <= h <= len(self.k):
            raise ValueError(f"phase {h} outside [1, {len(self.k)}]")
        return self.k[h - 1]


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
        self.in_support = v in vec
        order = ranked_vertices(vec)
        self.order = order
        self.support_size = len(order)
        pos = {w: i for i, w in enumerate(order)}
        self.pos_v = pos.get(v)
        cutpref = [0]
        cut = 0
        prefix: set[int] = set()
        for w in order:
            inside = sum(1 for x in g.adjacency[w] if x in prefix)
            cut += g.degree(w) - 2 * inside
            prefix.add(w)
            cutpref.append(cut)
        self.cutpref = cutpref
        self.v_nbr_pos = sorted(pos[x] for x in g.adjacency[v] if x in pos)
        self.deg_v = g.degree(v)

    def candidate(self, kp: int) -> tuple[int, int, bool]:
        """(size, cut, v_already_in_prefix) for ``L(kp) ∪ {v}``."""
        if self.pos_v is not None and self.pos_v < kp:
            return kp, self.cutpref[kp], True
        inside = bisect_left(self.v_nbr_pos, kp)
        return kp + 1, self.cutpref[kp] + self.deg_v - 2 * inside, False

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
        if not positive or not self.in_support:
            return picks
        n, d = self.g.n, self.g.d
        top = min(2 * max(positive), self.support_size)
        last = [0] * (top + 1)  # the largest acceptable k'' <= k', or 0
        inside = [False] * (top + 1)
        for kp in range(min(positive), top + 1):
            size, cut, inside[kp] = self.candidate(kp)
            denom = 2 * min(size, n - size) * d
            ok = size < n and cut * phi.denominator <= phi.numerator * denom
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
    its own truncated diffusion, or when no level set qualifies.
    """
    if not 0 <= t <= params.ell:
        raise ValueError(f"walk length {t} outside [0, {params.ell}]")
    if k < 0:
        raise ValueError(f"size threshold must be >= 0, got {k}")
    if k == 0:
        return (v,)
    vec = truncated_diffusion(g, v, t, params.rho, exact=params.exact)
    return SweepScan(g, vec, v).cluster(exact_number(params.phi), k)


class PartitionOracle:
    """Shared engine behind both the local query path and the global run.

    Thresholds are computed once per (graph, seed, params): lazily by the
    local findr, or phase by phase inside the global pass, whichever runs
    first.  The bundle is checked against desk scale when the engine is
    built, and given thresholds must cover exactly h_bar phases.  An engine
    is not safe to share between threads.
    """

    def __init__(
        self,
        g: BoundedDegreeGraph,
        ctx: SeedContext,
        thresholds: PhaseThresholds | None = None,
    ):
        check_desk_scale(ctx.params)
        if thresholds is not None and len(thresholds.k) != ctx.params.h_bar:
            raise ValueError(
                f"thresholds cover {len(thresholds.k)} phases, expected h_bar={ctx.params.h_bar}"
            )
        self.g = g
        self.ctx = ctx
        self.params = ctx.params
        self._phi = exact_number(self.params.phi)
        self._beta = exact_number(self.params.beta)
        self._thresholds = thresholds
        self._ks: list[int] | None = list(thresholds.k) if thresholds else None
        self._diffuser = Diffuser(g, self.params.rho, self.params.exact)
        # Per source: [step, vector at step, reach set, vector at t_s].
        self._walks: dict[int, list] = {}
        self._scans: dict[int, SweepScan] = {}
        # Per seed: its cluster at t_s and k_{h_s}.
        self._seed_cluster: dict[int, frozenset] = {}
        # Per vertex: [incoming ball in processing order, cursor, anchor].
        self._capture: dict[int, list] = {}

    # -- diffusion caches ---------------------------------------------------

    def _walk_to(self, s: int, t: int) -> list:
        """Advance the truncated diffusion from ``s`` to step ``t``.

        Each vertex the walk reaches is recorded as it passes, and the
        vector at ``t_s`` is kept for ``vec_at``.
        """
        walk = self._walks.get(s)
        if walk is None:
            walk = [0, {s: Fraction(1) if self.params.exact else 1.0}, {s}, None]
            self._walks[s] = walk
        step, p, reached, _ = walk
        if step < t:
            diffuse = self._diffuser.step
            t_s = self.ctx.walk_len_of(s)
            while step < t:
                step += 1
                if p:
                    p = diffuse(p, reached)
                if step == t_s:
                    walk[3] = p
            # A finished walk needs only its reach set.
            walk[0], walk[1] = step, p if step < self.params.ell else None
        return walk

    def trajectory_masks(self, w: int) -> set[int]:
        """The reach set of the truncated diffusion from ``w``: every vertex
        in its support at some step t = 0..ell.

        (The name predates reach sets and is kept: ``bench/tracing.py``
        wraps it.)
        """
        walk = self._walks.get(w)
        if walk is None or walk[0] < self.params.ell:
            walk = self._walk_to(w, self.params.ell)
        return walk[2]

    def vec_at(self, s: int) -> MassVector:
        """The truncated diffusion from ``s`` after its walk length t_s."""
        return self._walk_to(s, self.ctx.walk_len_of(s))[3]

    def _scan(self, s: int) -> SweepScan:
        scan = self._scans.get(s)
        if scan is None:
            scan = SweepScan(self.g, self.vec_at(s), s)
            self._scans[s] = scan
        return scan

    def cluster_at(self, s: int, k: int) -> VertexSet:
        """cluster(s, t_s, k), backed by the per-seed sweep cache."""
        return self._scan(s).cluster(self._phi, k) if k > 0 else (s,)

    # -- thresholds (findr) -------------------------------------------------

    def thresholds(self) -> PhaseThresholds:
        """Per-phase size thresholds, from the local findr if not yet known."""
        if self._thresholds is None:
            self._thresholds = self._compute_thresholds()
        return self._thresholds

    def _k_of(self, h: int) -> int:
        if self._ks is None or len(self._ks) < h:
            raise RuntimeError(
                f"size threshold for phase {h} requested before it was computed"
            )
        return self._ks[h - 1]

    def phase_sample(self, h: int) -> list[int]:
        """The findr sampling stream for phase ``h`` (uar, with replacement)."""
        n = self.g.n
        return [
            self.ctx.sample_vertex(n, "findr", h, i)
            for i in range(self.params.sample_count)
        ]

    def viable(self, s: int, h: int, k: int, free_test: Callable[[int], bool]) -> bool:
        """findr's viability predicate for seed ``s`` at phase ``h``.

        The candidate cluster must be non-singleton and contain at least
        beta^3 * k vertices passing ``free_test``.  This is the definition;
        findr evaluates it for every k at once with ``viable_flags``.
        """
        c = self.cluster_at(s, k)
        if len(c) <= 1:
            return False
        free_members = sum(1 for u in c if free_test(u))
        return Fraction(free_members) >= self._beta ** 3 * k

    def viable_flags(
        self, s: int, ks: Sequence[int], free_test: Callable[[int], bool]
    ) -> list[bool]:
        """``viable(s, h, k, free_test)`` for every k in ``ks``, from one scan.

        Every candidate cluster of ``s`` is a prefix of the ranked order of
        one sweep scan, plus ``s``; so one prefix count of free members, up
        to the longest accepted prefix, serves every k, and ``free_test``
        sees each vertex at most once.
        """
        scan = self._scan(s)
        # The singleton {s} is never viable, so its pick asks nothing.
        picks = [
            pick if pick is not None and (pick[0] > 1 or not pick[1]) else None
            for pick in scan.picks(self._phi, ks)
        ]
        longest = max((pick[0] for pick in picks if pick is not None), default=0)
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

    def viable_counts(
        self, kept: list[int], ks: Sequence[int], free_test: Callable[[int], bool]
    ) -> list[int]:
        """How many of the ``kept`` seeds are viable for each k in ``ks``."""
        counts = [0] * len(ks)
        for s, times in Counter(kept).items():
            for i, ok in enumerate(self.viable_flags(s, ks, free_test)):
                counts[i] += ok * times
        return counts

    def threshold_search(
        self,
        h: int,
        free_test: Callable[[int], bool],
        ks: Sequence[int],
        count_when_gated: bool = False,
    ) -> tuple[dict, list[int]]:
        """findr's search for k_h, given which vertices are free at phase ``h``.

        Returns a summary and the viable count of each candidate in ``ks``.
        The choice (``chosen_k``) is 0 when too few sampled seeds reach
        phase ``h`` (the gate) or no candidate makes enough kept seeds
        viable (the quota); otherwise it is the candidate with the most
        viable seeds, larger k breaking ties.  A closed gate skips the
        counting unless ``count_when_gated``.
        """
        params = self.params
        sample = self.phase_sample(h)
        retained = [v for v in sample if self.ctx.phase_of(v) >= h]
        gated = Fraction(len(retained)) <= self._beta * params.sample_count / 2
        kept = retained[: params.keep_count]
        quota = 12 * self._beta ** 4 * len(kept)
        counts = (
            self.viable_counts(kept, ks, free_test)
            if count_when_gated or not gated
            else []
        )
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

    def _choose_threshold(self, h: int, free_test: Callable[[int], bool]) -> int:
        summary, _ = self.threshold_search(h, free_test, self.params.k_candidates)
        return summary["chosen_k"]

    def _compute_thresholds(self) -> PhaseThresholds:
        """The local findr: each free test is an incoming-ball search."""
        ks: list[int] = []
        self._ks = ks
        for h in range(1, self.params.h_bar):
            ks.append(self._choose_threshold(h, lambda u, _h=h: self.is_free(u, _h)))
        ks.append(0)
        return PhaseThresholds(tuple(ks))

    # -- local query path ---------------------------------------------------

    def seed_cluster(self, s: int) -> VertexSet:
        """cluster(s, t_s, k_{h_s}): the cluster ``s`` grows as a seed."""
        return tuple(sorted(self._seed_set(s)))

    def _seed_set(self, s: int) -> frozenset:
        c = self._seed_cluster.get(s)
        if c is None:
            c = frozenset(self.cluster_at(s, self._k_of(self.ctx.phase_of(s))))
            self._seed_cluster[s] = c
        return c

    def find_ib(self, v: int) -> VertexSet:
        """All vertices whose truncated diffusion ever puts mass on ``v``.

        A search from ``v``: each neighbour of a member is admitted exactly
        when ``v`` is in its reach set, and the search stops when no
        admitted member is left to expand.
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

    def _capturer(self, u: int, h: int) -> int | None:
        """Resume the capture scan of ``u`` through the seeds of phases < ``h``.

        The scan walks the incoming ball of ``u`` in processing order and
        stops at the first seed whose cluster contains ``u``: the anchor.
        Returns the anchor once found, whatever its phase, else None.
        """
        scan = self._capture.get(u)
        if scan is None:
            scan = [sorted(self.find_ib(u), key=self.ctx.order_key), 0, None]
            self._capture[u] = scan
        ball, i, anchor = scan
        if anchor is None:
            phase_of = self.ctx.phase_of
            while i < len(ball) and phase_of(ball[i]) < h:
                if u in self._seed_set(ball[i]):
                    anchor = ball[i]
                    break
                i += 1
            scan[1], scan[2] = i, anchor
        return anchor

    def is_free(self, u: int, h: int) -> bool:
        """Whether ``u`` is still unclustered when phase ``h`` starts.

        Only seeds of earlier phases can have captured ``u``, and every such
        seed lies in the incoming ball of ``u``, so the check never needs a
        global pass.
        """
        if not 1 <= h <= self.params.h_bar:
            raise ValueError(f"phase {h} outside [1, {self.params.h_bar}]")
        if h == 1:
            return True
        if self._ks is None or len(self._ks) < h - 1:
            # Seeds of phases 1..h-1 need their size thresholds.  During the
            # threshold computation itself the first h-1 entries are already
            # in place, so this never re-enters findr.
            self.thresholds()
        anchor = self._capturer(u, h)
        return anchor is None or self.ctx.phase_of(anchor) >= h

    def find_anchor(self, v: int) -> int:
        """The first seed in processing order whose cluster contains ``v``."""
        self.thresholds()
        anchor = self._capturer(v, self.params.h_bar + 1)
        if anchor is None:
            raise RuntimeError(
                f"no capturing seed found for vertex {v}; "
                "the incoming-ball search is incomplete"
            )
        return anchor

    def find_partition(self, v: int) -> VertexSet:
        """The full piece containing ``v``: BFS over same-anchor vertices.

        A neighbour ``w`` of a member ``u`` is asked for its anchor only if
        both exact tests leave it possible: ``w`` lies in the cluster of the
        anchor ``a``, and in no cluster of a seed that ``u``'s capture scan
        passed before reaching ``a`` (such a seed precedes ``a`` and would
        anchor ``w`` first).  So no incoming ball is built for a vertex that
        cannot join the piece.  An anchor already found is compared at once:
        on a warm engine the second test would cost more than it saves.
        """
        a = self.find_anchor(v)
        members = self._seed_set(a)
        piece = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            ball, cursor, _ = self._capture[u]
            for w in self.g.adjacency[u]:
                if w in piece or w not in members:
                    continue
                scan = self._capture.get(w)
                if (scan is None or scan[2] is None) and any(
                    w in self._seed_cluster[s] for s in ball[:cursor]  # built by the scan
                ):
                    continue
                if self.find_anchor(w) == a:
                    piece.add(w)
                    stack.append(w)
        return tuple(sorted(piece))

    # -- global reference ---------------------------------------------------

    def global_partition(self) -> Partition:
        return self._run_global(None)

    def global_partition_with_free_sets(self) -> tuple[Partition, dict[int, frozenset]]:
        """The global run plus the free set recorded at each phase start."""
        free_sets: dict[int, frozenset] = {}
        return self._run_global(free_sets), free_sets

    def _run_global(self, free_sets: dict[int, frozenset] | None) -> Partition:
        """The global procedure, phase by phase over a plain free array.

        Without given thresholds this is also the global findr: each k_h is
        chosen at the start of phase h, when ``free`` holds exactly the
        vertices that no earlier phase's seed captured.
        """
        n = self.g.n
        h_bar = self.params.h_bar
        search = self._thresholds is None
        if search:
            self._ks = []
        seeds_of: list[list[int]] = [[] for _ in range(h_bar + 1)]
        for v in range(n):
            seeds_of[self.ctx.phase_of(v)].append(v)
        free = [True] * n
        anchors = [-1] * n
        for h in range(1, h_bar + 1):
            if free_sets is not None:
                free_sets[h] = frozenset(u for u in range(n) if free[u])
            if search:
                self._ks.append(
                    self._choose_threshold(h, free.__getitem__) if h < h_bar else 0
                )
            for v in seeds_of[h]:
                for u in self._seed_set(v):
                    if free[u]:
                        anchors[u] = v
                        free[u] = False
        if search:
            self._thresholds = PhaseThresholds(tuple(self._ks))
        return Partition(anchors=tuple(anchors))
