"""The partition oracle: clustering, local queries, and the global reference.

The same fixed randomness — per-vertex phases and walk lengths derived from
one master seed — drives both the one-shot global partitioning procedure and
the per-vertex local query path, and the two are exactly equivalent: a local
query returns precisely the piece the global procedure would assign.  The
:class:`PartitionOracle` engine keeps one resumable diffusion walk per
source, with the first step at which the walk reaches each vertex, and
memoizes sweep scans, per-seed clusters, and anchors, so batches of local
queries share work.
"""
from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .diffusion import (
    MassVector,
    exact_number,
    lazy_step,
    ranked_vertices,
    truncate,
    truncated_diffusion,
)
from .graphs import BoundedDegreeGraph, VertexSet, connected_components
from .params import (
    MAX_FINDR_PHASES,
    MAX_FINDR_SAMPLES,
    MAX_K_CANDIDATES,
    OracleParams,
)
from .seeds import SeedContext

# Trajectory loops run ell steps; formula-mode ell is astronomically large,
# so desk-scale entry points refuse rather than never terminate.
MAX_DESK_ELL = 1_000_000


class OracleConfigError(RuntimeError):
    """Raised when a configuration is infeasible to execute at desk scale."""


@dataclass(frozen=True)
class PhaseThresholds:
    """Size thresholds k_1..k_h_bar; the final phase is always 0."""

    k: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.k:
            raise ValueError("thresholds must cover at least one phase")
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


def _frontier_ib(
    g: BoundedDegreeGraph,
    ell: int,
    v: int,
    first_hits_of: Callable[[int], dict[int, int]],
) -> VertexSet:
    """Grow the incoming ball of ``v`` by frontier expansion.

    Round ``t`` admits any pool vertex ``w`` (pool = members plus their
    neighbors, fixed when the round starts) whose truncated diffusion first
    puts mass on ``v`` at some step ``fh <= t``.  Only the members admitted
    in the last round bring new vertices into the pool; a pooled vertex
    with ``fh > t`` waits for round ``fh``.
    """
    member = {v}
    seen = {v}
    waiting: dict[int, int] = {}
    admitted = [v]
    for t in range(1, ell + 1):
        fresh = {w for u in admitted for w in g.adjacency[u]} - seen
        seen |= fresh
        admitted = [w for w, fh in waiting.items() if fh <= t]
        for w in admitted:
            del waiting[w]
        for w in fresh:
            fh = first_hits_of(w).get(v, -1)
            if 0 <= fh <= t:
                admitted.append(w)
            elif fh > t:
                waiting[w] = fh
        member.update(admitted)
        if not admitted and not waiting:
            break
    return tuple(sorted(member))


def ensure_desk_scale(params: OracleParams) -> None:
    if params.ell > MAX_DESK_ELL:
        raise OracleConfigError(
            f"walk-length cap ell={params.ell} is beyond desk scale; "
            "use explicit parameters"
        )


class PartitionOracle:
    """Shared engine behind both the local query path and the global run.

    Thresholds are computed once per (graph, seed, params): lazily by the
    local findr, or phase by phase inside the global pass, whichever runs
    first.  An engine is not safe to share between threads.
    """

    def __init__(
        self,
        g: BoundedDegreeGraph,
        ctx: SeedContext,
        thresholds: PhaseThresholds | None = None,
    ):
        self.g = g
        self.ctx = ctx
        self.params = ctx.params
        self._phi = exact_number(self.params.phi)
        self._beta = exact_number(self.params.beta)
        self._thresholds = thresholds
        self._ks: list[int] | None = list(thresholds.k) if thresholds else None
        # One resumable walk per source: [step, vector at step, first hits].
        self._walks: dict[int, list] = {}
        self._vecs: dict[tuple[int, int], MassVector] = {}
        self._scans: dict[tuple[int, int], SweepScan] = {}
        self._seed_cluster: dict[int, VertexSet] = {}
        self._seed_cluster_set: dict[int, frozenset] = {}
        self._ib: dict[int, VertexSet] = {}
        self._anchor: dict[int, int] = {}
        self._capture: dict[int, tuple[int, int | None]] = {}

    # -- diffusion caches ---------------------------------------------------

    def _walk_to(self, s: int, t: int) -> list:
        """Advance the truncated diffusion from ``s`` to step ``t``.

        Each vertex's first step in the support is recorded as the walk
        passes it, and the vector at ``t_s`` is kept for ``vec_at``.
        """
        walk = self._walks.get(s)
        if walk is None:
            walk = [0, {s: Fraction(1) if self.params.exact else 1.0}, {s: 0}]
            self._walks[s] = walk
        step, p, first_hit = walk
        if step < t:
            exact, rho = self.params.exact, self.params.rho
            t_s = self.ctx.walk_len_of(s)
            while step < t:
                step += 1
                if p:
                    p = truncate(lazy_step(self.g, p, exact=exact), rho, exact=exact)
                    for u in p:
                        first_hit.setdefault(u, step)
                if step == t_s:
                    self._vecs[(s, t_s)] = p
            # A finished walk needs only its first hits.
            walk[0], walk[1] = step, p if step < self.params.ell else None
        return walk

    def trajectory_masks(self, w: int) -> dict[int, int]:
        """First-hit steps of the truncated diffusion from ``w``, t=0..ell.

        Maps each vertex the walk ever reaches to the first step at which
        it is in the support.  (The name predates first-hit times and is
        kept: ``bench/tracing.py`` wraps it.)
        """
        walk = self._walks.get(w)
        if walk is None or walk[0] < self.params.ell:
            ensure_desk_scale(self.params)
            walk = self._walk_to(w, self.params.ell)
        return walk[2]

    def vec_at(self, s: int, t: int) -> MassVector:
        key = (s, t)
        vec = self._vecs.get(key)
        if vec is None:
            if t == self.ctx.walk_len_of(s):
                self._walk_to(s, t)
                vec = self._vecs[key]
            else:
                vec = truncated_diffusion(self.g, s, t, self.params.rho, exact=self.params.exact)
                self._vecs[key] = vec
        return vec

    def _scan_at(self, s: int, t: int) -> SweepScan:
        key = (s, t)
        scan = self._scans.get(key)
        if scan is None:
            scan = SweepScan(self.g, self.vec_at(s, t), s)
            self._scans[key] = scan
        return scan

    def cluster_at(self, s: int, t: int, k: int) -> VertexSet:
        """cluster(s, t, k) backed by the per-(s, t) sweep cache."""
        return self._scan_at(s, t).cluster(self._phi, k) if k > 0 else (s,)

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
        c = self.cluster_at(s, self.ctx.walk_len_of(s), k)
        if len(c) <= 1:
            return False
        free_members = sum(1 for u in c if free_test(u))
        return Fraction(free_members) >= self._beta ** 3 * k

    def _check_findr_scale(self) -> None:
        params = self.params
        ensure_desk_scale(params)
        if params.h_bar > MAX_FINDR_PHASES:
            raise OracleConfigError(
                f"h_bar={params.h_bar} phases is beyond desk scale"
            )
        if params.sample_count > MAX_FINDR_SAMPLES:
            raise OracleConfigError(
                f"sample_count={params.sample_count} is beyond desk scale"
            )
        kc = params.k_candidates
        n_candidates = (
            max(0, (kc.stop - kc.start + kc.step - 1) // kc.step)
            if isinstance(kc, range)
            else len(kc)
        )
        if n_candidates > MAX_K_CANDIDATES:
            raise OracleConfigError(
                f"{n_candidates} size-threshold candidates is beyond desk scale"
            )

    def viable_flags(
        self, s: int, ks: Sequence[int], free_test: Callable[[int], bool]
    ) -> list[bool]:
        """``viable(s, h, k, free_test)`` for every k in ``ks``, from one scan.

        Every candidate cluster of ``s`` is a prefix of the ranked order of
        one sweep scan, plus ``s``; so one prefix count of free members, up
        to the longest accepted prefix, serves every k, and ``free_test``
        sees each vertex at most once.
        """
        scan = self._scan_at(s, self.ctx.walk_len_of(s))
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
        self._check_findr_scale()
        ks: list[int] = []
        self._ks = ks
        for h in range(1, self.params.h_bar):
            ks.append(self._choose_threshold(h, lambda u, _h=h: self.is_free(u, _h)))
        ks.append(0)
        return PhaseThresholds(tuple(ks))

    # -- local query path ---------------------------------------------------

    def seed_cluster(self, s: int) -> VertexSet:
        """cluster(s, t_s, k_{h_s}): the cluster ``s`` grows as a seed."""
        c = self._seed_cluster.get(s)
        if c is None:
            c = self.cluster_at(s, self.ctx.walk_len_of(s), self._k_of(self.ctx.phase_of(s)))
            self._seed_cluster[s] = c
            self._seed_cluster_set[s] = frozenset(c)
        return c

    def _seed_captures(self, s: int, u: int) -> bool:
        self.seed_cluster(s)
        return u in self._seed_cluster_set[s]

    def find_ib(self, v: int) -> VertexSet:
        """All vertices whose truncated diffusion ever puts mass on ``v``."""
        got = self._ib.get(v)
        if got is None:
            ensure_desk_scale(self.params)
            got = _frontier_ib(self.g, self.params.ell, v, self.trajectory_masks)
            self._ib[v] = got
        return got

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
        checked, captured = self._capture.get(u, (1, None))
        if captured is not None and captured < h:
            return False
        if checked < h:
            for w in self.find_ib(u):
                hw = self.ctx.phase_of(w)
                if checked <= hw < h and self._seed_captures(w, u):
                    if captured is None or hw < captured:
                        captured = hw
            self._capture[u] = (h, captured)
        return captured is None or captured >= h

    def find_anchor(self, v: int) -> int:
        """The first seed in processing order whose cluster contains ``v``."""
        a = self._anchor.get(v)
        if a is None:
            self.thresholds()
            for s in sorted(self.find_ib(v), key=self.ctx.order_key):
                if self._seed_captures(s, v):
                    a = s
                    break
            if a is None:
                raise RuntimeError(
                    f"no capturing seed found for vertex {v}; "
                    "the incoming-ball search is incomplete"
                )
            self._anchor[v] = a
        return a

    def find_partition(self, v: int) -> VertexSet:
        """The full piece containing ``v``: BFS over same-anchor vertices."""
        a = self.find_anchor(v)
        piece = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for w in self.g.adjacency[u]:
                if w not in piece and self.find_anchor(w) == a:
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
            self._check_findr_scale()
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
                for u in self.seed_cluster(v):
                    if free[u]:
                        anchors[u] = v
                        free[u] = False
        if search:
            self._thresholds = PhaseThresholds(tuple(self._ks))
        return Partition(anchors=tuple(anchors))


def find_ib(g: BoundedDegreeGraph, params: OracleParams, v: int) -> VertexSet:
    """Standalone incoming-ball computation; the ball ignores the seed."""
    return PartitionOracle(g, SeedContext(0, params)).find_ib(v)
