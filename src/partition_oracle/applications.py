"""Property tester and additive estimators built on the partition oracle.

Both applications query pieces only through the local interface, so their
cost is per-sample, not per-graph.  Tester and estimator constants beyond
the guarantees' Θ(1/ε) shape are calibration data: the shipped config files
record values measured on the calibration corpus.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from fractions import Fraction
from numbers import Real
from statistics import pvariance
from typing import Callable, Mapping

from .diffusion import exact_number
from .graphs import BoundedDegreeGraph, VertexSet, induced_edges
from .oracle import PartitionOracle, PhaseThresholds
from .params import OracleParams, check_int, check_real, derive_params
from .seeds import SeedContext, check_master_seed
from .solvers import (
    DEFAULT_SOLVER_CAP,
    is_bipartite,
    is_triangle_free,
    maximum_independent_set,
    maximum_matching,
    minimum_dominating_set,
    minimum_vertex_cover,
)

ComponentDecider = Callable[..., bool]
ComponentScorer = Callable[..., int]

DECIDERS: dict[str, ComponentDecider] = {
    "bipartite": is_bipartite,
    "triangle-free": is_triangle_free,
}

SCORERS: dict[str, ComponentScorer] = {
    "matching": maximum_matching,
    "vertex-cover": minimum_vertex_cover,
    "independent-set": maximum_independent_set,
    "dominating-set": minimum_dominating_set,
}

_GOLDEN = 0x9E3779B97F4A7C15  # odd constant for substream seed mixing


def trial_seed(master_seed: int, index: int) -> int:
    """The master seed of substream ``index`` (used for tester retries)."""
    return (check_master_seed(master_seed) + (index + 1) * _GOLDEN) % 2 ** 64


def oracle_overrides(raw: Mapping[str, object] | None) -> dict[str, object]:
    """Convert a JSON-friendly override mapping to derive_params form.

    Two keys are not passed through.  ``k_max``: size-threshold candidates
    are stored in configs as a single upper bound and expanded to 1..k_max
    here.  ``exact``: any finite nonzero number selects exact arithmetic,
    zero selects double.
    """
    out: dict[str, object] = {}
    if raw:
        for key, value in raw.items():
            if key == "k_max":
                out["k_candidates"] = range(1, check_int(value, "k_max", 1) + 1)
            elif key == "exact":
                out["arithmetic"] = "exact" if check_real(value, "exact") else "double"
            else:
                out[key] = value
    return out


# The config fields that count something; the phase sizes may be null.
_CONFIG_COUNTS = ("retries", "phase1_probes", "phase2_samples", "solver_cap")


class _ConfigFile:
    """JSON loading, field checks and oracle parameters shared by the
    calibrated configs.  A config checks its fields when it is built; the
    override values are checked when the oracle's parameters are derived."""

    def __post_init__(self) -> None:
        overrides = self.overrides
        if overrides is not None and not isinstance(overrides, Mapping):
            raise ValueError(f"overrides expects an object or null, got {overrides!r}")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "cut_threshold" and value is not None and (
                isinstance(value, bool) or not isinstance(value, Real)
                or not 0 <= value <= 1
            ):
                raise ValueError(f"cut_threshold must be a number in [0, 1], got {value!r}")
            if f.name in _CONFIG_COUNTS and not (value is None and f.default is None):
                check_int(value, f.name, 1)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]):
        if not isinstance(data, Mapping):
            raise ValueError(
                f"a {cls.kind} config must be a JSON object, got {type(data).__name__}"
            )
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown {cls.kind} config keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def load(cls, path: str):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def oracle_params(self, g: BoundedDegreeGraph, epsilon: float) -> OracleParams:
        """The oracle's parameters for a run at ``epsilon`` (it runs at epsilon / 8)."""
        return derive_params(
            epsilon / 8, g.d, mode=self.mode, overrides=oracle_overrides(self.overrides)
        )


@dataclass(frozen=True)
class TesterConfig(_ConfigFile):
    """Calibrated tester constants; file of record is configs/tester.json."""

    kind = "tester"
    mode: str = "explicit"
    overrides: Mapping[str, object] | None = None
    cut_threshold: float | None = None  # None -> epsilon / 4
    phase1_probes: int | None = None  # None -> ceil(48 / epsilon)
    phase2_samples: int | None = None  # None -> ceil(8 / epsilon)
    retries: int = 8
    solver_cap: int = DEFAULT_SOLVER_CAP


@dataclass(frozen=True)
class EstimatorConfig(_ConfigFile):
    """Calibrated estimator constants; file of record is configs/estimator.json."""

    kind = "estimator"
    mode: str = "explicit"
    overrides: Mapping[str, object] | None = None
    solver_cap: int = DEFAULT_SOLVER_CAP


def _cut_probe_hits(
    engine: PartitionOracle, ctx: SeedContext, samples: int
) -> int:
    """Count probes (uar vertex, uar incident edge) that cross pieces.

    A degree-0 vertex has no incident edge; its probe counts as uncut.
    """
    g = engine.g
    hits = 0
    for i in range(samples):
        u = ctx.below(g.n, "cut-probe-v", i)
        deg = g.degree(u)
        if deg == 0:
            continue
        v = g.adjacency[u][ctx.below(deg, "cut-probe-e", i)]
        if engine.find_anchor(u) != engine.find_anchor(v):
            hits += 1
    return hits


def estimate_cut_fraction(
    g: BoundedDegreeGraph,
    ctx: SeedContext,
    thresholds: PhaseThresholds | None = None,
    samples: int = 1000,
) -> float:
    """Sampled estimate of the fraction of (vertex, incident-edge) draws cut."""
    check_int(samples, "samples", 1)
    engine = PartitionOracle(g, ctx, thresholds)
    return _cut_probe_hits(engine, ctx, samples) / samples


def run_tester(
    g: BoundedDegreeGraph,
    epsilon: float,
    decider: ComponentDecider,
    trials: int | None = None,
    master_seed: int = 0,
    config: TesterConfig | None = None,
) -> dict:
    """Two-phase property tester; returns a detail dict (verdict and trace).

    Phase 1 estimates the cut fraction of the oracle's partition and retries
    with a fresh seed when it exceeds the threshold — a far graph usually
    fails here.  The first seed that passes proceeds to phase 2, which
    samples pieces and rejects on any piece the decider refuses.
    """
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if config is None:
        config = TesterConfig()
    retries = config.retries if trials is None else check_int(trials, "trials", 1)
    params = config.oracle_params(g, epsilon)
    threshold = config.cut_threshold
    threshold = exact_number(epsilon) / 4 if threshold is None else exact_number(threshold)
    probes = config.phase1_probes or math.ceil(48 / epsilon)
    piece_samples = config.phase2_samples or math.ceil(8 / epsilon)

    estimates: list[float] = []
    chosen: tuple[int, PartitionOracle, SeedContext] | None = None
    for j in range(retries):
        ctx = SeedContext(trial_seed(master_seed, j), params)
        engine = PartitionOracle(g, ctx)
        hits = _cut_probe_hits(engine, ctx, probes)
        estimates.append(hits / probes)
        if Fraction(hits, probes) <= threshold:
            chosen = (j, engine, ctx)
            break
    detail: dict = {
        "phase1_estimates": estimates,
        "phase1_threshold": float(threshold),
        "phase1_probes": probes,
        "phase2_samples": piece_samples,
        "master_seed": master_seed,
    }
    if chosen is None:
        detail.update(verdict="reject", reason="phase1", failing_piece=None)
        return detail
    j, engine, ctx = chosen
    detail["phase1_seed_index"] = j
    for i in range(piece_samples):
        v = ctx.below(g.n, "tester-phase2", i)
        piece = engine.find_partition(v)
        if not decider(piece, induced_edges(g, piece), config.solver_cap):
            detail.update(
                verdict="reject", reason="phase2", failing_piece=list(piece)
            )
            return detail
    detail.update(verdict="accept", reason=None, failing_piece=None)
    return detail


def run_estimator(
    g: BoundedDegreeGraph,
    epsilon: float,
    scorer: ComponentScorer,
    samples: int | None,
    master_seed: int = 0,
    config: EstimatorConfig | None = None,
) -> dict:
    """Additive estimator detail: estimate, spread proxy, terms accounting.

    Each sampled vertex contributes score(piece(v)) / |piece(v)|; the sample
    mean scaled by n estimates the additive score of the whole graph.  With
    ``samples=None`` every vertex contributes once, which telescopes to the
    exact sum of per-piece scores.
    """
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if samples is not None:
        check_int(samples, "samples", 1)
    if config is None:
        config = EstimatorConfig()
    ctx = SeedContext(master_seed, config.oracle_params(g, epsilon))
    engine = PartitionOracle(g, ctx)
    scores: dict[VertexSet, int] = {}  # every member of a piece shares its score

    def term(v: int) -> Fraction:
        piece = engine.find_partition(v)
        score = scores.get(piece)
        if score is None:
            score = scorer(piece, induced_edges(g, piece), config.solver_cap)
            scores[piece] = score
        return Fraction(score, len(piece))

    if samples is None:
        terms = [term(v) for v in range(g.n)]
        estimate = sum(terms, Fraction(0))
        return {
            "estimate": float(estimate),
            "stderr_proxy": 0.0,
            "samples": None,
            "seed": master_seed,
        }
    terms = [
        term(ctx.below(g.n, "estimate", i)) for i in range(samples)
    ]
    mean = sum(terms, Fraction(0)) / samples
    spread = pvariance([float(t) for t in terms]) if samples > 1 else 0.0
    return {
        "estimate": float(g.n * mean),
        "stderr_proxy": g.n * math.sqrt(spread / samples),
        "samples": samples,
        "seed": master_seed,
    }
