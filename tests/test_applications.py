"""Cut probes, the two-phase tester, and additive estimation."""
from __future__ import annotations

import json

import pytest

import partition_oracle as po
from partition_oracle import (
    DECIDERS,
    SCORERS,
    BoundedDegreeGraph,
    PhaseThresholds,
    estimate_cut_fraction,
    run_estimator,
    run_tester,
)
from partition_oracle.applications import oracle_overrides, trial_seed

from conftest import cycle_graph, desk_context

# The calibrated bundle used by the bridge-sized application tests.
BRIDGE_OVERRIDES = {
    "ell": 20, "rho": 0.001, "phi": 0.1, "beta": 0.1, "delta": 0.2,
    "h_bar": 10, "k_max": 50, "sample_count": 200, "keep_count": 100,
}


def bridge_tester_config(**kw) -> po.TesterConfig:
    merged = dict(overrides=BRIDGE_OVERRIDES, cut_threshold=0.5, retries=2)
    merged.update(kw)
    return po.TesterConfig(**merged)


def accept_everything(vertices, edges, cap):
    return True


def reject_everything(vertices, edges, cap):
    return False


# ------------------------------------------------------------------ plumbing

def test_trial_seed_substreams_are_distinct_and_stable():
    seeds = [trial_seed(7, j) for j in range(8)]
    assert len(set(seeds)) == 8
    assert all(0 <= s < 2 ** 64 for s in seeds)
    assert seeds == [trial_seed(7, j) for j in range(8)]
    assert trial_seed(8, 0) != trial_seed(7, 0)


def test_trial_seed_rejects_master_seeds_outside_64_bits():
    assert trial_seed(2 ** 64 - 1, 0) != trial_seed(0, 0)
    for seed in (-1, 2 ** 64):
        with pytest.raises(ValueError, match="master seed"):
            trial_seed(seed, 0)


def test_oracle_overrides_maps_exact_to_the_arithmetic_mode():
    assert oracle_overrides({"exact": 1}) == {"arithmetic": "exact"}
    assert oracle_overrides({"exact": 0.0}) == {"arithmetic": "double"}
    with pytest.raises(ValueError, match="exact"):
        oracle_overrides({"exact": "yes"})


def test_oracle_overrides_expands_k_max():
    out = oracle_overrides({"k_max": 5, "ell": 7})
    assert out == {"k_candidates": range(1, 6), "ell": 7}
    assert oracle_overrides(None) == {}
    assert oracle_overrides({}) == {}


def test_tester_config_round_trip(tmp_path):
    cfg = bridge_tester_config()
    path = tmp_path / "tester.json"
    path.write_text(
        json.dumps({"overrides": BRIDGE_OVERRIDES, "cut_threshold": 0.5, "retries": 2}),
        encoding="utf-8",
    )
    loaded = po.TesterConfig.load(str(path))
    assert loaded == cfg
    assert loaded.mode == "explicit"
    assert loaded.phase1_probes is None


def test_configs_reject_unknown_keys(tmp_path):
    with pytest.raises(ValueError, match="unknown tester config keys"):
        po.TesterConfig.from_dict({"cut_limit": 1})
    with pytest.raises(ValueError, match="unknown estimator config keys"):
        po.EstimatorConfig.from_dict({"retries": 1})


def test_registries_expose_the_documented_names():
    assert sorted(DECIDERS) == ["bipartite", "triangle-free"]
    assert sorted(SCORERS) == [
        "dominating-set", "independent-set", "matching", "vertex-cover",
    ]
    assert DECIDERS["bipartite"]([0, 1], [(0, 1)], 64)
    assert SCORERS["matching"]([0, 1], [(0, 1)], 64) == 1


# ------------------------------------------------------------------ cut probe

def test_cut_probe_rate_is_one_on_a_shattered_cycle():
    g = cycle_graph(8)
    ctx = desk_context(g)
    zero = PhaseThresholds((0,) * 10)
    assert estimate_cut_fraction(g, ctx, thresholds=zero, samples=64) == 1.0


def test_cut_probe_counts_isolated_vertices_as_uncut():
    g = BoundedDegreeGraph.from_edges(4, 2, [])
    ctx = desk_context(g)
    zero = PhaseThresholds((0,) * 10)
    assert estimate_cut_fraction(g, ctx, thresholds=zero, samples=32) == 0.0


def test_cut_probe_rate_on_the_bridge_partition(bridge):
    # the partition cuts only the bridge edge; both endpoints have degree 3,
    # so the exact probe rate is (1/8) * (1/3 + 1/3) = 1/12
    ctx = desk_context(bridge, 0, phi=0.1)
    rate = estimate_cut_fraction(bridge, ctx, samples=4000)
    assert abs(rate - 1 / 12) < 0.02
    assert estimate_cut_fraction(bridge, desk_context(bridge, 0, phi=0.1), samples=4000) == rate


def test_cut_probe_validates_samples(bridge):
    with pytest.raises(ValueError, match="samples"):
        estimate_cut_fraction(bridge, desk_context(bridge), samples=0)


# -------------------------------------------------------------------- tester

def test_tester_accepts_with_a_permissive_decider(bridge):
    detail = run_tester(bridge, 0.1, accept_everything, config=bridge_tester_config())
    assert detail["verdict"] == "accept"
    assert detail["reason"] is None
    assert detail["failing_piece"] is None
    assert detail["phase1_seed_index"] == 0
    assert detail["phase1_probes"] == 480
    assert detail["phase2_samples"] == 80
    assert len(detail["phase1_estimates"]) == 1
    assert detail["phase1_estimates"][0] <= 0.5


def test_tester_rejects_in_phase_two_on_a_refused_piece(bridge):
    detail = run_tester(bridge, 0.1, reject_everything, config=bridge_tester_config())
    assert detail["verdict"] == "reject"
    assert detail["reason"] == "phase2"
    assert detail["failing_piece"]
    assert sorted(detail["failing_piece"]) == detail["failing_piece"]


def test_tester_rejects_in_phase_one_when_the_gate_is_impossible(bridge):
    config = bridge_tester_config(cut_threshold=0.0, retries=3)
    detail = run_tester(bridge, 0.1, accept_everything, config=config)
    assert detail["verdict"] == "reject"
    assert detail["reason"] == "phase1"
    assert len(detail["phase1_estimates"]) == 3
    assert "phase1_seed_index" not in detail
    assert all(est > 0 for est in detail["phase1_estimates"])


def test_tester_is_bipartite_on_the_bridge(bridge):
    detail = run_tester(
        bridge, 0.1, DECIDERS["bipartite"], config=bridge_tester_config()
    )
    assert detail["verdict"] == "accept"


def test_tester_validates_arguments(bridge):
    with pytest.raises(ValueError, match="epsilon"):
        run_tester(bridge, 0.0, accept_everything)
    with pytest.raises(ValueError, match="epsilon"):
        run_tester(bridge, 1.0, accept_everything)
    with pytest.raises(ValueError, match="^trials must be an integer >= 1, got 0$"):
        run_tester(bridge, 0.1, accept_everything, trials=0)


@pytest.mark.parametrize("value", [True, False, 2.0])
def test_library_counts_refuse_bools_and_floats(bridge, value):
    """A bool is an int in Python; as a count it would run once (or never)
    instead of failing, as the config files already refuse it."""
    with pytest.raises(ValueError, match=r"^trials must be an integer >= 1, got "):
        run_tester(bridge, 0.1, accept_everything, trials=value)
    with pytest.raises(ValueError, match=r"^retries must be an integer >= 1, got "):
        bridge_tester_config(retries=value)
    with pytest.raises(ValueError, match=r"^samples must be an integer >= 1, got "):
        run_estimator(bridge, 0.1, SCORERS["matching"], samples=value)
    with pytest.raises(ValueError, match=r"^samples must be an integer >= 1, got "):
        estimate_cut_fraction(bridge, desk_context(bridge), samples=value)


@pytest.mark.parametrize("value", [True, "0.5", -1, 1.5, float("nan")])
def test_tester_refuses_a_cut_threshold_outside_the_unit_interval(bridge, value):
    with pytest.raises(ValueError, match="cut_threshold must be a number in"):
        bridge_tester_config(cut_threshold=value)


@pytest.mark.parametrize(
    "field, value",
    [("phase1_probes", 0), ("phase1_probes", -3), ("phase1_probes", 2.5),
     ("phase2_samples", 0), ("phase2_samples", -1), ("phase2_samples", True)],
)
def test_tester_refuses_phase_sizes_below_one(bridge, field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer >= 1, got "):
        bridge_tester_config(**{field: value})


def test_tester_trials_override_config_retries(bridge):
    config = bridge_tester_config(cut_threshold=0.0, retries=5)
    detail = run_tester(bridge, 0.1, accept_everything, trials=1, config=config)
    assert len(detail["phase1_estimates"]) == 1


# ----------------------------------------------------------------- estimator

def bridge_estimator_config() -> po.EstimatorConfig:
    return po.EstimatorConfig(overrides=BRIDGE_OVERRIDES)


def test_full_enumeration_telescopes_to_the_piece_sum(bridge):
    # the partition is the two 4-cycles; each contributes matching 2
    out = run_estimator(
        bridge, 0.1, SCORERS["matching"], samples=None,
        config=bridge_estimator_config(),
    )
    assert out["estimate"] == 4.0
    assert out["stderr_proxy"] == 0.0
    assert out["samples"] is None


def test_estimator_scores_each_distinct_piece_once(bridge):
    pieces = []

    def matching(vertices, edges, cap):
        pieces.append(tuple(vertices))
        return SCORERS["matching"](vertices, edges, cap)

    out = run_estimator(
        bridge, 0.1, matching, samples=None, config=bridge_estimator_config()
    )
    assert out["estimate"] == 4.0
    assert sorted(pieces) == [(0, 1, 2, 3), (4, 5, 6, 7)]


def test_sampled_estimate_matches_on_homogeneous_pieces(bridge):
    # every vertex sits in a 4-cycle piece with matching 2, so each draw
    # contributes exactly 2/4 and the sampled estimate is exact
    out = run_estimator(
        bridge, 0.1, SCORERS["matching"], samples=16,
        config=bridge_estimator_config(),
    )
    assert out["estimate"] == pytest.approx(4.0)
    assert out["stderr_proxy"] == 0.0
    assert out["samples"] == 16


def test_estimator_is_deterministic_in_the_seed(bridge):
    kw = dict(samples=10, config=bridge_estimator_config())
    a = run_estimator(bridge, 0.1, SCORERS["vertex-cover"], master_seed=3, **kw)
    b = run_estimator(bridge, 0.1, SCORERS["vertex-cover"], master_seed=3, **kw)
    assert a == b
    assert a["seed"] == 3


def test_estimator_over_every_vertex_sums_the_piece_scores(bridge):
    detail = run_estimator(
        bridge, 0.1, SCORERS["independent-set"], samples=None,
        config=bridge_estimator_config(),
    )
    # each 4-cycle piece has independence number 2
    assert detail["estimate"] == 4.0


def test_estimator_validates_samples(bridge):
    with pytest.raises(ValueError, match="samples"):
        run_estimator(bridge, 0.1, SCORERS["matching"], samples=0)
