"""Cut accounting, structural censuses, and the local-vs-global audit."""
from __future__ import annotations

from fractions import Fraction

import pytest

from partition_oracle import (
    Partition,
    PartitionOracle,
    PhaseThresholds,
    differential_check,
    good_seed_census,
    leaky_census,
    measure_cut,
    viability_census,
)

from conftest import bridge_graph, cycle_graph, desk_context, desk_params, path_graph


# ---------------------------------------------------------------- measure_cut

def test_measure_cut_all_singletons():
    g = path_graph(3)
    report = measure_cut(g, Partition(anchors=(0, 1, 2)))
    assert report.cut_edges == 2
    assert report.cut_fraction == pytest.approx(2 / 6)
    assert report.epsilon_equivalent == report.cut_fraction
    assert report.piece_size_histogram == {1: 3}
    assert report.singleton_fraction == 1.0


def test_measure_cut_single_piece():
    g = path_graph(3)
    report = measure_cut(g, Partition(anchors=(0, 0, 0)))
    assert report.cut_edges == 0
    assert report.cut_fraction == 0.0
    assert report.piece_size_histogram == {3: 1}
    assert report.singleton_fraction == 0.0


def test_measure_cut_counts_each_crossing_edge_once(bridge):
    part = Partition(anchors=(0, 0, 0, 0, 4, 4, 4, 4))
    report = measure_cut(bridge, part)
    assert report.cut_edges == 1  # just the bridge
    assert report.cut_fraction == pytest.approx(1 / 24)
    assert report.piece_size_histogram == {4: 2}
    assert report.to_dict()["piece_size_histogram"] == {"4": 2}


# --------------------------------------------------------------- leaky census

def test_leaky_census_on_the_cycle_finds_arc_certificates():
    """On a cycle the 3-vertex arc around the source is always a witness:
    its conductance 1/6 sits below the 1/(d * ell^(1/3)) bound."""
    g = cycle_graph(8)
    params = desk_params(2)
    report = leaky_census(g, params, 0, tuple(range(8)))
    assert len(report.rows) == params.ell
    assert all(not row["leaking"] for row in report.rows)
    assert all(row["certificate_k"] == 3 for row in report.rows)
    assert all(row["conductance"] == pytest.approx(1 / 6) for row in report.rows)
    assert report.summary["non_leaking_timesteps"] == params.ell


def test_leaky_census_with_empty_free_set_always_leaks():
    g = cycle_graph(8)
    params = desk_params(2)
    report = leaky_census(g, params, 0, ())
    assert all(row["leaking"] for row in report.rows)
    assert all(row["certificate_k"] is None for row in report.rows)
    assert report.summary["leaking_timesteps"] == params.ell


def test_leaky_certificate_is_the_smallest_qualifying_size():
    g = cycle_graph(8)
    params = desk_params(2)
    row = leaky_census(g, params, 0, tuple(range(8))).rows[5]
    # sizes 1 and 2 fail the conductance bound (1/2 and 1/4), size 3 passes
    assert row["certificate_k"] == 3
    assert Fraction(1, 6) < Fraction(1) / (g.d * params.ell ** Fraction(1, 3))


# ----------------------------------------------------------- good-seed census

def test_good_seed_census_counts_mass_retention():
    g = cycle_graph(8)
    params = desk_params(2)
    assert good_seed_census(g, params, tuple(range(8))) == 8
    assert good_seed_census(g, params, (0,)) == 1
    assert good_seed_census(g, params, (0, 1, 2, 3)) == 4


def test_good_seed_census_is_monotone_in_the_free_set():
    g = cycle_graph(8)
    params = desk_params(2)
    small = good_seed_census(g, params, (0, 1))
    large = good_seed_census(g, params, tuple(range(8)))
    assert small <= large


def test_good_seed_census_rejects_empty_free_set():
    with pytest.raises(ValueError, match="at least one vertex"):
        good_seed_census(cycle_graph(8), desk_params(2), ())


# ----------------------------------------------------------- viability census

def test_viability_census_replays_the_threshold_search(bridge):
    """With the true free set for each phase, the census argmax is
    bit-identical to the committed threshold."""
    ctx = desk_context(bridge, 0, phi=0.1)
    engine = PartitionOracle(bridge, ctx)
    thresholds = engine.thresholds()
    _, free_sets = engine.global_partition_with_free_sets()
    for h in (1, 2, 3):
        report = viability_census(
            bridge,
            desk_context(bridge, 0, phi=0.1),
            h,
            tuple(sorted(free_sets[h])),
            ctx.params.k_candidates,
        )
        assert report.summary["chosen_k"] == thresholds.for_phase(h)
        assert report.summary["h"] == h
        assert report.summary["samples"] == ctx.params.sample_count


def test_viability_rows_cover_every_candidate(bridge):
    ctx = desk_context(bridge, 0)
    report = viability_census(bridge, ctx, 1, tuple(range(bridge.n)), range(1, 6))
    assert [row["k"] for row in report.rows] == [1, 2, 3, 4, 5]
    for row in report.rows:
        assert row["meets_quota"] == (row["viable"] >= report.summary["quota"])


def test_viability_census_quota_gate(bridge):
    # an empty free set leaves no viable seeds, so nothing meets the quota
    ctx = desk_context(bridge, 0)
    report = viability_census(bridge, ctx, 1, (), ctx.params.k_candidates)
    assert report.summary["chosen_k"] == 0
    assert all(row["viable"] == 0 for row in report.rows)


def test_viability_census_counts_every_candidate_when_gated(bridge):
    """A closed gate forces the choice to 0, but every row still carries the
    number of kept seeds that ``viable`` accepts."""
    ctx = desk_context(bridge, 3, beta=0.5, delta=0.5)
    engine = PartitionOracle(bridge, ctx)
    free = tuple(range(0, bridge.n, 2))
    gated = [
        h for h in range(1, 11)
        if viability_census(bridge, ctx, h, free, range(1, 6)).summary["gated"]
    ]
    assert gated
    for h in gated:
        report = viability_census(bridge, ctx, h, free, range(0, 8), engine)
        kept = [s for s in engine.phase_sample(h) if ctx.phase_of(s) >= h]
        kept = kept[: ctx.params.keep_count]
        assert report.summary["chosen_k"] == 0
        assert [row["viable"] for row in report.rows] == [
            sum(engine.viable(s, h, k, set(free).__contains__) for s in kept)
            for k in range(0, 8)
        ]


# ----------------------------------------------------------- differential

def test_differential_check_passes_on_the_bridge(bridge):
    report = differential_check(bridge, desk_context(bridge))
    assert report.ok
    assert report.checked == bridge.n
    assert report.divergences == 0
    assert report.first_divergence is None


def test_differential_check_catches_an_injected_fault(bridge):
    report = differential_check(
        bridge, desk_context(bridge), local_fn=lambda v: (v,)
    )
    assert not report.ok
    assert report.divergences > 0
    first = report.first_divergence
    assert first["local"] == (first["v"],)
    assert first["global"] != first["local"]


def test_differential_check_reports_a_threshold_mismatch(bridge, monkeypatch):
    """A local findr that disagrees with the global one is a divergence
    of its own, reported at the first phase that differs."""
    reference = PartitionOracle(bridge, desk_context(bridge))
    reference.global_partition()
    assert reference.thresholds().k[0] == 3

    def zero_findr(self):
        self._ks = [0] * self.params.h_bar
        return PhaseThresholds(tuple(self._ks))

    monkeypatch.setattr(PartitionOracle, "_compute_thresholds", zero_findr)
    report = differential_check(bridge, desk_context(bridge))
    assert not report.ok
    assert report.first_divergence == {"phase": 1, "local": 0, "global": 3}
    assert report.divergences > 1  # the zero thresholds also split pieces
