"""Cut accounting, structural censuses, and the local-vs-global audit."""
from __future__ import annotations

from fractions import Fraction

import pytest

from partition_oracle import (
    OracleConfigError,
    Partition,
    PartitionOracle,
    differential_check,
    exact_number,
    gen_grid,
    good_seed_census,
    lazy_step,
    leaky_census,
    measure_cut,
    ranked_vertices,
    truncate,
    viability_census,
)

from conftest import (
    bridge_graph,
    conductance,
    cycle_graph,
    desk_context,
    desk_params,
    global_free_sets,
    path_graph,
)


# ---------------------------------------------------------------- measure_cut

def test_measure_cut_all_singletons():
    g = path_graph(3)
    report = measure_cut(g, Partition(anchors=(0, 1, 2)))
    assert report.cut_edges == 2
    assert report.cut_fraction == pytest.approx(2 / 6)
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


@pytest.mark.parametrize(
    "over, message",
    [({"sample_count": 10**8}, "sample_count="),
     ({"k_candidates": range(1, 10**7)}, "size-threshold candidates")],
)
def test_censuses_refuse_findr_sizes_beyond_desk_scale(over, message):
    g = cycle_graph(8)
    params = desk_params(2, rho=1e-8, **over)
    with pytest.raises(OracleConfigError, match=message):
        leaky_census(g, params, 0, ())
    with pytest.raises(OracleConfigError, match=message):
        good_seed_census(g, params, (0,))


def test_good_seed_census_rejects_empty_free_set():
    with pytest.raises(ValueError, match="at least one vertex"):
        good_seed_census(cycle_graph(8), desk_params(2), ())


@pytest.mark.parametrize("s", [-1, 8, True])
def test_leaky_census_refuses_a_source_outside_the_graph(s):
    with pytest.raises(ValueError, match=rf"^source must be an integer in \[0, 7\], got {s!r}$"):
        leaky_census(cycle_graph(8), desk_params(2), s, tuple(range(8)))


@pytest.mark.parametrize("u", [-1, 8, True])
def test_good_seed_census_refuses_a_free_id_outside_the_graph(u):
    message = rf"^free-set vertex must be an integer in \[0, 7\], got {u}$"
    with pytest.raises(ValueError, match=message):
        good_seed_census(cycle_graph(8), desk_params(2), (0, 1, u))


@pytest.mark.parametrize("u", [True, 8, -1])
@pytest.mark.parametrize("census", [
    lambda g, free: viability_census(g, desk_context(g), 1, free, range(1, 6)),
    lambda g, free: leaky_census(g, desk_params(2), 0, free),
    lambda g, free: good_seed_census(g, desk_params(2), free),
], ids=["viability", "leaky", "good-seed"])
def test_every_census_refuses_a_free_id_outside_the_graph(census, u):
    """The viability and leaky censuses took True as vertex 1 and dropped
    8 and -1 without an error."""
    message = rf"^free-set vertex must be an integer in \[0, 7\], got {u}$"
    with pytest.raises(ValueError, match=message):
        census(cycle_graph(8), (0, 2, u))


def test_census_vertex_checks_come_before_the_desk_scale_check():
    huge = desk_params(2, rho=1e-8, sample_count=10**8)
    with pytest.raises(ValueError, match=r"^source must be an integer in \[0, 7\], got 8$"):
        leaky_census(cycle_graph(8), huge, 8, ())
    message = r"^free-set vertex must be an integer in \[0, 7\], got 8$"
    with pytest.raises(ValueError, match=message):
        good_seed_census(cycle_graph(8), huge, (8,))


# --------------------------------------------- censuses against reference loops

def reference_leaky_rows(g, params, s, free):
    """The leaky census rebuilt from ``lazy_step``/``truncate`` and cut sizes."""
    exact = params.exact
    alpha_sq = exact_number(params.alpha) ** 2
    phi_bound = Fraction(1) / (g.d * exact_number(params.ell ** (1 / 3)))
    p = {s: Fraction(1) if exact else 1.0}
    rows = []
    for t in range(1, params.ell + 1):
        p = truncate(lazy_step(g, p, exact), params.rho, exact)
        ranked = ranked_vertices(p)
        certificate = None
        for k in range(1, min(params.k_cap, len(ranked), g.n - 1) + 1):
            prefix = ranked[:k]
            if Fraction(len([u for u in prefix if u in free])) < alpha_sq * k / 400:
                continue
            phi = conductance(g, prefix)
            if phi < phi_bound:
                certificate = (k, float(phi))
                break
        rows.append({
            "s": s,
            "t": t,
            "leaking": certificate is None,
            "certificate_k": certificate[0] if certificate else None,
            "conductance": certificate[1] if certificate else None,
        })
    return rows


def reference_good_seeds(g, params, free):
    """The good-seed census rebuilt from ``lazy_step``/``truncate``; the
    in-free mass is summed in dict order, as the census sums it."""
    exact = params.exact
    beta = exact_number(params.beta)
    count = 0
    for s in sorted(free):
        p = {s: Fraction(1) if exact else 1.0}
        good_steps = 0
        for _ in range(params.ell):
            p = truncate(lazy_step(g, p, exact), params.rho, exact)
            if Fraction(sum(m for u, m in p.items() if u in free)) >= beta / 16:
                good_steps += 1
        count += Fraction(good_steps) >= beta * params.ell / 8
    return count


CENSUS_CASES = [
    (cycle_graph(8), (0, 1, 2, 5)),
    (bridge_graph(), (0, 1, 2, 3, 6)),
    (gen_grid(6, 6), tuple(range(0, 36, 3)) + (13, 14, 20)),
]


# The desk parameters, and a coarse truncation under which walks on these
# small graphs die out, so that the good-seed count falls below |F|.
CENSUS_OVERRIDES = [{}, {"rho": 0.1, "beta": 0.9, "ell": 40, "k_candidates": range(1, 11)}]


@pytest.mark.parametrize("arithmetic", ["double", "exact"])
@pytest.mark.parametrize("over", CENSUS_OVERRIDES, ids=["desk", "coarse"])
@pytest.mark.parametrize("g, partial", CENSUS_CASES, ids=["cycle", "bridge", "grid6"])
def test_censuses_equal_reference_loops(g, partial, over, arithmetic):
    params = desk_params(g.d, arithmetic=arithmetic, **over)
    for free in (tuple(range(g.n)), tuple(sorted(partial))):
        for s in sorted({0, g.n // 2, g.n - 1, *partial[:3]}):
            rows = list(leaky_census(g, params, s, free).rows)
            assert rows == reference_leaky_rows(g, params, s, set(free)), s
        assert good_seed_census(g, params, free) == reference_good_seeds(
            g, params, set(free)
        )


# ----------------------------------------------------------- viability census

def test_viability_census_replays_the_threshold_search(bridge):
    """With the true free set for each phase, the census argmax is
    bit-identical to the committed threshold."""
    ctx = desk_context(bridge, 0, phi=0.1)
    engine = PartitionOracle(bridge, ctx)
    thresholds = engine.thresholds()
    _, free_sets = global_free_sets(engine)
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
        report = viability_census(bridge, ctx, h, free, range(0, 8))
        kept = [s for s in engine.phase_sample(h) if ctx.phase_of(s) >= h]
        kept = kept[: ctx.params.keep_count]
        assert report.summary["chosen_k"] == 0
        assert [row["viable"] for row in report.rows] == [
            sum(engine.viable(s, h, k, set(free).__contains__) for s in kept)
            for k in range(0, 8)
        ]


@pytest.mark.parametrize("h", [0, 11, True, 1.0])
def test_viability_census_refuses_a_phase_outside_h_bar(bridge, h):
    """True and 1.0 passed the range test and died in seed hashing."""
    with pytest.raises(ValueError, match=rf"^phase must be an integer in \[1, 10\], got {h}$"):
        viability_census(bridge, desk_context(bridge), h, (), range(1, 6))


# ----------------------------------------------------------- differential

def test_differential_check_passes_on_the_bridge(bridge):
    report = differential_check(bridge, desk_context(bridge))
    assert report.ok
    assert report.checked == bridge.n
    assert report.divergences == 0
    assert report.first_divergence is None


def test_differential_check_catches_an_injected_fault(bridge, monkeypatch):
    monkeypatch.setattr(PartitionOracle, "find_partition", lambda self, v: (v,))
    report = differential_check(bridge, desk_context(bridge))
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

    # A local free test that frees nothing makes every local threshold 0.
    # findr tests freeness through ``_free``, ``is_free`` without the checks.
    monkeypatch.setattr(PartitionOracle, "_free", lambda self, u, h: False)
    report = differential_check(bridge, desk_context(bridge))
    assert not report.ok
    assert report.first_divergence == {"phase": 1, "local": 0, "global": 3}
    assert report.divergences > 1  # the zero thresholds also split pieces
