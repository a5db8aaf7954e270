"""Keyed per-vertex randomness: determinism, exact ranges, distributions."""
from __future__ import annotations

import math
from fractions import Fraction

import pytest

from partition_oracle import SeedContext, geometric_from_uniform

from conftest import bridge_graph, desk_params


def make_ctx(master_seed: int = 42, **over) -> SeedContext:
    return SeedContext(master_seed, desk_params(3, **over))


def test_same_seed_same_stream():
    a, b = make_ctx(7), make_ctx(7)
    assert [a.u64("x", i) for i in range(50)] == [b.u64("x", i) for i in range(50)]
    assert [a.phase_of(v) for v in range(50)] == [b.phase_of(v) for v in range(50)]
    assert [a.walk_len_of(v) for v in range(50)] == [b.walk_len_of(v) for v in range(50)]


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 64 + 42])
def test_seeds_outside_64_bits_are_rejected_not_aliased(seed):
    with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
        make_ctx(seed)


def test_both_ends_of_the_seed_range_are_accepted():
    assert make_ctx(0).u64("x") != make_ctx(2 ** 64 - 1).u64("x")


def test_different_seeds_and_tags_decorrelate():
    a, b = make_ctx(7), make_ctx(8)
    assert [a.u64("x", i) for i in range(20)] != [b.u64("x", i) for i in range(20)]
    assert [a.u64("x", i) for i in range(20)] != [a.u64("y", i) for i in range(20)]
    assert a.u64("x", 1, 2) != a.u64("x", 2, 1)


def test_u64_and_uniform_ranges():
    ctx = make_ctx()
    for i in range(200):
        assert 0 <= ctx.u64("r", i) < 1 << 64
        assert 0.0 <= ctx.uniform("r", i) < 1.0


def test_below_is_exact_and_total():
    ctx = make_ctx()
    for upper in (1, 2, 3, 7, 10, 1000):
        draws = [ctx.below(upper, "b", upper, i) for i in range(300)]
        assert all(0 <= x < upper for x in draws)
    assert ctx.below(1, "b", 0) == 0
    # small ranges are covered quickly
    assert sorted(set(ctx.below(3, "c", i) for i in range(100))) == [0, 1, 2]
    with pytest.raises(ValueError, match=">= 1"):
        ctx.below(0, "b")


def test_below_handles_bounds_wider_than_64_bits():
    ctx = make_ctx()
    upper = 1 << 80
    draws = {ctx.below(upper, "wide", i) for i in range(5)}
    assert all(0 <= x < upper for x in draws)
    assert any(x > 1 << 64 for x in draws)


def test_geometric_inverse_cdf_small_cases():
    # X = min{m >= 1 : u < 1 - (1-delta)^m}
    assert geometric_from_uniform(0.0, 0.5, 10) == 1
    assert geometric_from_uniform(0.4, 0.5, 10) == 1
    assert geometric_from_uniform(0.6, 0.5, 10) == 2
    assert geometric_from_uniform(0.8, 0.5, 10) == 3
    assert geometric_from_uniform(1 - 1e-9, 0.5, 10) == 10  # capped
    assert geometric_from_uniform(0.99, 1.0, 10) == 1  # delta = 1 is deterministic


def test_geometric_rejects_bad_uniform():
    with pytest.raises(ValueError):
        geometric_from_uniform(1.0, 0.5, 10)
    with pytest.raises(ValueError):
        geometric_from_uniform(-0.1, 0.5, 10)


def test_geometric_tiny_delta_uses_exact_path():
    # below the float floor the first-order rational expansion takes over
    u = 0.3
    delta = 1e-12
    expected = min(10 ** 13, math.floor(Fraction(-math.log1p(-u)) / Fraction(1, 10 ** 12)) + 1)
    assert geometric_from_uniform(u, delta, 10 ** 13) == expected
    assert geometric_from_uniform(0.5, 1e-12, 5) == 5  # cap dominates


def test_phase_of_is_memoized_capped_geometric():
    ctx = make_ctx()
    phases = [ctx.phase_of(v) for v in range(2000)]
    assert all(1 <= h <= 10 for h in phases)
    assert phases == [ctx.phase_of(v) for v in range(2000)]
    # delta = 0.2: about a fifth of all vertices land in phase 1
    share = phases.count(1) / len(phases)
    assert 0.16 <= share <= 0.24


def test_phase_distribution_is_monotone_nonincreasing_in_h():
    ctx = make_ctx(3)
    counts = [0] * 11
    for v in range(4000):
        counts[ctx.phase_of(v)] += 1
    # geometric tail: each interior phase is rarer than the one before
    for h in range(2, 9):
        assert counts[h] <= counts[h - 1] + 60


def test_walk_len_is_uniform_on_one_to_ell():
    ctx = make_ctx()
    lens = [ctx.walk_len_of(v) for v in range(3000)]
    assert all(1 <= t <= 20 for t in lens)
    assert min(lens) == 1
    assert max(lens) == 20
    mean = sum(lens) / len(lens)
    assert abs(mean - 10.5) < 0.5


def test_sample_vertex_in_range_and_deterministic():
    ctx = make_ctx()
    g = bridge_graph()
    draws = [ctx.sample_vertex(g.n, "findr", 1, i) for i in range(100)]
    assert all(0 <= v < g.n for v in draws)
    assert draws == [ctx.sample_vertex(g.n, "findr", 1, i) for i in range(100)]
    assert len(set(draws)) == g.n  # 100 draws from 8 vertices hit all of them


def test_precedes_is_a_strict_total_order():
    ctx = make_ctx()
    n = 60
    order = sorted(range(n), key=ctx.order_key)
    for i in range(n - 1):
        assert ctx.precedes(order[i], order[i + 1])
        assert not ctx.precedes(order[i + 1], order[i])
    assert ctx.precedes(order[0], order[-1])
    with pytest.raises(ValueError, match="strict order"):
        ctx.precedes(4, 4)


def test_order_key_sorts_by_phase_then_id():
    ctx = make_ctx()
    keys = [ctx.order_key(v) for v in range(40)]
    assert keys == [(ctx.phase_of(v), v) for v in range(40)]
