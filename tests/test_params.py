"""Parameter derivation, validation, and the two arithmetic/mode axes."""
from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import pytest

from partition_oracle import ParamError, derive_params, params_to_dict
from partition_oracle.params import MAX_DESK_ELL, OracleConfigError, check_desk_scale

from conftest import DESK_OVERRIDES, desk_params


def test_explicit_mode_applies_overrides():
    p = desk_params(3)
    assert p.ell == 20
    assert p.rho == 0.001
    assert p.phi == 0.2
    assert p.beta == 0.1
    assert p.delta == 0.2
    assert p.h_bar == 10
    assert p.k_candidates == range(1, 51)
    assert p.sample_count == 200
    assert p.keep_count == 100
    assert p.mode == "explicit"
    assert p.arithmetic == "double"
    assert not p.exact


def test_k_cap_is_floor_of_inverse_rho():
    assert desk_params(3).k_cap == 1000
    assert desk_params(3, rho=0.3, k_candidates=range(1, 4)).k_cap == 3


def test_derived_defaults_follow_overridden_inputs():
    # an overridden rho feeds the default k_candidates …
    over = {k: v for k, v in DESK_OVERRIDES.items() if k != "k_candidates"}
    over["rho"] = 0.05
    p = derive_params(0.1, 3, "explicit", over)
    assert p.k_candidates == range(1, 21)
    # … and an overridden beta feeds the default sample sizes
    over = {k: v for k, v in DESK_OVERRIDES.items()
            if k not in ("sample_count", "keep_count")}
    over["beta"] = 0.5
    p = derive_params(0.1, 3, "explicit", over)
    assert p.sample_count == 2 ** 10
    assert p.keep_count == 2 ** 8


def test_paper_mode_matches_closed_forms():
    eps = Fraction(1, 2)
    p = derive_params(eps, 2, "paper")
    assert p.ell == 2 ** 36
    assert p.rho == Fraction(1, 2 ** 3060)
    assert p.phi == Fraction(1, 2 ** 11)
    assert p.beta == Fraction(1, 20)
    assert p.delta == Fraction(1, 2 ** 3170)
    assert p.k_candidates == range(1, 2 ** 3060 + 1)
    assert p.h_bar >= 2 ** 3170  # ceil(2 * (1/delta) * ln(1/delta))
    p.validate()


def test_paper_mode_forbids_overrides():
    with pytest.raises(ParamError, match="overrides not allowed"):
        derive_params(0.5, 2, "paper", {"ell": 7})


def test_paper_mode_values_are_beyond_desk_scale():
    p = derive_params(0.5, 2, "paper")
    assert p.ell > MAX_DESK_ELL
    with pytest.raises(OracleConfigError, match="beyond desk scale"):
        check_desk_scale(p)


def test_desk_scale_accepts_explicit_bundle():
    check_desk_scale(desk_params(3))


def test_desk_scale_counts_a_descending_candidate_range_exactly():
    check_desk_scale(desk_params(3, rho=1e-7, k_candidates=range(10**6, 0, -1)))
    over = desk_params(3, rho=1e-7, k_candidates=range(10**6 + 1, 0, -1))
    with pytest.raises(OracleConfigError, match="^1000001 size-threshold candidates"):
        check_desk_scale(over)


@pytest.mark.parametrize("name", ["ell", "h_bar", "sample_count", "keep_count"])
def test_integer_fields_refuse_non_integers(name):
    with pytest.raises(ParamError, match=f"{name} must be an integer"):
        desk_params(3, **{name: 10.5})


def test_unknown_override_is_rejected():
    with pytest.raises(ParamError, match="unknown parameter overrides"):
        derive_params(0.1, 3, "explicit", {"gamma": 1})


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("ell", 0, "ell"),
        ("rho", 0.0, "rho"),
        ("rho", 1.5, "rho"),
        ("phi", 0, "phi"),
        ("beta", 0, "beta"),
        ("delta", 0, "delta"),
        ("delta", 1.5, "delta"),
        ("h_bar", 0, "h_bar"),
        ("sample_count", 0, "sample sizes"),
        ("keep_count", 0, "sample sizes"),
        ("k_candidates", (), "non-empty"),
        ("k_candidates", range(5, 5), "non-empty"),
        ("k_candidates", (0, 3), "outside"),
        ("k_candidates", range(1, 5000), "must lie in"),
        ("k_candidates", 5, "range, list or tuple of integers"),
        ("k_candidates", 2.5, "range, list or tuple of integers"),
        ("k_candidates", "abc", "range, list or tuple of integers"),
        ("k_candidates", (1, 2.5), "range, list or tuple of integers"),
        ("k_candidates", [1, True], "range, list or tuple of integers"),
    ],
)
def test_validation_rejects_bad_fields(field, value, message):
    over = dict(DESK_OVERRIDES)
    over[field] = value
    with pytest.raises(ParamError, match=message):
        derive_params(0.1, 3, "explicit", over)


def test_epsilon_and_degree_bounds():
    with pytest.raises(ParamError, match="epsilon"):
        derive_params(0.0, 3, "explicit", dict(DESK_OVERRIDES))
    with pytest.raises(ParamError, match="epsilon"):
        derive_params(1.0, 3, "explicit", dict(DESK_OVERRIDES))
    with pytest.raises(ParamError, match="degree bound"):
        derive_params(0.1, 1, "explicit", dict(DESK_OVERRIDES))


def test_mode_and_arithmetic_are_validated():
    good = desk_params(3)
    with pytest.raises(ParamError, match="unknown mode"):
        dataclasses.replace(good, mode="fast").validate()
    with pytest.raises(ParamError, match="unknown arithmetic"):
        dataclasses.replace(good, arithmetic="decimal").validate()
    exact = dataclasses.replace(good, arithmetic="exact")
    exact.validate()
    assert exact.exact


def test_params_to_dict_is_json_friendly():
    d = params_to_dict(desk_params(3))
    assert d["k_candidates"] == "1..50"
    assert d["ell"] == 20
    assert d["mode"] == "explicit"
    d = params_to_dict(derive_params(0.5, 2, "paper"))
    assert d["rho"] == f"1/{2 ** 3060}"
    assert d["beta"] == "1/20"
    assert isinstance(d["k_candidates"], str)


def test_explicit_list_candidates_round_trip():
    over = dict(DESK_OVERRIDES)
    over["k_candidates"] = (3, 5, 9)
    p = derive_params(0.1, 3, "explicit", over)
    assert params_to_dict(p)["k_candidates"] == [3, 5, 9]


def test_default_h_bar_tracks_delta():
    over = {k: v for k, v in DESK_OVERRIDES.items() if k != "h_bar"}
    over["delta"] = 0.5
    p = derive_params(0.1, 3, "explicit", over)
    inv = Fraction(2)
    assert p.h_bar == math.ceil(2 * inv * Fraction(math.log(2)))
