"""Parameter bundle for the oracle, with formula and explicit modes.

Formula mode computes every field from ``(epsilon, d)`` using exact rational
arithmetic, because the closed-form values overflow and underflow doubles by
thousands of orders of magnitude.  Those values are faithful but infeasible
to run, so explicit mode — user-chosen values validated against the same
invariants — is the operational default throughout the package.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence, Union

from .diffusion import exact_number

Number = Union[int, float, Fraction]

PAPER_MODE = "paper"
EXPLICIT_MODE = "explicit"

# Formula-mode walk lengths, phase counts and findr sample sizes are
# astronomically large, so bundles beyond these caps are refused up front
# instead of silently never terminating.
MAX_DESK_ELL = 1_000_000
MAX_FINDR_PHASES = 1_000_000
MAX_FINDR_SAMPLES = 10_000_000
MAX_K_CANDIDATES = 1_000_000


class ParamError(ValueError):
    """Raised when a parameter bundle violates its invariants."""


class OracleConfigError(RuntimeError):
    """Raised when a configuration is infeasible to execute at desk scale."""


def is_integer(x: object) -> bool:
    """Whether ``x`` is an int and not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def _pow(base: Fraction, exp: int) -> Fraction:
    return base ** exp if exp >= 0 else (1 / base) ** (-exp)


def _log_of_fraction(x: Fraction) -> float:
    """Natural log of a positive Fraction, safe for huge numerators."""
    return math.log(x.numerator) - math.log(x.denominator)


@dataclass(frozen=True)
class OracleParams:
    """All knobs of the partition oracle.

    ``ell``: walk-length cap; ``rho``: truncation threshold; ``phi``:
    conductance target; ``beta``: free-set fraction; ``delta``: phase-sampling
    probability; ``alpha``: bucket-heaviness threshold; ``h_bar``: phase cap;
    ``k_candidates``: ordered candidate size thresholds scanned by findr;
    ``sample_count`` / ``keep_count``: findr sampling sizes; ``arithmetic``:
    "double" or "exact" mass arithmetic.
    """

    epsilon: Number
    d: int
    ell: int
    rho: Number
    phi: Number
    beta: Number
    delta: Number
    alpha: Number
    h_bar: int
    k_candidates: Sequence[int]
    sample_count: int
    keep_count: int
    mode: str = EXPLICIT_MODE
    arithmetic: str = "double"

    @property
    def exact(self) -> bool:
        return self.arithmetic == "exact"

    @property
    def k_cap(self) -> int:
        """floor(1/rho): the hard ceiling on supports and size thresholds."""
        return math.floor(1 / exact_number(self.rho))

    def validate(self) -> None:
        for name in ("ell", "h_bar", "sample_count", "keep_count"):
            value = getattr(self, name)
            if not isinstance(value, int):
                raise ParamError(f"{name} must be an integer, got {value!r}")
        eps = exact_number(self.epsilon)
        if not 0 < eps < 1:
            raise ParamError(f"epsilon must be in (0,1), got {self.epsilon}")
        if self.d < 2:
            raise ParamError(f"degree bound must be >= 2, got {self.d}")
        if self.ell < 1:
            raise ParamError(f"ell must be >= 1, got {self.ell}")
        rho = exact_number(self.rho)
        if not 0 < rho < 1:
            raise ParamError(f"rho must be in (0,1), got {self.rho}")
        if exact_number(self.phi) <= 0:
            raise ParamError(f"phi must be positive, got {self.phi}")
        if exact_number(self.beta) <= 0:
            raise ParamError(f"beta must be positive, got {self.beta}")
        delta = exact_number(self.delta)
        if not 0 < delta <= 1:
            raise ParamError(f"delta must be in (0,1], got {self.delta}")
        if exact_number(self.alpha) <= 0:
            raise ParamError(f"alpha must be positive, got {self.alpha}")
        if self.h_bar < 1:
            raise ParamError(f"h_bar must be >= 1, got {self.h_bar}")
        if self.sample_count < 1 or self.keep_count < 1:
            raise ParamError("findr sample sizes must be >= 1")
        cap = self.k_cap
        ks = self.k_candidates
        if isinstance(ks, range):
            # len() of a formula-mode range overflows C ssize_t; bool() does not.
            if not ks:
                raise ParamError("k_candidates must be non-empty")
            lo, hi = min(ks[0], ks[-1]), max(ks[0], ks[-1])
            if lo < 1 or hi > cap:
                raise ParamError(f"k_candidates must lie in [1, {cap}], got range {ks}")
        else:
            if not isinstance(ks, (list, tuple)) or not all(map(is_integer, ks)):
                raise ParamError(
                    f"k_candidates must be a range, list or tuple of integers, got {ks!r}"
                )
            if not ks:
                raise ParamError("k_candidates must be non-empty")
            for k in ks:
                if not 1 <= k <= cap:
                    raise ParamError(
                        f"size threshold candidate {k} outside [1, floor(1/rho)={cap}]"
                    )
        if self.mode not in (PAPER_MODE, EXPLICIT_MODE):
            raise ParamError(f"unknown mode {self.mode!r}")
        if self.arithmetic not in ("double", "exact"):
            raise ParamError(f"unknown arithmetic {self.arithmetic!r}")
        if self.mode == PAPER_MODE:
            self._validate_formulas(eps)

    def _validate_formulas(self, eps: Fraction) -> None:
        d = Fraction(self.d)
        checks = {
            "ell": (Fraction(self.ell), Fraction(math.ceil(_pow(d, 6) * _pow(eps, -30)))),
            "rho": (exact_number(self.rho), _pow(d, -60) * _pow(eps, 3000)),
            "phi": (exact_number(self.phi), _pow(d, -1) * _pow(eps, 10)),
            "beta": (exact_number(self.beta), eps / 10),
            "delta": (exact_number(self.delta), _pow(d, -70) * _pow(eps, 3100)),
        }
        for name, (actual, expected) in checks.items():
            if actual != expected:
                raise ParamError(
                    f"formula-mode field {name}={actual} does not match its formula value"
                )


def check_desk_scale(params: OracleParams) -> None:
    """Refuse a bundle whose walks, phases or findr samples are beyond desk scale."""
    if params.ell > MAX_DESK_ELL:
        raise OracleConfigError(
            f"walk-length cap ell={params.ell} is beyond desk scale; "
            "use explicit parameters"
        )
    if params.h_bar > MAX_FINDR_PHASES:
        raise OracleConfigError(f"h_bar={params.h_bar} phases is beyond desk scale")
    if params.sample_count > MAX_FINDR_SAMPLES:
        raise OracleConfigError(
            f"sample_count={params.sample_count} is beyond desk scale"
        )
    ks = params.k_candidates
    # len() overflows on the astronomically long ranges of formula mode.
    n = max(0, -((ks.start - ks.stop) // ks.step)) if isinstance(ks, range) else len(ks)
    if n > MAX_K_CANDIDATES:
        raise OracleConfigError(f"{n} size-threshold candidates is beyond desk scale")


_FIELD_ORDER = (
    "ell",
    "rho",
    "phi",
    "beta",
    "delta",
    "alpha",
    "h_bar",
    "k_candidates",
    "sample_count",
    "keep_count",
)


def derive_params(
    epsilon: Number,
    d: int,
    mode: str = EXPLICIT_MODE,
    overrides: dict | None = None,
) -> OracleParams:
    """Build a validated parameter bundle.

    Every field defaults to its closed-form value; explicit mode applies
    ``overrides`` on top, and downstream defaults follow overridden inputs
    (an overridden ``delta`` feeds the default ``h_bar``, an overridden
    ``rho`` feeds the default ``k_candidates``, an overridden ``beta`` feeds
    the default sample sizes).  Formula mode forbids overrides other than
    ``arithmetic`` ("double" unless overridden).
    """
    overrides = dict(overrides or {})
    arithmetic = overrides.pop("arithmetic", "double")
    if mode == PAPER_MODE and overrides:
        raise ParamError("formula mode computes every field; overrides not allowed")
    unknown = set(overrides) - set(_FIELD_ORDER)
    if unknown:
        raise ParamError(f"unknown parameter overrides: {sorted(unknown)}")

    eps = exact_number(epsilon)
    if not 0 < eps < 1:
        raise ParamError(f"epsilon must be in (0,1), got {epsilon}")
    df = Fraction(d)

    def pick(name: str, default) -> object:
        return overrides[name] if name in overrides else default()

    ell = pick("ell", lambda: math.ceil(_pow(df, 6) * _pow(eps, -30)))
    rho = pick("rho", lambda: _pow(df, -60) * _pow(eps, 3000))
    phi = pick("phi", lambda: _pow(df, -1) * _pow(eps, 10))
    beta = pick("beta", lambda: eps / 10)
    delta = pick("delta", lambda: _pow(df, -70) * _pow(eps, 3100))
    alpha = pick("alpha", lambda: float(eps) ** (4.0 / 3.0) / 300_000.0)

    def default_h_bar() -> int:
        inv = 1 / exact_number(delta)
        if inv == 1:
            return 1
        return max(1, math.ceil(2 * inv * Fraction(_log_of_fraction(inv))))

    h_bar = pick("h_bar", default_h_bar)
    k_candidates = pick(
        "k_candidates", lambda: range(1, math.floor(1 / exact_number(rho)) + 1)
    )
    sample_count = pick(
        "sample_count", lambda: math.ceil(_pow(1 / exact_number(beta), 10))
    )
    keep_count = pick("keep_count", lambda: math.ceil(_pow(1 / exact_number(beta), 8)))

    params = OracleParams(
        epsilon=epsilon,
        d=d,
        ell=ell,
        rho=rho,
        phi=phi,
        beta=beta,
        delta=delta,
        alpha=alpha,
        h_bar=h_bar,
        k_candidates=k_candidates,
        sample_count=sample_count,
        keep_count=keep_count,
        mode=mode,
        arithmetic=arithmetic,
    )
    params.validate()
    return params


def _number_to_json(x: Number) -> object:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return x


def params_to_dict(params: OracleParams) -> dict:
    """JSON-friendly, deterministic rendering of a parameter bundle."""
    ks = params.k_candidates
    if isinstance(ks, range) and ks.step == 1:
        k_repr: object = f"{ks.start}..{ks.stop - 1}"
    else:
        k_repr = list(ks)
    return {
        "epsilon": _number_to_json(params.epsilon),
        "d": params.d,
        "ell": params.ell,
        "rho": _number_to_json(params.rho),
        "phi": _number_to_json(params.phi),
        "beta": _number_to_json(params.beta),
        "delta": _number_to_json(params.delta),
        "alpha": _number_to_json(params.alpha),
        "h_bar": params.h_bar,
        "k_candidates": k_repr,
        "sample_count": params.sample_count,
        "keep_count": params.keep_count,
        "mode": params.mode,
        "arithmetic": params.arithmetic,
    }
