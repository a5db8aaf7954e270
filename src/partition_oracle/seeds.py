"""Pure, splittable per-vertex randomness derived from one master seed.

Every random quantity the oracle consumes — per-vertex phases, per-vertex
walk lengths, and the findr sampling stream — is a deterministic function of
``(master_seed, purpose-tag, indices)``.  Values are produced by hashing the
key with BLAKE2b, which gives O(1) random access, no shared stream state,
and bit-identical results across platforms and processes.  Phases and walk
lengths live in two tables that draw each vertex's value on first read.
"""
from __future__ import annotations

import hashlib
import math
from fractions import Fraction

from .diffusion import exact_number
from .params import OracleParams, check_int

_MASK64 = (1 << 64) - 1
_TWO_53 = float(1 << 53)

# Below this, 1 - delta loses enough float precision that the geometric
# inverse CDF is computed with rational arithmetic instead.
_FLOAT_DELTA_FLOOR = 1e-9


def _check_index(i: int) -> int:
    if type(i) is not int or i < 0:  # bools too: True would alias 1
        raise ValueError(f"hash index must be a nonnegative int, got {i!r}")
    return i


def _encode_index(i: int) -> bytes:
    size = (_check_index(i).bit_length() + 7) >> 3 or 1
    # 0x1f, the byte count, then the bytes of i, little-endian.
    return ((i << 16) | (size << 8) | 0x1F).to_bytes(size + 2, "little")


def _draw_below(upper: int, keyed) -> int:
    """``SeedContext.below`` once the key, tag and indices are in ``keyed``.

    Each retry appends an attempt counter to the hash key, so the result
    stays a pure function of (seed, tag, indices).
    """
    if upper == 1:
        return 0
    bits = (upper - 1).bit_length()
    blocks = (bits + 63) // 64
    attempt = 0
    while True:
        value = 0
        for b in range(blocks):
            h = keyed.copy()
            h.update(_encode_index(attempt) + _encode_index(b))
            value = (value << 64) | int.from_bytes(h.digest(), "little")
        value >>= blocks * 64 - bits
        if value < upper:
            return value
        attempt += 1


def geometric_from_uniform(u: float, delta, h_bar: int) -> int:
    """min(X, h_bar) for X ~ Geometric(delta) via inverse CDF at ``u``.

    X = min{m >= 1 : u < 1 - (1-delta)^m}.  For tiny delta the closed form
    switches to the first-order expansion ln(1-delta) ~ -delta in exact
    rational arithmetic, whose error is far below one unit of X.
    """
    if not 0 <= u < 1:
        raise ValueError(f"uniform draw must be in [0,1), got {u}")
    delta_f = float(delta)
    if delta_f >= 1.0:
        return 1
    num = math.log1p(-u)  # <= 0
    if delta_f >= _FLOAT_DELTA_FLOOR:
        x = math.floor(num / math.log1p(-delta_f)) + 1
    else:
        ratio = Fraction(-num) / exact_number(delta)
        x = math.floor(ratio) + 1
    return min(max(1, x), h_bar)


def check_master_seed(seed: int) -> int:
    """``seed`` itself; a bool or non-int, or a seed outside [0, 2**64),
    would alias others or fail to hash, so raise."""
    if type(seed) is not int:  # True would alias 1
        raise ValueError(f"master seed must be an int, got {seed!r}")
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"master seed must be in [0, 2**64), got {seed}")
    return seed


class _Draws(dict):
    """Vertex id -> value, hashed on first read and kept.  A read that
    hits checks no id (True finds vertex 1's entry): pass int ids."""

    def __init__(self, prefix, draw):
        self._prefix = prefix
        self._draw = draw

    def __missing__(self, v: int) -> int:
        keyed = self._prefix.copy()
        keyed.update(_encode_index(v))
        value = self[v] = self._draw(keyed)
        return value


class SeedContext:
    """Master seed plus parameters; hands out all per-vertex randomness.

    Every value is BLAKE2b keyed by the master seed over the tag and the
    indices.  The context keeps the hash state after key and tag, one per
    tag, and copies it per value.  ``phases`` and ``walk_lens`` are tables
    of int vertex ids that draw a value on first read and keep it;
    ``phase_of`` and ``walk_len_of`` read them after checking the id.
    """

    def __init__(self, master_seed: int, params: OracleParams):
        self.master_seed = check_master_seed(master_seed)
        self.params = params
        self._key = master_seed.to_bytes(8, "little")
        self._prefixes: dict[str, object] = {}

        def phase(keyed) -> int:
            u = (int.from_bytes(keyed.digest(), "little") >> 11) / _TWO_53
            return geometric_from_uniform(u, params.delta, params.h_bar)

        def walk_len(keyed) -> int:
            return _draw_below(params.ell, keyed) + 1

        self.phases = _Draws(self._prefix("phase"), phase)
        self.walk_lens = _Draws(self._prefix("walk"), walk_len)

    def _prefix(self, tag: str):
        """The hash state after the key and ``tag``; copy it before use."""
        h = self._prefixes.get(tag)
        if h is None:
            h = hashlib.blake2b(digest_size=8, key=self._key)
            h.update(tag.encode("ascii"))
            self._prefixes[tag] = h
        return h

    def _keyed(self, tag: str, indices: tuple[int, ...]):
        h = self._prefix(tag).copy()
        for i in indices:
            h.update(_encode_index(i))
        return h

    def u64(self, tag: str, *indices: int) -> int:
        return int.from_bytes(self._keyed(tag, indices).digest(), "little")

    def below(self, upper: int, tag: str, *indices: int) -> int:
        """Exact uniform integer in [0, upper) by rejection sampling."""
        return _draw_below(check_int(upper, "upper bound", 1), self._keyed(tag, indices))

    def phase_of(self, v: int) -> int:
        """The phase h_v in [1, h_bar]: capped geometric with rate delta,
        from the top 53 bits of ``u64("phase", v)``."""
        return self.phases[_check_index(v)]

    def walk_len_of(self, v: int) -> int:
        """The walk length t_v, uniform in [1, ell]: ``below(ell, "walk", v) + 1``."""
        return self.walk_lens[_check_index(v)]
