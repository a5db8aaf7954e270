"""Pure, splittable per-vertex randomness derived from one master seed.

Every random quantity the oracle consumes — per-vertex phases, per-vertex
walk lengths, and the findr sampling stream — is a deterministic function of
``(master_seed, purpose-tag, indices)``.  Values are produced by hashing the
key with BLAKE2b, which gives O(1) random access, no shared stream state,
and bit-identical results across platforms and processes.
"""
from __future__ import annotations

import hashlib
import math
from fractions import Fraction

from .diffusion import exact_number
from .params import OracleParams

_MASK64 = (1 << 64) - 1

# Below this, 1 - delta loses enough float precision that the geometric
# inverse CDF is computed with rational arithmetic instead.
_FLOAT_DELTA_FLOOR = 1e-9


def _encode_index(i: int) -> bytes:
    data = i.to_bytes((max(i.bit_length(), 1) + 7) // 8, "little", signed=False)
    return b"\x1f" + bytes([len(data)]) + data


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
    """``seed`` itself; seeds outside [0, 2**64) would alias others, so raise."""
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"master seed must be in [0, 2**64), got {seed}")
    return seed


class SeedContext:
    """Master seed plus parameters; hands out all per-vertex randomness."""

    def __init__(self, master_seed: int, params: OracleParams):
        self.master_seed = check_master_seed(master_seed)
        self.params = params
        self._key = master_seed.to_bytes(8, "little")
        self._phase_memo: dict[int, int] = {}
        self._walk_memo: dict[int, int] = {}

    def u64(self, tag: str, *indices: int) -> int:
        h = hashlib.blake2b(digest_size=8, key=self._key)
        h.update(tag.encode("ascii"))
        for i in indices:
            h.update(_encode_index(i))
        return int.from_bytes(h.digest(), "little")

    def uniform(self, tag: str, *indices: int) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.u64(tag, *indices) >> 11) / float(1 << 53)

    def below(self, upper: int, tag: str, *indices: int) -> int:
        """Exact uniform integer in [0, upper) by rejection sampling.

        Each retry appends an attempt counter to the hash key, so the result
        stays a pure function of (seed, tag, indices).
        """
        if upper < 1:
            raise ValueError(f"upper bound must be >= 1, got {upper}")
        if upper == 1:
            return 0
        bits = (upper - 1).bit_length()
        blocks = (bits + 63) // 64
        attempt = 0
        while True:
            value = 0
            for b in range(blocks):
                value = (value << 64) | self.u64(tag, *indices, attempt, b)
            value >>= blocks * 64 - bits
            if value < upper:
                return value
            attempt += 1

    def phase_of(self, v: int) -> int:
        """The phase h_v in [1, h_bar]: capped geometric with rate delta."""
        h = self._phase_memo.get(v)
        if h is None:
            u = self.uniform("phase", v)
            h = geometric_from_uniform(u, self.params.delta, self.params.h_bar)
            self._phase_memo[v] = h
        return h

    def walk_len_of(self, v: int) -> int:
        """The walk length t_v, uniform in [1, ell]."""
        t = self._walk_memo.get(v)
        if t is None:
            t = self.below(self.params.ell, "walk", v) + 1
            self._walk_memo[v] = t
        return t

    def sample_vertex(self, n: int, tag: str, *indices: int) -> int:
        """One uar vertex id in [0, n) from the named sampling stream."""
        return self.below(n, tag, *indices)

    def precedes(self, u: int, v: int) -> bool:
        """The processing order: phase first, vertex id as tie-break."""
        if u == v:
            raise ValueError(f"precedes is a strict order; got u = v = {u}")
        return (self.phase_of(u), u) < (self.phase_of(v), v)

    def order_key(self, v: int) -> tuple[int, int]:
        return (self.phase_of(v), v)

