"""A population of countable coordinates and their seeded continuous images.

A population is an array of real-valued countable coordinates n.  The
integer part floor(n) names the unit set of a coordinate, and
`unit_set_counts` partitions a population by it.  `realize_images` draws
the continuous image of every n from an explicit distribution; the same
(n, distribution, seed) triple always gives the same image.

The draw for a coordinate is the uniform

    u = numpy.random.default_rng(SeedSequence(entropy=[seed mod 2**64,
                                                       bits of n])).random()

with "bits of n" the IEEE-754 bit pattern of float64(n) read as an
unsigned integer, mapped through the distribution's inverse CDF.
`_uniforms` computes that number for a whole array of n in one pass,
without a SeedSequence or Generator per coordinate.
"""
from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .errors import InvalidDistribution, InvalidParameter

_DENSITY_TOL = 1e-9
_CDF_NODES = 20001
_UNIFORM_BLOCK = 1 << 16

_MASK32 = 0xFFFFFFFF
# numpy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_LIMBS = tuple((_PCG_MULT >> (32 * i)) & _MASK32 for i in range(4))


class MappingDistribution:
    """Distribution of the continuous image over a bounded support.

    Use the constructors `uniform`, `point_mass`, or `from_density`.  The
    density must be nonnegative and integrate to one over [lo, hi] within
    1e-9; `point_mass` is the degenerate limit and is handled exactly.
    """

    def __init__(self, lo: float, hi: float,
                 density: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                 atom: Optional[float] = None):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise InvalidDistribution("support endpoints must be finite")
        if not math.isfinite(hi - lo):
            raise InvalidDistribution("support width hi - lo must be finite")
        self.lo = float(lo)
        self.hi = float(hi)
        self.atom = atom
        if atom is not None:
            if not (lo <= atom <= hi):
                raise InvalidDistribution("atom lies outside the support")
            self._cdf_grid = None
            return
        if hi <= lo:
            raise InvalidDistribution("support must satisfy lo < hi")
        if density is None:
            raise InvalidDistribution("density callable required")
        xs = np.linspace(self.lo, self.hi, _CDF_NODES)
        vals = np.asarray(density(xs), dtype=float)
        if vals.shape != xs.shape:
            raise InvalidDistribution("density must map arrays to arrays of the same shape")
        if np.any(~np.isfinite(vals)) or np.any(vals < 0):
            raise InvalidDistribution("density must be finite and nonnegative")
        from scipy import integrate
        total, _ = integrate.quad(lambda r: float(density(np.asarray([r]))[0]),
                                  self.lo, self.hi, limit=200)
        if abs(total - 1.0) > _DENSITY_TOL:
            raise InvalidDistribution(
                f"density integrates to {total!r}, not 1 within {_DENSITY_TOL}"
            )
        cdf = integrate.cumulative_trapezoid(vals, xs, initial=0.0)
        cdf /= cdf[-1]
        self._xs = xs
        self._cdf_grid = cdf

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "MappingDistribution":
        span = hi - lo
        return cls(lo, hi, density=lambda r: np.full_like(np.asarray(r, float), 1.0 / span))

    @classmethod
    def point_mass(cls, r: float) -> "MappingDistribution":
        return cls(r, r, atom=r)

    @classmethod
    def from_density(cls, lo: float, hi: float,
                     density: Callable[[np.ndarray], np.ndarray]) -> "MappingDistribution":
        return cls(lo, hi, density=density)

    def inverse_cdf(self, u: np.ndarray) -> np.ndarray:
        """Images of uniforms u in [0, 1), elementwise."""
        if self.atom is not None:
            return np.full(np.shape(u), self.atom, dtype=float)
        return np.interp(u, self._cdf_grid, self._xs)


def _hash_constants(init: int, mult: int, count: int):
    """(xor, multiplier) pairs of count successive SeedSequence hashes."""
    pairs = []
    for _ in range(count):
        nxt = init * mult & _MASK32
        pairs.append((init, nxt))
        init = nxt
    return pairs


# a pool of 4 words takes 4 + 12 mixing hashes; generate_state(4, uint64)
# takes 8 output hashes
_MIX_HASHES = _hash_constants(_INIT_A, _MULT_A, 16)
_STATE_HASHES = _hash_constants(_INIT_B, _MULT_B, 8)


def _hash(v: np.ndarray, xor: int, mult: int) -> np.ndarray:
    v = (v ^ xor) * mult
    return v ^ (v >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_MULT_L - y * _MIX_MULT_R
    return r ^ (r >> 16)


def _carry(limbs):
    """32-bit limbs (low first) with carries propagated, mod 2**128."""
    out, c = [], 0
    for limb in limbs:
        limb = limb + c
        out.append(limb & _MASK32)
        c = limb >> 32
    return out


def _pcg_step(state, inc):
    """state * multiplier + inc mod 2**128, on uint64 arrays of 32-bit limbs.

    Each limb of the sum collects at most eight 32-bit halves of partial
    products, so it stays below 2**35 until the carries are propagated.
    """
    acc = list(inc)
    for i, a in enumerate(state):
        for j, m in enumerate(_PCG_MULT_LIMBS[:4 - i]):
            p = a * m
            acc[i + j] = acc[i + j] + (p & _MASK32)
            if i + j < 3:
                acc[i + j + 1] = acc[i + j + 1] + (p >> 32)
    return _carry(acc)


def _uniforms(ns: np.ndarray, seed: int) -> np.ndarray:
    """The uniform draw of every countable coordinate in ns under seed.

    Equals default_rng(SeedSequence(entropy=[seed mod 2**64, bits of n]))
    .random() for each n: the SeedSequence pool mix and
    generate_state(4, uint64), PCG64 seeding, one step, the XSL-RR output
    and (x >> 11) * 2**-53, in 32-bit limbs.

    The draw is elementwise, so it runs over blocks of _UNIFORM_BLOCK
    coordinates into one result: the limb arrays, about 290 bytes a
    coordinate, then live for one block at a time, not for all of ns.
    """
    bits = np.ascontiguousarray(ns, dtype=np.float64).view(np.uint64)
    s = int(seed) & ((1 << 64) - 1)
    seed_words = [s & _MASK32] + ([s >> 32] if s >> 32 else [])
    flat = bits.reshape(-1)
    u = np.empty(flat.shape)
    for lo in range(0, flat.size, _UNIFORM_BLOCK):
        u[lo:lo + _UNIFORM_BLOCK] = _uniform_block(flat[lo:lo + _UNIFORM_BLOCK],
                                                   seed_words)
    return u.reshape(bits.shape)


def _uniform_block(bits: np.ndarray, seed_words) -> np.ndarray:
    """_uniforms of the float64 bit patterns bits, seed split into words.

    SeedSequence splits each entropy integer into its 32-bit words, low
    first (one word for a value below 2**32), and pads the pool with zero
    words, so a high word of n that is zero and the padding hash alike.
    """
    words = [np.full(bits.shape, w, dtype=np.uint32) for w in seed_words]
    words += [(bits & _MASK32).astype(np.uint32), (bits >> 32).astype(np.uint32)]
    words += [np.zeros(bits.shape, dtype=np.uint32)] * (4 - len(words))
    hashes = iter(_MIX_HASHES)
    pool = [_hash(w, *next(hashes)) for w in words]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], *next(hashes)))
    w = [_hash(pool[i % 4], *xm).astype(np.uint64)
         for i, xm in enumerate(_STATE_HASHES)]
    # generate_state's uint64 words are (w0|w1), (w2|w3), ...; PCG64 takes
    # the first pair as (high, low) of the initial state, the second as
    # (high, low) of the stream, and increments by 2 * stream + 1
    initstate = [w[2], w[3], w[0], w[1]]
    seq = [w[6], w[7], w[4], w[5]]
    inc = [((seq[0] << 1) & _MASK32) | 1] + [
        ((seq[i] << 1) & _MASK32) | (seq[i - 1] >> 31) for i in range(1, 4)]
    # seeding steps once from state 0, which gives inc, adds the initial
    # state and steps again; random() steps once more before its output
    state = _carry([a + b for a, b in zip(inc, initstate)])
    state = _pcg_step(_pcg_step(state, inc), inc)
    hi = (state[3] << 32) | state[2]
    x = hi ^ ((state[1] << 32) | state[0])
    rot = state[3] >> 26
    x = (x >> rot) | (x << ((64 - rot) & 63))
    return (x >> 11).astype(np.float64) * 2.0 ** -53


def _coordinates(ns) -> np.ndarray:
    """ns as a float64 array; raises InvalidParameter unless every n is
    finite."""
    ns = np.asarray(ns, dtype=np.float64)
    if not np.isfinite(ns).all():
        raise InvalidParameter("countable coordinates must be finite")
    return ns


def realize_images(ns, dist: MappingDistribution, seed: int) -> np.ndarray:
    """The images of countable coordinates ns under seed, as an array.

    Each image depends only on (n, dist, seed), never on the other
    coordinates or their order.  Raises InvalidParameter if any n is not
    finite.
    """
    return dist.inverse_cdf(_uniforms(_coordinates(ns), seed))


def unit_set_counts(ns) -> dict[int, int]:
    """The size of each unit set of the population ns, keyed by its index
    floor(n), in increasing index order.  Raises InvalidParameter if any n
    is not finite.
    """
    ids, sizes = np.unique(np.floor(_coordinates(ns)), return_counts=True)
    return {int(i): size for i, size in zip(ids.tolist(), sizes.tolist())}
