"""Points with a reliable countable coordinate and a seeded continuous image.

A point carries a real-valued countable coordinate n whose integer part
names its unit set, plus an optional realized image r.  Realization draws
r once from an explicit distribution; repeated draws with the same
(point, distribution, seed) triple replay identically.

The draw for a point is the uniform

    u = numpy.random.default_rng(SeedSequence(entropy=[seed mod 2**64,
                                                       bits of n])).random()

with "bits of n" the IEEE-754 bit pattern of float64(n) read as an
unsigned integer, mapped through the distribution's inverse CDF.
`_uniforms` computes that number for a whole array of n in one pass,
without a SeedSequence or Generator per point, and `realize_images` maps
a whole array of n to its images without building a point per n.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import AlreadyRealized, InvalidDistribution

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


@dataclass(frozen=True)
class IntermediatePoint:
    """Countable coordinate n and, once realized, its continuous image."""

    n: float
    image: Optional[float] = None

    def __post_init__(self):
        if not math.isfinite(self.n):
            raise ValueError("countable coordinate must be finite")


@dataclass(frozen=True)
class UnitSet:
    """All points sharing one integer countable coordinate."""

    index: int
    members: tuple[IntermediatePoint, ...]

    def __post_init__(self):
        for pt in self.members:
            if unit_set_of(pt) != self.index:
                raise ValueError(
                    f"member with n={pt.n} does not belong to unit set {self.index}"
                )

    @classmethod
    def _of_bucket(cls, index: int, members: tuple) -> "UnitSet":
        """A unit set of members already bucketed by index, built without
        the per-member check, which would floor every n again."""
        unit = object.__new__(cls)
        object.__setattr__(unit, "index", index)
        object.__setattr__(unit, "members", members)
        return unit


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
        self.density = density
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
        if span <= 0:
            raise InvalidDistribution("support must satisfy lo < hi")
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


def realize_images(ns: np.ndarray, dist: MappingDistribution,
                   seed: int) -> np.ndarray:
    """The images of countable coordinates ns under seed, as an array.

    Each image depends only on (n, dist, seed), never on the other
    coordinates or their order.
    """
    return dist.inverse_cdf(_uniforms(ns, seed))


def realize_population(points, dist: MappingDistribution, seed: int):
    """Realize many points under one seed: realize_images over their
    coordinates.  Raises AlreadyRealized if any image is already set.
    """
    points = list(points)
    for pt in points:
        if pt.image is not None:
            raise AlreadyRealized(f"point n={pt.n} already has image {pt.image}")
    ns = np.fromiter((pt.n for pt in points), dtype=float, count=len(points))
    images = realize_images(ns, dist, seed).tolist()
    return [IntermediatePoint(pt.n, r) for pt, r in zip(points, images)]


def realize_mapping(point: IntermediatePoint, dist: MappingDistribution,
                    seed: int) -> IntermediatePoint:
    """Draw the continuous image of a point, once: the one-point case of
    realize_population.

    Deterministic: the same (point, dist, seed) triple always yields the
    same image.  Raises AlreadyRealized if the image is already set.
    """
    return realize_population([point], dist, seed)[0]


def unit_set_of(point: IntermediatePoint) -> int:
    """Unit-set index: floor of the countable coordinate."""
    return math.floor(point.n)


def collect_unit_sets(points) -> dict[int, UnitSet]:
    """Partition a finite population into unit sets keyed by index; each
    n is floored once, to bucket it."""
    buckets: dict[int, list[IntermediatePoint]] = {}
    for pt in points:
        buckets.setdefault(math.floor(pt.n), []).append(pt)
    return {idx: UnitSet._of_bucket(idx, tuple(members))
            for idx, members in sorted(buckets.items())}
