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

`_ks_uniform` is the two-sided one-sample Kolmogorov-Smirnov test of
images against a uniform law, in numpy, with scipy.stats.kstest's
statistic and p-value.
"""
from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .errors import InvalidDistribution, InvalidParameter

_DENSITY_TOL = 1e-9
_CDF_NODES = 20001
_BLOCK = 1 << 13  # points that each population-sized stage takes at a time
_SMIRNOV_BLOCK = 1 << 16  # terms of the Birnbaum-Tingey sum taken at a time

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
    density must be finite and nonnegative on the CDF grid, and
    `from_density` checks that it integrates to one over [lo, hi] within
    1e-9 by adaptive quadrature (scipy, imported only there); `uniform`
    integrates to one by construction and needs numpy alone.  The CDF is
    the cumulative trapezoid rule on _CDF_NODES equispaced nodes,
    normalised by its last value.  `point_mass` is the degenerate limit
    and is handled exactly.
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
        # the bits of scipy.integrate.cumulative_trapezoid(vals, xs, initial=0)
        with np.errstate(over="ignore"):
            cdf = np.concatenate(([0.0], np.cumsum(np.diff(xs) * (vals[1:] + vals[:-1]) / 2.0)))
        if not 0.0 < cdf[-1] < math.inf:
            raise InvalidDistribution("density must have a positive, finite "
                                      "integral on the CDF grid")
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
        """The distribution of density on [lo, hi].  Raises
        InvalidDistribution unless density is finite and nonnegative on the
        CDF grid and its integral, by adaptive quadrature, is one within
        1e-9: a rule on the grid nodes alone would misjudge a density with
        a step or a kink between them."""
        dist = cls(lo, hi, density=density)
        from scipy import integrate
        total, _ = integrate.quad(lambda r: float(density(np.asarray([r]))[0]),
                                  dist.lo, dist.hi, limit=200)
        if abs(total - 1.0) > _DENSITY_TOL:
            raise InvalidDistribution(
                f"density integrates to {total!r}, not 1 within {_DENSITY_TOL}"
            )
        return dist

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


def _uniforms(ns: np.ndarray, seed: int, image=None) -> np.ndarray:
    """The uniform draw of every countable coordinate in ns under seed,
    or with image, the elementwise image(draw).

    Equals default_rng(SeedSequence(entropy=[seed mod 2**64, bits of n]))
    .random() for each n: the SeedSequence pool mix and
    generate_state(4, uint64), PCG64 seeding, one step, the XSL-RR output
    and (x >> 11) * 2**-53, in 32-bit limbs.

    The draw is elementwise, so it runs over blocks of _BLOCK coordinates,
    each mapped by image straight into one result: the limb arrays, about
    290 bytes a coordinate, and the block's uniforms then live for one
    block at a time, not for all of ns.
    """
    bits = np.ascontiguousarray(ns, dtype=np.float64).view(np.uint64)
    s = int(seed) & ((1 << 64) - 1)
    seed_words = [s & _MASK32] + ([s >> 32] if s >> 32 else [])
    flat = bits.reshape(-1)
    out = np.empty(flat.shape)
    for lo in range(0, flat.size, _BLOCK):
        u = _uniform_block(flat[lo:lo + _BLOCK], seed_words)
        out[lo:lo + _BLOCK] = u if image is None else image(u)
    return out.reshape(bits.shape)


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
    return _uniforms(_coordinates(ns), seed, dist.inverse_cdf)


def unit_set_counts(ns) -> dict[int, int]:
    """The size of each unit set of the population ns, keyed by its index
    floor(n), in increasing index order.  Raises InvalidParameter if any n
    is not finite.  The indices are counted _BLOCK coordinates at a time.
    """
    flat = _coordinates(ns).reshape(-1)
    counts = {}
    for lo in range(0, flat.size, _BLOCK):
        ids, sizes = np.unique(np.floor(flat[lo:lo + _BLOCK]), return_counts=True)
        for i, size in zip(map(int, ids.tolist()), sizes.tolist()):
            counts[i] = counts.get(i, 0) + size
    return dict(sorted(counts.items()))


# The two-sided one-sample Kolmogorov-Smirnov test against a uniform law.
# The statistic takes scipy.stats.ks_1samp's operations in its order, and
# the p-value is a port of scipy.stats._ksstats._kolmogn (BSD-3; Copyright
# (c) 2001-2002 Enthought, Inc. and 2003- SciPy Developers) for the
# survival function, with its branch order, constants and numpy types: the
# method choice of Simard and L'Ecuyer, "Computing the two-sided
# Kolmogorov-Smirnov distribution", J. Stat. Softw. 39(11), 2011, among
# Ruben and Gambino's closed forms, Durbin's matrix in the form of
# Marsaglia, Tsang and Wang, J. Stat. Softw. 8(18), 2003, Pelz and Good's
# expansion, J. R. Stat. Soc. B 38(2), 1976, and twice the one-sided
# Smirnov tail.  Two parts differ: where scipy takes Pomeranz's recursion
# (n <= 140 and 0.754693 < n d**2 <= 4) this takes Durbin's matrix, which
# is exact for every n as well, and scipy.special.smirnov, which is C, is
# the exact Birnbaum-Tingey sum of _smirnov.

_E128 = 128
_EP128 = np.ldexp(np.longdouble(1), _E128)
_EM128 = np.ldexp(np.longdouble(1), -_E128)
_SQRT2PI = np.sqrt(2 * np.pi)
_LOG_2PI = np.log(2 * np.pi)
_MIN_LOG = -708
_SQRT3 = np.sqrt(3)
_PI_SQUARED = np.pi ** 2
_PI_FOUR = np.pi ** 4
_PI_SIX = np.pi ** 6
# B_2j / (2j (2j - 1)) for j = 8, ..., 1, the Stirling series of log m!
_STIRLING_COEFFS = [-2.955065359477124183e-2, 6.4102564102564102564e-3,
                    -1.9175269175269175269e-3, 8.4175084175084175084e-4,
                    -5.952380952380952381e-4, 7.9365079365079365079e-4,
                    -2.7777777777777777778e-3, 8.3333333333333333333e-2]
# lgamma(m + 1) - (m log m - m + log(2 pi m) / 2) for m = 1, ..., 7, below
# which the series above, cut after eight terms, is not good to 1e-16
_STIRLING_SMALL = np.array([0.0] + [
    math.lgamma(m + 1) - (m * math.log(m) - m + math.log(2 * math.pi * m) / 2)
    for m in range(1, 8)])


def _ks_uniform(images: np.ndarray, lo: float, hi: float) -> tuple[float, float]:
    """(statistic, p-value) of the two-sided one-sample KS test of the
    nonempty images against the uniform law on [lo, hi], as
    scipy.stats.kstest(images, scipy.stats.uniform(lo, hi - lo).cdf)
    gives them: the statistic's bits, and the p-value's bits but in the
    two branches that the comment above names, where they agree to about
    1e-11 relative."""
    d = _ks_statistic(images, lo, hi)
    return float(d), float(_kolmogorov_sf(images.size, d))


def _ks_statistic(images, lo, hi):
    """max(D+, D-) of the sorted images' uniform CDF against the steps
    i / n, in place where scipy makes a new array, and with the steps and
    gaps made _BLOCK points at a time: a block's steps are the values of
    scipy's, and a max is exact in any order."""
    n = images.size
    cdf = np.sort(images)
    cdf -= lo
    cdf /= hi - lo
    np.clip(cdf, 0.0, 1.0, out=cdf)
    d_plus = d_minus = -math.inf
    for a in range(0, n, _BLOCK):
        part = cdf[a:a + _BLOCK]
        steps = np.arange(float(a), float(a + part.size) + 1) / n
        gap = np.subtract(steps[1:], part)
        d_plus = np.maximum(d_plus, gap.max())
        d_minus = np.maximum(d_minus, np.subtract(part, steps[:-1], out=gap).max())
    return d_plus if d_plus > d_minus else d_minus


def _clip_prob(p):
    return np.clip(p, 0.0, 1.0)


def _kolmogorov_sf(n: int, x):
    """P(D_n >= x) for the two-sided KS statistic D_n of n points."""
    if x >= 1.0:
        return 0.0
    if x <= 0.0:
        return 1.0
    t = n * x
    if t <= 1.0:  # Ruben-Gambino: 1/2n <= x <= 1/n
        if t <= 0.5:
            return 1.0
        if n <= 140:
            prob = np.prod(np.arange(1, n + 1) * (1.0 / n) * (2 * t - 1))
        else:
            # n! / n**n by Stirling's series, with n log n taken out
            log_nfactorial_div_n_pow_n = (np.log(n) / 2 - n + _LOG_2PI / 2
                                          + _stirling_remainder(n))
            prob = np.exp(log_nfactorial_div_n_pow_n + n * np.log(2 * t - 1))
        return _clip_prob(1.0 - prob)
    if t >= n - 1:  # Ruben-Gambino
        return _clip_prob(2 * (1.0 - x) ** n)
    if x >= 0.5:  # exact: 2 * smirnov
        return _clip_prob(2 * _smirnov(n, x))
    nxsquared = t * x
    if n <= 140:
        if nxsquared <= 4:  # scipy takes Pomeranz above 0.754693
            return _clip_prob(1.0 - _kolmogorov_cdf_dmtw(n, x))
        return _clip_prob(2 * _smirnov(n, x))
    if nxsquared >= 370.0:
        return 0.0
    if nxsquared >= 2.2:
        return _clip_prob(2 * _smirnov(n, x))
    if n <= 100000 and n * x ** 1.5 <= 1.4:
        cdfprob = _kolmogorov_cdf_dmtw(n, x)
    else:
        cdfprob = _kolmogorov_cdf_pelz_good(n, x)
    return _clip_prob(1.0 - cdfprob)


def _kolmogorov_cdf_dmtw(n, d):
    """P(D_n <= d) for 1/n < d < 1 by Durbin's matrix: the k-th diagonal
    entry of (n! / n**n) H**n, H of order 2k - 1, k = ceil(n d),
    with power-of-two rescaling (Marsaglia, Tsang and Wang)."""
    nd = n * d
    k = int(np.ceil(nd))
    h = k - nd
    m = 2 * k - 1

    H = np.zeros([m, m])
    # v is the first column (and reversed, the last row) of H:
    # v[j] = (1 - h**(j + 1)) / (j + 1)! but for v[-1]; w[j] = 1 / j!
    intm = np.arange(1, m + 1)
    v = 1.0 - h ** intm
    w = np.empty(m)
    fac = 1.0
    for j in intm:
        w[j - 1] = fac
        fac /= j  # this may underflow, harmlessly
        v[j - 1] *= fac
    tt = max(2 * h - 1.0, 0) ** m - 2 * h ** m
    v[-1] = (1.0 + tt) * fac

    for i in range(1, m):
        H[i - 1:, i] = w[:m - i + 1]
    H[:, 0] = v
    H[-1, :] = np.flip(v, axis=0)

    Hpwr = np.eye(np.shape(H)[0])  # the power of H so far
    nn = n
    expnt = 0  # the scaling of Hpwr
    Hexpnt = 0  # the scaling of H
    while nn > 0:
        if nn % 2:
            Hpwr = np.matmul(Hpwr, H)
            expnt += Hexpnt
        H = np.matmul(H, H)
        Hexpnt *= 2
        if np.abs(H[k - 1, k - 1]) > _EP128:
            H /= _EP128
            Hexpnt += _E128
        nn = nn // 2

    p = Hpwr[k - 1, k - 1]
    # times n! / n**n
    for i in range(1, n + 1):
        p = i * p / n
        if np.abs(p) < _EM128:
            p *= _EP128
            expnt -= _E128
    if expnt != 0:
        p = np.ldexp(p, expnt)
    return _clip_prob(p)


def _kolmogorov_cdf_pelz_good(n, x):
    """Pelz and Good's approximation to P(D_n <= x), 0 < x < 1: the
    Li-Chien and Korolyuk expansion K0(z) + K1(z)/sqrt(n) + K2(z)/n +
    K3(z)/n**1.5 in z = x sqrt(n), each K transformed by Jacobi's theta
    functions into a series that converges for small z."""
    z = np.sqrt(n) * x
    zsquared, zthree, zfour, zsix = z ** 2, z ** 3, z ** 4, z ** 6

    qlog = -_PI_SQUARED / 8 / zsquared
    if qlog < _MIN_LOG:  # z ~ 0.041743441416853426
        return 0.0
    q = np.exp(qlog)

    # coefficients of the terms of the sums for K1, K2 and K3
    k1a = -zsquared
    k1b = _PI_SQUARED / 4

    k2a = 6 * zsix + 2 * zfour
    k2b = (2 * zfour - 5 * zsquared) * _PI_SQUARED / 4
    k2c = _PI_FOUR * (1 - 2 * zsquared) / 16

    k3d = _PI_SIX * (5 - 30 * zsquared) / 64
    k3c = _PI_FOUR * (-60 * zsquared + 212 * zfour) / 16
    k3b = _PI_SQUARED * (135 * zfour - 96 * zsix) / 4
    k3a = -30 * zsix - 90 * z ** 8

    # Horner's scheme for sum c_i q**(i**2) over the odd integers
    K0to3 = np.zeros(4)
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):
        m = 2 * k - 1
        msquared, mfour, msix = m ** 2, m ** 4, m ** 6
        qpower = np.power(q, 8 * k)
        coeffs = np.array([1.0,
                           k1a + k1b * msquared,
                           k2a + k2b * msquared + k2c * mfour,
                           k3a + k3b * msquared + k3c * mfour + k3d * msix])
        K0to3 *= qpower
        K0to3 += coeffs
    K0to3 *= q
    K0to3 *= _SQRT2PI
    # z**10 > 0 as z > 0.04
    K0to3 /= np.array([z, 6 * zfour, 72 * z ** 7, 6480 * z ** 10])

    # the sums over all integers k of the other terms,
    # K2: (pi^2 k^2) q^(k^2) and K3: (3 pi^2 k^2 z^2 - pi^4 k^4) q^(k^2),
    # summed directly as they cancel little
    q = np.exp(-_PI_SQUARED / 2 / zsquared)
    ks = np.arange(maxk, 0, -1)
    ksquared = ks ** 2
    sqrt3z = _SQRT3 * z
    kspi = np.pi * ks
    qpwers = q ** ksquared
    k2extra = np.sum(ksquared * qpwers)
    k2extra *= _PI_SQUARED * _SQRT2PI / (-36 * zthree)
    K0to3[2] += k2extra
    k3extra = np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ksquared * qpwers)
    k3extra *= _PI_SQUARED * _SQRT2PI / (216 * zsix)
    K0to3[3] += k3extra
    powers_of_n = np.power(n * 1.0, np.arange(len(K0to3)) / 2.0)
    K0to3 /= powers_of_n
    return sum(K0to3)


def _smirnov(n: int, d) -> float:
    """P(D_n+ >= d) for 1/n < d < 1 - 1/n, the one-sided Smirnov tail, by
    the exact sum of Birnbaum and Tingey (Ann. Math. Stat. 22, 1951),

        d sum_{j=0}^{floor(n (1 - d))} C(n, j) (d + j/n)**(j-1) (1 - d - j/n)**(n-j).

    The log of each term has parts of order t = n d that cancel, so each
    part is written so that none is rounded at that order: with
    m = n - j and Stirling's remainder s(k) = log k! - (k log k - k +
    log(2 pi k) / 2), term j > 0 is the exp of

        j log1p(t/j) + m log(1 - t/m) - log1p(j/t) - log(2 pi j m / n) / 2
        + s(n) - s(j) - s(m),

    and the term j = 0 is (1 - d)**n.  1 - t/m is computed from
    m - t - (n d - t), which is exact where it is small.  Each term is
    then good to about 10 t ulps, and all terms are positive.  The sum is
    taken in units of 2**k near exp(-2 t d), a bound on the tail, so that
    a tail in the subnormal range is rounded once, by ldexp.
    """
    t = n * d
    num, den = float(d).as_integer_ratio()
    tnum, tden = float(t).as_integer_ratio()
    t_err = (n * num * tden - tnum * den) / (den * tden)  # n d - t
    k = round(-2 * t * d / math.log(2))
    shift = k * math.log(2)
    total = np.exp(n * np.log1p(-d) - shift)
    s_n = _stirling_remainder(n)
    j_last = n - math.floor(t)
    for start in range(1, j_last + 1, _SMIRNOV_BLOCK):
        j = np.arange(start, min(start + _SMIRNOV_BLOCK, j_last + 1), dtype=float)
        m = n - j
        rest = (m - t) - t_err  # n (1 - d) - j
        keep = rest > 0
        j, m, rest = j[keep], m[keep], rest[keep]
        v = t / m
        log_b = np.where(v > 0.5, np.log(rest / m), np.log1p(-np.minimum(v, 0.5)))
        logs = (j * np.log1p(t / j) + m * log_b - np.log1p(j / t)
                - np.log(2 * np.pi * j * m / n) / 2
                + s_n - _stirling_remainder(j) - _stirling_remainder(m))
        total += np.exp(logs - shift).sum()
    return np.ldexp(total, k)


def _stirling_remainder(k):
    """log k! - (k log k - k + log(2 pi k) / 2) for integers k >= 1:
    Stirling's series from k = 8 on, a table below."""
    rk = 1.0 / np.maximum(k, 8.0)
    series = rk * np.polyval(_STIRLING_COEFFS, rk / np.maximum(k, 8.0))
    return np.where(k >= 8, series, _STIRLING_SMALL[np.minimum(k, 7).astype(np.intp)])
