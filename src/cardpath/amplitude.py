"""Complex amplitude algebra: squared-modulus probability, superposition,
and the whole-turn phase form A*e^(2*pi*i*n)."""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NegativeModulus


@dataclass(frozen=True)
class Amplitude:
    re: float
    im: float

    @classmethod
    def from_complex(cls, z: complex) -> "Amplitude":
        return cls(float(z.real), float(z.imag))

    def to_complex(self) -> complex:
        return complex(self.re, self.im)


@dataclass(frozen=True)
class WaveSample:
    """Modulus A >= 0 and winding n, the phase counted in whole turns."""

    modulus: float
    winding: float

    def __post_init__(self):
        if self.modulus < 0:
            raise NegativeModulus(f"modulus {self.modulus} < 0")


def born_probability(psi: Amplitude) -> float:
    return psi.re * psi.re + psi.im * psi.im


def superpose(a: Amplitude, b: Amplitude) -> Amplitude:
    return Amplitude(a.re + b.re, a.im + b.im)


def phase_from_count(sample: WaveSample) -> Amplitude:
    """A * e^(2*pi*i*n) as a rectangular amplitude.

    The winding is reduced to its fractional part first (exact in floating
    point), so integer windings return exactly (A, 0).
    """
    frac = sample.winding - math.floor(sample.winding)
    if frac == 0.0:
        return Amplitude(sample.modulus, 0.0)
    angle = 2.0 * math.pi * frac
    return Amplitude(sample.modulus * math.cos(angle), sample.modulus * math.sin(angle))


def shift_winding(sample: WaveSample, c: float) -> WaveSample:
    """Rotate the phase by c whole turns; the Born probability is unchanged."""
    return WaveSample(sample.modulus, sample.winding + c)


def interference_cross_term(a: Amplitude, b: Amplitude) -> float:
    """The amount by which P(a+b) exceeds P(a) + P(b): 2*Re(a*conj(b))."""
    return 2.0 * (a.re * b.re + a.im * b.im)
