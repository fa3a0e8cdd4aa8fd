import cmath
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cardpath.amplitude import (Amplitude, WaveSample, born_probability,
                                interference_cross_term, phase_from_count,
                                shift_winding, superpose)
from cardpath.errors import NegativeModulus

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
moduli = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
windings = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def test_amplitude_complex_round_trip():
    z = 1.25 - 0.75j
    assert Amplitude.from_complex(z).to_complex() == z


def test_born_probability_is_squared_modulus():
    psi = Amplitude(3.0, 4.0)
    assert born_probability(psi) == 25.0


def test_negative_modulus_rejected():
    with pytest.raises(NegativeModulus):
        WaveSample(modulus=-0.5, winding=0.0)


def test_integer_winding_gives_exact_real_amplitude():
    for n in (-3.0, 0.0, 1.0, 7.0, 1e6):
        psi = phase_from_count(WaveSample(2.5, n))
        assert psi == Amplitude(2.5, 0.0)


def test_half_turn_negates():
    psi = phase_from_count(WaveSample(1.0, 0.5))
    assert abs(psi.re + 1.0) < 1e-15
    assert abs(psi.im) < 1e-15


def test_quarter_turn_is_imaginary_unit():
    psi = phase_from_count(WaveSample(1.0, 0.25))
    assert abs(psi.re) < 1e-15
    assert abs(psi.im - 1.0) < 1e-15


@given(moduli, windings)
@settings(max_examples=200, deadline=None)
def test_phase_preserves_modulus(A, n):
    psi = phase_from_count(WaveSample(A, n))
    assert math.isclose(born_probability(psi), A * A, rel_tol=1e-12, abs_tol=1e-12)


@given(moduli, windings, st.floats(min_value=-50, max_value=50, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_shift_winding_rotates_phase(A, n, c):
    base = phase_from_count(WaveSample(A, n)).to_complex()
    shifted = phase_from_count(shift_winding(WaveSample(A, n), c)).to_complex()
    expect = base * cmath.exp(2j * math.pi * c)
    assert abs(shifted - expect) <= 1e-9 * max(1.0, A)


@given(moduli, windings, st.integers(min_value=-1000, max_value=1000))
@example(1.0, 130072.77916964471, 1000)
@settings(max_examples=200, deadline=None)
def test_whole_turn_shift_is_identity(A, n, c):
    a = phase_from_count(WaveSample(A, n))
    b = phase_from_count(shift_winding(WaveSample(A, n), float(c)))
    # n + c is rounded to within half an ulp of its size, which moves the
    # angle by up to 2*pi times that many turns; the rest is 1e-12
    tol = (1e-12 + 2.0 * math.pi * math.ulp(abs(n) + abs(c))) * max(1.0, A)
    assert abs(a.re - b.re) <= tol
    assert abs(a.im - b.im) <= tol


@given(finite, finite, finite, finite)
@example(500823.2109375, 552716.2109375, -490009.0, -550534.0)
@settings(max_examples=200, deadline=None)
def test_superposition_probability_identity(ar, ai, br, bi):
    a, b = Amplitude(ar, ai), Amplitude(br, bi)
    total = born_probability(superpose(a, b))
    split = born_probability(a) + born_probability(b) + interference_cross_term(a, b)
    # forward-error scale: each summand is rounded relative to its own size,
    # which can far exceed |total| when a and b nearly cancel
    ma, mb = math.hypot(ar, ai), math.hypot(br, bi)
    scale = max(1.0, ma * ma + mb * mb + 2.0 * ma * mb)
    assert abs(total - split) <= 1e-12 * scale


def test_opposite_phases_cancel():
    a = phase_from_count(WaveSample(1.0, 0.0))
    b = phase_from_count(WaveSample(1.0, 0.5))
    s = superpose(a, b)
    assert born_probability(s) < 1e-28
    assert abs(interference_cross_term(a, b) + 2.0) < 1e-14
