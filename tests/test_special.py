"""Complex gamma, the signed-power branch and the cosine normaliser.

Golden values come from high-precision evaluation of the defining
integral (argument shifted right by the recurrence until the integrand
is localized, then divided back down), not from any library gamma, so
they are independent of the SciPy ``loggamma`` path under test.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracmom.errors import ArgumentError, DomainError, PoleError
from fracmom.special import (
    complex_gamma,
    cosine_normaliser,
    reflection_product,
    sign_value,
    signed_complex_power,
    signed_log,
)

# values of Gamma(0.4 + 0.4j*k); 22 significant digits
_GAMMA_GOLDEN = {
    0: (2.218159543757688096903, 0.0),
    1: (1.008788557554842674932, -1.038257408114581736697),
    2: (0.3439221468816559463825, -0.6478046945645731890613),
    3: (0.1680126241875475444026, -0.3350997411034022745284),
    5: (0.07387748408563390153739, -0.06912439936826620077904),
    8: (0.01362084581093736767933, 0.005385532176778635144974),
    13: (-0.0006008065916593432793557, -0.00004902508810965584930256),
    20: (-0.000004177950793962280794824, 0.000005741518337798723417067),
    25: (2.861262997681386770109e-7, 9.041562199549780664492e-8),
}


@pytest.mark.parametrize("k,expected", sorted(_GAMMA_GOLDEN.items()))
def test_gamma_golden_spots(k, expected):
    got = complex_gamma(complex(0.4, 0.4 * k))
    want = complex(*expected)
    assert abs(got - want) <= 1e-13 * abs(want)


def test_gamma_real_axis():
    assert complex_gamma(1.0) == pytest.approx(1.0, rel=1e-14)
    assert complex_gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    assert complex_gamma(5.0) == pytest.approx(24.0, rel=1e-14)
    # left of the reflection threshold
    assert complex_gamma(-0.5) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-13)


@pytest.mark.parametrize("z", [0.0, -1.0, -3.0, -7.0, complex(-2.0, 0.0)])
def test_gamma_poles(z):
    with pytest.raises(PoleError):
        complex_gamma(z)


def test_gamma_near_pole_but_not_at_it():
    # 1e-6 away is far beyond the 1e-12 pole tolerance; the reflection
    # path must return a finite (huge) value
    val = complex_gamma(-3.0 + 1e-6)
    assert abs(val) > 1e5


@given(
    st.floats(min_value=-20.0, max_value=20.0),
    st.floats(min_value=-20.0, max_value=20.0),
)
@settings(max_examples=200)
def test_gamma_recurrence(re, im):
    z = complex(re, im)
    if abs(im) < 1e-3 and abs(re - round(re)) < 1e-3 and re < 1.5:
        return  # too close to a pole of either side of the identity
    lhs = complex_gamma(z + 1.0)
    rhs = z * complex_gamma(z)
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1e-30)


@given(
    st.floats(min_value=-10.0, max_value=10.0),
    st.floats(min_value=0.01, max_value=30.0),
)
@settings(max_examples=200)
def test_gamma_conjugation(re, im):
    z = complex(re, im)
    a = complex_gamma(z.conjugate())
    b = complex_gamma(z).conjugate()
    assert abs(a - b) <= 1e-12 * max(abs(a), 1e-30)


@given(
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=-220.0, max_value=220.0),
)
@settings(max_examples=150)
def test_gamma_reflection_identity(re, im):
    """Gamma(z)*Gamma(1-z) equals the sine reflection product.

    The imaginary range reaches close to |Im z| ~ 225, where sin(pi z)
    itself would overflow and the product nears the bottom of double
    range.
    """
    z = complex(re, im)
    if abs(im) < 1e-3 and abs(re - round(re)) < 1e-3:
        return
    lhs = complex_gamma(z) * complex_gamma(1.0 - z)
    rhs = reflection_product(z)
    assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs))


def test_gamma_imaginary_axis_modulus():
    # |Gamma(iy)|^2 = pi / (y sinh(pi y))
    for y in (0.5, 2.0, 9.7):
        got = abs(complex_gamma(complex(0.0, y))) ** 2
        want = math.pi / (y * math.sinh(math.pi * y))
        assert got == pytest.approx(want, rel=1e-12)


def test_gamma_large_imaginary_no_overflow():
    # far beyond where sin(pi z) would overflow in double precision
    val = complex_gamma(complex(-0.3, 250.0))
    assert math.isfinite(val.real) and math.isfinite(val.imag)
    # and continuous far from the real axis: a step of 0.002 in Im z
    # moves it by much less than its size
    lo = complex_gamma(complex(-0.3, 99.999))
    hi = complex_gamma(complex(-0.3, 100.001))
    assert abs(lo - hi) <= 1e-2 * abs(lo)


def test_reflection_product_poles():
    for z in (0.0, 1.0, -4.0, 17.0):
        with pytest.raises(PoleError):
            reflection_product(z)
    assert reflection_product(0.5) == pytest.approx(math.pi, rel=1e-14)
    assert reflection_product(0.4) == pytest.approx(
        math.pi / math.sin(0.4 * math.pi), rel=1e-14
    )


def test_gamma_invariants_on_seeded_grid():
    # recurrence and reflection together on one reproducible grid of
    # 100 points in the strip Re in (0.1, 5), |Im| <= 10
    rng = np.random.default_rng(20260822)
    for _ in range(100):
        z = complex(rng.uniform(0.1, 5.0), rng.uniform(-10.0, 10.0))
        lhs = complex_gamma(z + 1.0)
        assert abs(lhs - z * complex_gamma(z)) <= 1e-10 * abs(lhs)
        two_path = complex_gamma(z) * complex_gamma(1.0 - z)
        want = reflection_product(z)
        assert abs(two_path - want) <= 1e-10 * abs(want)


def test_sign_value():
    assert sign_value("plus") == 1.0
    assert sign_value("minus") == -1.0
    with pytest.raises(ArgumentError):
        sign_value("both")


class TestSignedLog:
    def test_unit_spots(self):
        half_pi = math.pi / 2.0
        assert signed_log(1.0, "plus") == complex(0.0, half_pi)
        assert signed_log(1.0, "minus") == complex(0.0, -half_pi)
        assert signed_log(-1.0, "plus") == complex(0.0, -half_pi)
        assert signed_log(-1.0, "minus") == complex(0.0, half_pi)
        assert signed_log(-2.0, "plus") == complex(math.log(2.0), -half_pi)
        assert signed_log(0.5, "minus") == complex(math.log(0.5), -half_pi)

    def test_matches_principal_log_of_the_rotated_base(self):
        # Log(s i x) is the principal log of s i x: |arg| = pi/2 < pi
        for x in (3.7, -0.2, 1e-300, -1e300):
            for sign, s in (("plus", 1.0), ("minus", -1.0)):
                assert signed_log(x, sign) == cmath.log(complex(0.0, s * x))

    def test_array_shape_and_type(self):
        x = np.array([[2.0, -3.0], [0.25, -1.0]])
        got = signed_log(x, "minus")
        assert got.shape == x.shape and got.dtype == complex
        want = [[signed_log(float(v), "minus") for v in row] for row in x]
        assert np.array_equal(got, want)
        assert isinstance(signed_log(2.0, "plus"), complex)

    def test_zero_and_bad_sign_rejected(self):
        with pytest.raises(DomainError, match="x = 0"):
            signed_log(0.0, "plus")
        with pytest.raises(DomainError):
            signed_log(np.array([1.0, -0.0, 2.0]), "minus")
        with pytest.raises(ArgumentError):
            signed_log(1.0, "both")

    def test_power_is_the_exponential_of_the_branch(self):
        x = np.array([-4.0, -0.5, 0.3, 7.0])
        g = complex(0.4, -2.2)
        got = signed_complex_power(x, g, "minus")
        want = np.exp(g * signed_log(x, "minus"))
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14


class TestCosineNormaliser:
    def test_values(self):
        assert cosine_normaliser(0.0) == 2.0
        assert cosine_normaliser(0.5) == pytest.approx(math.sqrt(2.0), rel=1e-15)
        g = np.array([0.3, 0.4 + 2.0j])
        assert np.array_equal(cosine_normaliser(g), 2.0 * np.cos(math.pi * g / 2.0))

    @pytest.mark.parametrize("gamma", [1.0, -1.0, 3.0, np.array([0.4, 1.0])])
    def test_pole_at_odd_integers(self, gamma):
        with pytest.raises(PoleError, match="vanishes"):
            cosine_normaliser(gamma)

    def test_overflow_is_typed_without_warning(self, recwarn):
        with pytest.raises(DomainError, match="overflows"):
            cosine_normaliser(np.array([0.4, 0.4 - 500j]))
        assert len(recwarn) == 0


class TestSignedPower:
    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            signed_complex_power(0.0, 0.5, "plus")

    def test_unit_spots(self):
        # (i*1)^(-1) = -i ; (-i*1)^(-1) = i
        assert signed_complex_power(1.0, -1.0, "plus") == pytest.approx(-1j)
        assert signed_complex_power(1.0, -1.0, "minus") == pytest.approx(1j)
        # (i*(-1))^2 = (-i)^2 = -1
        assert signed_complex_power(-1.0, 2.0, "plus") == pytest.approx(-1.0 + 0j)
        # square roots pick the half-plane set by the sign convention
        assert signed_complex_power(2.0, 0.5, "minus") == pytest.approx(1.0 - 1.0j)
        assert signed_complex_power(-2.0, 0.5, "minus") == pytest.approx(1.0 + 1.0j)

    @given(
        st.floats(min_value=0.05, max_value=50.0),
        st.sampled_from([1.0, -1.0]),
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=-3.0, max_value=3.0),
    )
    @settings(max_examples=150)
    def test_multiplicative_in_exponent(self, mag, sgn, re1, im1, re2, im2):
        x = mag * sgn
        g1, g2 = complex(re1, im1), complex(re2, im2)
        lhs = signed_complex_power(x, g1 + g2, "minus")
        rhs = signed_complex_power(x, g1, "minus") * signed_complex_power(
            x, g2, "minus"
        )
        assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs), 1e-12)

    def test_matches_principal_power_for_positive_x(self):
        # for x > 0, (i x)^g must equal the principal cmath power of ix
        x, g = 1.7, complex(0.3, -1.1)
        got = signed_complex_power(x, g, "plus")
        want = cmath.exp(g * cmath.log(complex(0.0, x)))
        assert abs(got - want) <= 1e-14 * abs(want)


# ----------------------------------------------------------------------
# array layer
# ----------------------------------------------------------------------

_orders = st.lists(st.complex_numbers(max_magnitude=150.0), min_size=1, max_size=8)


@given(_orders)
@settings(max_examples=100)
def test_array_calls_equal_scalar_calls(values):
    """One array call gives exactly the per-element scalar values."""
    z = np.array(values, dtype=complex)
    off_poles = z[np.abs(z - np.round(z.real)) > 1e-9]
    if off_poles.size == 0:
        return
    for fn in (complex_gamma, reflection_product):
        got = fn(off_poles)
        want = np.array([fn(complex(v)) for v in off_poles])
        assert got.shape == off_poles.shape
        assert np.array_equal(got, want, equal_nan=True)
        assert isinstance(fn(complex(off_poles[0])), complex)


@given(
    st.lists(st.floats(min_value=-50.0, max_value=50.0).filter(
        lambda v: abs(v) >= 0.05), min_size=1, max_size=6),
    st.lists(st.complex_numbers(max_magnitude=20.0), min_size=1, max_size=8),
    st.sampled_from(["plus", "minus"]),
)
@settings(max_examples=100)
def test_signed_power_broadcast_equals_scalar_calls(xs, gammas, sign):
    x = np.array(xs)
    g = np.array(gammas, dtype=complex)
    got = signed_complex_power(x[:, None], g, sign)
    assert got.shape == (x.size, g.size)
    want = np.array([[signed_complex_power(float(a), complex(b), sign)
                      for b in g] for a in x])
    assert np.array_equal(got, want, equal_nan=True)


@given(
    st.lists(st.floats(min_value=-50.0, max_value=50.0).filter(
        lambda v: abs(v) >= 0.05), min_size=1, max_size=6),
    st.lists(st.complex_numbers(max_magnitude=20.0), min_size=1, max_size=8),
    st.sampled_from(["plus", "minus"]),
)
@settings(max_examples=100)
def test_signed_power_equals_modulus_plus_phase_form(xs, gammas, sign):
    # g ln|x| + s g (i pi/2) sgn x, with log|x| and sgn x as separate
    # arrays, bit for bit
    x, g = np.array(xs)[:, None], np.array(gammas, dtype=complex)
    s = 1.0 if sign == "plus" else -1.0
    want = np.exp(g * np.log(np.abs(x)) + s * g * (1j * math.pi / 2.0) * np.sign(x))
    assert np.array_equal(signed_complex_power(x, g, sign), want)


def test_array_pole_anywhere_raises():
    z = np.array([0.4 + 1j, 1.5, -2.0, 0.3])
    with pytest.raises(PoleError):
        complex_gamma(z)
    with pytest.raises(PoleError):
        reflection_product(np.array([0.4 + 1j, 3.0]))


def test_signed_power_zero_anywhere_raises():
    with pytest.raises(DomainError):
        signed_complex_power(np.array([1.0, -2.0, 0.0]), 0.5, "plus")
    with pytest.raises(DomainError):
        signed_complex_power(np.array([[1.0], [0.0]]), np.array([0.5, 0.4j]), "minus")


def test_gamma_far_line_accuracy():
    """40-digit mpmath gamma on the reconstruction lines Re = 0.4 and 0.9
    (delta = 0.2, |k| <= 200) and at the shifted arguments the closed
    forms use: 1 - g/2 (rayleigh), g + 1/2 (levy), 1 - g (gaussian)."""
    worst = 0.0
    with mpmath.workdps(40):
        for rho in (0.4, 0.9):
            g = rho + 0.2j * np.arange(-200, 201)
            for z in (g, 1.0 - g / 2.0, g + 0.5, 1.0 - g):
                got = complex_gamma(z)
                for zk, gk in zip(z.tolist(), got.tolist()):
                    want = complex(mpmath.gamma(mpmath.mpc(zk)))
                    worst = max(worst, abs(gk - want) / abs(want))
    assert worst <= 1e-13
