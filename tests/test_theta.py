import cmath
import math
import random
import time
from fractions import Fraction

import mpmath as mp
import pytest

from rmtorus.errors import DomainError, NonConvergence
from rmtorus.modsym import GroupSpec, member
from rmtorus.theta import (
    RationalChar,
    UpperHalfPoint,
    algebraic_theta,
    constant_fourier_term,
    kappa,
    theta,
    theta_constant,
    theta_constants,
    theta_zero_check,
    unit_phase,
)

F = Fraction


def _random_char(rng, max_den=8):
    den = rng.choice([1, 2, 3, 4, 6, max_den])
    return RationalChar(F(rng.randint(-2 * den, 2 * den), den),
                        F(rng.randint(-2 * den, 2 * den), den))


def _random_tau(rng, lo=0.5, hi=2.0):
    return complex(rng.uniform(-1.0, 1.0), rng.uniform(lo, hi))


def test_value_at_i_matches_gamma_function_expression():
    expected = math.pi ** 0.25 / math.gamma(0.75)
    got = theta(RationalChar(F(0), F(0)), 0.0, 1j)
    assert abs(got - expected) < 1e-13
    assert abs(got.imag) < 1e-15


def test_double_precision_agrees_with_high_precision_route():
    rng = random.Random(101)
    for _ in range(40):
        ch = _random_char(rng)
        tau = _random_tau(rng, lo=0.3)
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-1.5, 1.5))
        ref = _jtheta_reference(ch, tau, 30, z)
        fast = theta(ch, z, tau)
        assert abs(fast - complex(ref)) <= 1e-13 * max(1.0, abs(ref))
        slow = theta(ch, z, tau, dps=30)
        assert abs(fast - complex(slow)) <= 1e-13 * max(1.0, abs(slow))
        with mp.workdps(45):
            assert abs(slow - ref) <= mp.mpf(10) ** -30 * max(1, abs(ref))


def test_characteristic_shift_laws():
    rng = random.Random(7)
    for _ in range(8):
        ch = _random_char(rng)
        tau = _random_tau(rng)
        z = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.3, 0.3))
        base = theta(ch, z, tau)
        scale = max(1.0, abs(base))
        shifted_r = theta(RationalChar(ch.r + 1, ch.s), z, tau)
        assert abs(shifted_r - base) <= 1e-12 * scale
        shifted_s = theta(RationalChar(ch.r, ch.s + 1), z, tau)
        phase = cmath.exp(2j * cmath.pi * float(ch.r))
        assert abs(shifted_s - phase * base) <= 1e-12 * scale
        mirrored = theta(RationalChar(-ch.r, -ch.s), 0.0, tau)
        assert abs(mirrored - theta(ch, 0.0, tau)) <= 1e-12 * scale


def test_lattice_quasi_periodicity():
    rng = random.Random(13)
    for _ in range(8):
        ch = _random_char(rng)
        tau = _random_tau(rng, lo=0.6, hi=1.6)
        z = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.3, 0.3))
        base = theta(ch, z, tau)
        scale = max(1.0, abs(base))
        horizontal = theta(ch, z + 1, tau)
        assert abs(horizontal - cmath.exp(2j * cmath.pi * float(ch.r)) * base) <= 1e-11 * scale
        vertical = theta(ch, z + tau, tau)
        factor = cmath.exp(-1j * cmath.pi * tau - 2j * cmath.pi * (z + float(ch.s)))
        assert abs(vertical - factor * base) <= 1e-11 * max(scale, abs(factor * base))


def test_zero_locus_residuals():
    rng = random.Random(17)
    for _ in range(30):
        den = rng.choice([1, 2, 3, 4, 6, 8, 12, 15, 24])
        ch = RationalChar(F(rng.randint(0, den - 1), den),
                          F(rng.randint(0, den - 1), den))
        p, q = rng.randint(-1, 1), rng.randint(-1, 1)
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 1.5))
        assert theta_zero_check(ch, p, q, tau) < 1e-10


def test_jacobi_quartic_identity():
    for tau in (1j, 2j, 0.3 + 1.1j, -0.4 + 0.8j):
        t2 = theta(RationalChar(F(1, 2), F(0)), 0.0, tau)
        t3 = theta(RationalChar(F(0), F(0)), 0.0, tau)
        t4 = theta(RationalChar(F(0), F(1, 2)), 0.0, tau)
        assert abs(t2 ** 4 + t4 ** 4 - t3 ** 4) <= 1e-12 * abs(t3 ** 4)


def _theta_group_words(rng, count):
    s = (0, -1, 1, 0)
    t2 = (1, 2, 0, 1)

    def mul(a, b):
        return (a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
                a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3])

    out = []
    for _ in range(count):
        gam = (1, 0, 0, 1)
        for _ in range(rng.randint(3, 8)):
            gam = mul(gam, s if rng.random() < 0.5 else t2)
            if rng.random() < 0.3:
                gam = mul(gam, (-1, 0, 0, -1))
        out.append(gam)
    return out


def test_functional_equation_with_consistent_multiplier():
    rng = random.Random(5)
    spec = GroupSpec.igusa(1)
    for gam in _theta_group_words(rng, 10):
        assert member(gam, spec)
        kap = kappa(gam, 0.1 + 0.7j)
        assert abs(kap ** 8 - 1) < 1e-10
        # at dps 30 under the default ambient precision, kappa keeps its digits
        kap_mp = kappa(gam, 0.1 + 0.7j, dps=30)
        with mp.workdps(40):
            assert abs(kap_mp ** 8 - 1) < 1e-28
        a, b, c, d = gam
        for _ in range(3):
            tau = _random_tau(rng, lo=0.4, hi=2.0)
            lhs = theta_constant(0, (a * tau + b) / (c * tau + d))
            rhs = kap * cmath.sqrt(c * tau + d) * theta_constant(0, tau)
            assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


def test_constant_fourier_term_vanishes_for_fractional_characteristics():
    for r, level in ((F(1, 15), 15), (F(1, 24), 24), (F(5, 24), 24)):
        assert abs(constant_fourier_term(r, level)) < 1e-12
    assert abs(constant_fourier_term(F(0), 24) - 1) < 1e-12


def test_constant_fourier_term_level_must_be_an_integer():
    for level in (True, 24.0, 0):
        with pytest.raises(DomainError, match="level must be a positive integer"):
            constant_fourier_term(F(1, 24), level)


def test_constant_fourier_term_at_dps_keeps_dps_digits():
    # the Richardson step runs at dps, whatever the ambient precision
    v1 = theta_constant(F(1, 3), 50j, dps=40)
    v2 = theta_constant(F(1, 3), 100j, dps=40)
    value = constant_fourier_term(F(1, 3), 1, dps=40)
    with mp.workdps(60):
        expected = 2 * v2 - v1
        assert abs(value - expected) / abs(expected) < 1e-35


def test_unit_phase_convention():
    assert unit_phase(F(0)) == 1
    assert unit_phase(F(1, 2)) == 1j
    rng = random.Random(23)
    for _ in range(10):
        x = F(rng.randint(-40, 40), rng.choice([1, 2, 3, 4, 6, 8]))
        val = unit_phase(x)
        assert abs(abs(val) - 1.0) < 1e-15
        assert abs(unit_phase(x + 2) - val) < 1e-15
        assert abs(val - cmath.exp(1j * cmath.pi * float(x))) < 1e-14


def test_algebraic_constant_is_phase_normalized():
    rng = random.Random(31)
    for _ in range(6):
        ch = _random_char(rng)
        tau = _random_tau(rng)
        expected = unit_phase((-ch.r * ch.s) % 2) * theta(ch, 0.0, tau)
        assert abs(algebraic_theta(ch, tau) - expected) <= 1e-13 * max(1.0, abs(expected))


def test_series_term_cap_raises_before_summing():
    # at z = 1e4 i, tau = 0.04 i the tail bound needs about 5e5 rings
    ch = RationalChar(F(1, 3), F(2, 5))
    for dps, tolerance in ((None, "1e-15"), (30, "1e-30")):
        start = time.perf_counter()
        with pytest.raises(NonConvergence, match=f"tolerance {tolerance} within 1000000 terms"):
            theta(ch, 1e4j, 0.04j, dps=dps)
        assert time.perf_counter() - start < 0.5


def test_domain_validation():
    with pytest.raises(DomainError):
        UpperHalfPoint(1.0 - 0.5j)
    with pytest.raises(DomainError):
        theta(RationalChar(F(0)), 0.0, 0.5)
    with pytest.raises(DomainError):
        kappa((1, 1, 1, 1), 0.9j)
    for gamma in (((1.9, 2), (0, 1)), (True, 0, 0, True)):
        with pytest.raises(DomainError, match="must be integers"):
            kappa(gamma, 0.9j)
    with pytest.raises(DomainError):
        theta("not a char", 0.0, 1j)
    # the largest term at z = 40i, tau = i is about exp(1600 pi)
    with pytest.raises(DomainError, match="double range"):
        theta(RationalChar(F(0)), 40j, 1j)
    assert mp.isfinite(theta(RationalChar(F(0)), 40j, 1j, dps=30))


@pytest.mark.parametrize("tau", [
    complex(0, math.inf), complex(math.inf, 1), complex(-math.inf, 1),
    complex(math.nan, 1), complex(0.5, math.nan),
])
def test_non_finite_points_are_rejected(tau):
    """Each point is tried as tau and, for theta, as z."""
    with pytest.raises(DomainError, match="is not finite"):
        UpperHalfPoint(tau)
    with pytest.raises(DomainError, match="is not finite"):
        theta_constant(0, tau)
    for dps in (None, 30):
        with pytest.raises(DomainError, match="is not finite"):
            theta_constants([(0, 0)], [2j, tau], dps=dps)
    with pytest.raises(DomainError, match="is not finite"):
        theta_constants([(0, 0)], [mp.mpc(tau.real, tau.imag)], dps=30)
    for dps in (None, 30):
        start = time.perf_counter()
        with pytest.raises(DomainError, match="is not finite"):
            theta(RationalChar(F(1, 3), F(1, 5)), tau, 1j, dps=dps)
        assert time.perf_counter() - start < 0.1


def _jtheta_reference(ch, tau, dps, z=0):
    """theta[r, s](z, tau) by Jacobi's theta_3 in mpmath:

    e^(pi i (r^2 tau + 2 r (z + s))) theta_3(pi (r tau + z + s), e^(pi i tau)).
    """
    with mp.workdps(dps + 15):
        r = mp.mpf(ch.r.numerator) / ch.r.denominator
        s = mp.mpf(ch.s.numerator) / ch.s.denominator + mp.mpc(z)
        t = mp.mpc(tau)
        return mp.expjpi(r * r * t + 2 * r * s) * mp.jtheta(3, mp.pi * (r * t + s), mp.expjpi(t))


def _low_to_high_taus(rng, count):
    """Points with Im log-uniform from 1e-3 to 3, Re uniform on [-1/2, 1/2]."""
    return [complex(rng.uniform(-0.5, 0.5), 10 ** rng.uniform(-3.0, math.log10(3.0)))
            for _ in range(count)]


def test_batched_constants_match_jtheta_in_double_precision():
    rng = random.Random(211)
    chars = [_random_char(rng, max_den=24) for _ in range(8)]
    taus = _low_to_high_taus(rng, 6)
    got = theta_constants(chars, taus)
    assert got.shape == (len(taus), len(chars))
    for p, tau in enumerate(taus):
        for c, ch in enumerate(chars):
            ref = complex(_jtheta_reference(ch, tau, 20))
            assert abs(got[p, c] - ref) <= 1e-13 * max(1.0, abs(ref))


@pytest.mark.parametrize("dps", [30, 50])
def test_batched_constants_match_jtheta_in_mpmath(dps):
    rng = random.Random(223 + dps)
    chars = [_random_char(rng, max_den=24) for _ in range(5)]
    taus = _low_to_high_taus(rng, 3)
    got = theta_constants(chars, taus, dps=dps)
    for p, tau in enumerate(taus):
        for c, ch in enumerate(chars):
            ref = _jtheta_reference(ch, tau, dps)
            with mp.workdps(dps + 15):
                assert abs(got[p, c] - ref) <= mp.mpf(10) ** -dps * max(1, abs(ref))


def test_batched_constants_honour_the_term_cap():
    chars = [RationalChar(F(1, 3), F(2, 5)), RationalChar(F(0), F(1, 2))]
    # at Im(tau) = 1e-8 and tolerance 1e-10000 the tail bound needs about
    # 8.6e5 rings; the message names the tolerance, which exp(log) rounds to 0
    start = time.perf_counter()
    with pytest.raises(NonConvergence,
                       match="did not reach tolerance 1e-10000 within 1000000 terms"):
        theta_constants(chars, [0.5j, 1e-8j], dps=10000)
    assert time.perf_counter() - start < 0.5
    with pytest.raises(DomainError):
        theta_constants(chars, [1j, 0.3 + 1e-9j])
    assert theta_constants(chars, [1j])[0, 0] == theta(chars[0], 0.0, 1j)


@pytest.mark.parametrize("dps", [0, -3, 2.5, True])
@pytest.mark.parametrize("call", [
    lambda dps: theta(RationalChar(F(1, 3), F(1, 5)), 0.1, 2j, dps=dps),
    lambda dps: theta_constant(0, 2j, dps=dps),
    lambda dps: theta_constants([(0, 0)], [2j], dps=dps),
    lambda dps: algebraic_theta(RationalChar(F(1, 3), F(1, 5)), 2j, dps=dps),
    lambda dps: kappa((1, 2, 0, 1), 0.1 + 0.7j, dps=dps),
    lambda dps: constant_fourier_term(F(1, 3), 1, dps=dps),
], ids=["theta", "theta_constant", "theta_constants", "algebraic_theta", "kappa",
        "constant_fourier_term"])
def test_dps_must_be_a_positive_int(call, dps):
    with pytest.raises(DomainError, match="dps must be a positive integer"):
        call(dps)
