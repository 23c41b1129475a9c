import cmath
import math
import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from rmtorus.errors import DomainError, NonConvergence
from rmtorus.modsym import GroupSpec, member
from rmtorus.theta import (
    RationalChar,
    SeriesControl,
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
    for _ in range(6):
        ch = _random_char(rng)
        tau = _random_tau(rng)
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3))
        fast = theta(ch, z, tau)
        slow = complex(theta(ch, z, tau, dps=30))
        assert abs(fast - slow) <= 1e-13 * max(1.0, abs(slow))


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


def test_series_control_limits():
    ch = RationalChar(F(1, 3), F(2, 5))
    with pytest.raises(NonConvergence):
        theta(ch, 0.0, 0.5j, SeriesControl(max_terms=3))
    loose = theta(ch, 0.0, 1j, SeriesControl(tolerance=1e-8))
    tight = theta(ch, 0.0, 1j)
    assert abs(loose - tight) < 1e-7


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


def _jtheta_reference(ch, tau, dps):
    """theta[r, s](0, tau) = e^(pi i (r^2 tau + 2 r s)) theta_3(pi (r tau + s), e^(pi i tau))."""
    with mp.workdps(dps + 15):
        r = mp.mpf(ch.r.numerator) / ch.r.denominator
        s = mp.mpf(ch.s.numerator) / ch.s.denominator
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


def test_batched_constants_honour_series_control():
    chars = [RationalChar(F(1, 3), F(2, 5)), RationalChar(F(0), F(1, 2))]
    with pytest.raises(NonConvergence):
        theta_constants(chars, [0.5j, 2j], ctl=SeriesControl(max_terms=3))
    with pytest.raises(DomainError):
        theta_constants(chars, [1j, 0.3 + 1e-9j])
    loose = theta_constants(chars, [1j], ctl=SeriesControl(tolerance=1e-8))
    tight = theta_constants(chars, [1j])
    assert np.max(np.abs(loose - tight)) < 1e-7
    assert tight[0, 0] == theta(chars[0], 0.0, 1j)
