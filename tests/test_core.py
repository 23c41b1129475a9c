import math
import random
from fractions import Fraction

import pytest

from rmtorus import core
from rmtorus.core import (
    QuadraticSurd,
    alpha,
    block_characteristics,
    block_M,
    canonical_g,
    lambda_matrix,
    q_mu,
    structure_constant_series,
    structure_constant_theta,
    validate,
)
from rmtorus.errors import (
    DegreeTooSmall,
    DomainError,
    IndexOutOfRange,
    NotHyperbolic,
    NotSL2,
)
from rmtorus.modsym import CoefficientHandle, relation_values
from rmtorus.theta import theta_constant, theta_constants

F = Fraction


def test_validated_data_five_generators(rm5):
    assert rm5.g == (4, -1, 5, -1)
    assert rm5.theta == QuadraticSurd(5, -1, 10, 5)
    assert rm5.theta_conj == QuadraticSurd(5, 1, 10, 5)
    assert rm5.level == 15
    assert rm5.weight == 2


def test_validated_data_six_generators(rm6):
    assert rm6.g == (5, -1, 6, -1)
    assert rm6.theta == QuadraticSurd(3, -1, 6, 3)
    assert rm6.theta_conj == QuadraticSurd(3, 1, 6, 3)
    assert rm6.lam_plus == QuadraticSurd(2, -1, 1, 3)
    assert rm6.lam_minus == QuadraticSurd(2, 1, 1, 3)
    assert rm6.level == 24
    assert rm6.weight == 2


def test_eigenvalue_invariants(rm5, rm6):
    for rm in (rm5, rm6):
        trace = rm.g[0] + rm.g[3]
        prod = rm.lam_plus * rm.lam_minus
        tot = rm.lam_plus + rm.lam_minus
        assert prod.is_rational() and prod.as_fraction() == 1
        assert tot.is_rational() and tot.as_fraction() == trace


def test_fixed_point_equation_exact(rm5, rm6):
    for rm in (rm5, rm6):
        a, b, c, d = rm.g
        s = rm.theta
        # c x^2 + (d - a) x - b = 0, split into rational and radical parts
        rational = F(c * (s.p * s.p + s.q * s.q * s.D), s.r * s.r) \
            + F((d - a) * s.p, s.r) - b
        radical = F(c * 2 * s.p * s.q, s.r * s.r) + F((d - a) * s.q, s.r)
        assert rational == 0
        assert radical == 0
        assert 0 < float(s) < 1


def test_validate_rejections():
    with pytest.raises(NotHyperbolic):
        validate((1, 0, 0, 1))
    with pytest.raises(NotHyperbolic):
        validate((1, 1, 0, 1))
    with pytest.raises(DegreeTooSmall):
        validate((2, 1, 1, 1))
    with pytest.raises(DegreeTooSmall):
        validate((3, 1, 5, 2))
    with pytest.raises(NotSL2):
        validate((4, -2, 6, -1))
    with pytest.raises(DomainError):
        validate((4.5, -1, 5, -1))
    with pytest.raises(DomainError):
        validate((True, -1, 5, -1))
    with pytest.raises(DomainError):
        validate((1, 2, 3))


def test_canonical_family():
    assert canonical_g(3).g == (4, -1, 5, -1)
    assert canonical_g(4).g == (5, -1, 6, -1)
    for t in range(3, 9):
        rm = canonical_g(t)
        assert rm.g == (t + 1, -1, t + 2, -1)
        assert rm.level == (t + 2) * t
    with pytest.raises(NotHyperbolic):
        canonical_g(2)


def test_surd_field_operations():
    rng = random.Random(41)
    for _ in range(25):
        D = rng.choice([2, 3, 5, 6, 7, 10, 11, 13])
        x = QuadraticSurd(rng.randint(-9, 9), rng.choice([-2, -1, 1, 2]),
                          rng.choice([1, 2, 3, 5]), D)
        y = QuadraticSurd(rng.randint(-9, 9), rng.choice([-2, -1, 1, 2]),
                          rng.choice([1, 2, 3, 5]), D)
        for op in ("add", "sub", "mul", "div"):
            if op == "add":
                z, f = x + y, float(x) + float(y)
            elif op == "sub":
                z, f = x - y, float(x) - float(y)
            elif op == "mul":
                z, f = x * y, float(x) * float(y)
            else:
                z, f = x / y, float(x) / float(y)
            assert abs(float(z) - f) <= 1e-12 * max(1.0, abs(f))
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()
        inv = x * x.inverse()
        assert inv.is_rational() and inv.as_fraction() == 1
        assert x.floor() == math.floor(float(x))
        cmp = x.compare(y)
        if x == y:
            assert cmp == 0
        else:
            assert (cmp > 0) == (float(x) > float(y))
        assert (-x + x).is_rational()
        assert x.sign() in (-1, 0, 1)
        assert x.sign() == (0 if x.is_rational() and x.as_fraction() == 0
                            else (1 if float(x) > 0 else -1))


def test_surd_normalization():
    assert QuadraticSurd(2, 2, 4, 3) == QuadraticSurd(1, 1, 2, 3)
    folded = QuadraticSurd(0, 1, 1, 4)
    assert folded.is_rational() and folded.as_fraction() == 2


def test_offset_fraction_values(rm6):
    got = [q_mu(rm6, mu) for mu in range(1, 7)]
    assert got == [F(1, 24), F(-1, 6), F(-3, 8), F(-7, 12), F(-19, 24), F(-1)]


def test_characteristic_matrix_displays(rm5, rm6):
    lm5 = lambda_matrix(rm5)
    assert lm5.level == 15
    assert lm5.display == ((2, 14, 11, 8, 5),
                           (7, 4, 1, 13, 10),
                           (12, 9, 6, 3, 0))
    lm6 = lambda_matrix(rm6)
    assert lm6.level == 24
    assert lm6.display == ((2, 22, 18, 14, 10, 6),
                           (8, 4, 0, 20, 16, 12),
                           (14, 10, 6, 2, 22, 18),
                           (20, 16, 12, 8, 4, 0))
    for lm in (lm5, lm6):
        for row_e, row_d in zip(lm.entries, lm.display):
            for entry, disp in zip(row_e, row_d):
                assert 0 <= entry < 1
                assert ((-entry) % 1) * lm.level == disp


def test_index_map_is_family_of_bijections(rm5, rm6):
    for rm in (rm5, rm6):
        c = rm.g[2]
        for mu in range(1, c + 1):
            image = {alpha(rm, mu, j) for j in range(1, c + 1)}
            assert image == set(range(1, c + 1))
    assert alpha(rm6, 1, 1) == 6
    assert alpha(rm6, 1, 2) == 1
    assert alpha(rm6, 5, 4) == 5


def test_block_entries_are_theta_constants(rm6):
    blk = block_M(rm6, 3, 2j)
    assert len(blk.chars) == 4 and len(blk.chars[0]) == 6
    assert blk.tau == 2j and blk.level == 24
    for row_c, row_e in zip(blk.chars, blk.entries):
        for ch, entry in zip(row_c, row_e):
            assert isinstance(ch, F) and 0 <= ch < 1
            assert entry == theta_constant(ch, 24 * 2j)


def test_block_data_is_built_once_and_sums_like_theta_constants(rm6):
    core._block_data.cache_clear()
    chars = block_characteristics(rm6, 3)
    assert block_characteristics(rm6, 3) is chars
    info = core._block_data.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    flat = [(ch, 0) for row in chars for ch in row]
    for tau in (2j, 0.3 + 1.1j):
        blk = block_M(rm6, 3, tau)
        expected = theta_constants(flat, [24 * tau])[0]
        assert [x for row in blk.entries for x in row] == list(expected)
    assert blk.chars is chars
    assert core._block(rm6, 3).partners == tuple(alpha(rm6, 3, j) for j in range(1, 7))
    assert core._block_data.cache_info().misses == 1


@pytest.mark.parametrize("mu", [True, 1.0, 0, 7])
def test_block_cache_checks_mu_before_the_lookup(rm6, mu):
    # True and 1.0 hash as 1, so a lookup before the check would return mu = 1;
    # both caches, core's and modsym's, hold mu = 1 first
    block_characteristics(rm6, 1)
    relation_values(rm6, 1, 1, 2j)
    with pytest.raises(IndexOutOfRange):
        block_characteristics(rm6, mu)
    with pytest.raises(IndexOutOfRange):
        block_M(rm6, mu, 2j)
    with pytest.raises(IndexOutOfRange):
        relation_values(rm6, mu, 1, 2j)
    with pytest.raises(IndexOutOfRange):
        CoefficientHandle(rm6, mu, (1, 2, 3, 4), 5, 5)


def test_structure_constant_routes_agree_at_generic_point(rm5, rm6):
    rng = random.Random(59)
    tau = 0.3 + 1.3j
    for rm in (rm5, rm6):
        c, level = rm.g[2], rm.level
        for _ in range(40):
            a_idx = rng.randint(1, c)
            b_idx = rng.randint(1, c)
            g_idx = rng.randint(1, level)
            via_series = structure_constant_series(rm.g, rm.g, a_idx, b_idx, g_idx, tau)
            via_theta = structure_constant_theta(rm, a_idx, b_idx, g_idx, tau)
            assert abs(via_series - via_theta) <= 1e-12 * max(1.0, abs(via_theta))


def test_structure_constant_support_pattern(rm6):
    c = rm6.g[2]
    tau = 2j
    peak = 0.0
    for b_idx in range(1, c + 1):
        for g_idx in range(1, rm6.level + 1):
            nonzero = [a_idx for a_idx in range(1, c + 1)
                       if structure_constant_theta(rm6, a_idx, b_idx, g_idx, tau) != 0]
            assert len(nonzero) == 1
            peak = max(peak, abs(structure_constant_theta(
                rm6, nonzero[0], b_idx, g_idx, tau)))
    assert peak > 0.5
