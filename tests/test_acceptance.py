"""End-to-end acceptance checks.

Each test exercises one externally observable contract of the package and
enforces a wall-clock budget.  Tolerances are part of the contract and are
asserted exactly as stated, even where the implementation disagrees with a
stated expectation; in that case the test fails and the assertion message
shows the computed value.
"""

import cmath
import json
import math
import random
import time
from fractions import Fraction

from mpmath import mp

from rmtorus.core import (
    QuadraticSurd,
    lambda_matrix,
    structure_constant_series,
    structure_constant_theta,
)
from rmtorus.geometry import graph_member, graph_point_search, minor_equations, multilinearize, omega_matrix
from rmtorus.groebner import linear_basis, state_for
from rmtorus.modsym import (
    Cusp,
    GroupSpec,
    ThetaProductHandle,
    averaged_json,
    averaged_relations,
    cf_expand,
    integrate_geodesic,
    lyapunov,
    lyapunov_empirical,
    member,
    relation_values,
)
from rmtorus.presentation import hilbert_coeffs, kernel_pivots, relations
from rmtorus.theta import (
    RationalChar,
    constant_fourier_term,
    kappa,
    theta,
    theta_constant,
    theta_zero_check,
)

F = Fraction
TAU = 2j


def _relative_annihilation(rm, rels, tau):
    worst = 0.0
    for rel in rels:
        samples = []
        for gamma in range(1, rm.level + 1):
            parts = [t.coeff * structure_constant_theta(rm, t.left, t.right, gamma, tau)
                     for t in rel.terms]
            samples.append((abs(sum(parts)), max(abs(p) for p in parts)))
        scale = max(m for _, m in samples)
        worst = max(worst, max(v / scale for v, _ in samples))
    return worst


def test_criterion_1_characteristic_display_tables(rm5, rm6):
    start = time.monotonic()
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
    assert time.monotonic() - start < 1.0


def test_criterion_2_relation_counts_and_annihilation(rm5, rm6):
    start = time.monotonic()
    for rm, expected in ((rm5, 10), (rm6, 12)):
        pres = relations(rm, TAU)
        assert len(pres.relations) == expected
        assert _relative_annihilation(rm, pres.relations, TAU) < 1e-9
    assert time.monotonic() - start < 10.0


def test_criterion_3_series_and_theta_routes_agree_everywhere(rm6):
    start = time.monotonic()
    for tau in (1j, 2j):
        for a_idx in range(1, 7):
            for b_idx in range(1, 7):
                for g_idx in range(1, 25):
                    via_series = structure_constant_series(
                        rm6.g, rm6.g, a_idx, b_idx, g_idx, tau)
                    via_theta = structure_constant_theta(
                        rm6, a_idx, b_idx, g_idx, tau)
                    assert abs(via_series - via_theta) <= \
                        1e-12 * max(1.0, abs(via_theta))
    assert time.monotonic() - start < 30.0


def test_criterion_4_graded_dimensions_and_new_degree_three_leads(rm5, rm6):
    start = time.monotonic()
    st5 = state_for(rm5, TAU)
    st6 = state_for(rm6, TAU)
    assert [len(linear_basis(st5, n)) for n in (2, 3, 4)] == \
        list(hilbert_coeffs(rm5, 4).coefficients[2:])
    assert [len(linear_basis(st6, n)) for n in (2, 3, 4)] == \
        list(hilbert_coeffs(rm6, 4).coefficients[2:])
    assert time.monotonic() - start < 60.0
    computed = set(map(tuple, st6.new_leads_by_degree.get(3, ())))
    stated = {(4, 1, j) for j in range(1, 7)}
    assert computed == stated, (
        "stated degree-3 redundant leading terms %s do not match the "
        "computed set %s" % (sorted(stated), sorted(computed)))


def test_criterion_5_theta_identities():
    start = time.monotonic()

    # functional equation with a consistent eighth-root multiplier
    rng = random.Random(5)
    s_word, t2_word = (0, -1, 1, 0), (1, 2, 0, 1)

    def mul(x, y):
        return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
                x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])

    spec = GroupSpec.igusa(1)
    for _ in range(10):
        gam = (1, 0, 0, 1)
        for _ in range(rng.randint(3, 8)):
            gam = mul(gam, s_word if rng.random() < 0.5 else t2_word)
            if rng.random() < 0.3:
                gam = mul(gam, (-1, 0, 0, -1))
        assert member(gam, spec)
        kap = kappa(gam, 0.1 + 0.7j)
        assert abs(kap ** 8 - 1) < 1e-9
        a, b, c, d = gam
        for _ in range(3):
            tau = complex(rng.uniform(-1, 1), rng.uniform(0.4, 2.0))
            lhs = theta_constant(0, (a * tau + b) / (c * tau + d))
            rhs = kap * cmath.sqrt(c * tau + d) * theta_constant(0, tau)
            assert abs(lhs - rhs) <= 1e-9 * abs(lhs)

    # zero locus
    rng = random.Random(17)
    for _ in range(30):
        den = rng.choice([1, 2, 3, 4, 6, 8, 12, 15, 24])
        ch = RationalChar(F(rng.randint(0, den - 1), den),
                          F(rng.randint(0, den - 1), den))
        p, q = rng.randint(-1, 1), rng.randint(-1, 1)
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 1.5))
        assert theta_zero_check(ch, p, q, tau) < 1e-10

    # quartic identity among the three even null values
    for tau in (1j, 2j, 0.3 + 1.1j, -0.4 + 0.8j):
        t2 = theta(RationalChar(F(1, 2), F(0)), 0.0, tau)
        t3 = theta(RationalChar(F(0), F(0)), 0.0, tau)
        t4 = theta(RationalChar(F(0), F(1, 2)), 0.0, tau)
        assert abs(t2 ** 4 + t4 ** 4 - t3 ** 4) <= 1e-10 * abs(t3 ** 4)

    # vanishing constant Fourier term for fractional characteristics
    for r, level in ((F(1, 15), 15), (F(1, 24), 24), (F(5, 24), 24)):
        assert abs(constant_fourier_term(r, level)) < 1e-12

    assert time.monotonic() - start < 10.0


def test_criterion_6_weight_two_transformation_of_coefficients(rm6):
    start = time.monotonic()
    spec = GroupSpec.bracket(576, 24)
    gamma = (577, 6912, 27648, 331201)
    assert member(gamma, spec)
    assert member((1, 48, 0, 1), spec)

    with mp.workdps(45):
        tau0 = mp.mpc(-331201, 1) / 27648
        den = 27648 * tau0 + 331201
        jfac = den ** 2
        gtau0 = (577 * tau0 + 6912) / den
        assert abs(den - mp.mpc(0, 1)) < mp.mpf("1e-40")
        assert abs(jfac + 1) < mp.mpf("1e-40")

        for mu in range(1, 7):
            pivots = set(kernel_pivots(rm6, mu, TAU))
            free_cols = sorted(set(range(1, 7)) - pivots)
            for k in (1, 2):
                base = relation_values(rm6, mu, k, tau0, dps=30)
                moved = relation_values(rm6, mu, k, gtau0, dps=30)
                assert set(base) == set(moved)
                scale = max(abs(v) for v in base.values())
                for slot in base:
                    assert abs(moved[slot] - jfac * base[slot]) <= 1e-6 * scale
                lead = free_cols[k - 1]
                for slot in base:
                    ratio_base = base[slot] / base[lead]
                    ratio_moved = moved[slot] / moved[lead]
                    assert abs(ratio_moved - ratio_base) <= \
                        1e-6 * max(1.0, abs(ratio_base))
    assert time.monotonic() - start < 30.0


def test_criterion_7_expansions_growth_and_geodesics(rm5, rm6):
    start = time.monotonic()

    # exact round trip for random quadratic surds, checked in exact
    # rational-pair arithmetic over the tail discriminant
    def pair_inv(pair, disc):
        a, b = pair
        norm = a * a - b * b * disc
        return (a / norm, -b / norm)

    rng = random.Random(2024)
    for _ in range(10):
        s = QuadraticSurd(rng.randint(-8, 8), rng.choice([-2, -1, 1, 2]),
                          rng.randint(1, 5), rng.choice([2, 3, 5, 6, 7, 10, 11, 13]))
        cf = cf_expand(s)
        A, B, C, Dm = 1, 0, 0, 1
        for kq in cf.period:
            A, B, C, Dm = A * kq + B, A, C * kq + Dm, C
        disc = (A + Dm) ** 2 - 4 * (A * Dm - B * C)
        val = (F(A - Dm, 2 * C), F(1, 2 * C))
        for kq in reversed(cf.preperiod):
            inv = pair_inv(val, disc)
            val = (inv[0] + kq, inv[1])
        a_part, b_part = pair_inv(val, disc)
        a_part += cf.integer_part
        assert a_part == F(s.p, s.r)
        assert b_part * b_part * disc == F(s.q, s.r) ** 2 * s.D
        assert (b_part > 0) == (F(s.q, s.r) > 0)

    # spectral versus empirical growth exponents
    for rm in (rm5, rm6):
        assert abs(lyapunov(rm.theta) - lyapunov_empirical(rm.theta)) < 1e-6

    # geodesic integrals on a cusp-type product: antisymmetry and additivity
    plain = ThetaProductHandle(24, (F(1, 24), F(5, 24), F(7, 24), F(11, 24)))
    inf, c24, c48 = Cusp(1, 0), Cusp(1, 24), Cusp(1, 48)
    forward = integrate_geodesic(plain, c24, inf).value
    backward = integrate_geodesic(plain, inf, c24).value
    assert abs(forward + backward) <= 2e-8
    leg_a = integrate_geodesic(plain, inf, c24).value
    leg_b = integrate_geodesic(plain, c24, c48).value
    whole = integrate_geodesic(plain, inf, c48).value
    assert abs(leg_a + leg_b - whole) <= 2e-8

    assert time.monotonic() - start < 60.0


def test_criterion_8_averaged_ring_is_deterministic_and_supported(rm6):
    start = time.monotonic()
    first = averaged_relations(rm6)
    second = averaged_relations(rm6)
    assert first.quadrature_error < 1e-6
    assert second.quadrature_error < 1e-6
    assert json.dumps(averaged_json(first)) == json.dumps(averaged_json(second))
    averaged_support = {(r.mu, r.k): {t.right for t in r.terms}
                        for r in first.relations}
    presentation_support = {(r.mu, r.k): {t.right for t in r.terms}
                            for r in relations(rm6, TAU).relations}
    assert averaged_support == presentation_support
    assert time.monotonic() - start < 600.0


def test_criterion_9_minor_systems_and_graph_membership(rm5, rm6):
    start = time.monotonic()
    for rm, count, c in ((rm5, 252, 5), (rm6, 924, 6)):
        matrix = omega_matrix(relations(rm, TAU))
        minors = minor_equations(matrix, cap=1000)
        assert len(minors) == count
        exponents = minors.exponents
        assert all(sum(exponents[k]) == c for k in minors.code.tolist())

    # scaling invariance of graph membership on the example system
    biforms = multilinearize(relations(rm6, TAU))
    result = graph_point_search(biforms, 6, seed=1, attempts=2, iterations=60)
    rng = random.Random(3)
    for _ in range(4):
        a = complex(rng.uniform(0.2, 2), rng.uniform(-2, 2))
        b = complex(rng.uniform(0.2, 2), rng.uniform(-2, 2))
        scaled_u = tuple(a * x for x in result.u)
        scaled_v = tuple(b * x for x in result.v)
        assert graph_member(biforms, result.u, result.v) == \
            graph_member(biforms, scaled_u, scaled_v)
    assert time.monotonic() - start < 120.0
