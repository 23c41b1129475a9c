import json
import math
import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from rmtorus import core, modsym
from rmtorus.core import QuadraticSurd, block_characteristics, canonical_g, validate
from rmtorus.errors import (
    DomainError,
    NotCuspType,
    NotHyperbolic,
    OddLevel,
    QuadratureFailure,
    RationalInput,
)
from rmtorus.modsym import (
    CoefficientHandle,
    Cusp,
    GroupSpec,
    QuadratureControl,
    ThetaProductHandle,
    averaged_json,
    averaged_relations,
    cf_expand,
    coefficient_handles,
    convergents,
    integrate_geodesic,
    is_cusp_numeric,
    limiting_symbol,
    lyapunov,
    lyapunov_empirical,
    member,
    relation_values,
)
from rmtorus.geometry import omega_matrix
from rmtorus.groebner import complete_to_degree, groebner_state, linear_basis
from rmtorus.presentation import Presentation, kernel_pivots, monic_ordered, relations

F = Fraction

GAMMA_T = (1, 48, 0, 1)
GAMMA_DEEP = (577, 6912, 27648, 331201)


def _mat_mul(a, b):
    return (a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
            a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3])


def _mat_pow(g, n):
    out, base = (1, 0, 0, 1), g
    while n:
        if n & 1:
            out = _mat_mul(out, base)
        base = _mat_mul(base, base)
        n >>= 1
    return out


# ---------------------------------------------------------------- cusps

def test_cusp_normalization():
    assert Cusp(2, 4) == Cusp(1, 2)
    assert Cusp(-1, -2) == Cusp(1, 2)
    assert Cusp(3, 0) == Cusp(1, 0)
    assert Cusp(0, -5) == Cusp(0, 1)
    assert Cusp(1, 0).is_infinity
    assert not Cusp(1, 2).is_infinity
    assert Cusp(3, 6).value() == 0.5
    with pytest.raises(DomainError):
        Cusp(0, 0)
    with pytest.raises(DomainError):
        Cusp(1, 0).value()
    for p, q in ((True, 0), (1, True), (1.9, 24), (1, 24.0)):
        with pytest.raises(DomainError, match="must be integers"):
            Cusp(p, q)


# ------------------------------------------------------- group membership

def test_group_spec_validation():
    with pytest.raises(DomainError):
        GroupSpec("igusa", 0)
    with pytest.raises(DomainError):
        GroupSpec.bracket(5, 3)
    with pytest.raises(DomainError):
        GroupSpec("mystery", 4)
    spec = GroupSpec.bracket(576, 24)
    assert (spec.kind, spec.n, spec.m) == ("bracket", 576, 24)
    assert spec.describe() == {"kind": "bracket", "n": 576, "m": 24}


def test_group_spec_parameters_must_be_integers():
    for build in (lambda: GroupSpec.igusa(2.5), lambda: GroupSpec.principal(True),
                  lambda: GroupSpec("igusa", "3"), lambda: GroupSpec.bracket(576, 24.0),
                  lambda: GroupSpec.bracket(576, True), lambda: GroupSpec("bracket", 4, "2")):
        with pytest.raises(DomainError, match="integer"):
            build()


def test_membership_basic_cases():
    assert member((1, 2, 0, 1), GroupSpec.igusa(1))
    assert not member((1, 1, 0, 1), GroupSpec.igusa(1))
    assert member((0, -1, 1, 0), GroupSpec.igusa(1))
    assert member((1, 1, 0, 1), GroupSpec.principal(1))
    assert not member((1, 1, 0, 1), GroupSpec.principal(2))
    assert not member((1, 1, 1, 1), GroupSpec.principal(1))  # det 0
    for gamma in ([[1.5, 0], [0, 1]], (True, 0, 0, 1)):
        with pytest.raises(DomainError, match="must be integers"):
            member(gamma, GroupSpec.igusa(1))


def test_membership_bracket_and_subgroup_chain():
    spec = GroupSpec.bracket(576, 24)
    for gamma in (GAMMA_T, GAMMA_DEEP, (1, 0, 0, 1)):
        assert member(gamma, spec)
    assert not member((1, 1, 0, 1), spec)
    assert not member((1, 24, 0, 1), spec)
    # verified members also lie in the plain congruence groups of the level
    assert member(GAMMA_DEEP, GroupSpec.igusa(576))
    assert member(GAMMA_DEEP, GroupSpec.principal(576))
    # the deep member genuinely has a large lower-left entry
    assert abs(GAMMA_DEEP[2]) >= 13824


def test_membership_closed_under_product():
    spec = GroupSpec.bracket(576, 24)
    prod = _mat_mul(GAMMA_T, GAMMA_DEEP)
    assert member(prod, spec)
    inv = (GAMMA_DEEP[3], -GAMMA_DEEP[1], -GAMMA_DEEP[2], GAMMA_DEEP[0])
    assert member(inv, spec)


# ---------------------------------------------------- continued fractions

def test_expansions_of_the_example_surds(rm5, rm6):
    cf6 = cf_expand(rm6.theta)
    assert (cf6.integer_part, cf6.preperiod, cf6.period) == (0, (4,), (1, 2))
    cf5 = cf_expand(rm5.theta)
    assert (cf5.integer_part, cf5.preperiod, cf5.period) == (0, (3,), (1,))
    sqrt2m1 = cf_expand(QuadraticSurd(-1, 1, 1, 2))
    assert (sqrt2m1.integer_part, sqrt2m1.preperiod, sqrt2m1.period) == (0, (), (2,))
    assert [cf6.quotient(i) for i in range(1, 7)] == [4, 1, 2, 1, 2, 1]
    with pytest.raises(DomainError):
        cf6.quotient(0)


def test_rational_input_rejected():
    with pytest.raises(RationalInput):
        cf_expand(QuadraticSurd(1, 0, 2, 5))
    with pytest.raises(RationalInput):
        cf_expand(QuadraticSurd(0, 1, 1, 4))


def test_convergents_of_the_example(rm6):
    p, q, ((pp, pc), (qp, qc)) = convergents(cf_expand(rm6.theta), 4)
    assert (p, q) == (4, 19)
    assert (pp, pc, qp, qc) == (3, 4, 14, 19)
    assert pp * qc - pc * qp in (-1, 1)


def test_continued_fraction_indices_must_be_integers(rm6):
    cf = cf_expand(rm6.theta)
    for n in (2.0, True):
        with pytest.raises(DomainError, match="must be an integer"):
            convergents(cf, n)
    for n in (1.0, True):
        with pytest.raises(DomainError, match="must be an integer"):
            cf.quotient(n)
    for n1, n2_max in ((50.0, 200), (50, 200.0), (True, 200), (50, True)):
        with pytest.raises(DomainError, match="must be integers"):
            lyapunov_empirical(rm6.theta, n1, n2_max)


def _random_surd(rng):
    return QuadraticSurd(rng.randint(-8, 8), rng.choice([-2, -1, 1, 2]),
                         rng.randint(1, 5), rng.choice([2, 3, 5, 6, 7, 10, 11, 13]))


def _pair_inv(pair, disc):
    a, b = pair
    den = a * a - b * b * disc
    return (a / den, -b / den)


def _reconstruct(cf):
    """Exact value of an eventually periodic expansion as (a, b, disc)."""
    A, B, C, Dm = 1, 0, 0, 1
    for k in cf.period:
        A, B, C, Dm = A * k + B, A, C * k + Dm, C
    disc = (A + Dm) ** 2 - 4 * (A * Dm - B * C)
    val = (F(A - Dm, 2 * C), F(1, 2 * C))  # tail root greater than one
    for k in reversed(cf.preperiod):
        inv = _pair_inv(val, disc)
        val = (inv[0] + k, inv[1])
    inv = _pair_inv(val, disc)
    return (inv[0] + cf.integer_part, inv[1], disc)


def test_round_trip_is_exact_for_random_surds():
    rng = random.Random(2024)
    for _ in range(10):
        s = _random_surd(rng)
        cf = cf_expand(s)
        a, b, disc = _reconstruct(cf)
        assert a == F(s.p, s.r)
        assert b * b * disc == F(s.q, s.r) ** 2 * s.D
        assert (b > 0) == (F(s.q, s.r) > 0)


def test_convergent_determinants_and_growth():
    rng = random.Random(77)
    for _ in range(6):
        cf = cf_expand(_random_surd(rng))
        denominators = []
        for n in range(1, 13):
            _, q, ((pp, pc), (qp, qc)) = convergents(cf, n)
            assert pp * qc - pc * qp in (-1, 1)
            assert q == qc
            denominators.append(q)
        for prev, cur in zip(denominators[1:], denominators[2:]):
            assert cur > prev


# ------------------------------------------------------- growth exponents

def test_spectral_growth_rates(rm5, rm6):
    assert abs(lyapunov(rm6.theta) - math.log(2 + math.sqrt(3)) / 2) < 1e-14
    assert abs(lyapunov(rm5.theta) - math.log((1 + math.sqrt(5)) / 2)) < 1e-14


def test_spectral_vs_empirical_growth(rm5, rm6):
    for rm in (rm5, rm6):
        spectral = lyapunov(rm.theta)
        empirical = lyapunov_empirical(rm.theta)
        assert abs(spectral - empirical) < 1e-6


# --------------------------------------------------------- symbol chains

def test_limiting_symbol_from_expansion(rm6):
    sym = limiting_symbol(rm6.theta)
    assert [(seg[0], seg[1]) for seg in sym.segments] == \
        [(Cusp(-1, 1), Cusp(-5, 4)), (Cusp(-3, 1), Cusp(-14, 5))]
    assert abs(sym.scale - 1.0 / math.log(2 + math.sqrt(3))) < 1e-15


def test_limiting_symbol_hyperbolic_route(rm6):
    spec = GroupSpec.bracket(576, 24)
    power = _mat_pow(rm6.g, 4 * 24 * 24)
    assert member(power, spec)
    sym = limiting_symbol(rm6.theta, spec=spec, hyperbolic=power)
    assert len(sym.segments) == 1
    start, end = sym.segments[0]
    assert start == Cusp(0, 1)
    assert end == Cusp(power[1], power[3])
    expected = 1.0 / (4 * 24 * 24 * 2 * (math.log(2 + math.sqrt(3)) / 2))
    assert abs(sym.scale - expected) <= 1e-12 * expected


def test_limiting_symbol_rejects_a_spec_without_a_hyperbolic_matrix(rm6):
    with pytest.raises(DomainError, match="none was given"):
        limiting_symbol(rm6.theta, GroupSpec.bracket(576, 24))


def test_limiting_symbol_hyperbolic_rejections(rm6):
    spec = GroupSpec.bracket(576, 24)
    with pytest.raises(NotHyperbolic):
        limiting_symbol(rm6.theta, spec=spec, hyperbolic=(1, 1, 0, 1))
    with pytest.raises(DomainError):
        limiting_symbol(rm6.theta, spec=spec, hyperbolic=(2, 1, 1, 1))
    with pytest.raises(DomainError):
        limiting_symbol(rm6.theta, spec=spec, hyperbolic=rm6.g)
    a, b, c, d = rm6.g
    for hyperbolic in ((a + 0.5, b, c, d), (a, b, c, True)):
        with pytest.raises(DomainError, match="must be integers"):
            limiting_symbol(rm6.theta, hyperbolic=hyperbolic)


# ------------------------------------------------------ cusp-type probing

PLAIN_CHARS = (F(1, 24), F(5, 24), F(7, 24), F(11, 24))
INF, C24, C48, ZERO = Cusp(1, 0), Cusp(1, 24), Cusp(1, 48), Cusp(0, 1)


def test_cusp_type_classification():
    plain = ThetaProductHandle(24, PLAIN_CHARS)
    assert is_cusp_numeric(plain, [INF, C24, C48])
    assert not is_cusp_numeric(plain, [ZERO])
    assert not is_cusp_numeric(ThetaProductHandle(24, (F(0),) * 4), [INF])
    assert not is_cusp_numeric(ThetaProductHandle(24, (F(0),)), [INF])
    with pytest.raises(DomainError):
        ThetaProductHandle(24, ())
    for level in (True, 24.0, "24", 0):
        with pytest.raises(DomainError, match="level must be a positive integer"):
            ThetaProductHandle(level, PLAIN_CHARS)


# ------------------------------------------------------ geodesic integrals

def test_vertical_geodesic_value():
    plain = ThetaProductHandle(24, PLAIN_CHARS)
    result = integrate_geodesic(plain, C24, INF)
    assert abs(result.value - (-1.0 / 24.0)) < 1e-9
    assert abs(result.value.imag) < 1e-12
    assert result.error < 1e-8
    assert result.evaluations > 0


def test_geodesic_antisymmetry_and_additivity():
    plain = ThetaProductHandle(24, PLAIN_CHARS)
    forward = integrate_geodesic(plain, C24, INF).value
    backward = integrate_geodesic(plain, INF, C24).value
    assert abs(forward + backward) < 1e-13
    leg_a = integrate_geodesic(plain, INF, C24).value
    leg_b = integrate_geodesic(plain, C24, C48).value
    whole = integrate_geodesic(plain, INF, C48).value
    assert abs(leg_a + leg_b - whole) < 1e-12


def test_geodesic_tolerance_stability():
    plain = ThetaProductHandle(24, PLAIN_CHARS)
    loose = integrate_geodesic(plain, C24, C48).value
    tight = integrate_geodesic(plain, C24, C48,
                               quad=QuadratureControl(rel_tol=5e-9)).value
    assert abs(loose - tight) < 2e-8


def test_level_24_leg_keeps_its_value_error_and_evaluations():
    # the shared-mesh routine with one group is the single-integrand one, bit for bit
    result = integrate_geodesic(ThetaProductHandle(24, PLAIN_CHARS), C24, INF)
    assert repr((result.value, result.error, result.evaluations)) == \
        "((-0.041666666666666526+7.407659383883031e-17j), 5.143388768013012e-12, 330)"


def test_shared_mesh_holds_each_group_to_its_own_scale():
    # A smooth integrand of size 1 and one 1e-8 times smaller with a sharp
    # peak, on one mesh.  Each group's error ends within rel_tol of its own
    # scale, and the peak gets the mesh it gets alone; as one group, the peak
    # rides on the smooth integrand's scale and misses by about 2%.
    width, quad = 1e-3, QuadratureControl(rel_tol=1e-8)

    def f(x):
        return np.stack([np.exp(x), 1e-8 * width / ((x - 0.3) ** 2 + width ** 2)],
                        axis=1).astype(complex)

    exact = np.array([math.e - 1, 1e-8 * (math.atan(0.7 / width) + math.atan(0.3 / width))])
    groups = ((0, 1.0, "smooth"), (1, 1e-8, "peak"))
    values, errors, count = modsym._adaptive_vec(f, 0.0, 1.0, quad, groups)
    assert errors.shape == (2,)
    for g in range(2):
        assert errors[g] <= quad.rel_tol * abs(values[g])
        assert abs(values[g] - exact[g]) <= quad.rel_tol * exact[g]
    alone = modsym._adaptive_vec(lambda x: f(x)[:, 1:], 0.0, 1.0, quad)
    assert count == alone[2]
    joint, _, joint_count = modsym._adaptive_vec(f, 0.0, 1.0, quad)
    assert joint_count < count
    assert abs(joint[1] - exact[1]) > 1e-2 * exact[1]
    with pytest.raises(QuadratureFailure,
                       match=r"^peak: error 1\.020e-07 still above 1\.0e-08 x 1\.058e-07 "
                             r"after 105 evaluations$"):
        modsym._adaptive_vec(f, 0.0, 1.0, QuadratureControl(max_evals=100), groups)


def test_quadrature_control_takes_a_finite_positive_tolerance():
    assert QuadratureControl(rel_tol=1).rel_tol == 1.0
    assert type(QuadratureControl(rel_tol=F(1, 10**8)).rel_tol) is float
    assert QuadratureControl(rel_tol=np.float32(1e-6)).rel_tol == float(np.float32(1e-6))
    for tol in (math.inf, -math.inf, math.nan, 0, 0.0, -1e-8, True, False, "1e-8", None, 1e-8j):
        with pytest.raises(DomainError, match="rel_tol must be a finite positive real"):
            QuadratureControl(rel_tol=tol)


def test_quadrature_control_takes_an_integer_budget():
    assert QuadratureControl(max_evals=15).max_evals == 15
    for max_evals in (15.5, 100.0, True, 14):
        with pytest.raises(DomainError, match="max_evals"):
            QuadratureControl(max_evals=max_evals)


def test_geodesic_guards():
    plain = ThetaProductHandle(24, PLAIN_CHARS)
    with pytest.raises(NotCuspType):
        integrate_geodesic(plain, ZERO, INF)
    with pytest.raises(QuadratureFailure, match=r"^integral: error .* after 105 evaluations$"):
        integrate_geodesic(plain, C24, INF,
                           quad=QuadratureControl(rel_tol=1e-13, max_evals=100))
    same = integrate_geodesic(plain, C24, C24)
    assert same.value == 0
    # a cusp given as a pair is taken as given, never truncated to integers
    assert integrate_geodesic(plain, (2, 48), (1, 0)) == integrate_geodesic(plain, C24, INF)
    for pair in ((1.9, 24), (True, 0)):
        with pytest.raises(DomainError, match="must be integers"):
            integrate_geodesic(plain, pair, INF)


# -------------------------------------------------- coefficient functions

def test_relation_values_match_presentation(rm6):
    pres = relations(rm6, 2j)
    for rel in pres.relations:
        values = relation_values(rm6, rel.mu, rel.k, 2j)
        scale = max(abs(v) for v in values.values())
        for term in rel.terms:
            assert abs(values[term.right] - term.coeff) <= 1e-12 * scale
        pivots = set(kernel_pivots(rm6, rel.mu, 2j))
        free = sorted(set(range(1, 7)) - pivots)[rel.k - 1]
        assert set(values) == pivots | {free}


def test_coefficient_handles_match_relation_values(rm6):
    tau = 0.3 + 1.7j
    handles = coefficient_handles(rm6, 1, 1)
    values = relation_values(rm6, 1, 1, tau)
    assert set(handles) == set(values)
    for slot, handle in handles.items():
        assert abs(handle.value(tau) - values[slot]) <= \
            1e-12 * max(abs(v) for v in values.values())


def test_coefficient_handles_share_one_chain_per_cusp(rm6, monkeypatch):
    modsym._pivots.cache_clear()
    modsym._level_thetas.cache_clear()
    modsym._chain.cache_clear()
    handles = coefficient_handles(rm6, 1, 1)
    built = []
    original = modsym._Chain.__init__

    def counting(self, gamma, chars):
        built.append(gamma)
        original(self, gamma, chars)

    cusps, sigmas = (Cusp(1, 0), Cusp(0, 1)), [0.1 + 2j, -0.3 + 5j]
    monkeypatch.setattr(modsym._Chain, "__init__", counting)
    shared = {j: [repr(h.pulled_value(cusp, sigmas).tolist()) for cusp in cusps]
              for j, h in handles.items()}
    assert len(handles) == 5 and len(built) == len(cusps)
    # a handle built on its own shares the block of (rm, mu) and the level's chains
    alone = {j: CoefficientHandle(rm6, 1, h.pivots, h.free_col, j) for j, h in handles.items()}
    for j, handle in handles.items():
        assert (alone[j].rm, alone[j].mu, alone[j].pivots, alone[j].free_col, alone[j].slot) == \
            (handle.rm, handle.mu, handle.pivots, handle.free_col, handle.slot)
        assert [repr(alone[j].pulled_value(cusp, sigmas).tolist()) for cusp in cusps] == shared[j]
    assert len(built) == len(cusps)
    monkeypatch.undo()
    tau = 0.3 + 1.7j
    for j, handle in handles.items():
        assert repr(complex(alone[j].value(tau))) == repr(complex(handle.value(tau)))


def test_coefficient_handle_checks_its_relation(rm6):
    pivots = (1, 2, 3, 4)
    assert CoefficientHandle(rm6, 1, pivots, 5, 2).pivots == pivots
    for bad in ((2, 1, 3, 4), (1, 1, 2, 3), (1, 2, 3), (0, 1, 2, 3), (1, 2, 3, 7),
                (1.5, 2, 3, 4)):
        with pytest.raises(DomainError, match="pivots must be"):
            CoefficientHandle(rm6, 1, bad, 5, 5)
    for free_col in (3, 7, 5.0, True):
        with pytest.raises(DomainError, match="free column"):
            CoefficientHandle(rm6, 1, pivots, free_col, free_col)
    with pytest.raises(DomainError, match="outside the support"):
        CoefficientHandle(rm6, 1, pivots, 5, 6)


def test_relation_index_outside_the_free_columns(rm6):
    # c - (a+d) = 2 relations per block
    for k in (-1, 0, 3):
        with pytest.raises(DomainError, match=r"k = -?\d outside 1\.\.2"):
            coefficient_handles(rm6, 1, k)
        with pytest.raises(DomainError, match=r"k = -?\d outside 1\.\.2"):
            relation_values(rm6, 1, k, 2j)
    # 1.0 and True equal 1 but are no relation index
    for k in (1.0, True):
        with pytest.raises(DomainError, match="must be an integer"):
            coefficient_handles(rm6, 1, k)
        with pytest.raises(DomainError, match="must be an integer"):
            relation_values(rm6, 1, k, 2j)


def test_single_points_and_new_product_handles_reuse_their_chains(monkeypatch):
    # relation_values and every new ThetaProductHandle read the exact chains
    # through one bounded cache keyed on (gamma, characteristics); a kept
    # chain gives the bits of a freshly built one
    rm = canonical_g(4)
    chars = (Fraction(1, 24), Fraction(5, 24), Fraction(7, 24), Fraction(11, 24))
    tau, cusp, sigmas = 0.03 + 0.02j, Cusp(1, 5), [0.1 + 2j, -0.3 + 5j]
    built = []
    original = modsym._Chain.__init__

    def counting(self, gamma, chars):
        built.append(gamma)
        original(self, gamma, chars)

    def values():
        handle = ThetaProductHandle(24, chars)
        return (repr(relation_values(rm, 2, 1, tau)),
                [v._mpc_ for v in relation_values(rm, 2, 1, tau, dps=30).values()],
                repr(handle.value(tau)), repr(handle.pulled_value(cusp, sigmas).tolist()))

    monkeypatch.setattr(modsym._Chain, "__init__", counting)
    modsym._chain.cache_clear()
    first = values()
    # the level row's at the point (both precisions), the product's at the point and at the cusp
    assert len(built) == 3
    for _ in range(2):
        assert values() == first
    assert len(built) == 3
    assert modsym._chain.cache_info().maxsize == modsym._CHAINS


def test_single_points_hash_no_characteristic(monkeypatch):
    # A kept chain is looked up by the level row itself, whose hash was taken
    # once, so a warm single-point call hashes none of its 24 characteristics.
    level = modsym._level_thetas(24)
    tau = 0.03 + 0.02j
    first = repr(level.at(tau).tolist())
    hashed = []
    original = Fraction.__hash__

    def counting(self):
        hashed.append(self)
        return original(self)

    monkeypatch.setattr(Fraction, "__hash__", counting)
    assert repr(level.at(tau).tolist()) == first
    assert hashed == []
    # equal characteristics are one key, whichever instance holds them
    twin = modsym._LevelThetas(24, level.chars)
    assert twin == level and hash(twin) == hash(level) and twin != modsym._level_thetas(12)
    gamma = modsym._reduce(24 * tau)[0]
    assert modsym._chain(gamma, twin) is modsym._chain(gamma, level)


def test_relation_values_select_pivots_once_per_block_and_precision(monkeypatch):
    rm = canonical_g(4)
    calls = []

    def counting(*args, **kwargs):
        calls.append((args[1], kwargs.get("dps")))
        return kernel_pivots(*args, **kwargs)

    monkeypatch.setattr(modsym, "kernel_pivots", counting)
    modsym._pivots.cache_clear()
    first = relation_values(rm, 2, 1, 0.3 + 1.7j)
    for _ in range(3):
        for mu, k in ((2, 1), (2, 2), (3, 1)):
            relation_values(rm, mu, k, 0.3 + 1.7j)
    assert calls == [(2, None), (3, None)]
    assert repr(relation_values(rm, 2, 1, 0.3 + 1.7j)) == repr(first)


def test_low_point_values_match_the_unreduced_kernel(rm6):
    # relation_values reduces l*tau (Im about 1e-2 here) to the fundamental
    # domain; the handles' pulled values at the cusp at infinity sum the
    # series at l*tau itself, at more digits because that sum cancels.
    rng = random.Random(41)
    for mu in (1, 2, 5):
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.25) * 1e-2 / rm6.level)
        with mp.workdps(70):
            values = relation_values(rm6, mu, 1, tau, dps=30)
            direct = {slot: handle.pulled_value(Cusp(1, 0), [tau], dps=60)[0]
                      for slot, handle in coefficient_handles(rm6, mu, 1).items()}
            scale = max(abs(v) for v in direct.values())
            assert set(values) == set(direct)
            for slot in values:
                assert abs(values[slot] - direct[slot]) <= mp.mpf("1e-25") * scale


def test_single_point_values_reject_points_off_the_upper_half_plane(rm6):
    for tau in (0.3, 0.3 - 0.1j, complex(0, math.inf), complex(math.inf, 1),
                complex(math.nan, 1)):
        with pytest.raises(DomainError):
            relation_values(rm6, 1, 1, tau)
        with pytest.raises(DomainError):
            ThetaProductHandle(24, PLAIN_CHARS).value(tau)


def test_translation_periodicity_of_coefficients(rm6):
    tau = 0.3 + 1.7j
    for mu, k in ((1, 1), (2, 2), (5, 1)):
        base = relation_values(rm6, mu, k, tau)
        shifted = relation_values(rm6, mu, k, tau + 48)
        scale = max(abs(v) for v in base.values())
        worst = max(abs(shifted[j] - base[j]) for j in base)
        assert worst <= 1e-9 * scale


# ---------------------------------------------------------- averaged ring

def test_averaged_ring_requires_even_level(rm5):
    with pytest.raises(OddLevel):
        averaged_relations(rm5)


def test_averaged_ring_properties(rm6):
    averaged = averaged_relations(rm6)
    assert averaged.quadrature_error < 1e-6
    assert (averaged.group.kind, averaged.group.n, averaged.group.m) == \
        ("bracket", 576, 24)
    assert abs(averaged.scale - limiting_symbol(rm6.theta).scale) < 1e-15
    pres = relations(rm6, 2j)
    averaged_support = {(r.mu, r.k): {t.right for t in r.terms}
                        for r in averaged.relations}
    presentation_support = {(r.mu, r.k): {t.right for t in r.terms}
                            for r in pres.relations}
    assert averaged_support == presentation_support
    magnitudes = sorted({round(abs(t.coeff), 4)
                         for rel in averaged.relations for t in rel.terms})
    assert magnitudes == [0.2909, 0.3169, 0.3863, 0.4305, 0.716, 1.1133]
    payload = averaged_json(averaged)
    assert json.dumps(payload) == json.dumps(averaged_json(averaged))


def test_averaged_presentation_reaches_the_groebner_and_geometry_layers(rm6):
    averaged = averaged_relations(rm6)
    assert isinstance(averaged, Presentation)
    assert (averaged.tau, averaged.normalization) == (None, "averaged")
    monic = monic_ordered(averaged)
    assert monic.normalization == "monic"
    assert (monic.rm, monic.tau, monic.group, monic.scale, monic.quadrature_error) == \
        (averaged.rm, None, averaged.group, averaged.scale, averaged.quadrature_error)
    c, t = rm6.degree, rm6.trace
    assert len(omega_matrix(averaged).entries) == c * (c - t)
    state = complete_to_degree(groebner_state(averaged, truncation_degree=3), 3)
    # the RM ring has 24 and 90: the average keeps no degree-3 syzygy
    assert [len(linear_basis(state, n)) for n in (2, 3)] == [24, 72]


def test_averaged_relations_do_not_depend_on_the_tolerance(rm6):
    # At rel_tol 1e-8 and 1e-10 the supports are equal, each coefficient moves
    # by less than the two reported errors times its relation's largest
    # coefficient, and the graded dimensions are the same.
    loose, tight = (averaged_relations(rm6, QuadratureControl(rel_tol=tol))
                    for tol in (1e-8, 1e-10))
    bound = loose.quadrature_error + tight.quadrature_error
    assert [(r.mu, r.k, [t.right for t in r.terms]) for r in loose.relations] == \
        [(r.mu, r.k, [t.right for t in r.terms]) for r in tight.relations]
    for a, b in zip(loose.relations, tight.relations):
        top = max(abs(t.coeff) for t in b.terms)
        assert max(abs(s.coeff - t.coeff) for s, t in zip(a.terms, b.terms)) <= bound * top
    for av in (loose, tight):
        state = complete_to_degree(groebner_state(av, truncation_degree=3), 3)
        assert [len(linear_basis(state, n)) for n in (2, 3)] == [24, 72]


def test_averaged_relations_build_one_chain_per_level_and_cusp(rm6, monkeypatch):
    # The probe and live vectors of every relation of every block read the
    # level row, which has one exact chain per cusp: infinity for the probes,
    # the segment ends for the quadrature.  The chains last for the process,
    # so a second run builds no chain and gives the same bits.
    modsym._pivots.cache_clear()
    modsym._level_thetas.cache_clear()
    modsym._chain.cache_clear()
    built = []
    original = modsym._Chain.__init__

    def counting(self, gamma, chars):
        built.append(gamma)
        original(self, gamma, chars)

    monkeypatch.setattr(modsym._Chain, "__init__", counting)
    first = averaged_relations(rm6)
    cusps = {Cusp(1, 0)} | {c for seg in limiting_symbol(rm6.theta).segments for c in seg}
    assert len(built) == len(cusps) == 5
    again = averaged_relations(rm6)
    assert len(built) == 5
    assert repr(averaged_json(again)) == repr(averaged_json(first))


def _bits(values):
    """Exact values of an array of mpmath numbers or complex doubles."""
    return [x._mpc_ if isinstance(x, mp.mpc) else repr(complex(x)) for x in np.ravel(values)]


@pytest.mark.parametrize("dps", [None, 40])
@pytest.mark.parametrize("g", [canonical_g(t).g for t in (3, 4, 5, 6)] + [(7, -2, 11, -3)],
                         ids=str)
def test_level_row_gathers_each_block_bit_for_bit(g, dps):
    # A block read from the level row through its index array, with column 0
    # as the theta[0] patch of an odd trace, equals the chain evaluation of
    # the block's own characteristics (theta[0] appended), pulled and at a point.
    rm = validate(g)
    level = modsym._level_thetas(rm.level)
    sigmas, low = [0.1 + 2j, -0.3 + 5j], 0.21 + 0.03j
    with modsym._working_precision(dps):  # the caller's precision, as the handles set it
        rows = {cusp: level.pulled(cusp, sigmas, dps) for cusp in (Cusp(1, 0), Cusp(-5, 4))}
        at = level.at(low, dps)
        for mu in range(1, rm.degree + 1):
            index = core._block(rm, mu).index.ravel()
            alone = modsym._LevelThetas(
                rm.level,
                [(r, F(0)) for row in block_characteristics(rm, mu) for r in row] + [(F(0), F(0))],
            )
            for cusp, row in rows.items():
                gathered = np.concatenate([row[:, index], row[:, :1]], axis=1)
                assert _bits(gathered) == _bits(alone.pulled(cusp, sigmas, dps))
            gathered = np.concatenate([at[:, index], at[:, :1]], axis=1)
            assert _bits(gathered) == _bits(alone.at(low, dps))


def test_averaged_relations_sum_each_cusp_and_node_set_once(rm6, monkeypatch):
    # All relations share one mesh per half-ray, so the probes and each panel
    # are one kernel sum of the level row and one coefficient read of every
    # live slot of every relation, and no node set is summed twice.  Nothing
    # is kept between calls: a second call, and a call after one that raised,
    # sum exactly as many rows as the first.
    sums, reads = [], []
    kernel_sum, coefficients = modsym._kernel_sum, modsym._coefficients

    def counting_sum(table, taus, *args, **kwargs):
        sums.append((id(table), np.asarray(taus).tobytes()))
        return kernel_sum(table, taus, *args, **kwargs)

    def counting_reads(rm, rows, minors, signs, dps):
        reads.append(len(rows))
        return coefficients(rm, rows, minors, signs, dps)

    monkeypatch.setattr(modsym, "_kernel_sum", counting_sum)
    monkeypatch.setattr(modsym, "_coefficients", counting_reads)
    first = averaged_relations(rm6)
    n_sums, n_reads = len(sums), len(reads)
    assert n_reads == n_sums == len(set(sums))
    sums.clear()
    again = averaged_relations(rm6)
    assert len(sums) == n_sums
    assert repr(averaged_json(again)) == repr(averaged_json(first))
    with pytest.raises(QuadratureFailure,
                       match=r"^relation \(\d, \d\): error \S+ still above 1\.0e-08 x \S+ "
                             r"after 15 evaluations$"):
        averaged_relations(rm6, quad=QuadratureControl(max_evals=15))
    sums.clear()
    assert repr(averaged_json(averaged_relations(rm6))) == repr(averaged_json(first))
    assert len(sums) == n_sums
