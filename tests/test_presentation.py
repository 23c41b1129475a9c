import itertools
import json

import mpmath as mp
import numpy as np
import pytest

from rmtorus import core, groebner, validate
from rmtorus.core import alpha, canonical_g, block_M, structure_constant_theta
from rmtorus.errors import DomainError, OddLevel, RankDeficient
from rmtorus.presentation import (
    hilbert_coeffs,
    kernel_basis,
    kernel_pivots,
    minor_F,
    monic_ordered,
    normalize_modular,
    normalize_rational,
    Presentation,
    Relation,
    RelationTerm,
    presentation_document,
    presentation_json,
    relations,
)

TAU = 2j

# nominal support (pivots plus free column) minus the slots whose coefficient
# vanishes identically, per relation (mu, k) of the six-generator example
EXPECTED_DROPPED = {
    (1, 1): {4}, (1, 2): set(),
    (2, 1): {5}, (2, 2): {1},
    (3, 1): set(), (3, 2): {1},
    (4, 1): {1}, (4, 2): {2},
    (5, 1): {2}, (5, 2): {3},
    (6, 1): {3}, (6, 2): {4},
}


def _annihilation_worst(rm, rels):
    worst = 0.0
    for rel in rels:
        samples = []
        for gamma in range(1, rm.level + 1):
            parts = [t.coeff * structure_constant_theta(rm, t.left, t.right, gamma, TAU)
                     for t in rel.terms]
            samples.append((abs(sum(parts)), max(abs(p) for p in parts)))
        scale = max(m for _, m in samples)
        worst = max(worst, max(v / scale for v, _ in samples))
    return worst


def test_relation_counts(rm5, rm6):
    assert len(relations(rm5, TAU).relations) == 10
    assert len(relations(rm6, TAU).relations) == 12


def test_kernel_pivots(rm6):
    for mu in range(1, 7):
        expected = (1, 2, 3, 5) if mu == 2 else (1, 2, 3, 4)
        assert kernel_pivots(rm6, mu, TAU) == expected


def test_relation_support(rm6):
    pres = relations(rm6, TAU)
    seen = set()
    for rel in pres.relations:
        pivots = set(kernel_pivots(rm6, rel.mu, TAU))
        free = sorted(set(range(1, 7)) - pivots)[rel.k - 1]
        nominal = pivots | {free}
        actual = {t.right for t in rel.terms}
        assert nominal - actual == EXPECTED_DROPPED[(rel.mu, rel.k)]
        assert actual <= nominal
        seen.add((rel.mu, rel.k))
    assert seen == set(EXPECTED_DROPPED)


def test_every_relation_annihilates_the_product(rm5, rm6):
    for rm in (rm5, rm6):
        assert _annihilation_worst(rm, relations(rm, TAU).relations) < 1e-9


def test_kernel_basis_annihilates_block(rm6):
    for mu in range(1, 7):
        vectors = kernel_basis(rm6, mu, TAU)
        assert len(vectors) == 2
        blk = np.array(block_M(rm6, mu, TAU).entries)
        scale = np.abs(blk).max()
        for vec in vectors:
            assert np.abs(blk @ np.array(vec)).max() <= 1e-10 * scale


def test_rational_normalization_is_real_at_imaginary_tau(rm6):
    raw = relations(rm6, TAU)
    rational = normalize_rational(raw)
    assert rational.normalization == "rational"
    for rel_raw, rel_rat in zip(raw.relations, rational.relations):
        assert [(t.left, t.right) for t in rel_raw.terms] == \
               [(t.left, t.right) for t in rel_rat.terms]
        for t in rel_rat.terms:
            assert abs(t.coeff.imag) < 1e-15


def test_modular_normalization_keeps_support(rm6):
    raw = relations(rm6, TAU)
    modular = normalize_modular(raw)
    assert modular.normalization == "modular"
    for rel_raw, rel_mod in zip(raw.relations, modular.relations):
        assert [(t.left, t.right) for t in rel_raw.terms] == \
               [(t.left, t.right) for t in rel_mod.terms]


def test_monic_presentation_is_reduced_and_valid(rm6):
    monic = monic_ordered(relations(rm6, TAU))
    assert monic.normalization == "monic"
    assert len(monic.relations) == 12
    leads = [(r.terms[0].left, r.terms[0].right) for r in monic.relations]
    tails = {(t.left, t.right) for r in monic.relations for t in r.terms[1:]}
    assert len(set(leads)) == 12
    assert not (set(leads) & tails)
    for rel in monic.relations:
        assert rel.terms[0].coeff == 1
    assert _annihilation_worst(rm6, monic.relations) < 1e-9


def test_hilbert_coefficients(rm5, rm6):
    assert hilbert_coeffs(rm5, 4).coefficients == (1, 5, 15, 40, 105)
    assert hilbert_coeffs(rm6, 4).coefficients == (1, 6, 24, 90, 336)


def test_hilbert_recurrence_across_family():
    for t in range(3, 9):
        rm = canonical_g(t)
        c = rm.g[2]
        h = hilbert_coeffs(rm, 10).coefficients
        assert len(h) == 11
        assert h[0] == 1 and h[1] == c and h[2] == t * c
        for n in range(3, 11):
            assert h[n] == t * h[n - 1] - h[n - 2]


def _det_permutation_sum(rows):
    """Leibniz expansion: the determinant as a signed sum over permutations."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        prod = 1
        for i in range(n):
            prod = prod * rows[i][perm[i]]
        total += -prod if inversions % 2 else prod
    return total


def test_minor_matches_block_determinant(rm6):
    blk = np.array(block_M(rm6, 1, TAU).entries)
    for cols in ((1, 2, 3, 4), (1, 2, 3, 5), (2, 3, 5, 6)):
        sub = blk[:, [c - 1 for c in cols]]
        direct = np.linalg.det(sub)
        mine = minor_F(rm6, 1, cols, TAU)
        assert abs(direct - mine) <= 1e-12 * max(1e-30, abs(direct))
        # The expansion cancels on small minors (|det| ~ 1e-21 for (1, 2, 3, 5)
        # against entries of order 1), so it is held to an absolute bound.
        expanded = _det_permutation_sum(sub.tolist())
        assert abs(expanded - mine) <= 1e-8 * (max(abs(expanded), abs(mine)) + 1.0)
    with pytest.raises(DomainError):
        minor_F(rm6, 1, (2, 1, 3, 4), TAU)


def test_json_is_deterministic(rm6):
    a = json.dumps(presentation_json(relations(rm6, TAU)))
    b = json.dumps(presentation_json(relations(rm6, TAU)))
    assert a == b
    payload = json.loads(a)
    assert set(payload) >= {"g", "l", "w", "tau", "normalization", "relations"}
    assert len(payload["relations"]) == 12


def test_tau_domain(rm6):
    with pytest.raises(DomainError):
        relations(rm6, 1.0 - 2j)
    with pytest.raises(DomainError):
        relations(rm6, 0.5)


# Canonical traces 3-12 and one non-canonical member, at five points.
FAMILY = (*range(3, 13), (7, -2, 11, -3))
FAMILY_TAUS = (1j, 2j, 2.5j, 3j, 0.3 + 2.4j)

# The cases that raise RankDeficient: a free-column entry -det(B) falls below
# RANK_CUTOFF of its vector's largest entry under the first-fit pivots.  The
# first failing block of each is well conditioned (sigma_min / sigma_max > 0.2).
FAMILY_RAISES = {
    (5, 3j), (6, 3j),
    *((t, tau) for t in (7, 8, 9, 10, 11) for tau in FAMILY_TAUS[1:]),
    *((12, tau) for tau in FAMILY_TAUS),
}

MARGIN_MESSAGE = r"free-column margin \|v_q\|/max\|v\| = \S+ < RANK_CUTOFF = 1e-08"


def _member(key):
    return canonical_g(key) if isinstance(key, int) else validate(key)


@pytest.mark.parametrize("key", FAMILY, ids=str)
def test_family_relations_annihilate_their_blocks_or_raise_with_margin(key):
    rm = _member(key)
    t, c = rm.trace, rm.degree
    for tau in FAMILY_TAUS:
        if (key, tau) in FAMILY_RAISES:
            with pytest.raises(RankDeficient, match=MARGIN_MESSAGE):
                relations(rm, tau)
            continue
        pres = relations(rm, tau)
        assert len(pres.relations) == c * (c - t)
        blocks = {mu: np.array(block_M(rm, mu, tau).entries) for mu in range(1, c + 1)}
        for rel in pres.relations:
            vec = np.zeros(c, dtype=complex)
            for term in rel.terms:
                vec[term.right - 1] = term.coeff
            blk = blocks[rel.mu]
            resid = np.linalg.norm(blk @ vec)
            assert resid <= 1e-9 * np.linalg.norm(blk) * np.linalg.norm(vec), (key, tau, rel.mu)


COUNT_TAUS = (2j, 2.5j, 3j)

# Cases of the dps-40 completion whose relations raise (see FAMILY_RAISES).
COUNT_RAISES = {(5, 3j), (6, 3j), *((t, tau) for t in (7, 8) for tau in COUNT_TAUS)}


@pytest.mark.parametrize("trace", (5, 6, 7, 8))
def test_family_graded_counts_at_dps_40_match_hilbert_or_raise(trace):
    rm = canonical_g(trace)
    h = hilbert_coeffs(rm, 3).coefficients
    for tau in COUNT_TAUS:
        if (trace, tau) in COUNT_RAISES:
            with pytest.raises(RankDeficient, match=MARGIN_MESSAGE):
                groebner.state_for(rm, tau, truncation_degree=3)
            continue
        st = groebner.state_for(rm, tau, truncation_degree=3)
        counts = [len(groebner.linear_basis(st, n)) for n in (2, 3)]
        assert counts == [h[2], h[3]], (trace, tau)


PARITY_TAUS = (2j, 0.3 + 1.5j, -0.2 + 0.9j)


def _cramer_sign(pivots, p, q):
    """Sign that sorts the pivots with q put in place of p."""
    lo, hi = sorted((p, q))
    return -1 if sum(lo < r < hi for r in pivots if r != p) % 2 else 1


@pytest.mark.parametrize("dps, bound", [(None, 1e-13), (40, 1e-35)])
@pytest.mark.parametrize("key", (3, 4, 5, 6, (7, -2, 11, -3)), ids=str)
def test_kernel_vectors_are_the_cramer_minor_vectors(key, dps, bound):
    rm = _member(key)
    c = rm.degree
    # minor_F evaluates the block afresh on every call, so the dps-40 pass
    # checks the first vector of one block per point
    mus, n_vectors = ((1, c), c) if dps is None else ((1,), 1)
    with mp.workdps(dps or mp.mp.dps):
        _check_cramer_parity(rm, mus, n_vectors, dps, bound)


def _check_cramer_parity(rm, mus, n_vectors, dps, bound):
    c = rm.degree
    for tau in PARITY_TAUS:
        for mu in mus:
            pivots = kernel_pivots(rm, mu, tau, dps=dps)
            free = [q for q in range(1, c + 1) if q not in pivots]
            pivot_minor = minor_F(rm, mu, pivots, tau, dps=dps)
            for q, vec in list(zip(free, kernel_basis(rm, mu, tau, dps=dps)))[:n_vectors]:
                top = max(abs(x) for x in vec)
                assert abs(vec[q - 1] + pivot_minor) <= bound * top
                for other in free:
                    if other != q:
                        assert vec[other - 1] == 0
                for p in pivots:
                    cols = tuple(sorted({*pivots, q} - {p}))
                    cramer = _cramer_sign(pivots, p, q) * minor_F(rm, mu, cols, tau, dps=dps)
                    assert abs(vec[p - 1] - cramer) <= bound * top, (tau, mu, q, p)
        # the generic monic lead of relation (mu, k) is x_q x_alpha(mu, q)
        if dps is None:
            for rel in monic_ordered(relations(rm, tau)).relations:
                pivots = kernel_pivots(rm, rel.mu, tau)
                q = [j for j in range(1, c + 1) if j not in pivots][rel.k - 1]
                assert (rel.terms[0].left, rel.terms[0].right) == (q, alpha(rm, rel.mu, q))


@pytest.mark.parametrize("key", (3, (7, -2, 11, -3)), ids=str)
def test_dps_sets_the_precision_of_the_linear_algebra(key):
    # no enclosing mp.workdps: the LU and Gram-Schmidt must still run at dps 40
    rm = _member(key)
    c = rm.degree
    assert mp.mp.dps == 15
    pivots = kernel_pivots(rm, 1, 2j, dps=40)
    q = next(j for j in range(1, c + 1) if j not in pivots)
    vec = kernel_basis(rm, 1, 2j, dps=40)[0]
    minors = {p: minor_F(rm, 1, tuple(sorted({*pivots, q} - {p})), 2j, dps=40) for p in pivots}
    pivot_minor = minor_F(rm, 1, pivots, 2j, dps=40)
    with mp.workdps(40):  # only the comparison, so that it rounds nothing away
        top = max(abs(x) for x in vec)
        assert abs(vec[q - 1] + pivot_minor) <= 1e-35 * top
        for p, minor in minors.items():
            assert abs(vec[p - 1] - _cramer_sign(pivots, p, q) * minor) <= 1e-35 * top
    with mp.workdps(40):
        inside = kernel_basis(rm, 1, 2j, dps=40)
        pres_inside = relations(rm, 2j, dps=40)
    # mpmath numbers compare exactly, whatever the working precision
    assert kernel_basis(rm, 1, 2j, dps=40) == inside
    assert relations(rm, 2j, dps=40) == pres_inside
    assert mp.mp.dps == 15


def test_the_library_takes_precision_only_as_an_argument(monkeypatch):
    rm = canonical_g(3)
    expected = kernel_basis(rm, 1, 2j)
    monkeypatch.setenv("RM_TORUS_PRECISION", "40")
    assert kernel_basis(rm, 1, 2j) == expected


def test_relations_at_a_new_tau_rebuild_no_block_data():
    rm = canonical_g(5)
    relations(rm, 0.1 + 1.3j)
    before = core._block_data.cache_info()
    relations(rm, -0.2 + 1.9j, dps=20)
    after = core._block_data.cache_info()
    assert after.misses == before.misses
    assert after.hits > before.hits


def _normalizations(p):
    yield p
    yield normalize_rational(p)
    try:
        yield normalize_modular(p)
    except OddLevel:
        pass
    yield monic_ordered(p)


@pytest.mark.parametrize("g", [canonical_g(t).g for t in (3, 4, 5, 6)] + [(7, -2, 11, -3)])
def test_presentation_document_is_json_dumps(g):
    rm = validate(g)
    seen = set()
    for tau in (0.1 + 1.0j, -0.3 + 1.5j, 0.25 + 0.9j):
        for p in _normalizations(relations(rm, tau)):
            seen.add(p.normalization)
            assert presentation_document(p) == json.dumps(presentation_json(p), indent=2)
    assert seen >= {"raw", "rational", "monic"}


def test_presentation_document_writes_every_float_as_json_does():
    rm = canonical_g(3)
    values = (-0.0, float("nan"), float("inf"), float("-inf"), 1e-300, 1e16, 0.1, -2.5e-8)
    rels = tuple(
        Relation(mu=mu, k=1, terms=tuple(
            RelationTerm(left, right, complex(values[left], values[-right]))
            for left in range(len(values)) for right in range(1, 3)
        ))
        for mu in (1, 2)
    ) + (Relation(mu=3, k=1, terms=()),)
    for p in (
        Presentation(rm, complex(-0.0, float("inf")), "raw", rels),
        Presentation(rm, mp.mpc(0.5, 1), "rational", ()),
    ):
        assert presentation_document(p) == json.dumps(presentation_json(p), indent=2)


@pytest.mark.parametrize("tau", [complex(0, float("inf")), complex(float("-inf"), 2),
                                 complex(0.3, float("nan"))])
def test_non_finite_tau_error_names_the_given_point(tau):
    # the blocks evaluate at l * tau; the error reports tau itself
    for dps in (None, 30):
        with pytest.raises(DomainError) as exc:
            relations(canonical_g(3), tau, dps=dps)
        assert str(exc.value) == f"point {tau} is not finite"
        with pytest.raises(DomainError) as exc:
            block_M(canonical_g(4), 1, tau, dps=dps)
        assert str(exc.value) == f"point {tau} is not finite"
