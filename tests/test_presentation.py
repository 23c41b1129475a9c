import itertools
import json

import numpy as np
import pytest

from rmtorus.core import canonical_g, block_M, structure_constant_theta
from rmtorus.errors import DomainError
from rmtorus.presentation import (
    hilbert_coeffs,
    kernel_basis,
    kernel_pivots,
    minor_F,
    monic_ordered,
    normalize_modular,
    normalize_rational,
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
