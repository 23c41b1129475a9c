import itertools
import json
import math

import mpmath as mp
import numpy as np
import pytest

from rmtorus import core, groebner, presentation, validate
from rmtorus.core import alpha, canonical_g, block_M, structure_constant_theta
from rmtorus.errors import DomainError, LeadingCoeffBelowThreshold, OddLevel, RankDeficient
from rmtorus.modsym import averaged_relations
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
from rmtorus.theta import theta_constant

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


def _worst_relative_error(raw, scaled, factor):
    with mp.workdps(60):
        return max(abs(t.coeff - r.coeff * factor) / abs(r.coeff * factor)
                   for rel_raw, rel in zip(raw.relations, scaled.relations)
                   for r, t in zip(rel_raw.terms, rel.terms))


def test_normalizations_at_dps_keep_dps_digits():
    # the power and the products run at the presentation's dps, whatever the
    # ambient precision
    tau = 0.1 + 1.3j
    raw = relations(canonical_g(3), tau, dps=40)
    base = theta_constant(0, raw.level * tau, dps=40)
    with mp.workdps(60):
        factor = base ** -3
    assert _worst_relative_error(raw, normalize_rational(raw), factor) < 1e-35
    raw = relations(canonical_g(4), tau, dps=40)
    assert _worst_relative_error(raw, normalize_modular(raw), 1) < 1e-35


def test_normalizers_keep_the_dps_of_the_presentation():
    # no enclosing mp.workdps: at the ambient precision the normalizers would
    # keep only 53 bits of this trace-4 presentation (3.5e-17 relative)
    assert mp.mp.dps == 15
    raw = relations(canonical_g(4), TAU, dps=40)
    base = theta_constant(0, raw.level * TAU, dps=40)
    with mp.workdps(60):
        factor = base ** -4
    rational, modular, monic = normalize_rational(raw), normalize_modular(raw), monic_ordered(raw)
    assert [p.dps for p in (raw, rational, modular, monic)] == [40] * 4
    assert relations(canonical_g(4), TAU).dps is None
    assert _worst_relative_error(raw, rational, factor) < 1e-35
    assert _worst_relative_error(raw, modular, 1) < 1e-35
    with mp.workdps(60):
        for rel_raw, rel in zip(raw.relations, monic.relations):
            coeffs = {(t.right, t.left): t.coeff for t in rel_raw.terms}
            lead = coeffs[rel.terms[0].left, rel.terms[0].right]
            for t in rel.terms[1:]:
                want = coeffs[t.left, t.right] / lead
                assert abs(t.coeff - want) < 1e-35 * abs(want)


@pytest.mark.parametrize("dps", [0, -3, 2.5, True, "40"])
def test_dps_must_be_a_positive_int(dps):
    # a DomainError, not a RankDeficient from the annihilation check
    rm = canonical_g(3)
    calls = (
        lambda: relations(rm, TAU, dps=dps),
        lambda: kernel_basis(rm, 1, TAU, dps=dps),
        lambda: kernel_pivots(rm, 1, TAU, dps=dps),
        lambda: minor_F(rm, 1, (1, 2, 3), TAU, dps=dps),
    )
    for call in calls:
        with pytest.raises(DomainError, match="dps must be a positive integer"):
            call()


@pytest.mark.parametrize("trace", (3, 5, 7, 9))
def test_modular_normalization_of_an_odd_trace_meets_an_odd_level(trace):
    # det 1 and an odd a+d force an odd c, so the level c(a+d) is odd
    raw = relations(canonical_g(trace), 1j)  # no trace here raises at i
    assert raw.level % 2 == 1
    with pytest.raises(OddLevel, match=f"level {raw.level} is odd"):
        normalize_modular(raw)


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
    # int() would read each as the minor of columns (1, 2, 3, 4)
    for cols in ((1.5, 2, 3, 4), (True, 2, 3, 4)):
        with pytest.raises(DomainError, match="columns must be integers"):
            minor_F(rm6, 1, cols, TAU)


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
    *((t, tau) for t in (7, 8, 9, 10, 11, 12) for tau in FAMILY_TAUS[1:]),
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
    # no enclosing mp.workdps: the elimination must still run at dps 40 (the
    # pivot scan runs in double at every precision)
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


@pytest.mark.parametrize("trace", [4, 8])
def test_presentation_document_is_json_dumps_for_averaged_presentations(trace):
    averaged = averaged_relations(canonical_g(trace))
    for p in (averaged, monic_ordered(averaged)):
        assert presentation_document(p) == json.dumps(presentation_json(p), indent=2)
    assert list(presentation_json(averaged)) == [
        "g", "normalization", "l", "w", "group", "scale", "quadrature_error", "relations"
    ]


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


@pytest.mark.parametrize("dps", [None, 40])
def test_relations_sum_the_level_row_once_per_call(rm6, monkeypatch, dps):
    # all c blocks are gathered from one level row; each block alone sums it too
    sums = []
    original = core._kernel_sum

    def counting(table, taus, *args, **kwargs):
        sums.append(len(table.rho))
        return original(table, taus, *args, **kwargs)

    monkeypatch.setattr(core, "_kernel_sum", counting)
    pres = relations(rm6, 0.3 + 1.6j, dps=dps)
    assert sums == [rm6.level]
    with mp.workdps(dps or 15):
        for rel in pres.relations:
            vec = kernel_basis(rm6, rel.mu, 0.3 + 1.6j, dps=dps)[rel.k - 1]
            assert [t.coeff for t in rel.terms] == [vec[t.right - 1] for t in rel.terms]
    assert sums == [rm6.level] * (1 + len(pres.relations))


def test_relations_rank_check_every_block(rm6, monkeypatch):
    # the shared row does not skip block_M's singular-value test
    monkeypatch.setattr(core, "RANK_CUTOFF", 2.0)
    with pytest.raises(RankDeficient, match=r"block mu=1 has numerical rank 0 < 4"):
        relations(rm6, 2j)


# ---------------------------------------------------------------------------
# the batched kernel against the scalar loops it replaced
# ---------------------------------------------------------------------------


def _ref_norm(vec, use_mp):
    if use_mp:
        return mp.sqrt(mp.fsum(abs(x) ** 2 for x in vec))
    return math.sqrt(sum(abs(x) ** 2 for x in vec))


def _ref_lu(rows, use_mp):
    """The scalar elimination: partial pivoting on a copy of the n x m rows."""
    n = len(rows)
    mat = [list(row) for row in rows]
    det = mp.mpc(1) if use_mp else complex(1.0)
    sign = 1
    for k in range(n):
        piv = max(range(k, n), key=lambda r: abs(mat[r][k]))
        if abs(mat[piv][k]) == 0:
            return mat, mp.mpc(0) if use_mp else complex(0.0)
        if piv != k:
            mat[piv], mat[k] = mat[k], mat[piv]
            sign = -sign
        det *= mat[k][k]
        for r in range(k + 1, n):
            f = mat[r][k] / mat[k][k]
            for c2 in range(k + 1, len(mat[r])):
                mat[r][c2] -= f * mat[k][c2]
    return mat, det * sign


def _ref_scan(columns, t, use_mp):
    """The scalar first-fit scan: classical Gram-Schmidt with one reorthogonalization.

    Returns the pivots and, for every column scanned, its residual ratio
    resid / orig and whether it was accepted.
    """
    basis, pivots, ratios = [], [], []
    for j, col in enumerate(columns, start=1):
        if len(pivots) == t:
            break
        v = list(col)
        orig = _ref_norm(v, use_mp)
        if orig == 0:
            continue
        for _ in range(2):
            inners = [sum(qc.conjugate() * vc for qc, vc in zip(q, v)) for q in basis]
            v = [vc - sum(inner * q[i] for inner, q in zip(inners, basis))
                 for i, vc in enumerate(v)]
        resid = _ref_norm(v, use_mp)
        accepted = resid > presentation.PIVOT_RESIDUAL_REL * orig
        ratios.append((resid / orig, accepted))
        if accepted:
            pivots.append(j)
            basis.append([vc / resid for vc in v])
    return tuple(pivots), ratios


def _ref_pivots(columns, t, use_mp):
    """The pivots of :func:`_ref_scan`."""
    return _ref_scan(columns, t, use_mp)[0]


def _ref_vectors(columns, pivots, use_mp):
    """The scalar Cramer vectors: one LU of [B | free columns], one back-substitution each."""
    t, c = len(pivots), len(columns)
    free = [q for q in range(1, c + 1) if q not in pivots]
    order = (*pivots, *free)
    upper, det = _ref_lu([[columns[j - 1][i] for j in order] for i in range(t)], use_mp)
    vectors = []
    for k, q in enumerate(free, start=1):
        x = [det * 0] * t
        if det != 0:
            for i in reversed(range(t)):
                row = upper[i]
                known = sum(row[j] * x[j] for j in range(i + 1, t))
                x[i] = (row[t + k - 1] - known) / row[i]
        v = [det * 0] * c
        v[q - 1] = -det
        for p, xp in zip(pivots, x):
            v[p - 1] = det * xp
        vectors.append(tuple(v))
    return det, vectors


def _columns(rm, mu, tau, dps):
    return [list(col) for col in zip(*block_M(rm, mu, tau, dps).entries)]


def _mpc_bits(values):
    return [x._mpc_ for x in values]


def test_batched_elimination_keeps_the_bits_of_the_scalar_loop():
    rng = np.random.default_rng(16)
    with mp.workdps(30):
        stack = [[[mp.mpc(*rng.standard_normal(2)) * 10.0 ** int(rng.integers(-8, 8))
                   for _ in range(7)] for _ in range(4)] for _ in range(6)]
        stack[2] = [[row[0] * 0, *row[1:]] for row in stack[2]]  # an exactly 0 first column
        stack[4][3] = list(stack[4][1])  # a repeated row
        upper, det = presentation._eliminate(np.array(stack, dtype=object))
        for rows, got_rows, got_det in zip(stack, upper, det):
            ref_rows, ref_det = _ref_lu(rows, True)
            assert got_det._mpc_ == ref_det._mpc_
            for got, ref in zip(got_rows, ref_rows):
                assert _mpc_bits(got) == _mpc_bits(ref)
        assert det[2] == 0
        squares = np.array(stack, dtype=object)[:, :, :4].reshape(2, 3, 4, 4)
        dets = presentation._det(squares, 30).reshape(-1)
        expected = [_ref_lu(rows, True)[1]._mpc_ for rows in squares.reshape(6, 4, 4)]
        assert _mpc_bits(dets) == expected


@pytest.mark.parametrize("dps", [30, 40])
@pytest.mark.parametrize("key", (3, 4, 5, 6, (7, -2, 11, -3)), ids=str)
def test_batched_kernel_keeps_the_bits_of_the_scalar_loops_at_dps(key, dps):
    rm = _member(key)
    for tau in (0.1 + 1.3j, -0.2 + 1.9j):
        pres = relations(rm, tau, dps=dps)
        for mu in range(1, rm.degree + 1):
            with mp.workdps(dps):
                columns = _columns(rm, mu, tau, dps)
                pivots = _ref_pivots(columns, rm.trace, True)
                ref_det, ref_vectors = _ref_vectors(columns, pivots, True)
            assert minor_F(rm, mu, pivots, tau, dps=dps)._mpc_ == ref_det._mpc_
            vectors = kernel_basis(rm, mu, tau, dps=dps)
            assert [_mpc_bits(v) for v in vectors] == [_mpc_bits(v) for v in ref_vectors]
            for rel in pres.relations:
                if rel.mu == mu:
                    vec = vectors[rel.k - 1]
                    assert _mpc_bits(t.coeff for t in rel.terms) == \
                        _mpc_bits(vec[t.right - 1] for t in rel.terms)


@pytest.mark.parametrize("key", FAMILY, ids=str)
def test_batched_kernel_matches_the_scalar_loops_in_double(key):
    # with the reorthogonalization every residual ratio sits at least two
    # decades from PIVOT_RESIDUAL_REL, so rounding moves no accept decision
    rm = _member(key)
    threshold = presentation.PIVOT_RESIDUAL_REL
    for tau in FAMILY_TAUS:
        for mu in range(1, rm.degree + 1):
            columns = _columns(rm, mu, tau, None)
            pivots, ratios = _ref_scan(columns, rm.trace, False)
            assert kernel_pivots(rm, mu, tau) == pivots
            assert min(r for r, accepted in ratios if accepted) >= 100 * threshold, (tau, mu)
            assert max((r for r, accepted in ratios if not accepted), default=0) <= threshold / 100
        if (key, tau) in FAMILY_RAISES:
            continue
        pres = relations(rm, tau)
        for mu in range(1, rm.degree + 1):
            columns = _columns(rm, mu, tau, None)
            ref_det, ref_vectors = _ref_vectors(columns, kernel_pivots(rm, mu, tau), False)
            assert abs(minor_F(rm, mu, kernel_pivots(rm, mu, tau), tau) - ref_det) <= \
                1e-13 * abs(ref_det)
            vectors = kernel_basis(rm, mu, tau)
            for vec, ref in zip(vectors, ref_vectors):
                top = max(abs(x) for x in ref)
                assert max(abs(x - y) for x, y in zip(vec, ref)) <= 1e-13 * top
            for rel in pres.relations:
                if rel.mu == mu:
                    vec = vectors[rel.k - 1]
                    assert [t.coeff for t in rel.terms] == [vec[t.right - 1] for t in rel.terms]


def _first_loop_failure(rm, tau):
    """The message a loop over the blocks, one kernel_basis each, raises first."""
    for mu in range(1, rm.degree + 1):
        try:
            kernel_basis(rm, mu, tau)
        except RankDeficient as exc:
            return mu, str(exc)
    return None


@pytest.mark.parametrize("key, tau", sorted(FAMILY_RAISES, key=str), ids=str)
def test_a_failing_batch_raises_for_its_lowest_failing_mu(key, tau):
    rm = _member(key)
    mu, message = _first_loop_failure(rm, tau)
    with pytest.raises(RankDeficient) as exc:
        relations(rm, tau)
    assert str(exc.value) == message
    assert f"(mu={mu}, k=" in message


def test_a_batch_short_of_pivots_raises_the_pivot_count_of_its_lowest_mu(rm6, monkeypatch):
    # a stricter accept rule leaves some blocks short of a+d pivots
    monkeypatch.setattr(presentation, "PIVOT_RESIDUAL_REL", 0.9)
    mu, message = _first_loop_failure(rm6, TAU)
    assert message.startswith(f"only ") and f"mu={mu} at tau={TAU}" in message
    with pytest.raises(RankDeficient) as exc:
        relations(rm6, TAU)
    assert str(exc.value) == message
    with pytest.raises(RankDeficient) as exc:
        kernel_pivots(rm6, mu, TAU)
    assert str(exc.value) == message
    monkeypatch.setattr(presentation, "PIVOT_RESIDUAL_REL", 2.0)  # no block keeps any column
    with pytest.raises(RankDeficient, match=r"^only 0 independent columns found for mu=1 at"):
        relations(rm6, TAU)


# ---------------------------------------------------------------------------
# decisions read from the double copies, against the checks at dps
# ---------------------------------------------------------------------------

DECISION_KEYS = (3, 4, 5, 6, 7, 8, (7, -2, 11, -3))


def _ref_margin(vec, q):
    """|v_q| / max|v| at the working precision."""
    top = max(abs(x) for x in vec)
    return abs(vec[q - 1]) / (top if top != 0 else 1)


def _ref_loose(rows, vec):
    """The annihilation check at the working precision, from scalar norms."""
    resid = _ref_norm([sum(b * x for b, x in zip(row, vec)) for row in rows], True)
    scale = 1e-9 * float(_ref_norm([b for row in rows for b in row], True))
    return float(resid) > scale * float(_ref_norm(vec, True))


def _ref_kept(vec):
    """The pruning at the working precision: float(abs(v)) against the largest."""
    mags = [float(abs(x)) for x in vec]
    floor = presentation.COEFF_PRUNE_REL * max(mags)
    return [x != 0 and m >= floor for x, m in zip(vec, mags)]


def _ref_checked(rm, tau, dps):
    """Every block's scalar-loop kernel vectors at dps, or the message the checks raise first.

    The rank check of the blocks, their pivots and the pivot count are
    those of ``_pivoted``; the vectors are :func:`_ref_vectors`', and the
    margins and residuals mpmath scalars.
    """
    mus = range(1, rm.degree + 1)
    index = core._block_data(rm).index
    with mp.workdps(dps):
        blocks, _, pivots, failures = presentation._pivoted(rm, index, mus, tau, dps)
        out = []
        for mu, rows, piv in zip(mus, blocks.tolist(), pivots.tolist()):
            if mu in failures:
                return failures[mu]
            _, vectors = _ref_vectors([list(col) for col in zip(*rows)], tuple(piv), True)
            free = [q for q in mus if q not in piv]
            for k, (q, vec) in enumerate(zip(free, vectors), start=1):
                margin = _ref_margin(vec, q)
                if margin < core.RANK_CUTOFF:
                    return (f"kernel vector (mu={mu}, k={k}) at tau={tau}: free-column margin "
                            f"|v_q|/max|v| = {float(margin):.3g} < RANK_CUTOFF = 1e-08")
                if _ref_loose(rows, vec):
                    return "kernel vector fails annihilation at the requested tolerance"
            out.append(vectors)
    return out


def _assert_decides_at_dps(rm, tau, dps):
    """relations at dps against :func:`_ref_checked`, whose result it returns."""
    expected = _ref_checked(rm, tau, dps)
    if isinstance(expected, str):
        with pytest.raises(RankDeficient) as exc:
            relations(rm, tau, dps=dps)
        assert str(exc.value) == expected
        return expected
    with mp.workdps(dps):
        kept = [[(q, x._mpc_) for q, x, keep in zip(range(1, rm.degree + 1), vec, _ref_kept(vec))
                 if keep] for vectors in expected for vec in vectors]
    pres = relations(rm, tau, dps=dps)
    assert [[(t.right, t.coeff._mpc_) for t in rel.terms] for rel in pres.relations] == kept
    return expected


@pytest.mark.parametrize("dps", [30, 40])
@pytest.mark.parametrize("key", DECISION_KEYS, ids=str)
def test_relations_check_and_prune_as_the_working_precision_does(key, dps):
    rm = _member(key)
    for tau in FAMILY_TAUS:
        _assert_decides_at_dps(rm, tau, dps)


@pytest.mark.parametrize(
    "key, tau", sorted(((k, t) for k, t in FAMILY_RAISES if k not in DECISION_KEYS), key=str),
    ids=str,
)
def test_the_other_family_raises_at_dps_40_as_the_working_precision_does(key, tau):
    assert isinstance(_assert_decides_at_dps(_member(key), tau, 40), str)


def _turns(n):
    """n unit complex numbers at angles spread over the circle, at the working precision."""
    return [mp.expjpi(mp.mpf(2 * m + 1) / n) for m in range(n)]


def test_planted_coefficients_at_the_floor_and_tied_for_the_top_are_pruned_at_dps():
    ulp = mp.mpf(2) ** -53
    with mp.workdps(40):
        rows = []
        for turn, other in zip(_turns(24), _turns(24)[5:] + _turns(24)[:5]):
            for j in range(-3, 4):
                tops = (turn * (1 + j * ulp), other * (1 - j * ulp))  # tied to a few ulps
                floors = [presentation.COEFF_PRUNE_REL * float(abs(x)) for x in tops]
                rows.append([*tops, *(mp.mpc(f) for f in floors), mp.mpc(0),
                             *(floors[0] * (1 + i * ulp) * other for i in range(-3, 4))])
        # the same again at 2^-1030, where every copy is a subnormal double
        rows += [[x * mp.mpf(2) ** -1030 for x in row] for row in rows]
        vectors = np.array(rows, dtype=object)[None]
        size = np.abs(vectors.astype(complex))
        kept = presentation._kept(vectors, size)
        expected = [_ref_kept(vec) for vec in rows]
    assert kept[0].tolist() == expected
    # the double magnitudes alone decide some of them otherwise
    cheap = size >= presentation.COEFF_PRUNE_REL * size.max(axis=2, keepdims=True)
    assert (cheap[0] != np.array(expected)).any()


def _monic_terms(p):
    """monic_ordered(p)'s words and coefficient bits (the lead's 1 as 1), or its error text."""
    try:
        q = monic_ordered(p)
    except LeadingCoeffBelowThreshold as exc:
        return str(exc)
    return [[((t.left, t.right), 1 if i == 0 else t.coeff._mpc_) for i, t in enumerate(rel.terms)]
            for rel in q.relations]


def _ref_monic_terms(p):
    """monic_ordered on a raw presentation with float(abs(c)) of every term, as _monic_terms."""
    out = []
    with mp.workdps(p.dps):
        for rel in p.relations:
            swapped = [((t.right, t.left), t.coeff) for t in rel.terms]
            top = max(float(abs(cf)) for _, cf in swapped)
            if top < 1e-250:
                return f"relation (mu={rel.mu}, k={rel.k}) has no usable leading coefficient"
            kept = sorted(((w, cf) for w, cf in swapped
                           if float(abs(cf)) >= presentation.COEFF_PRUNE_REL * top), reverse=True,
                          key=lambda item: item[0])
            out.append([(w, 1 if i == 0 else (cf / kept[0][1])._mpc_)
                        for i, (w, cf) in enumerate(kept)])
    return out


def test_monic_ordered_takes_at_most_two_exact_magnitudes_per_relation(monkeypatch):
    # float(abs(c)) twice per term, for the largest and for the floor, is 710 calls
    p = relations(validate((7, -2, 11, -3)), 0.2 + 1.1j, dps=40)
    calls = []
    exact = mp.mpc.__abs__
    monkeypatch.setattr(mp.mpc, "__abs__", lambda self: calls.append(self) or exact(self))
    terms = _monic_terms(p)
    monkeypatch.undo()
    assert sum(map(len, terms)) == 355
    assert len(calls) <= 2 * len(p.relations) == 154
    assert terms == _ref_monic_terms(p)


def _planted_presentation(rows):
    """A raw dps-40 presentation of trace 3 with one relation per row of coefficients."""
    rels = tuple(Relation(mu=1, k=k, terms=tuple(RelationTerm(j, j, cf) for j, cf in enumerate(row, 1)))
                 for k, row in enumerate(rows, 1))
    return Presentation(rm=canonical_g(3), tau=2j, normalization="raw", relations=rels, dps=40)


def test_planted_monic_magnitudes_at_the_floor_the_top_and_the_lead_guard_decide_as_at_dps():
    ulp = mp.mpf(2) ** -53
    with mp.workdps(40):
        rows = []
        for turn, other in zip(_turns(24), _turns(24)[5:] + _turns(24)[:5]):
            for j in range(-3, 4):
                tops = (turn * (1 + j * ulp), other * (1 - j * ulp))  # tied to a few ulps
                floor = presentation.COEFF_PRUNE_REL * max(float(abs(x)) for x in tops)
                rows.append([*tops, *(floor * (1 + i * ulp) * other for i in range(-3, 4))])
        # again with the largest magnitudes near 1.6e-249, just above the lead guard
        rows += [[x * mp.mpf(2) ** -827 for x in row] for row in rows]
        p = _planted_presentation(rows)
        assert _monic_terms(p) == _ref_monic_terms(p)
        # the magnitudes _magnitude gives alone decide some of them otherwise
        def kept(mags):
            return [m >= presentation.COEFF_PRUNE_REL * max(mags) for m in mags]
        assert any(kept([float(abs(x)) for x in row]) != kept(list(map(presentation._magnitude, row)))
                   for row in rows)
        # a relation whose largest coefficient sits a few ulps from the lead guard
        guards = [_planted_presentation([[1e-250 * (1 + j * ulp) * turn, 1e-260 * turn]])
                  for turn in _turns(4) for j in range(-3, 4)]
        errors = [_monic_terms(q) for q in guards]
        assert errors == [_ref_monic_terms(q) for q in guards]
        assert {type(e) for e in errors} == {str, list}


def _one_vector_blocks(block, vectors):
    """_checks on a stack of copies of one block, each with one of the vectors (free column 2)."""
    n, block = len(vectors), [[mp.mpc(b) for b in row] for row in block]
    return presentation._checks(
        np.array([block] * n, dtype=object), np.array([block] * n, dtype=complex),
        np.array(vectors, dtype=object)[:, None], np.full((n, 1), 1))


# At 2^-1040 the copies are subnormal doubles with a few bits; at 2^-520 the
# squares in the residual's norm underflow.
@pytest.mark.parametrize("margin_scale, resid_scale", [(0, 0), (-1040, -520)])
def test_planted_margins_and_residuals_at_their_thresholds_are_decided_at_dps(
    margin_scale, resid_scale
):
    # each vector is alone in its block, so no other vector's failure has
    # the block checked again at dps
    ulp = mp.mpf(2) ** -53
    cutoff = mp.mpf(core.RANK_CUTOFF)
    with mp.workdps(40):
        # the block [0, 0, 1]: every vector below annihilates it exactly,
        # and its free-column margin |v_2| / |v_1| sits at RANK_CUTOFF
        scale = mp.mpf(2) ** margin_scale
        vectors = [[scale * turn * (1 + j * ulp), scale * cutoff * other * (1 - i * ulp), 0 * turn]
                   for turn, other in zip(_turns(16), _turns(16)[3:] + _turns(16)[:3])
                   for j in range(-2, 3) for i in range(-2, 3)]
        narrow, loose, margin, _ = _one_vector_blocks([[0, 0, 1]], vectors)
        expected = [_ref_margin(vec, 2) < core.RANK_CUTOFF for vec in vectors]
        assert narrow[:, 0].tolist() == expected and not loose.any()
        # the margins a failure quotes are those at dps
        assert [m for m, e in zip(margin[:, 0].tolist(), expected) if e] == [
            float(_ref_margin(vec, 2)) for vec, e in zip(vectors, expected) if e]
        cheap = [abs(complex(v[1])) / abs(complex(v[0])) < core.RANK_CUTOFF for v in vectors]
        assert any(e and not c for e, c in zip(expected, cheap))

        # the block [1, 1]: v = turn (1, -(1 - s)) leaves the residual s |turn|,
        # which sits within a few parts in 10^8 of 1e-9 |B| |v|
        vectors = []
        for turn in _turns(16):
            for shift in (-4e-8, -1e-8, -3e-9, 3e-9, 1e-8, 4e-8):
                s = mp.mpf(1)
                for _ in range(3):  # s = 1e-9 |B| |v / turn| (1 + shift)
                    s = 1e-9 * mp.sqrt(2) * mp.sqrt(1 + (1 - s) ** 2) * (1 + shift)
                vectors.append([turn * 2**resid_scale, -turn * 2**resid_scale * (1 - s)])
        narrow, loose, _, _ = _one_vector_blocks([[1, 1]], vectors)
        expected = [_ref_loose([[mp.mpc(1), mp.mpc(1)]], vec) for vec in vectors]
        assert loose[:, 0].tolist() == expected and not narrow.any()
        copies = np.array(vectors, dtype=complex)
        cheap = np.abs(copies.sum(axis=1)) > 1e-9 * math.sqrt(2) * np.linalg.norm(copies, axis=1)
        assert any(e and not c for e, c in zip(expected, cheap.tolist()))


def test_relations_at_dps_take_few_mpmath_magnitudes(monkeypatch):
    # the checks and the pruning read the double copies and take abs() at
    # dps only near a threshold; taken at dps throughout, they made 2,607 calls
    rm = validate((7, -2, 11, -3))
    calls = []
    original = mp.mpc.__abs__

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(mp.mpc, "__abs__", counting)
    relations(rm, 0.2 + 1.1j, dps=40)
    assert 0 < len(calls) <= 300
