import cmath
import itertools
import json
import math
import random

import numpy as np
import pytest

from rmtorus import cli, geometry
from rmtorus.core import alpha, canonical_g
from rmtorus.errors import CombinatorialCap, DomainError
from rmtorus.geometry import (
    MINOR_PRUNE_REL,
    BiformRelation,
    LinearFormMatrix,
    MinorPoly,
    _minor_chunks,
    graph_member,
    graph_point_search,
    minor_equations,
    minors_document,
    minors_json,
    multilinearize,
    omega_matrix,
)
from rmtorus.presentation import _complex_json, _float_text, monic_ordered, relations

TAU = 2j
TAUS = (2j, 0.3 + 1.5j, -0.2 + 0.9j)


def _expand_minor(rows, c: int) -> dict[tuple[int, ...], complex]:
    """Reference: depth-first permutation expansion of det(rows), entries scalar * x_var.

    Columns are tried in increasing order with an early exit on zero scalars,
    so each monomial sums its terms in lexicographic permutation order.
    """
    acc: dict[tuple[int, ...], complex] = {}
    exps = [0] * c
    used = [False] * c

    def descend(i: int, sign: int, scalar: complex) -> None:
        if i == len(rows):
            key = tuple(exps)
            acc[key] = acc.get(key, complex(0.0)) + sign * scalar
            return
        row = rows[i]
        for col in range(c):
            if used[col]:
                continue
            cf, var = row[col]
            if cf == 0:
                continue
            # parity of the permutation built so far: count used columns > col
            swaps = sum(1 for cc in range(col + 1, c) if used[cc])
            used[col] = True
            exps[var - 1] += 1
            descend(i + 1, sign * (-1) ** swaps, scalar * cf)
            exps[var - 1] -= 1
            used[col] = False

    descend(0, 1, complex(1.0))
    return acc


def _reference_minors(matrix):
    """Every minor by the recursive reference, pruned as minor_equations prunes."""
    c = matrix.n_vars
    row_scales = [max((abs(cf) for cf, _ in row), default=0.0) for row in matrix.entries]
    out = []
    for subset in itertools.combinations(range(matrix.n_rows), c):
        acc = _expand_minor([matrix.entries[i] for i in subset], c)
        scale = math.prod(row_scales[i] for i in subset)
        top = max((abs(v) for v in acc.values()), default=0.0)
        if top <= MINOR_PRUNE_REL * max(scale, 1e-300):
            monos = ()
        else:
            monos = tuple(sorted((e, cf) for e, cf in acc.items()
                                 if abs(cf) > MINOR_PRUNE_REL * top))
        out.append(MinorPoly(rows=tuple(i + 1 for i in subset), monomials=monos))
    return out


def _bits(minors):
    return [(m.rows, [(e, cf.real.hex(), cf.imag.hex()) for e, cf in m.monomials])
            for m in minors]


def _random_matrix(rng, c, n, zero_row=None):
    """Sparse linear forms with exact zeros and magnitudes across the pruning bound."""
    entries = []
    for i in range(n):
        row = []
        for _ in range(c):
            if i == zero_row or rng.random() < 0.3:
                cf = complex(rng.choice((0.0, -0.0)), rng.choice((0.0, -0.0)))
            else:
                cf = complex(rng.gauss(0, 1), rng.gauss(0, 1)) * 10.0 ** rng.uniform(-8, 8)
            row.append((cf, rng.randint(1, c)))
        entries.append(tuple(row))
    return LinearFormMatrix(labels=tuple((i + 1, 1) for i in range(n)),
                            entries=tuple(entries), n_vars=c)


def _dense_omega(matrix, u):
    dense = np.zeros((len(matrix.entries), matrix.n_vars), dtype=complex)
    for i, row in enumerate(matrix.entries):
        for j, (coeff, var) in enumerate(row):
            dense[i, j] = coeff * u[var - 1]
    return dense


def _planted_system(seed, n_vars=5, n_relations=4):
    rng = np.random.default_rng(seed)
    u_star = rng.standard_normal(n_vars) + 1j * rng.standard_normal(n_vars)
    v_star = rng.standard_normal(n_vars) + 1j * rng.standard_normal(n_vars)
    rels = []
    for idx in range(n_relations):
        coeffs = []
        total = 0.0
        for i in range(1, n_vars + 1):
            for j in range(1, n_vars + 1):
                value = complex(rng.standard_normal(), rng.standard_normal())
                coeffs.append([i, j, value])
                total += value * u_star[i - 1] * v_star[j - 1]
        coeffs[0][2] -= total / (u_star[0] * v_star[0])
        rels.append(BiformRelation(mu=idx + 1, k=1,
                                   coefficients=tuple((i, j, v) for i, j, v in coeffs)))
    return tuple(rels), tuple(u_star), tuple(v_star)


def test_multilinearize_structure(rm6):
    pres = relations(rm6, TAU)
    biforms = multilinearize(pres)
    assert len(biforms) == 12
    for biform, rel in zip(biforms, pres.relations):
        assert (biform.mu, biform.k) == (rel.mu, rel.k)
        for left, right, coeff in biform.coefficients:
            assert left == alpha(rm6, biform.mu, right)
        u = tuple(complex(i, -i) for i in range(1, 7))
        v = tuple(complex(2 * i, 1) for i in range(1, 7))
        direct = sum(coeff * u[left - 1] * v[right - 1]
                     for left, right, coeff in biform.coefficients)
        assert abs(biform.evaluate(u, v) - direct) <= 1e-12 * max(1.0, abs(direct))


def test_evaluate_is_bilinear(rm6):
    biform = multilinearize(relations(rm6, TAU))[0]
    rng = np.random.default_rng(5)
    u = tuple(rng.standard_normal(6) + 1j * rng.standard_normal(6))
    v = tuple(rng.standard_normal(6) + 1j * rng.standard_normal(6))
    base = biform.evaluate(u, v)
    scaled = biform.evaluate(tuple(2j * x for x in u), tuple(-3.0 * x for x in v))
    assert abs(scaled - (-6j) * base) <= 1e-12 * max(1.0, abs(base))


def test_monic_input_rejected(rm6):
    monic = monic_ordered(relations(rm6, TAU))
    with pytest.raises(DomainError):
        multilinearize(monic)


def test_omega_matrix_shape(rm5, rm6):
    for rm, rows, n_vars in ((rm5, 10, 5), (rm6, 12, 6)):
        matrix = omega_matrix(relations(rm, TAU))
        assert len(matrix.entries) == rows
        assert matrix.n_vars == n_vars
        assert len(matrix.labels) == rows
        assert matrix.labels == tuple(sorted(matrix.labels))
        for row in matrix.entries:
            assert len(row) == n_vars
            for coeff, var in row:
                assert 1 <= var <= n_vars


def test_minor_counts_and_homogeneity(rm5, rm6):
    for rm, count, c in ((rm5, 252, 5), (rm6, 924, 6)):
        matrix = omega_matrix(relations(rm, TAU))
        minors = minor_equations(matrix, cap=1000)
        assert len(minors) == count
        for minor in minors:
            assert len(minor.rows) == c
            assert minor.rows == tuple(sorted(minor.rows))
            for exps, _ in minor.monomials:
                assert len(exps) == matrix.n_vars
                assert sum(exps) == c


def test_minor_evaluation_matches_dense_determinant(rm5, rm6):
    rng = np.random.default_rng(11)
    for rm in (rm5, rm6):
        matrix = omega_matrix(relations(rm, TAU))
        minors = minor_equations(matrix, cap=1000)
        u = rng.standard_normal(matrix.n_vars) + 1j * rng.standard_normal(matrix.n_vars)
        dense = _dense_omega(matrix, u)
        for minor in minors[::17]:
            direct = np.linalg.det(dense[[r - 1 for r in minor.rows], :])
            assert abs(minor.evaluate(tuple(u)) - direct) <= 1e-9 * max(1e-12, abs(direct))


@pytest.mark.parametrize("trace", [3, 4])
def test_minor_expansion_matches_recursive_reference_bit_for_bit(trace):
    for tau in TAUS:
        matrix = omega_matrix(relations(canonical_g(trace), tau))
        assert _bits(minor_equations(matrix, cap=1000)) == _bits(_reference_minors(matrix))


def test_minor_expansion_of_random_sparse_matrices_matches_reference():
    rng = random.Random(20)
    for c, n, zero_row in ((5, 8, None), (5, 7, 2), (6, 8, 0), (6, 6, None),
                           (7, 7, None), (7, 8, 7)):
        matrix = _random_matrix(rng, c, n, zero_row)
        minors = minor_equations(matrix, cap=1000)
        assert len(minors) == math.comb(n, c)
        assert _bits(minors) == _bits(_reference_minors(matrix))
        if zero_row is not None:
            assert all(m.is_zero for m in minors if zero_row + 1 in m.rows)


def _single_entry_rows(rng, c, n, rows, col):
    """A random matrix whose given rows hold one entry each, all in one column."""
    matrix = _random_matrix(rng, c, n)
    entries = tuple(
        tuple(((complex(1.5, -0.5) if j == col else complex(0.0)) if i in rows else cf, var)
              for j, (cf, var) in enumerate(row))
        for i, row in enumerate(matrix.entries)
    )
    return LinearFormMatrix(labels=matrix.labels, entries=entries, n_vars=c)


def test_minor_expansion_edge_cases_match_reference():
    rng = random.Random(31)
    # rows 3 and 4 share their only column: no subset holding both has a
    # permutation, so the whole last-row piece of row 4 (subset 0..4) is empty
    blocked = _single_entry_rows(rng, 5, 7, (3, 4), 2)
    most_rows = {c: max(k for k in range(c, 40) if math.comb(k, c) <= 1000) for c in (5, 6)}
    assert most_rows == {5: 12, 6: 12}
    cases = [
        blocked,
        _random_matrix(rng, 8, 9),
        _random_matrix(rng, 8, 9, zero_row=4),
        _random_matrix(rng, 5, most_rows[5]),
        _random_matrix(rng, 6, most_rows[6], zero_row=11),
        _random_matrix(rng, 5, 4),  # fewer rows than columns: no minors
    ]
    for matrix in cases:
        minors = minor_equations(matrix, cap=1000)
        assert len(minors) == math.comb(matrix.n_rows, matrix.n_vars)
        assert _bits(minors) == _bits(_reference_minors(matrix))
    minors = minor_equations(blocked)
    assert all(m.is_zero for m in minors if {4, 5} <= set(m.rows))
    assert not all(m.is_zero for m in minors)


def test_minor_expansion_of_entries_with_special_parts_matches_reference():
    """Small matrices whose entry parts are often nan, +-inf or +-0.0."""
    rng = random.Random(41)
    nan, inf = float("nan"), float("inf")
    parts = (nan, inf, -inf, 0.0, -0.0, 1.0, -2.5)
    kept = 0
    for _ in range(400):
        c = rng.choice((2, 3))
        n = c + rng.randint(0, 2)
        entries = tuple(
            tuple(
                (complex(rng.choice(parts), rng.choice(parts)) if rng.random() < 0.4
                 else complex(rng.gauss(0, 1), rng.gauss(0, 1)), rng.randint(1, c))
                for _ in range(c)
            )
            for _ in range(n)
        )
        matrix = LinearFormMatrix(labels=tuple((i + 1, 1) for i in range(n)),
                                  entries=entries, n_vars=c)
        minors = minor_equations(matrix)
        assert _bits(minors) == _bits(_reference_minors(matrix))
        # a nan or infinite coefficient never passes the pruning
        coeffs = [cf for m in minors for _, cf in m.monomials]
        assert all(map(cmath.isfinite, coeffs))
        kept += len(coeffs)
    assert kept > 0


def test_entry_modulus_past_double_range_is_a_domain_error():
    # both parts finite, but abs() of the entry overflows
    matrix = LinearFormMatrix(labels=((1, 1), (2, 1)),
                              entries=(((1.0, 1), (2j, 2)),
                                       ((complex(1.5e308, 1.5e308), 1), (1.0, 2))),
                              n_vars=2)
    with pytest.raises(DomainError, match="row 2:"):
        minor_equations(matrix)


def test_combinatorial_cap(rm5):
    matrix = omega_matrix(relations(rm5, TAU))
    with pytest.raises(CombinatorialCap):
        minor_equations(matrix, cap=100)


@pytest.mark.parametrize("cap", [float("nan"), None, "x", True, -1, 2.5])
def test_cap_must_be_a_nonnegative_int(cap):
    # nan would admit every minor (count > nan is False), True would act as 1
    matrix = omega_matrix(relations(canonical_g(3), 2j))
    with pytest.raises(DomainError, match=r"cap must be a nonnegative integer, got "):
        minor_equations(matrix, cap=cap)


def test_minors_document_is_byte_identical_across_expansions(rm5):
    head = {"g": list(rm5.g), "count": 252}
    first, second = (
        minors_document(head, minor_equations(omega_matrix(relations(rm5, TAU)), cap=1000))
        for _ in range(2)
    )
    assert first == second  # a bool: a diff of megabytes would not help


def _document_reference(head, minors):
    return json.dumps({**head, "minors": minors_json(minors)}, indent=2)


def test_minors_document_matches_json_dumps():
    head = {"g": [5, -1, 6, -1], "tau": _complex_json(0.3 + 1.5j), "cap": 10, "count": 3,
            "note": "a\nb", "scale": -0.0, "group": {"kind": "bracket", "n": 576, "m": 24},
            "flags": [True, 2], "pair": {"re": 1, "im": 2.0}, "swapped": {"im": 1.0, "re": 2.0},
            "rows": [], "none": None}
    nan, inf = float("nan"), float("inf")
    cases = [
        (),
        (MinorPoly(rows=(1, 2, 3), monomials=()),),
        (
            MinorPoly(rows=(1, 2), monomials=(((0, 2), complex(-0.0, 1e-300)),
                                              ((1, 1), complex(1e16, -0.0)),
                                              ((2, 0), complex(-1.5, 0.1)))),
            MinorPoly(rows=(1, 3), monomials=()),
            MinorPoly(rows=(2, 3), monomials=(((1, 1), complex(nan, inf)),
                                              ((2, 0), complex(-inf, 1.0)))),
        ),
        (MinorPoly(rows=(1, 2), monomials=(((1, 1), complex(0.5, -inf)),
                                           ((2, 0), complex(-0.0, nan)))),),
    ]
    for minors in cases:
        for fields in (head, {}):
            assert minors_document(fields, minors) == _document_reference(fields, minors)
    text = minors_document({}, cases[2])
    assert '"re": NaN' in text and '"im": Infinity' in text and '"re": -Infinity' in text
    for trace in (3, 4):
        for tau in TAUS:
            minors = minor_equations(omega_matrix(relations(canonical_g(trace), tau)), cap=1000)
            same = minors_document(head, minors) == _document_reference(head, minors)
            assert same  # a bool: a diff of megabytes would not help


def test_minors_document_writes_each_bit_pattern_as_json_does(monkeypatch):
    # one value in several minors, and 0.0 and -0.0 under the same exponents in
    # two minors: a cache keyed on float values would write both zeros alike
    nan, inf = float("nan"), float("inf")
    shared = complex(0.1, -2.5)
    minors = (
        MinorPoly(rows=(1, 2), monomials=(((0, 2), shared), ((1, 1), complex(0.0, -0.0)))),
        MinorPoly(rows=(1, 3), monomials=(((0, 2), shared), ((1, 1), complex(-0.0, 0.0)))),
        MinorPoly(rows=(1, 4), monomials=()),
        MinorPoly(rows=(2, 3), monomials=(((0, 2), complex(nan, -nan)),
                                          ((1, 1), complex(-nan, inf)),
                                          ((2, 0), complex(-inf, 1e16)))),
        MinorPoly(rows=(2, 4), monomials=(((1, 1), complex(1e16, -1e16)), ((2, 0), shared))),
        # x and -x in other minors share a magnitude; the sign goes in front of its text
        MinorPoly(rows=(3, 4), monomials=(((0, 2), -shared), ((1, 1), complex(-0.0, -inf)),
                                          ((2, 0), complex(-nan, -1e16)))),
    )
    head = {"count": len(minors)}
    texts = []
    monkeypatch.setattr(geometry, "_float_text", lambda x: texts.append(x) or _float_text(x))
    text = minors_document(head, minors)
    assert text == _document_reference(head, minors)
    written = json.loads(text)["minors"]
    zeros = [written[i]["monomials"][1]["coeff"] for i in (0, 1)]
    assert [math.copysign(1.0, z[part]) for z in zeros for part in ("re", "im")] == [1, -1, -1, 1]
    assert text.count('"re": 0.1,') == 3 and text.count("NaN") == 4
    assert text.count('"re": -0.1,') == 1 and text.count("-NaN") == 0
    # one text per magnitude: 0.1, 2.5, 0.0, inf, 1e16 and the nan
    assert len(texts) == 6 and all(math.copysign(1.0, x) == 1 for x in texts)


def test_minor_chunks_raise_before_the_first_chunk():
    # the CLI opens its file only after the call returns
    with pytest.raises(DomainError, match="head keys must be strings"):
        _minor_chunks({1: 2}, ())


def test_geom_builds_no_minor_poly_and_formats_each_magnitude_once(monkeypatch, tmp_path):
    built, texts = [], []
    init = MinorPoly.__init__
    monkeypatch.setattr(MinorPoly, "__init__", lambda self, *a, **k: built.append(a) or init(self, *a, **k))
    monkeypatch.setattr(geometry, "_float_text", lambda x: texts.append(x) or _float_text(x))
    target = tmp_path / "minors.json"
    argv = ["geom", "--trace", "4", "--tau", "0", "2", "--cap", "1000", "--out", str(target)]
    assert cli.main(argv) == 0
    assert built == []
    parts = [mono["coeff"][part] for minor in json.loads(target.read_text())["minors"]
             for mono in minor["monomials"] for part in ("re", "im")]
    magnitudes = {abs(x).hex() for x in parts}
    assert not any(map(math.isnan, parts))
    assert sorted(x.hex() for x in texts) == sorted(magnitudes)
    assert len(parts) == 63_004 and len(texts) == 4_657
    MinorPoly(rows=(1,), monomials=())
    assert len(built) == 1  # the count sees a MinorPoly when one is made


@pytest.mark.parametrize("key", [1, 2.5, None, ("g",)])
def test_minors_document_rejects_head_keys_that_are_not_strings(key):
    # json.dumps writes the key 1 as "1", where the template writer would write it bare
    with pytest.raises(DomainError, match="head keys must be strings"):
        minors_document({key: 2}, ())


def test_planted_zero_is_found_and_certified():
    rels, u_star, v_star = _planted_system(seed=3)
    peak = max(abs(r.evaluate(u_star, v_star)) for r in rels)
    assert peak < 1e-12
    assert graph_member(rels, u_star, v_star)
    result = graph_point_search(rels, 5, seed=0, attempts=4, iterations=120)
    assert result.residual < 1e-10
    assert graph_member(rels, result.u, result.v)


def test_graph_member_scaling_invariance():
    rels, u_star, v_star = _planted_system(seed=9)
    rng = random.Random(1)
    for _ in range(5):
        a = complex(rng.uniform(0.1, 3), rng.uniform(-3, 3))
        b = complex(rng.uniform(0.1, 3), rng.uniform(-3, 3))
        assert graph_member(rels, tuple(a * x for x in u_star),
                            tuple(b * x for x in v_star))


def test_graph_member_guards():
    rels, u_star, v_star = _planted_system(seed=4)
    with pytest.raises(DomainError):
        graph_member(rels, (0,) * 5, v_star)
    with pytest.raises(DomainError):
        graph_member(rels, u_star, (0,) * 5)


@pytest.mark.parametrize("name, value", [
    ("iterations", 0), ("attempts", 0), ("attempts", -1), ("seed", -1),
    ("attempts", 1.5), ("iterations", True), ("seed", None), ("seed", 2.0),
])
def test_graph_point_search_rejects_counts_and_seeds_out_of_range(name, value):
    # iterations=0 would return the zero vector as a zero, attempts=0 no result
    biforms = multilinearize(relations(canonical_g(4), TAU))
    with pytest.raises(DomainError, match=rf"{name} must be an integer >= "):
        graph_point_search(biforms, 5, **{name: value})


def test_example_system_admits_no_graph_point(rm6):
    biforms = multilinearize(relations(rm6, TAU))
    result = graph_point_search(biforms, 6, seed=1, attempts=3, iterations=100)
    assert result.residual > 1e-4
    assert not graph_member(biforms, result.u, result.v)
    other = graph_point_search(biforms, 6, seed=7, attempts=2, iterations=80)
    assert other.residual > 1e-4
