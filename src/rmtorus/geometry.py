"""Determinantal equations of the characteristic variety.

The quadratic relations of a presentation pair one variable in each tensor
slot, so every relation is a bilinear form in two copies of projective
(c-1)-space.  This module transcribes relations into that bilinear shape,
assembles the matrix of linear forms whose rows are the relations, expands
its c x c minors into degree-c homogeneous polynomials (the equations of the
image variety), and tests candidate point pairs against the bilinear system,
including a seeded alternating-least-squares search for such pairs.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .core import RMData, alpha
from .errors import CombinatorialCap, DomainError
from .presentation import Presentation, _complex_json

__all__ = [
    "BiformRelation",
    "LinearFormMatrix",
    "MinorPoly",
    "GraphSearchResult",
    "multilinearize",
    "omega_matrix",
    "minor_equations",
    "graph_member",
    "graph_point_search",
    "minors_json",
    "minors_document",
]

#: Relative threshold below which expanded minor coefficients are discarded.
MINOR_PRUNE_REL = 1e-12

#: Default cap on the number of minors.  It admits the canonical traces 3 and
#: 4 (252 and 924 minors; about 8 MB of ``geom`` JSON at trace 4) and stops
#: trace 5, whose 3432 minors write about 184 MB.
MINOR_CAP = 1000


@dataclass(frozen=True)
class BiformRelation:
    """One relation as a bilinear form: sum of coeff * (x_slot1)_1 (x_slot2)_2."""

    mu: int
    k: int
    coefficients: tuple[tuple[int, int, complex], ...]

    def evaluate(self, u, v) -> complex:
        total = complex(0.0)
        for s1, s2, cf in self.coefficients:
            total += cf * u[s1 - 1] * v[s2 - 1]
        return total

    def coeff_norm(self) -> float:
        return math.sqrt(sum(abs(cf) ** 2 for _, _, cf in self.coefficients))


@dataclass(frozen=True)
class LinearFormMatrix:
    """Rows of linear forms: entry (row, col) is (scalar, slot-1 variable index)."""

    labels: tuple[tuple[int, int], ...]
    entries: tuple[tuple[tuple[complex, int], ...], ...]
    n_vars: int

    @property
    def n_rows(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class MinorPoly:
    """A degree-c homogeneous polynomial from one c-subset of matrix rows.

    ``monomials`` maps exponent multi-indices (length c, entries summing to c)
    to complex coefficients; an identically-zero minor has no monomials but is
    still emitted so the count matches the binomial exactly.
    """

    rows: tuple[int, ...]
    monomials: tuple[tuple[tuple[int, ...], complex], ...]

    @property
    def is_zero(self) -> bool:
        return not self.monomials

    def evaluate(self, x) -> complex:
        total = complex(0.0)
        for exps, cf in self.monomials:
            term = cf
            for xi, e in zip(x, exps):
                if e:
                    term *= xi**e
            total += term
        return total


def _validated_terms(p: Presentation):
    """Relations with the slot pairing left = alpha(mu, right) enforced."""
    rm = p.rm
    out = []
    for rel in p.relations:
        coeffs = []
        for t in rel.terms:
            expected = alpha(rm, rel.mu, t.right)
            if t.left != expected:
                raise DomainError(
                    f"relation (mu={rel.mu}, k={rel.k}) pairs slot {t.right} with "
                    f"{t.left}, expected {expected}; normalization "
                    f"{p.normalization!r} does not preserve the bilinear slot "
                    "pairing (monic reordering breaks it)"
                )
            coeffs.append((t.left, t.right, complex(t.coeff)))
        out.append((rel.mu, rel.k, tuple(coeffs)))
    return out


def multilinearize(p: Presentation) -> tuple[BiformRelation, ...]:
    """Term-for-term transcription of relations with slot annotations."""
    return tuple(
        BiformRelation(mu=mu, k=k, coefficients=coeffs)
        for mu, k, coeffs in _validated_terms(p)
    )


def omega_matrix(p: Presentation) -> LinearFormMatrix:
    """Matrix of linear forms: row (mu, k), column j holds (v_j, alpha(mu, j))."""
    rm = p.rm
    c, t = rm.degree, rm.trace
    validated = _validated_terms(p)
    expected_rows = c * (c - t)
    if len(validated) != expected_rows:
        raise DomainError(
            f"expected {expected_rows} relations, got {len(validated)}"
        )
    labels = []
    rows = []
    for mu, k, coeffs in validated:
        by_slot = {s2: cf for _, s2, cf in coeffs}
        labels.append((mu, k))
        rows.append(
            tuple(
                (by_slot.get(j, complex(0.0)), alpha(rm, mu, j))
                for j in range(1, c + 1)
            )
        )
    return LinearFormMatrix(labels=tuple(labels), entries=tuple(rows), n_vars=c)


def _sparse_rows(m: LinearFormMatrix):
    """Per row, its nonzero entries in column order as (bit, above, cf, step).

    ``bit`` marks the column in a used-column mask and ``above`` every column
    right of it, so the transpositions a column adds to the permutation are
    the popcount of ``used & above``.  ``step`` adds one to the variable's
    digit of the exponent code: base c+1, variable 1 most significant, so
    the codes order like the exponent tuples.
    """
    c = m.n_vars
    full = (1 << c) - 1
    return [
        tuple(
            (1 << col, full & ~((2 << col) - 1), cf, (c + 1) ** (c - var))
            for col, (cf, var) in enumerate(row)
            if cf != 0
        )
        for row in m.entries
    ]


def _extend(states, row) -> list:
    """Partial expansions (used, code, odd, scalar) after one more row."""
    out = []
    for used, code, odd, scalar in states:
        for bit, above, cf, step in row:
            if not used & bit:
                out.append(
                    (used | bit, code + step, odd ^ (used & above).bit_count() & 1,
                     scalar * cf)
                )
    return out


def _exponents(code: int, c: int) -> tuple[int, ...]:
    exps = []
    for _ in range(c):
        code, e = divmod(code, c + 1)
        exps.append(e)
    return tuple(reversed(exps))


def minor_equations(m: LinearFormMatrix, cap: int = MINOR_CAP) -> tuple[MinorPoly, ...]:
    """All c x c minors of the linear-form matrix as degree-c polynomials.

    Row subsets are enumerated in lexicographic order.  Each minor is the
    permutation expansion of its determinant, one row at a time: the partial
    products of a row prefix are kept and reused by the following subsets
    that share it.  Every term is ``sign * (((1.0 * cf_0) * cf_1) * ...)``
    and each monomial sums its terms from 0 in lexicographic permutation
    order.  Each minor's monomials are pruned relative to its own largest
    coefficient; a minor whose largest coefficient is negligible against the
    row-scale product (a Hadamard-style bound) is emitted with no monomials
    rather than dropped.
    """
    c = m.n_vars
    n = m.n_rows
    count = math.comb(n, c)
    if count > cap:
        raise CombinatorialCap(
            f"binomial({n}, {c}) = {count} minors exceeds cap {cap}"
        )
    out = []
    row_scales = [
        max((abs(cf) for cf, _ in row), default=0.0) for row in m.entries
    ]
    rows = _sparse_rows(m)
    exponents: dict[int, tuple[int, ...]] = {}
    zero = complex(0.0)
    # levels[i]: the partial expansions of the current subset's first i rows
    levels = [[(0, 0, 0, complex(1.0))]] + [[] for _ in range(c - 1)]
    previous = (-1,) * c
    for subset in itertools.combinations(range(n), c):
        shared = 0
        while shared < c - 1 and subset[shared] == previous[shared]:
            shared += 1
        for i in range(shared, c - 1):
            levels[i + 1] = _extend(levels[i], rows[subset[i]])
        previous = subset
        acc: dict[int, complex] = {}
        for used, code, odd, scalar in levels[c - 1]:
            for bit, above, cf, step in rows[subset[-1]]:
                if not used & bit:
                    sign = -1 if odd ^ (used & above).bit_count() & 1 else 1
                    key = code + step
                    acc[key] = acc.get(key, zero) + sign * (scalar * cf)
        scale = 1.0
        for i in subset:
            scale *= row_scales[i]
        top = max((abs(v) for v in acc.values()), default=0.0)
        if top <= MINOR_PRUNE_REL * max(scale, 1e-300):
            monos: tuple = ()
        else:
            kept = sorted(key for key, cf in acc.items() if abs(cf) > MINOR_PRUNE_REL * top)
            for key in kept:
                if key not in exponents:
                    exponents[key] = _exponents(key, c)
            monos = tuple((exponents[key], acc[key]) for key in kept)
        out.append(MinorPoly(rows=tuple(i + 1 for i in subset), monomials=monos))
    return tuple(out)


def _norm(vec) -> float:
    return float(np.linalg.norm(np.asarray(vec, dtype=complex)))


def graph_member(rels, u, v, tol: float = 1e-6) -> bool:
    """True iff every bilinear relation vanishes at (u, v) to relative tol."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if _norm(u) == 0.0 or _norm(v) == 0.0:
        raise DomainError("projective points must be nonzero")
    return _als_residual(rels, [rel.coeff_norm() for rel in rels], u, v) < tol


@dataclass(frozen=True)
class GraphSearchResult:
    """A candidate bilinear zero pair with its normalized residual."""

    u: tuple[complex, ...]
    v: tuple[complex, ...]
    residual: float
    iterations: int
    seed: int


def _als_residual(rels, norms, u, v) -> float:
    """Largest |rel(u, v)| / (|u| |v| |rel|); ``norms`` holds each |rel|."""
    nu, nv = _norm(u), _norm(v)
    worst = 0.0
    for rel, norm in zip(rels, norms):
        denom = nu * nv * norm
        if denom > 0.0:
            worst = max(worst, abs(rel.evaluate(u, v)) / denom)
    return worst


def _slot_matrices(rels, n_vars: int, u, v):
    """d(residual)/du and d(residual)/dv of the bilinear system."""
    a_mat = np.zeros((len(rels), n_vars), dtype=complex)
    b_mat = np.zeros((len(rels), n_vars), dtype=complex)
    for row, rel in enumerate(rels):
        for s1, s2, cf in rel.coefficients:
            a_mat[row, s1 - 1] += cf * v[s2 - 1]
            b_mat[row, s2 - 1] += cf * u[s1 - 1]
    return a_mat, b_mat


def graph_point_search(
    rels,
    n_vars: int,
    seed: int = 0,
    attempts: int = 5,
    iterations: int = 200,
    tol: float = 1e-10,
) -> GraphSearchResult:
    """Seeded search for a common zero of the bilinear relations.

    Fixing one slot makes the system linear in the other, so alternating
    sweeps take the smallest right singular vector of each induced matrix; a
    damped Gauss-Newton stage then polishes the pair.  Several restarts are
    tried and the best pair is returned with its normalized residual — the
    caller decides (e.g. via ``graph_member``) whether that residual counts
    as a zero.
    """
    if not rels:
        raise DomainError("no relations to solve")
    norms = [rel.coeff_norm() for rel in rels]
    best: GraphSearchResult | None = None
    for attempt in range(attempts):
        rng = np.random.default_rng(seed + attempt)
        v = rng.standard_normal(n_vars) + 1j * rng.standard_normal(n_vars)
        v /= np.linalg.norm(v)
        u = np.zeros(n_vars, dtype=complex)
        it = 0
        for it in range(1, iterations + 1):
            a_mat, _ = _slot_matrices(rels, n_vars, u, v)
            u = np.linalg.svd(a_mat)[2][-1].conj()
            _, b_mat = _slot_matrices(rels, n_vars, u, v)
            v = np.linalg.svd(b_mat)[2][-1].conj()
            if _als_residual(rels, norms, u, v) < tol:
                break
        damping = 1e-9
        for _ in range(iterations):
            current = _als_residual(rels, norms, u, v)
            if current < tol or damping > 1e6:
                break
            f_vec = np.array([rel.evaluate(u, v) for rel in rels])
            a_mat, b_mat = _slot_matrices(rels, n_vars, u, v)
            jac = np.hstack([a_mat, b_mat])
            jh = jac.conj().T
            try:
                delta = np.linalg.solve(
                    jh @ jac + damping * np.eye(2 * n_vars), -jh @ f_vec
                )
            except np.linalg.LinAlgError:
                break
            u2 = u + delta[:n_vars]
            v2 = v + delta[n_vars:]
            if _als_residual(rels, norms, u2, v2) < current:
                u = u2 / np.linalg.norm(u2)
                v = v2 / np.linalg.norm(v2)
                damping = max(damping / 3.0, 1e-14)
            else:
                damping *= 10.0
        res = _als_residual(rels, norms, u, v)
        cand = GraphSearchResult(
            u=tuple(complex(x) for x in u),
            v=tuple(complex(x) for x in v),
            residual=res,
            iterations=it,
            seed=seed + attempt,
        )
        if best is None or cand.residual < best.residual:
            best = cand
        if best.residual < tol:
            break
    return best


def minors_json(minors) -> list:
    """JSON-ready list of minors: row subsets plus sparse monomial expansions."""
    return [
        {
            "rows": list(poly.rows),
            "monomials": [
                {
                    "exponents": list(exps),
                    "coeff": _complex_json(cf),
                }
                for exps, cf in poly.monomials
            ],
        }
        for poly in minors
    ]


#: How :mod:`json` writes the non-finite floats (``allow_nan`` is its default).
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(x: float) -> str:
    text = float.__repr__(x)
    return _NONFINITE.get(text, text)


def _ints_text(values, indent: str) -> str:
    if not values:
        return "[]"
    inner = ",\n".join(indent + "  " + int.__repr__(v) for v in values)
    return f"[\n{inner}\n{indent}]"


def minors_document(head: dict, minors) -> str:
    """``json.dumps({**head, "minors": minors_json(minors)}, indent=2)``, written directly.

    With ``indent`` set, :mod:`json` falls back to its pure-Python encoder,
    which spends as long on a trace-4 payload as the expansion does.  The
    minors have one fixed shape, so their text is assembled from pieces, one
    template per exponent tuple, with floats written by ``float.__repr__``
    as :mod:`json` writes them.  The small ``head`` values go through
    :func:`json.dumps`.
    """
    fields = [
        f"  {json.dumps(key)}: " + json.dumps(value, indent=2).replace("\n", "\n  ")
        for key, value in head.items()
    ]
    templates: dict[tuple[int, ...], str] = {}
    parts = []
    for poly in minors:
        parts.append(
            f"{',' if parts else ''}\n    {{\n      \"rows\": "
            f"{_ints_text(poly.rows, '      ')},\n      \"monomials\": "
        )
        if not poly.monomials:
            parts.append("[]\n    }")
            continue
        opening = "[\n"
        for exps, cf in poly.monomials:
            template = templates.get(exps)
            if template is None:
                template = templates[exps] = (
                    f"        {{\n          \"exponents\": "
                    f"{_ints_text(exps, '          ')},\n          \"coeff\": {{\n"
                    f"            \"re\": "
                )
            parts.append(opening + template)
            parts.append(_float_text(cf.real))
            parts.append(",\n            \"im\": ")
            parts.append(_float_text(cf.imag))
            parts.append("\n          }\n        }")
            opening = ",\n"
        parts.append("\n      ]\n    }")
    fields.append('  "minors": ' + (f"[{''.join(parts)}\n  ]" if parts else "[]"))
    return "{\n" + ",\n".join(fields) + "\n}"
