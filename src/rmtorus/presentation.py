"""Quadratic presentations of the graded coordinate ring.

For validated data ``rm`` and a point ``tau``, each label mu in {1..c}
contributes c - (a+d) quadratic relations whose coefficient vectors span the
kernel of the block matrix from :func:`rmtorus.core.block_M`.  A greedy
Gram-Schmidt scan picks a+d pivot columns, so the construction stays valid
where the leading columns degenerate.  One LU factorization of the pivot
submatrix B, carried across the free columns, then gives each kernel vector
det(B) (B^-1 c_q at the pivots, -1 at its free column q) by one
back-substitution: the Cramer-minor vector, without its (c-a-d)(a+d+1)
determinants.  Every other vector is 0 at q, so the vectors are independent
exactly when each keeps its entry at q; the one rank check is that entry's
share of the vector's largest, against ``core.RANK_CUTOFF``.

Four normalizations of the same ideal are provided:

* ``raw``       - determinant coefficients as computed;
* ``rational``  - every coefficient divided by theta[0](0, l tau)^(a+d),
                  real on the imaginary axis;
* ``modular``   - coefficients patched (odd trace only) by one extra theta
                  factor so each becomes a weight-w form for the level group;
* ``monic``     - monomial slots transposed, terms sorted decreasingly, each
                  relation divided by its leading coefficient (the input order
                  for Groebner completion).

All linear algebra runs in complex doubles by default and in mpmath arithmetic
at ``dps`` digits when ``dps`` is given, whatever the ambient mpmath
precision; downstream Groebner completion requires the high-precision path to
keep spurious leading terms out.  A presentation computed at ``dps`` takes the
same ``dps`` in :func:`normalize_rational` and :func:`normalize_modular`.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .core import RANK_CUTOFF, RMData, _block, block_M
from .errors import (
    DegenerateProbe,
    DomainError,
    LeadingCoeffBelowThreshold,
    OddLevel,
    RankDeficient,
)
from .theta import SeriesControl, theta_constant

__all__ = [
    "RelationTerm",
    "Relation",
    "Presentation",
    "HilbertData",
    "minor_F",
    "kernel_pivots",
    "kernel_basis",
    "relations",
    "normalize_rational",
    "normalize_modular",
    "monic_ordered",
    "hilbert_coeffs",
    "presentation_json",
    "presentation_document",
]

#: Coefficients below this fraction of a relation's largest one are dropped.
COEFF_PRUNE_REL = 1e-12

#: Column acceptance threshold (relative residual) for pivot selection.
PIVOT_RESIDUAL_REL = 1e-10


@dataclass(frozen=True)
class RelationTerm:
    """One monomial x_left * x_right with its complex coefficient."""

    left: int
    right: int
    coeff: complex


@dataclass(frozen=True)
class Relation:
    """The k-th kernel relation of the mu-th block."""

    mu: int
    k: int
    terms: tuple[RelationTerm, ...]


@dataclass(frozen=True)
class Presentation:
    """A full set of c(c-a-d) quadratic relations in one normalization."""

    rm: RMData
    tau: complex
    normalization: str
    relations: tuple[Relation, ...]

    @property
    def level(self) -> int:
        return self.rm.level

    @property
    def weight(self) -> int:
        return self.rm.weight


@dataclass(frozen=True)
class HilbertData:
    """Graded dimensions h_0..h_N."""

    coefficients: tuple[int, ...]


# ---------------------------------------------------------------------------
# scalar helpers shared by the double and mpmath paths
# ---------------------------------------------------------------------------


def _at(dps: int | None):
    """mpmath working precision ``dps`` for the linear algebra; none in double."""
    return contextlib.nullcontext() if dps is None else mp.workdps(dps)


def _norm(vec, use_mp: bool):
    if use_mp:
        return mp.sqrt(mp.fsum(abs(x) ** 2 for x in vec))
    return math.sqrt(sum(abs(x) ** 2 for x in vec))


def _lu(rows, use_mp: bool):
    """Gaussian elimination with partial pivoting on a local copy of ``rows``.

    The rows are n x m with m >= n; the pivots come from the leading n
    columns and every elimination step runs across all m.  Returns the
    eliminated rows (upper triangular on the leading square, its trailing
    columns carried along) and the leading square's determinant, which is
    exactly 0 when a pivot column is exactly 0 (the rows are then unfinished).
    """
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


def _block_columns(rm: RMData, mu: int, tau: complex, ctl, dps):
    """Block entries as a list of c column vectors of length a+d."""
    block = block_M(rm, mu, tau, ctl, dps)
    t, c = rm.trace, rm.degree
    return [[block.entries[i][j] for i in range(t)] for j in range(c)]


def _pivoted_block(rm: RMData, mu: int, tau: complex, ctl, dps):
    """Block columns, their 1-based pivot columns, and whether mpmath is used.

    The a+d pivots come from a greedy modified Gram-Schmidt scan; fewer
    independent columns raise :class:`RankDeficient`.  ``dps`` is resolved
    by the caller, which runs this under ``_at(dps)``.
    """
    use_mp = dps is not None
    columns = _block_columns(rm, mu, tau, ctl, dps)
    basis = []
    pivots: list[int] = []
    for j, col in enumerate(columns, start=1):
        if len(pivots) == rm.trace:
            break
        v = list(col)
        orig = _norm(v, use_mp)
        if orig == 0:
            continue
        for q in basis:
            inner = sum(qc.conjugate() * vc for qc, vc in zip(q, v))
            v = [vc - inner * qc for qc, vc in zip(q, v)]
        resid = _norm(v, use_mp)
        if resid > PIVOT_RESIDUAL_REL * orig:
            pivots.append(j)
            basis.append([vc / resid for vc in v])
    if len(pivots) != rm.trace:
        raise RankDeficient(
            f"only {len(pivots)} independent columns found for mu={mu} at tau={tau}"
        )
    return columns, tuple(pivots), use_mp


def _free_columns(pivots: tuple[int, ...], c: int) -> tuple[int, ...]:
    """The 1-based columns outside the pivots, ascending: k-th is relation k's."""
    return tuple(q for q in range(1, c + 1) if q not in pivots)


# ---------------------------------------------------------------------------
# public kernel machinery
# ---------------------------------------------------------------------------


def minor_F(
    rm: RMData,
    mu: int,
    cols: tuple[int, ...],
    tau: complex,
    ctl: SeriesControl | None = None,
    dps: int | None = None,
) -> complex:
    """Determinant of the selected (a+d) block columns (1-based, increasing).

    Computed by LU with partial pivoting.
    """
    t, c = rm.trace, rm.degree
    cols = tuple(int(x) for x in cols)
    if len(cols) != t:
        raise DomainError(f"need exactly {t} columns, got {len(cols)}")
    if any(not (1 <= x <= c) for x in cols):
        raise DomainError(f"columns must lie in 1..{c}, got {cols}")
    if any(cols[i] >= cols[i + 1] for i in range(t - 1)):
        raise DomainError(f"columns must be strictly increasing, got {cols}")
    with _at(dps):
        columns = _block_columns(rm, mu, tau, ctl, dps)
        rows = [[columns[j - 1][i] for j in cols] for i in range(t)]
        return _lu(rows, dps is not None)[1]


def kernel_pivots(
    rm: RMData,
    mu: int,
    tau: complex,
    ctl: SeriesControl | None = None,
    dps: int | None = None,
) -> tuple[int, ...]:
    """1-based pivot columns (size a+d) selected by rank-revealing elimination."""
    with _at(dps):
        return _pivoted_block(rm, mu, tau, ctl, dps)[1]


def kernel_basis(
    rm: RMData,
    mu: int,
    tau: complex,
    ctl: SeriesControl | None = None,
    dps: int | None = None,
) -> list[tuple[complex, ...]]:
    """c-(a+d) kernel vectors of the mu-th block, from one LU solve.

    With B the pivot submatrix, vector k belongs to the k-th free column q
    (ascending) and is det(B) (B^-1 c_q on the pivots, -1 at q, 0 elsewhere):
    the Cramer vector, whose entry p_i is the minor with c_q in place of c_p_i.
    One elimination of [B | free columns] serves every vector.

    Every other vector is 0 at q, so the vectors are independent exactly when
    each keeps its own entry -det(B).  One margin therefore decides the rank:
    :class:`RankDeficient` is raised when |v_q| / max|v| < RANK_CUTOFF (or B is
    exactly singular), and also when a vector fails to annihilate the block.
    """
    with _at(dps):
        columns, pivots, use_mp = _pivoted_block(rm, mu, tau, ctl, dps)
        t, c = rm.trace, rm.degree
        free = _free_columns(pivots, c)
        order = (*pivots, *free)
        upper, det = _lu([[columns[j - 1][i] for j in order] for i in range(t)], use_mp)
        m_norm = float(_norm([x for col in columns for x in col], use_mp))
        vectors = []
        for k, q in enumerate(free, start=1):
            x = [det * 0] * t  # B^-1 c_q by back-substitution
            if det != 0:
                for i in reversed(range(t)):
                    row = upper[i]
                    known = sum(row[j] * x[j] for j in range(i + 1, t))
                    x[i] = (row[t + k - 1] - known) / row[i]
            v = [det * 0] * c
            v[q - 1] = -det
            for p, xp in zip(pivots, x):
                v[p - 1] = det * xp
            top = max(abs(y) for y in v)
            margin = abs(v[q - 1]) / top if top else 0.0
            if margin < RANK_CUTOFF:
                raise RankDeficient(
                    f"kernel vector (mu={mu}, k={k}) at tau={tau}: free-column margin "
                    f"|v_q|/max|v| = {float(margin):.3g} < RANK_CUTOFF = {RANK_CUTOFF:g}"
                )
            resid = [sum(columns[j][i] * v[j] for j in range(c)) for i in range(t)]
            if float(_norm(resid, use_mp)) > 1e-9 * m_norm * float(_norm(v, use_mp)):
                raise RankDeficient("kernel vector fails annihilation at the requested tolerance")
            vectors.append(tuple(v))
        return vectors


# ---------------------------------------------------------------------------
# presentation assembly and normalizations
# ---------------------------------------------------------------------------


def relations(
    rm: RMData,
    tau: complex,
    ctl: SeriesControl | None = None,
    dps: int | None = None,
) -> Presentation:
    """The raw presentation: all mu, ascending free-column index k.

    Term j of relation (mu, k) carries the monomial x_{alpha(mu, j)} x_j;
    coefficients below COEFF_PRUNE_REL of the relation's largest are dropped.
    """
    tau_c = complex(tau)
    rels: list[Relation] = []
    with _at(dps):
        for mu in range(1, rm.degree + 1):
            partners = _block(rm, mu).partners
            for k, vec in enumerate(kernel_basis(rm, mu, tau_c, ctl, dps), start=1):
                top = max(float(abs(coeff)) for coeff in vec)
                terms = tuple(
                    RelationTerm(left=partners[j - 1], right=j, coeff=coeff)
                    for j, coeff in enumerate(vec, start=1)
                    if abs(coeff) != 0 and float(abs(coeff)) >= COEFF_PRUNE_REL * top
                )
                rels.append(Relation(mu=mu, k=k, terms=terms))
    return Presentation(rm=rm, tau=tau_c, normalization="raw", relations=tuple(rels))


def _require_raw(p: Presentation, op: str) -> None:
    if p.normalization != "raw":
        raise DomainError(f"{op} expects a raw presentation, got {p.normalization!r}")


def _scaled(p: Presentation, factor, tag: str) -> Presentation:
    rels = tuple(
        Relation(
            mu=rel.mu,
            k=rel.k,
            terms=tuple(
                RelationTerm(t.left, t.right, t.coeff * factor) for t in rel.terms
            ),
        )
        for rel in p.relations
    )
    return Presentation(rm=p.rm, tau=p.tau, normalization=tag, relations=rels)


def normalize_rational(
    p: Presentation,
    ctl: SeriesControl | None = None,
    dps: int | None = None,
) -> Presentation:
    """Divide every coefficient by theta[0](0, l tau)^(a+d).

    The rescaled coefficients are values of level-group-invariant functions;
    on the imaginary axis they are real to working accuracy.
    """
    _require_raw(p, "normalize_rational")
    base = theta_constant(0, p.level * p.tau, ctl, dps)
    if float(abs(base)) < 1e-12:
        raise DegenerateProbe(f"|theta(0, l tau)| = {float(abs(base))} too small")
    return _scaled(p, base ** (-p.rm.trace), "rational")


def normalize_modular(
    p: Presentation,
    ctl: SeriesControl | None = None,
    dps: int | None = None,
) -> Presentation:
    """Patch coefficients into weight-w forms for the level group.

    Requires an even level l.  For even a+d the coefficients are unchanged;
    for odd a+d each is multiplied by theta[0](0, l tau) so every product of
    theta constants has even length.
    """
    _require_raw(p, "normalize_modular")
    if p.level % 2 != 0:
        raise OddLevel(f"level {p.level} is odd; no even-length patching exists")
    if p.rm.trace % 2 == 0:
        return _scaled(p, 1, "modular")
    factor = theta_constant(0, p.level * p.tau, ctl, dps)
    return _scaled(p, factor, "modular")


def monic_ordered(p: Presentation) -> Presentation:
    """Transpose monomial slots, sort terms decreasingly, scale leads to 1.

    Term j becomes the monomial x_j x_{alpha(mu, j)}; the leading term of
    relation (mu, k) is the degree-lexicographically largest surviving
    monomial, generically x_q x_{alpha(mu, q)} for the k-th non-pivot column
    q.  Accepts any normalization (the per-relation scale divides out).
    """
    rels: list[Relation] = []
    for rel in p.relations:
        swapped: list[tuple[tuple[int, int], complex]] = []
        for t in rel.terms:
            if p.normalization == "monic":
                word = (t.left, t.right)
            else:
                word = (t.right, t.left)
            swapped.append((word, t.coeff))
        top = max(float(abs(coeff)) for _, coeff in swapped)
        if top < 1e-250:
            raise LeadingCoeffBelowThreshold(
                f"relation (mu={rel.mu}, k={rel.k}) has no usable leading coefficient"
            )
        kept = [(w, cf) for w, cf in swapped if float(abs(cf)) >= COEFF_PRUNE_REL * top]
        kept.sort(key=lambda item: item[0], reverse=True)
        lead_coeff = kept[0][1]
        terms = [RelationTerm(w[0], w[1], cf / lead_coeff) for w, cf in kept]
        terms[0] = RelationTerm(terms[0].left, terms[0].right, complex(1.0))
        rels.append(Relation(mu=rel.mu, k=rel.k, terms=tuple(terms)))
    return Presentation(rm=p.rm, tau=p.tau, normalization="monic", relations=tuple(rels))


def hilbert_coeffs(rm: RMData, n: int) -> HilbertData:
    """Graded dimensions h_0..h_n.

    Taylor coefficients of (1 + (c-a-d) x + x^2) / (1 - (a+d) x + x^2); the
    bare two-term recurrence h_{k+1} = (a+d) h_k - h_{k-1} only holds once the
    numerator is exhausted, so the series division below is the general form.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise DomainError(f"n must be a nonnegative integer, got {n!r}")
    t, c = rm.trace, rm.degree
    numer = {0: 1, 1: c - t, 2: 1}
    coeffs: list[int] = []
    for k in range(n + 1):
        value = numer.get(k, 0)
        if k >= 1:
            value += t * coeffs[k - 1]
        if k >= 2:
            value -= coeffs[k - 2]
        coeffs.append(value)
    return HilbertData(coefficients=tuple(coeffs))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _complex_json(x) -> dict:
    """JSON form {"re", "im"} of a complex number."""
    x = complex(x)
    return {"re": x.real, "im": x.imag}


#: How :mod:`json` writes the non-finite floats (``allow_nan`` is its default).
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(x: float) -> str:
    """A float as :mod:`json` writes it."""
    text = float.__repr__(x)
    return _NONFINITE.get(text, text)


def _list_text(items: list[str], indent: str) -> str:
    """A JSON list opened at ``indent``, of items already written one level in."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + f"\n{indent}]"


def _ints_text(values, indent: str) -> str:
    """``json.dumps(list(values), indent=2)`` for ints, opened at ``indent``."""
    return _list_text([indent + "  " + int.__repr__(v) for v in values], indent)


def _complex_text(x, indent: str) -> str:
    """``json.dumps(_complex_json(x), indent=2)``, opened at ``indent``."""
    x = complex(x)
    return (
        f'{{\n{indent}  "re": {_float_text(x.real)},\n'
        f'{indent}  "im": {_float_text(x.imag)}\n{indent}}}'
    )


def _relations_json(relations) -> list[dict]:
    """JSON form of relations, in their order and with their term order."""
    return [
        {
            "mu": rel.mu,
            "k": rel.k,
            "terms": [
                {"left": t.left, "right": t.right, "coeff": _complex_json(t.coeff)}
                for t in rel.terms
            ],
        }
        for rel in relations
    ]


def presentation_json(p: Presentation) -> dict:
    """Deterministic JSON-ready dict (fixed field and term ordering)."""
    return {
        "g": list(p.rm.g),
        "tau": _complex_json(p.tau),
        "normalization": p.normalization,
        "l": p.level,
        "w": p.weight,
        "relations": _relations_json(p.relations),
    }


def presentation_document(p: Presentation) -> str:
    """``json.dumps(presentation_json(p), indent=2)``, written directly.

    With ``indent`` set, :mod:`json` falls back to its pure-Python encoder,
    which took about four times as long as this writer on the 200 payloads
    of a seed-7 ``present`` benchmark pass.  The document has one fixed
    shape, so its text is assembled from templates, with floats written as
    :mod:`json` writes them.
    """
    relations_text = []
    for rel in p.relations:
        terms = [
            f'        {{\n          "left": {int.__repr__(t.left)},\n'
            f'          "right": {int.__repr__(t.right)},\n'
            f'          "coeff": {_complex_text(t.coeff, "          ")}\n        }}'
            for t in rel.terms
        ]
        relations_text.append(
            f'    {{\n      "mu": {int.__repr__(rel.mu)},\n'
            f'      "k": {int.__repr__(rel.k)},\n'
            f'      "terms": {_list_text(terms, "      ")}\n    }}'
        )
    return (
        f'{{\n  "g": {_ints_text(p.rm.g, "  ")},\n'
        f'  "tau": {_complex_text(p.tau, "  ")},\n'
        f'  "normalization": {json.dumps(p.normalization)},\n'
        f'  "l": {int.__repr__(p.level)},\n'
        f'  "w": {int.__repr__(p.weight)},\n'
        f'  "relations": {_list_text(relations_text, "  ")}\n}}'
    )
