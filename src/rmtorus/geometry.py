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
import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import alpha
from .errors import CombinatorialCap, DomainError
from .presentation import Presentation, _complex_json, _float_text, _head_text, _ints_text
from .theta import _is_int

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


#: Up to Python 3.13, ``int * complex`` multiplies two complex numbers, the
#: int padded with a zero imaginary part; from 3.14 it scales both parts.
_PADDED_INT_PRODUCT = math.isnan((1 * complex(0.0, math.inf)).real)


def _sparse_rows(m: LinearFormMatrix) -> list[tuple[np.ndarray, ...]]:
    """Per row, its nonzero entries in column order as arrays (bit, above, re, im, step).

    ``bit`` marks the column in a used-column mask and ``above`` every column
    right of it, so the transpositions a column adds to the permutation are
    the parity of ``used & above``.  ``re`` and ``im`` are the scalar's
    parts.  ``step`` adds one to the variable's digit of the exponent code:
    base c+1, variable 1 most significant, so the codes order like the
    exponent tuples.
    """
    c = m.n_vars
    full = (1 << c) - 1
    out = []
    for row in m.entries:
        cols = [(col, complex(cf), var) for col, (cf, var) in enumerate(row) if cf != 0]
        out.append((
            np.array([1 << col for col, _, _ in cols], dtype=np.int64),
            np.array([full & ~((2 << col) - 1) for col, _, _ in cols], dtype=np.int64),
            np.array([cf.real for _, cf, _ in cols], dtype=float),
            np.array([cf.imag for _, cf, _ in cols], dtype=float),
            np.array([(c + 1) ** (c - var) for _, _, var in cols], dtype=np.int64),
        ))
    return out


def _cross(states, below: int, row, parity: np.ndarray) -> tuple[np.ndarray, ...]:
    """The states of the prefixes numbered below ``below``, extended by a row's entries.

    ``states`` holds per state its prefix (nondecreasing), used-column mask,
    exponent code, parity and scalar parts.  The new states come in
    expansion order, parent first, then column.  The scalar is
    ``scalar * cf`` as Python forms it, each part from separate products:
    numpy's complex product fuses them and differs in the last bit.
    """
    prefix, used, code, odd, re, im = states
    bit, above, cf_re, cf_im, step = row
    parent, entry = np.nonzero((used[: np.searchsorted(prefix, below), None] & bit) == 0)
    was = used[parent]
    sr, si = re[parent], im[parent]
    cr, ci = cf_re[entry], cf_im[entry]
    return (prefix[parent], was | bit[entry], code[parent] + step[entry],
            odd[parent] ^ parity[was & above[entry]], sr * cr - si * ci, sr * ci + si * cr)


def _row_scale(i: int, row) -> float:
    """Largest entry modulus of row ``i``; DomainError past the double range."""
    try:
        return max((abs(cf) for cf, _ in row), default=0.0)
    except OverflowError:
        raise DomainError(f"row {i}: an entry's modulus exceeds the double range") from None


class _MinorColumns(NamedTuple):
    """The kept monomials of a sequence of minors, one entry per monomial in each array.

    ``rows`` holds every minor's row subset (1-based) and ``exponents`` the
    distinct exponent tuples.  Monomial i belongs to minor ``minor[i]``, has
    the exponents ``exponents[code[i]]`` and the coefficient
    ``complex(re[i], im[i])``.  The monomials run in minor order, so each
    minor's are one slice; a minor with no monomials has an empty slice.
    Read as coordinates, the arrays are the sparse minors x monomials
    coefficient matrix.
    """

    rows: list[tuple[int, ...]]
    exponents: list[tuple[int, ...]]
    minor: np.ndarray
    code: np.ndarray
    re: np.ndarray
    im: np.ndarray


@np.errstate(over="ignore", invalid="ignore")  # as quiet as Python's float arithmetic
def _minor_columns(m: LinearFormMatrix, cap: int) -> _MinorColumns:
    """The kept monomials of every c x c minor, as columns in lexicographic subset order.

    Each minor is the permutation expansion of its determinant, one row at a
    time: the partial expansions of every row prefix are built once, a whole
    level of prefixes per numpy pass, and the last row is added one row
    index at a time, so only one slice of the terms is held at once.  Every
    term is ``sign * (((1.0 * cf_0) * cf_1) * ...)`` and each monomial sums
    its terms from 0 in lexicographic permutation order, in Python's complex
    arithmetic to the bit.  Each minor's monomials are pruned relative to its
    own largest coefficient, and a minor whose largest coefficient is
    negligible against the row-scale product (a Hadamard-style bound) keeps
    none.  A last row's piece holds the subsets that end at it; each one's
    lexicographic rank is looked up once, and a stable sort by rank puts the
    pieces' monomials in subset order, ascending by exponent tuple within a
    minor (``exponents`` ascends too).  Monomials are keyed by 64-bit
    integers, which bounds ``count * (c+1)**c``.  Every check raises before
    any expansion.
    """
    if not _is_int(cap) or cap < 0:
        raise DomainError(f"cap must be a nonnegative integer, got {cap!r}")
    c = m.n_vars
    n = m.n_rows
    count = math.comb(n, c)
    if count > cap:
        raise CombinatorialCap(
            f"binomial({n}, {c}) = {count} minors exceeds cap {cap}"
        )
    width = (c + 1) ** c
    if count * width >= 2**63:
        raise CombinatorialCap(f"{count} minors of {c} columns exceed 64-bit monomial keys")
    if not count:  # fewer rows than columns
        return _columns_of(())
    row_scales = [_row_scale(i, row) for i, row in enumerate(m.entries, 1)]
    rows = _sparse_rows(m)
    parity = np.zeros(1 << c, dtype=bool)
    for i in range(c):
        parity[1 << i : 2 << i] = ~parity[: 1 << i]
    # the states of every row prefix of one length; prefixes in order of
    # their last row, so those ending below a row, and their states, lead
    prefixes, last, scale = [()], np.array([-1]), np.array([1.0])
    states = (np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64),
              np.zeros(1, dtype=np.int64), np.zeros(1, dtype=bool), np.ones(1), np.zeros(1))
    for length in range(1, c):
        longer, ends, scales, pieces = [], [], [], []
        for r in range(length - 1, n - c + length):
            below = int(np.searchsorted(last, r))
            prefix, *rest = _cross(states, below, rows[r], parity)
            pieces.append((prefix + len(longer), *rest))
            longer += [p + (r,) for p in prefixes[:below]]
            ends.append(np.full(below, r))
            scales.append(scale[:below] * row_scales[r])
        prefixes, last, scale = longer, np.concatenate(ends), np.concatenate(scales)
        states = tuple(map(np.concatenate, zip(*pieces)))
    subsets = list(itertools.combinations(range(n), c))
    rank = {subset: i for i, subset in enumerate(subsets)}
    # per last row: the kept monomials' minor ranks, codes and parts
    empty = np.zeros(0, dtype=np.int64)
    pieces = [(empty, empty, np.zeros(0), np.zeros(0))]
    for r in range(c - 1, n):
        prefix, _, code, odd, pr, pi = _cross(
            states, int(np.searchsorted(last, r)), rows[r], parity)
        if not len(prefix):
            continue
        # sign * product as Python's int * complex forms it
        sign = np.where(odd, -1.0, 1.0)
        if _PADDED_INT_PRODUCT:
            tr, ti = sign * pr - 0.0 * pi, sign * pi + 0.0 * pr
        else:
            tr, ti = sign * pr, sign * pi
        keys, inverse = np.unique(prefix * width + code, return_inverse=True)
        acc_re = np.zeros(len(keys))
        acc_im = np.zeros(len(keys))
        # unbuffered, in term order: the reference's sequential sums
        np.add.at(acc_re, inverse, tr)
        np.add.at(acc_im, inverse, ti)
        mags = np.hypot(acc_re, acc_im)
        owner, code = np.divmod(keys, width)
        # per prefix: its first monomial and the first one inserted
        first = np.flatnonzero(np.r_[True, owner[1:] != owner[:-1]])
        inserted = inverse[np.flatnonzero(np.r_[True, prefix[1:] != prefix[:-1]])]
        # Python's max() over insertion order skips a nan unless it comes first
        top = np.fmax.reduceat(mags, first)
        top[np.isnan(mags[inserted])] = np.nan
        subset_scale = scale[owner[first]] * row_scales[r]
        live = ~(top <= MINOR_PRUNE_REL * np.maximum(subset_scale, 1e-300))
        sizes = np.diff(np.r_[first, len(keys)])
        keep = np.repeat(live, sizes) & (mags > MINOR_PRUNE_REL * np.repeat(top, sizes))
        kept = np.flatnonzero(keep)
        if len(kept):
            ranks = [rank[prefixes[p] + (r,)] for p in owner[first].tolist()]
            pieces.append((np.repeat(ranks, sizes)[kept], code[kept], acc_re[kept], acc_im[kept]))
    minor, code, re, im = map(np.concatenate, zip(*pieces))
    # a subset's monomials are one run of its last row's piece, ascending by code
    order = np.argsort(minor, kind="stable")
    codes, code = np.unique(code[order], return_inverse=True)
    digits = (c + 1) ** np.arange(c - 1, -1, -1)
    return _MinorColumns(
        rows=[tuple(i + 1 for i in subset) for subset in subsets],
        exponents=list(map(tuple, (codes[:, None] // digits % (c + 1)).tolist())),
        minor=minor[order], code=code, re=re[order], im=im[order],
    )


def _polys(columns: _MinorColumns) -> tuple[MinorPoly, ...]:
    """The minors of ``columns`` as :class:`MinorPoly` values."""
    monos = list(zip(map(columns.exponents.__getitem__, columns.code.tolist()),
                     map(complex, columns.re.tolist(), columns.im.tolist())))
    bounds = np.searchsorted(columns.minor, np.arange(len(columns.rows) + 1)).tolist()
    return tuple(MinorPoly(rows=rows, monomials=tuple(monos[a:b]))
                 for rows, a, b in zip(columns.rows, bounds, bounds[1:]))


def minor_equations(m: LinearFormMatrix, cap: int = MINOR_CAP) -> tuple[MinorPoly, ...]:
    """All c x c minors of the linear-form matrix as degree-c polynomials.

    Row subsets come in lexicographic order and each minor's monomials
    ascend by exponent tuple.  The expansion, its pruning and its limits are
    those of ``_minor_columns``; a minor that keeps no monomials is still
    emitted, so the count matches the binomial exactly.  ``cap`` must be a
    nonnegative ``int`` (``bool`` excluded).
    """
    return _polys(_minor_columns(m, cap))


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
    as a zero.  ``seed`` must be a nonnegative ``int``, and ``attempts``
    and ``iterations`` positive ones (``bool`` excluded).
    """
    if not rels:
        raise DomainError("no relations to solve")
    for name, value, least in (("seed", seed, 0), ("attempts", attempts, 1),
                               ("iterations", iterations, 1)):
        if not _is_int(value) or value < least:
            raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")
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


#: The text of a monomial between its two parts, and after them.
_IM_TEXT = ',\n            "im": '
_END_TEXT = "\n          }\n        }"


def _template(exps: tuple[int, ...]) -> str:
    """The text of a monomial up to its real part."""
    return (
        f"        {{\n          \"exponents\": "
        f"{_ints_text(exps, '          ')},\n          \"coeff\": {{\n"
        f"            \"re\": "
    )


def _part_texts(parts: np.ndarray) -> list[str]:
    """Every float of ``parts`` as :mod:`json` writes it, each distinct magnitude formatted once.

    A magnitude is a part's bit pattern with the sign bit cleared.
    ``repr(-x)`` is ``"-" + repr(x)`` for every double but a NaN, ±0.0 and
    ±inf included, so a negative part is written as ``"-"`` and its
    magnitude's text; a NaN writes ``NaN`` whatever its sign.
    """
    mags, inverse = np.unique(parts.view(np.uint64) & np.uint64(2**63 - 1), return_inverse=True)
    texts = list(map(_float_text, mags.view(float).tolist()))
    table = np.array(texts + ["-" + text for text in texts], dtype=object)
    negative = np.signbit(parts) & ~np.isnan(parts)
    return table[inverse + len(texts) * negative].tolist()


def _minor_texts(lead: str, rows, bounds: list[int], templates: list[str],
                 re: list[str], im: list[str]) -> Iterator[str]:
    """The document's chunks: ``lead`` and the list's opening, one per minor, the close.

    Minor k's monomials are ``bounds[k]:bounds[k + 1]`` of ``templates``
    (each monomial's text up to its real part, a later one in its minor led
    by the ``,\\n`` between them) and of the part texts ``re`` and ``im``.
    """
    yield lead + "["
    sep = ""
    for subset, a, b in zip(rows, bounds, bounds[1:]):
        opening = (f"{sep}\n    {{\n      \"rows\": "
                   f"{_ints_text(subset, '      ')},\n      \"monomials\": ")
        sep = ","
        if a == b:
            yield opening + "[]\n    }"
            continue
        body = "".join(itertools.chain.from_iterable(zip(
            templates[a:b], re[a:b], itertools.repeat(_IM_TEXT), im[a:b],
            itertools.repeat(_END_TEXT))))
        yield f"{opening}[\n{body}\n      ]\n    }}"
    yield "\n  ]\n}"


def _minor_chunks(head: dict, columns: _MinorColumns) -> Iterator[str]:
    """The text of :func:`minors_document` in chunks: the head, then one per minor.

    It reads the minors as columns and writes no per-monomial Python value
    but the texts: one template per exponent tuple, and one text per
    distinct magnitude of a coefficient part (on trace 4, 7-18% of the
    parts).  The head and every text are written before this returns,
    so whatever raises does so before a caller opens its file.
    """
    lead = _head_text(head) + '  "minors": '
    if not columns.rows:
        return iter([lead + "[]\n}"])
    minor = columns.minor
    later = np.diff(minor, prepend=-1) == 0
    templates = [_template(exps) for exps in columns.exponents]
    table = np.array(templates + [",\n" + text for text in templates], dtype=object)
    texts = _part_texts(np.concatenate([columns.re, columns.im]))
    bounds = np.searchsorted(minor, np.arange(len(columns.rows) + 1)).tolist()
    return _minor_texts(lead, columns.rows, bounds,
                        table[columns.code + len(templates) * later].tolist(),
                        texts[:len(minor)], texts[len(minor):])


def _columns_of(minors) -> _MinorColumns:
    """:class:`MinorPoly` values gathered into columns, in their order."""
    minors = tuple(minors)
    codes: dict[tuple[int, ...], int] = {}
    monos = [mono for poly in minors for mono in poly.monomials]
    code = np.array([codes.setdefault(exps, len(codes)) for exps, _ in monos], dtype=np.int64)
    parts = np.array([cf for _, cf in monos], dtype=complex)
    return _MinorColumns(
        rows=[poly.rows for poly in minors],
        exponents=list(codes),
        minor=np.repeat(np.arange(len(minors)), [len(poly.monomials) for poly in minors]),
        code=code, re=parts.real, im=parts.imag,
    )


def minors_document(head: dict, minors) -> str:
    """``json.dumps({**head, "minors": minors_json(minors)}, indent=2)``, written directly.

    With ``indent`` set, :mod:`json` falls back to its pure-Python encoder,
    which spends as long on a trace-4 payload as the expansion does.  The
    minors have one fixed shape, so they are gathered into columns and
    written by the ``geom`` writer: each monomial from a template per
    exponent tuple and the texts of its parts, floats written by
    ``_float_text`` as :mod:`json` writes them, once per distinct magnitude.
    The ``head`` fields are written by
    :func:`rmtorus.presentation._head_text`, as a presentation's are; every
    ``head`` key must be a ``str`` (another raises :class:`DomainError`).
    """
    return "".join(_minor_chunks(head, _columns_of(minors)))
