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
from .presentation import Presentation, _complex_json, _float_text, _ints_text

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


@np.errstate(over="ignore", invalid="ignore")  # as quiet as Python's float arithmetic
def minor_equations(m: LinearFormMatrix, cap: int = MINOR_CAP) -> tuple[MinorPoly, ...]:
    """All c x c minors of the linear-form matrix as degree-c polynomials.

    Row subsets are enumerated in lexicographic order.  Each minor is the
    permutation expansion of its determinant, one row at a time: the partial
    expansions of every row prefix are built once, a whole level of prefixes
    per numpy pass, and the last row is added one row index at a time, so
    only one slice of the terms is held at once.  Every term is
    ``sign * (((1.0 * cf_0) * cf_1) * ...)`` and each monomial sums its
    terms from 0 in lexicographic permutation order, in Python's complex
    arithmetic to the bit.  Each minor's monomials are pruned relative to
    its own largest coefficient; a minor whose largest coefficient is
    negligible against the row-scale product (a Hadamard-style bound) is
    emitted with no monomials rather than dropped.  Monomials are keyed by
    64-bit integers, which bounds ``count * (c+1)**c``.
    """
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
    digits = (c + 1) ** np.arange(c - 1, -1, -1)
    found: dict[tuple[int, ...], tuple] = {}
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
        if not len(kept):
            continue
        codes, which = np.unique(code[kept], return_inverse=True)
        exps = list(map(tuple, (codes[:, None] // digits % (c + 1)).tolist()))
        monos = list(zip(map(exps.__getitem__, which.tolist()),
                         map(complex, acc_re[kept].tolist(), acc_im[kept].tolist())))
        owners = owner[kept]
        bounds = np.flatnonzero(np.r_[True, owners[1:] != owners[:-1], True]).tolist()
        for a, b in zip(bounds, bounds[1:]):
            found[prefixes[owners[a]] + (r,)] = tuple(monos[a:b])
    return tuple(
        MinorPoly(rows=tuple(i + 1 for i in subset), monomials=found.get(subset, ()))
        for subset in itertools.combinations(range(n), c)
    )


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


class _Templates(dict):
    """The text of a monomial up to its real part, one per exponent tuple."""

    def __missing__(self, exps: tuple[int, ...]) -> str:
        text = self[exps] = (
            f"        {{\n          \"exponents\": "
            f"{_ints_text(exps, '          ')},\n          \"coeff\": {{\n"
            f"            \"re\": "
        )
        return text


def minors_document(head: dict, minors) -> str:
    """``json.dumps({**head, "minors": minors_json(minors)}, indent=2)``, written directly.

    With ``indent`` set, :mod:`json` falls back to its pure-Python encoder,
    which spends as long on a trace-4 payload as the expansion does.  The
    minors have one fixed shape, so each minor's monomials are written in one
    pass from a template per exponent tuple, with floats written by
    ``float.__repr__`` as :mod:`json` writes them (``_float_text`` only in a
    minor that holds a non-finite value).  The small ``head`` values go
    through :func:`json.dumps`.
    """
    fields = [
        f"  {json.dumps(key)}: " + json.dumps(value, indent=2).replace("\n", "\n  ")
        for key, value in head.items()
    ]
    templates = _Templates()
    parts = []
    for poly in minors:
        parts.append(
            f"{',' if parts else ''}\n    {{\n      \"rows\": "
            f"{_ints_text(poly.rows, '      ')},\n      \"monomials\": "
        )
        monos = poly.monomials
        if not monos:
            parts.append("[]\n    }")
            continue
        re = [cf.real for _, cf in monos]
        im = [cf.imag for _, cf in monos]
        text = (float.__repr__ if all(map(math.isfinite, re)) and all(map(math.isfinite, im))
                else _float_text)
        body = ",\n".join([
            f'{templates[exps]}{x},\n            "im": {y}\n          }}\n        }}'
            for (exps, _), x, y in zip(monos, map(text, re), map(text, im))
        ])
        parts.append(f"[\n{body}\n      ]\n    }}")
    lead = "{\n" + "".join(field + ",\n" for field in fields) + '  "minors": '
    return "".join([lead, "[", *parts, "\n  ]\n}"]) if parts else lead + "[]\n}"
