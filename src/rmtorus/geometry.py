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

import functools
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .core import alpha
from .errors import CombinatorialCap, DomainError
from .presentation import Presentation, _complex_json, _float_text, _head_text, _ints_text
from .theta import _is_int

__all__ = [
    "BiformRelation",
    "LinearFormMatrix",
    "MinorColumns",
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

#: How many sparsity patterns keep their expansion plan (:func:`_plan`).  A
#: walk in tau along one trace reads one pattern.
_PLANS = 4

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


def _pattern(m: LinearFormMatrix) -> tuple[tuple, np.ndarray]:
    """The sparsity pattern of ``m`` and the scalars of its nonzero entries, in pattern order.

    The pattern is (c, n, per row the ``(col, var)`` pairs of its nonzero
    entries), all of the matrix that an expansion plan reads.  A row whose
    length is not c, or an entry whose variable index is not an ``int`` in
    1..c (``bool`` excluded), raises :class:`DomainError`.
    """
    c = m.n_vars
    rows, scalars = [], []
    for i, row in enumerate(m.entries, 1):
        if len(row) != c:
            raise DomainError(f"row {i}: {len(row)} entries, expected {c}")
        pairs = []
        for col, (cf, var) in enumerate(row):
            if not _is_int(var) or not 1 <= var <= c:
                raise DomainError(f"row {i}: variable index {var!r} is not an integer in 1..{c}")
            if cf != 0:
                pairs.append((col, var))
                scalars.append(complex(cf))
        rows.append(tuple(pairs))
    return (c, m.n_rows, tuple(rows)), np.array(scalars, dtype=complex)


def _row_scale(i: int, row) -> float:
    """Largest entry modulus of row ``i``; DomainError past the double range."""
    try:
        return max((abs(cf) for cf, _ in row), default=0.0)
    except OverflowError:
        raise DomainError(f"row {i}: an entry's modulus exceeds the double range") from None


class _Layout:
    """Every minor's row subset (1-based) and the exponent tuples, and the writer's texts."""

    def __init__(self, rows, exponents) -> None:
        self.rows = tuple(rows)
        self.exponents = tuple(exponents)

    @functools.cached_property
    def openings(self) -> tuple[str, ...]:
        """Each minor's text up to its monomials, a later one led by the comma between them."""
        return tuple(
            f"{',' if k else ''}\n    {{\n      \"rows\": "
            f"{_ints_text(subset, '      ')},\n      \"monomials\": "
            for k, subset in enumerate(self.rows)
        )

    @functools.cached_property
    def templates(self) -> np.ndarray:
        """Per exponent tuple its monomial's text up to the real part; then each led by ``,\\n``."""
        texts = [_template(exps) for exps in self.exponents]
        table = np.array(texts + [",\n" + text for text in texts], dtype=object)
        table.flags.writeable = False
        return table


@dataclass(frozen=True, eq=False)
class MinorColumns:
    """The kept monomials of a sequence of minors, one entry per monomial in each array.

    ``layout`` holds every minor's row subset and the exponent tuples, which
    :attr:`rows` and :attr:`exponents` hand out as new lists.  Monomial i
    belongs to minor ``minor[i]``, has the exponents ``exponents[code[i]]``
    and the coefficient ``complex(re[i], im[i])``.  The monomials run in
    minor order, so each minor's are one slice; a minor with no monomials
    has an empty slice.  Read as coordinates, the arrays are the sparse
    minors x monomials coefficient matrix.  ``len()`` is the number of
    minors, those with no monomials included.
    """

    layout: _Layout
    minor: np.ndarray
    code: np.ndarray
    re: np.ndarray
    im: np.ndarray

    def __len__(self) -> int:
        return len(self.layout.rows)

    @property
    def rows(self) -> list[tuple[int, ...]]:
        return list(self.layout.rows)

    @property
    def exponents(self) -> list[tuple[int, ...]]:
        return list(self.layout.exponents)

    def evaluate(self, x) -> np.ndarray:
        """Every minor's value at the point ``x``, as one complex array in minor order."""
        x = np.asarray(x, dtype=complex)
        exponents = np.array(self.layout.exponents, dtype=np.int64)
        if len(exponents) and x.shape != exponents.shape[1:]:
            raise DomainError(f"point of shape {x.shape}, expected ({exponents.shape[1]},)")
        terms = self.re + 1j * self.im
        for xi, column in zip(x, exponents.T):
            terms = terms * xi ** column[self.code]
        values = np.zeros(len(self), dtype=complex)
        np.add.at(values, self.minor, terms)
        return values


def _mapped(arrays: list[np.ndarray]) -> list[np.ndarray]:
    """Read-only copies of ``arrays``, all in one anonymous memory map.

    A plan lives as long as its cache entry.  Allocated in the malloc heap
    among the temporaries of its build, its arrays would keep the freed
    temporaries below them resident: in 20-s runs of the ``geom`` benchmark
    at seed 4, peak RSS read 64.6 MB twice with the arrays in the heap and
    58.6 MB twice with them mapped, the code otherwise the same.
    """
    import mmap  # here, not at import: only a plan build needs it

    sizes = [-(-a.nbytes // 8) * 8 for a in arrays]  # each view 8-byte aligned
    buffer = np.frombuffer(mmap.mmap(-1, max(sum(sizes), 1)), dtype=np.uint8)
    out, start = [], 0
    for array, size in zip(arrays, sizes):
        view = buffer[start : start + array.nbytes].view(array.dtype).reshape(array.shape)
        view[...] = array
        view.flags.writeable = False
        out.append(view)
        start += size
    return out


#: States or terms per numpy pass of :meth:`_Plan.columns`; it bounds the
#: temporaries of a pass to about 1 MB.
_CHUNK = 1 << 14


def _extended(re, im, cf_re, cf_im, parent, entry) -> tuple[np.ndarray, np.ndarray]:
    """Each state's product: its parent's times its entry's scalar, part by part."""
    out_re, out_im = np.empty(len(parent)), np.empty(len(parent))
    for lo in range(0, len(parent), _CHUNK):
        part = slice(lo, lo + _CHUNK)
        sr, si = re[parent[part]], im[parent[part]]
        cr, ci = cf_re[entry[part]], cf_im[entry[part]]
        out_re[part] = sr * cr - si * ci
        out_im[part] = sr * ci + si * cr
    return out_re, out_im


class _Plan:
    """The value-free part of the expansion of every c x c minor of one sparsity pattern.

    ``steps`` holds per row prefix length 1..c-1, and then for the last row,
    the (parent, entry) of every partial expansion: the state it extends and
    the nonzero entry (numbered in row, then column order) it multiplies in.
    Each last-row term has its permutation's parity (``odd``) and its
    monomial (``bucket``).  The monomials run per last row, ascending by
    (prefix, exponent code); a run is one minor's, its ``first`` monomial,
    the monomial its first term ``inserted``, its ``size``, its subset's
    lexicographic ``rank`` and rows (``run_rows``, 0-based).  ``order`` is the
    stable sort of the monomials by rank and ``code`` each monomial's index
    in ``layout.exponents``, every exponent tuple the expansion reaches.
    The arrays are read-only and share one memory map (:func:`_mapped`).
    """

    def __init__(self, pattern) -> None:
        c, n, rows = pattern
        width = (c + 1) ** c
        full = (1 << c) - 1
        entries = [(col, var) for row in rows for col, var in row]
        start = np.cumsum([0] + [len(row) for row in rows]).tolist()
        # an entry's column bit, every column right of it, and the step it
        # adds to the exponent code (base c+1, variable 1 most significant,
        # so the codes order like the exponent tuples)
        bit = np.array([1 << col for col, _ in entries], dtype=np.int64)
        above = np.array([full & ~((2 << col) - 1) for col, _ in entries], dtype=np.int64)
        step = np.array([(c + 1) ** (c - var) for _, var in entries], dtype=np.int64)
        small = np.min_scalar_type(max(len(entries) - 1, 0))
        parity = np.zeros(1 << c, dtype=bool)
        for i in range(c):
            parity[1 << i : 2 << i] = ~parity[: 1 << i]
        # the states of every row prefix of one length; prefixes in order of
        # their last row, so those ending below a row, and their states, lead
        prefixes, last = [()], np.array([-1])
        prefix = used = code = np.zeros(1, dtype=np.int64)
        odd = np.zeros(1, dtype=bool)

        def extend(below: int, r: int):
            """The states of the prefixes numbered below ``below``, extended by row r's entries."""
            parent, entry = np.nonzero(
                (used[: np.searchsorted(prefix, below), None] & bit[start[r] : start[r + 1]]) == 0)
            entry += start[r]
            was = used[parent]
            return (parent.astype(np.int32), entry.astype(small), prefix[parent], was | bit[entry],
                    code[parent] + step[entry], odd[parent] ^ parity[was & above[entry]])

        steps = []
        for length in range(1, c):
            longer, ends, pieces = [], [], []
            for r in range(length - 1, n - c + length):
                below = int(np.searchsorted(last, r))
                parent, entry, owner, *rest = extend(below, r)
                pieces.append((parent, entry, owner + len(longer), *rest))
                longer += [p + (r,) for p in prefixes[:below]]
                ends.append(np.full(below, r))
            prefixes, last = longer, np.concatenate(ends)
            parent, entry, prefix, used, code, odd = map(np.concatenate, zip(*pieces))
            steps += [parent, entry]
        subsets = list(itertools.combinations(range(n), c))
        rank = {subset: i for i, subset in enumerate(subsets)}
        pieces, buckets = [], 0
        for r in range(c - 1, n):
            parent, entry, owner, _, code_r, odd_r = extend(int(np.searchsorted(last, r)), r)
            if not len(parent):
                continue
            keys, inverse = np.unique(owner * width + code_r, return_inverse=True)
            run_owner, keys = np.divmod(keys, width)
            first = np.flatnonzero(np.r_[True, run_owner[1:] != run_owner[:-1]])
            # a prefix's terms are one run too, in insertion order
            inserted = inverse[np.flatnonzero(np.r_[True, owner[1:] != owner[:-1]])]
            ranks = [rank[prefixes[p] + (r,)] for p in run_owner[first].tolist()]
            pieces.append((parent, entry, odd_r, (inverse + buckets).astype(np.int32),
                           first + buckets, inserted + buckets, ranks, keys))
            buckets += len(keys)
        if not pieces:  # no row subset has a permutation
            empty = np.zeros(0, dtype=np.int32)
            pieces.append((empty, empty.astype(small), np.zeros(0, dtype=bool), *[empty] * 5))
        parent, entry, odd, bucket, first, inserted, ranks, keys = map(np.concatenate, zip(*pieces))
        steps += [parent, entry]
        size = np.diff(np.r_[first, buckets])
        codes, index = np.unique(keys, return_inverse=True)
        arrays = _mapped([
            *steps, odd, bucket, *(a.astype(np.int32) for a in (first, inserted, size, ranks)),
            np.array(subsets, dtype=np.int64).reshape(-1, c)[ranks].astype(
                np.min_scalar_type(max(n - 1, 0))),
            np.argsort(np.repeat(ranks, size), kind="stable").astype(np.int32),
            index.astype(np.min_scalar_type(max(len(codes) - 1, 0))),
        ])
        self.steps = tuple(zip(arrays[: len(steps) : 2], arrays[1 : len(steps) : 2]))
        (self.odd, self.bucket, self.first, self.inserted, self.size, self.rank, self.run_rows,
         self.order, self.code) = arrays[len(steps) :]
        digits = (c + 1) ** np.arange(c - 1, -1, -1)
        self.layout = _Layout(
            (tuple(i + 1 for i in subset) for subset in subsets),
            map(tuple, (codes[:, None] // digits % (c + 1)).tolist()),
        )

    def columns(self, scalars: np.ndarray, row_scales: list[float]) -> MinorColumns:
        """The kept monomials of the minors whose nonzero entries are ``scalars``.

        Every term is ``sign * (((1.0 * cf_0) * cf_1) * ...)``, its products
        formed part by part as Python forms them (numpy's complex product
        fuses them and differs in the last bit), and each monomial sums its
        terms from 0 in lexicographic permutation order.  A minor's monomials
        are pruned against its largest one, and a minor whose largest is
        negligible against the product of its rows' scales keeps none.
        """
        cf_re, cf_im = scalars.real, scalars.imag
        re, im = np.ones(1), np.zeros(1)
        *levels, (parent, entry) = self.steps
        for level in levels:
            re, im = _extended(re, im, cf_re, cf_im, *level)
        acc_re = np.zeros(len(self.order))
        acc_im = np.zeros(len(self.order))
        for lo in range(0, len(parent), _CHUNK):
            part = slice(lo, lo + _CHUNK)
            pr, pi = _extended(re, im, cf_re, cf_im, parent[part], entry[part])
            # sign * product as Python's int * complex forms it
            sign = np.where(self.odd[part], -1.0, 1.0)
            if _PADDED_INT_PRODUCT:
                pr, pi = sign * pr - 0.0 * pi, sign * pi + 0.0 * pr
            else:
                pr, pi = sign * pr, sign * pi
            # unbuffered, in term order: the reference's sequential sums
            np.add.at(acc_re, self.bucket[part], pr)
            np.add.at(acc_im, self.bucket[part], pi)
        mags = np.hypot(acc_re, acc_im)
        # Python's max() over insertion order skips a nan unless it comes first
        top = np.fmax.reduceat(mags, self.first)
        top[np.isnan(mags[self.inserted])] = np.nan
        scales = np.array(row_scales)
        subset_scale = np.ones(len(self.rank))
        for column in self.run_rows.T:
            subset_scale = subset_scale * scales[column]
        live = ~(top <= MINOR_PRUNE_REL * np.maximum(subset_scale, 1e-300))
        keep = np.repeat(live, self.size) & (mags > MINOR_PRUNE_REL * np.repeat(top, self.size))
        # the stable sort by rank, restricted to the kept monomials
        kept = self.order[keep[self.order]]
        return MinorColumns(
            layout=self.layout,
            minor=np.repeat(self.rank.astype(np.int64), self.size)[kept],
            code=self.code[kept].astype(np.intp),
            re=acc_re[kept], im=acc_im[kept],
        )


@functools.lru_cache(maxsize=_PLANS)
def _plan(pattern) -> _Plan:
    """The expansion plan of a sparsity pattern, kept for the last ``_PLANS`` patterns."""
    return _Plan(pattern)


@np.errstate(over="ignore", invalid="ignore")  # as quiet as Python's float arithmetic
def _minor_columns(m: LinearFormMatrix, cap: int) -> MinorColumns:
    """The kept monomials of every c x c minor, as columns in lexicographic subset order.

    Each minor is the permutation expansion of its determinant, one row at a
    time: the partial expansions of every row prefix are built once, a whole
    level of prefixes per numpy pass.  Which entries each partial expansion
    multiplies, its permutation's parity and the monomial each term adds
    to depend on the sparsity pattern alone, so they are a :class:`_Plan`,
    built once per pattern; a call gathers, multiplies, sums and prunes
    (:meth:`_Plan.columns`), in Python's complex arithmetic to the bit.
    Each minor's monomials ascend by exponent tuple (``exponents`` ascends
    too and holds every exponent tuple of the expansion, kept or not).
    Monomials are keyed by 64-bit integers, which bounds ``count * (c+1)**c``.
    Every check raises before a plan is built or read.
    """
    if not _is_int(cap) or cap < 0:
        raise DomainError(f"cap must be a nonnegative integer, got {cap!r}")
    c = m.n_vars
    if not _is_int(c) or c < 1:
        raise DomainError(f"n_vars must be a positive integer, got {c!r}")
    n = m.n_rows
    count = math.comb(n, c)
    if count > cap:
        raise CombinatorialCap(
            f"binomial({n}, {c}) = {count} minors exceeds cap {cap}"
        )
    if count * (c + 1) ** c >= 2**63:
        raise CombinatorialCap(f"{count} minors of {c} columns exceed 64-bit monomial keys")
    pattern, scalars = _pattern(m)
    if not count:  # fewer rows than columns
        empty = np.zeros(0)
        return MinorColumns(_Layout((), ()), empty.astype(np.int64), empty.astype(np.intp),
                            empty, empty)
    row_scales = [_row_scale(i, row) for i, row in enumerate(m.entries, 1)]
    return _plan(pattern).columns(scalars, row_scales)


def minor_equations(m: LinearFormMatrix, cap: int = MINOR_CAP) -> MinorColumns:
    """All c x c minors of the linear-form matrix as degree-c polynomials, as columns.

    Row subsets come in lexicographic order and each minor's monomials
    ascend by exponent tuple.  The expansion, its pruning and its limits are
    those of ``_minor_columns``; a minor that keeps no monomials still
    counts, so ``len()`` of the result is the binomial exactly.  ``cap``
    must be a nonnegative ``int`` and ``n_vars`` a positive one (``bool``
    excluded), and every row must hold ``n_vars`` entries whose variable
    indices are ``int`` values in 1..``n_vars``; otherwise
    :class:`DomainError`.
    """
    # ``geom`` calls ``_minor_columns``, not this: bench/run.py traces this
    # function and reads its result as per-minor objects with ``.monomials``
    return _minor_columns(m, cap)


def _norm(vec) -> float:
    return float(np.linalg.norm(np.asarray(vec, dtype=complex)))


def _largest_slot(rels) -> int:
    """The largest slot index that a relation of ``rels`` reads, 0 if none."""
    return max((max(s1, s2) for rel in rels for s1, s2, _ in rel.coefficients), default=0)


def graph_member(rels, u, v, tol: float = 1e-6) -> bool:
    """True iff every bilinear relation vanishes at (u, v) to relative tol.

    ``u`` and ``v`` must be nonzero finite points of one length, at least
    the largest slot index of ``rels``; otherwise :class:`DomainError`.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.ndim != 1 or u.shape != v.shape:
        raise DomainError(f"u and v must be points of one length, got shapes "
                          f"{u.shape} and {v.shape}")
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise DomainError("projective points must be finite")
    if _norm(u) == 0.0 or _norm(v) == 0.0:
        raise DomainError("projective points must be nonzero")
    slot = _largest_slot(rels)
    if slot > len(u):
        raise DomainError(f"a relation reads slot {slot} of points of length {len(u)}")
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
    as a zero.  ``seed`` must be a nonnegative ``int``, ``attempts`` and
    ``iterations`` positive ones, and ``n_vars`` a positive one no smaller
    than the largest slot index of ``rels`` (``bool`` excluded).
    """
    if not rels:
        raise DomainError("no relations to solve")
    for name, value, least in (("seed", seed, 0), ("attempts", attempts, 1),
                               ("iterations", iterations, 1),
                               ("n_vars", n_vars, max(1, _largest_slot(rels)))):
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


def minors_json(minors: MinorColumns) -> list:
    """JSON-ready list of minors: row subsets plus sparse monomial expansions.

    One dict per monomial, grouped per minor: the ``json.dumps`` reference
    that the text of :func:`minors_document` is checked against.
    """
    exponents = minors.layout.exponents
    monomials = [
        {"exponents": list(exponents[k]), "coeff": _complex_json(complex(re, im))}
        for k, re, im in zip(minors.code.tolist(), minors.re.tolist(), minors.im.tolist())
    ]
    bounds = np.searchsorted(minors.minor, np.arange(len(minors) + 1)).tolist()
    return [{"rows": list(rows), "monomials": monomials[a:b]}
            for rows, a, b in zip(minors.layout.rows, bounds, bounds[1:])]


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


def _part_texts(re: np.ndarray, im: np.ndarray) -> tuple[list[str], list[str]]:
    """Every float of ``re`` and of ``im`` as :mod:`json` writes it, each distinct magnitude once.

    A magnitude is a part's bit pattern with the sign bit cleared.
    ``repr(-x)`` is ``"-" + repr(x)`` for every double but a NaN, ±0.0 and
    ±inf included, so a negative part is written as ``"-"`` and its
    magnitude's text; a NaN writes ``NaN`` whatever its sign.  The two
    lists are made one after the other, so one part's object array is
    held at a time.
    """
    parts = np.concatenate([re, im])
    mags, inverse = np.unique(parts.view(np.uint64) & np.uint64(2**63 - 1), return_inverse=True)
    texts = list(map(_float_text, mags.view(float).tolist()))
    table = np.array(texts + ["-" + text for text in texts], dtype=object)
    index = inverse + len(texts) * (np.signbit(parts) & ~np.isnan(parts))
    return table[index[: len(re)]].tolist(), table[index[len(re) :]].tolist()


def _minor_texts(lead: str, openings, bounds: list[int], templates: list[str],
                 re: list[str], im: list[str]) -> Iterator[str]:
    """The document's chunks: ``lead`` and the list's opening, one per minor, the close.

    Minor k opens with ``openings[k]`` (:attr:`_Layout.openings`) and its
    monomials are ``bounds[k]:bounds[k + 1]`` of ``templates`` (each
    monomial's text up to its real part, a later one in its minor led by the
    ``,\\n`` between them) and of the part texts ``re`` and ``im``.
    """
    yield lead + "["
    for opening, a, b in zip(openings, bounds, bounds[1:]):
        if a == b:
            yield opening + "[]\n    }"
            continue
        body = "".join(itertools.chain.from_iterable(zip(
            templates[a:b], re[a:b], itertools.repeat(_IM_TEXT), im[a:b],
            itertools.repeat(_END_TEXT))))
        yield f"{opening}[\n{body}\n      ]\n    }}"
    yield "\n  ]\n}"


def _minor_chunks(head: dict, columns: MinorColumns) -> Iterator[str]:
    """The text of :func:`minors_document` in chunks: the head, then one per minor.

    It reads the minors as columns and writes no per-monomial Python value
    but the texts: one template per exponent tuple, and one text per
    distinct magnitude of a coefficient part (on trace 4, 7-18% of the
    parts).  The head and every text are written before this returns,
    so whatever raises does so before a caller opens its file.
    """
    lead = _head_text(head) + '  "minors": '
    layout = columns.layout
    if not layout.rows:
        return iter([lead + "[]\n}"])
    minor = columns.minor
    later = np.diff(minor, prepend=-1) == 0
    re, im = _part_texts(columns.re, columns.im)
    bounds = np.searchsorted(minor, np.arange(len(layout.rows) + 1)).tolist()
    return _minor_texts(lead, layout.openings, bounds,
                        layout.templates[columns.code + len(layout.exponents) * later].tolist(),
                        re, im)


def minors_document(head: dict, minors: MinorColumns) -> str:
    """``json.dumps({**head, "minors": minors_json(minors)}, indent=2)``, written directly.

    With ``indent`` set, :mod:`json` falls back to its pure-Python encoder,
    which spends as long on a trace-4 payload as the expansion does.  The
    minors have one fixed shape, so this is the text of the ``geom`` writer:
    each monomial from a template per exponent tuple and the texts of its
    parts, floats written by ``_float_text`` as :mod:`json` writes them,
    once per distinct magnitude.  The ``head`` fields are written by
    :func:`rmtorus.presentation._head_text`, as a presentation's are; every
    ``head`` key must be a ``str`` (another raises :class:`DomainError`).
    """
    return "".join(_minor_chunks(head, minors))
