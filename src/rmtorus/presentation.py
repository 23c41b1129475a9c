"""Quadratic presentations of the graded coordinate ring.

For validated data ``rm`` and a point ``tau``, each label mu in {1..c}
contributes c - (a+d) quadratic relations whose coefficient vectors span the
kernel of the block matrix from :func:`rmtorus.core.block_M`.  All c blocks
at tau are gathered from one level row into one (c, a+d, c) stack, and their
kernels come from one batched pass over it; :func:`kernel_basis`,
:func:`kernel_pivots` and :func:`minor_F` run the same code on a stack of
one block.

* A first-fit Gram-Schmidt scan picks a+d pivot columns per block, so the
  construction stays valid where the leading columns degenerate.  It walks
  the columns once for all blocks, in complex doubles at every precision,
  and projects each column twice (one reorthogonalization), which keeps
  every accept decision decades away from ``PIVOT_RESIDUAL_REL``.
* With B the pivot submatrix, each kernel vector is det(B) (B^-1 c_q at the
  pivots, -1 at its free column q): the Cramer-minor vector, without its
  (c-a-d)(a+d+1) determinants.  In double, det(B) and B^-1 F come from
  LAPACK on the stacked pivot blocks.  In mpmath one batched elimination of
  [B | F] with partial pivoting and one back-substitution give them, each
  block with the operations of the one-block elimination in the same order.
* Every other vector is 0 at q, so the vectors are independent exactly when
  each keeps its entry at q; the rank check is that entry's share of the
  vector's largest, against ``core.RANK_CUTOFF``, next to an annihilation
  check.  A batch raises :class:`RankDeficient` for its lowest failing mu,
  with the first check a loop over the blocks would fail.
* Both checks, and the pruning of :func:`relations`, read complex128 copies
  of the blocks and vectors.  At ``dps`` a decision is taken again on the
  values only where the copy's rounding could move it: within a band around
  its threshold, or out of the copy's range.  The thresholds sit far above
  double rounding, so that is rare, and every decision is the one at ``dps``.

Four normalizations of the same ideal are provided:

* ``raw``       - determinant coefficients as computed;
* ``rational``  - every coefficient divided by theta[0](0, l tau)^(a+d),
                  real on the imaginary axis;
* ``modular``   - the raw coefficients, which at the even levels it accepts
                  (even a+d only) are weight-w forms for the level group;
* ``monic``     - monomial slots transposed, terms sorted decreasingly, each
                  relation divided by its leading coefficient (the input order
                  for Groebner completion).

The kernel vectors and determinants are computed in complex doubles by
default and in mpmath arithmetic at ``dps`` digits when ``dps`` is given,
whatever the ambient mpmath precision; the pivot scan reads the blocks'
double copy either way.  Downstream Groebner completion
requires the high-precision path to keep spurious leading terms out.  A
presentation carries its ``dps``, and the normalizations run at it.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass, replace
from itertools import compress
from typing import TYPE_CHECKING

import mpmath as mp
import numpy as np

from .core import RANK_CUTOFF, RMData, _block, _block_data, _blocks_at, _level_row, block_M
from .errors import (
    DegenerateProbe,
    DomainError,
    LeadingCoeffBelowThreshold,
    OddLevel,
    RankDeficient,
)
from .theta import _check_dps, theta_constant

if TYPE_CHECKING:
    from .modsym import GroupSpec

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
    """A full set of c(c-a-d) quadratic relations in one normalization.

    ``dps`` is the precision :func:`relations` computed the coefficients at,
    None in double.  An average (:func:`rmtorus.modsym.averaged_relations`)
    has no ``tau`` or ``dps`` but a ``group``, ``scale`` and ``quadrature_error``.
    """

    rm: RMData
    tau: complex | None
    normalization: str
    relations: tuple[Relation, ...]
    dps: int | None = None
    group: GroupSpec | None = None
    scale: float | None = None
    quadrature_error: float | None = None

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
# batched helpers shared by the double and mpmath paths
# ---------------------------------------------------------------------------


def _at(dps: int | None):
    """mpmath working precision ``dps``; none in double.  ``dps`` must be a positive int."""
    _check_dps(dps)
    return contextlib.nullcontext() if dps is None else mp.workdps(dps)


def _norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis."""
    return np.sqrt(np.sum(np.abs(a) ** 2, axis=-1))


#: Range in which a double-precision magnitude is used as it is.  Inside it the
#: bands of relative width :func:`_band` stay normal doubles.
_CHEAP_RANGE = (2.0**-1000, 2.0**1000)

#: Range of the double norms 1e-9 |B| and |v| in which the checks read the
#: copies: no square in a norm, or in a residual near its bound, leaves the
#: normal doubles, and neither does |v_q| at a margin near RANK_CUTOFF.
_NORM_RANGE = (2.0**-200, 2.0**200)

_MPC_ZERO = mp.mpc(0)._mpc_


def _unit() -> float:
    """Unit roundoff of the coarser of double and the working precision."""
    return 2.0 ** -min(mp.mp.prec, 53)


def _band() -> float:
    """Relative width of the band around a threshold in which a double magnitude decides nothing.

    It and ``float(abs(c))`` differ by a few units of the coarser precision;
    the band leaves 10 bits on top of that.
    """
    return 2.0**10 * _unit()


def _within(x: np.ndarray, bounds: tuple[float, float]) -> np.ndarray:
    """Where ``x`` lies in the closed range ``bounds`` (never where it is nan)."""
    return (bounds[0] <= x) & (x <= bounds[1])


def _magnitude(c) -> float:
    """``float(abs(c))``, or a double within a few ulps of it.

    For an mpmath complex the two parts are read from ``_mpc_`` as
    ``ldexp(man, exp)`` and joined by ``math.hypot``.  A special part (nan,
    inf), a value outside ``_CHEAP_RANGE`` and any other type take the exact
    route, which for a Python complex costs no more.
    """
    parts = getattr(c, "_mpc_", None)
    if parts is not None:
        (_, man_re, exp_re, _), (_, man_im, exp_im, _) = parts
        # a special mpf has a zero mantissa and a nonzero exponent
        if (man_re or not exp_re) and (man_im or not exp_im):
            try:
                mag = math.hypot(math.ldexp(man_re, exp_re), math.ldexp(man_im, exp_im))
            except OverflowError:
                mag = 0.0
            if _CHEAP_RANGE[0] <= mag <= _CHEAP_RANGE[1]:
                return mag
    return float(abs(c))


def _eliminate(rows: np.ndarray):
    """Gaussian elimination with partial pivoting on a stack of mpmath matrices.

    ``rows`` is (n, r, m) with m >= r; each matrix takes its pivots from its
    leading r columns, and every elimination step runs across all m.
    Returns the eliminated copy (upper triangular on each leading square,
    the trailing columns carried along) and the leading squares'
    determinants.  A matrix whose pivot column is exactly 0 stops there,
    unfinished, with determinant exactly 0.  Each matrix sees the mpmath
    operations of the one-matrix loop in the same order, so its bits do not
    depend on the rest of the stack.
    """
    mat = np.array(rows, dtype=object)
    n, r, _ = mat.shape
    det = np.full(n, mp.mpc(1), dtype=object)
    sign = np.ones(n, dtype=int)
    live = np.arange(n)
    for k in range(r):
        size = np.abs(mat[live, k:, k])
        piv = np.argmax(size, axis=1)  # the first largest, as max() takes it
        zero = size[np.arange(live.size), piv] == 0
        det[live[zero]] = mp.mpc(0)
        live, piv = live[~zero], piv[~zero] + k
        moved = piv != k
        b, p = live[moved], piv[moved]
        mat[b, k], mat[b, p] = mat[b, p], mat[b, k]
        sign[b] = -sign[b]
        det[live] = det[live] * mat[live, k, k]
        f = mat[live, k + 1:, k] / mat[live, k, k][:, None]
        mat[live, k + 1:, k + 1:] = (
            mat[live, k + 1:, k + 1:] - f[:, :, None] * mat[live, k, k + 1:][:, None, :]
        )
    det[live] = det[live] * sign[live]
    return mat, det


def _det(stack: np.ndarray, dps: int | None) -> np.ndarray:
    """Determinants of a stack of square matrices: LAPACK in double, else :func:`_eliminate`."""
    if dps is None:
        return np.linalg.det(stack)
    return _eliminate(stack.reshape(-1, *stack.shape[-2:]))[1].reshape(stack.shape[:-2])


def _solve(pivot_blocks: np.ndarray, free_cols: np.ndarray, dps: int | None):
    """det(B) and B^-1 F for each stacked pair (B, F), with B^-1 F = 0 where det(B) = 0.

    In double both come from LAPACK.  In mpmath one elimination of [B | F]
    gives both, and the back-substitution runs over every column of F at
    once, each entry summed as ``sum()`` sums it.
    """
    if dps is None:
        det = np.linalg.det(pivot_blocks)
        live = det != 0
        if live.all():
            return det, np.linalg.solve(pivot_blocks, free_cols)
        x = np.zeros_like(free_cols)
        if live.any():
            x[live] = np.linalg.solve(pivot_blocks[live], free_cols[live])
        return det, x
    t = pivot_blocks.shape[1]
    upper, det = _eliminate(np.concatenate([pivot_blocks, free_cols], axis=2))
    x = np.empty(free_cols.shape, dtype=object)
    x[...] = (det * 0)[:, None, None]
    live = np.flatnonzero(det != 0)
    u, xl = upper[live], x[live]
    for i in reversed(range(t)):
        known = 0
        for j in range(i + 1, t):
            known = known + u[:, i, j, None] * xl[:, j]
        xl[:, i] = (u[:, i, t:] - known) / u[:, i, i, None]
    x[live] = xl
    return det, x


def _pivot_scan(blocks: np.ndarray, t: int):
    """First-fit pivot columns of every (t, c) block of a complex128 stack.

    The columns are taken in order across all blocks at once.  Each is
    projected off its block's accepted columns twice, classical Gram-Schmidt
    with one reorthogonalization, and a block accepts it when the residual
    exceeds PIVOT_RESIDUAL_REL of its norm, until it holds t.  The second
    pass takes the first pass's rounding out of the residual of a dependent
    column, so the accept decisions sit far from the threshold.  Returns the
    1-based pivots (n, t), 0 past the last found, and the count per block.
    """
    n, _, c = blocks.shape
    basis = np.zeros((n, t, t), dtype=complex)  # accepted unit columns, zero-padded
    pivots = np.zeros((n, t), dtype=int)
    count = np.zeros(n, dtype=int)
    orig = _norms(np.swapaxes(blocks, 1, 2))
    for j in range(c):
        v = blocks[:, :, j, None]
        adjoint = np.conj(np.swapaxes(basis, 1, 2))
        for _ in range(2):
            v = v - basis @ (adjoint @ v)
        resid = _norms(v[..., 0])
        b = np.flatnonzero((count < t) & (resid > PIVOT_RESIDUAL_REL * orig[:, j]))
        basis[b, :, count[b]] = v[b, :, 0] / resid[b, None]
        pivots[b, count[b]] = j + 1
        count[b] += 1
        if (count == t).all():
            break
    return pivots, count


def _free_columns(pivots: tuple[int, ...], c: int) -> tuple[int, ...]:
    """The 1-based columns outside the pivots, ascending: k-th is relation k's."""
    return tuple(q for q in range(1, c + 1) if q not in pivots)


def _raise_first(failures: dict[int, str]) -> None:
    """Raise the failure of the lowest mu, as a loop over the blocks meets it first."""
    if failures:
        raise RankDeficient(failures[min(failures)])


def _pivoted(rm: RMData, index: np.ndarray, mus, tau: complex, dps):
    """The blocks ``mus`` at tau, stacked, their complex128 copy, pivots and failures by mu.

    ``index`` stacks the blocks' index arrays.  The pivots are scanned on
    the copy, also at ``dps``.  Each failing block keeps the first check it
    fails: the rank check, then the pivot count.
    """
    blocks, doubles, failures = _blocks_at(rm, index, mus, tau, _level_row(rm, tau, dps))
    pivots, count = _pivot_scan(doubles, rm.trace)
    for mu, found in zip(mus, count.tolist()):
        if found != rm.trace:
            failures.setdefault(
                mu, f"only {found} independent columns found for mu={mu} at tau={tau}"
            )
    return blocks, doubles, pivots, failures


def _cramer_vectors(det, x, pivots, free, c: int) -> np.ndarray:
    """Vector k of each block: det(B) x_k at the pivots, -det(B) at free column k, else 0.

    ``pivots`` and ``free`` hold 0-based columns; the result is (n, c-(a+d), c).
    """
    n, nf = free.shape
    vectors = np.empty((n, nf, c), dtype=x.dtype)
    vectors[...] = (det * 0)[:, None, None]
    b, k = np.arange(n)[:, None], np.arange(nf)[None, :]
    vectors[b[:, :, None], k[:, :, None], pivots[:, None, :]] = np.swapaxes(
        det[:, None, None] * x, 1, 2
    )
    vectors[b, k, free] = -det[:, None]
    return vectors


def _margins(size: np.ndarray, free: np.ndarray) -> np.ndarray:
    """Free-column margins |v_q| / max|v| of each vector, from its magnitudes ``size``."""
    n, nf, _ = size.shape
    top = size.max(axis=2)  # at least |v_q| = |det(B)|, so 0 only where det(B) is
    held = size[np.arange(n)[:, None], np.arange(nf)[None, :], free]
    return held / np.where(top != 0, top, 1)


def _annihilation(blocks: np.ndarray, vectors: np.ndarray):
    """Residuals |Bv|, the scales 1e-9 |B| (Frobenius) and the lengths |v|, as doubles.

    A vector fails when its residual exceeds scale * length.
    """
    n, t, c = blocks.shape
    resid = _norms(np.swapaxes(blocks @ np.swapaxes(vectors, 1, 2), 1, 2)).astype(float)
    scale = 1e-9 * _norms(blocks.reshape(n, t * c)).astype(float)
    return resid, scale, _norms(vectors).astype(float)


def _checks(blocks: np.ndarray, doubles: np.ndarray, vectors: np.ndarray, free: np.ndarray):
    """The rank and annihilation checks of every kernel vector of a stack of blocks.

    ``doubles`` is the blocks' complex128 copy and ``free`` the 0-based free
    column of each vector.  Returns which vectors fail the rank check
    (``narrow``) and the annihilation check (``loose``), the free-column
    margins and the magnitudes of the vectors' complex128 copy.

    Both checks read the copies.  For mpmath vectors, a block is checked
    again on its values when one of its vectors fails, sits within the band
    (:func:`_band`) of RANK_CUTOFF or within the rounding bound of the
    annihilation bound, or lies outside the range where the copy decides:
    the decisions and the margins of failing blocks are those at the
    working precision.
    """
    copy = np.asarray(vectors, dtype=complex)  # the vectors themselves in double
    size = np.abs(copy)
    margin = _margins(size, free)
    resid, scale, lengths = _annihilation(doubles, copy)
    bound = scale[:, None] * lengths
    narrow, loose = margin < RANK_CUTOFF, resid > bound
    if vectors.dtype == object:
        eps, c = _band(), blocks.shape[2]
        near = (
            (margin * (1 + eps) >= RANK_CUTOFF) & (margin <= RANK_CUTOFF * (1 + eps))
            # the residuals of the copies and of the values differ by at most
            # ((c+1) sqrt(2) + 2) (u + u_dps) |B| |v| (Higham, 2002, 3.6),
            # under 4(c+2) units of the coarser precision
            | (np.abs(resid - bound) <= 4 * (c + 2) * _unit() / 1e-9 * bound)
            | ~(_within(scale, _NORM_RANGE)[:, None] & _within(lengths, _NORM_RANGE))
        )
        again = np.flatnonzero((near | narrow | loose).any(axis=1))
        exact = _margins(np.abs(vectors[again]), free[again])
        resid, scale, lengths = _annihilation(blocks[again], vectors[again])
        narrow[again], loose[again] = exact < RANK_CUTOFF, resid > scale[:, None] * lengths
        margin[again] = exact.astype(float)
    return narrow, loose, margin, size


def _kernels(rm: RMData, index: np.ndarray, mus, tau: complex, dps):
    """The kernel vectors of :func:`kernel_basis` for the blocks ``mus``, in one pass.

    Returns the vectors as one (len(mus), c-(a+d), c) array and the
    magnitudes of their complex128 copy; raises the first failure of the
    lowest failing mu.  Runs under ``_at(dps)``, set by the caller.
    """
    blocks, doubles, pivots, failures = _pivoted(rm, index, mus, tau, dps)
    t, c = rm.trace, rm.degree
    ok = np.flatnonzero(pivots[:, -1] > 0)  # the blocks with a+d pivots
    blocks, doubles, pivots = blocks[ok], doubles[ok], pivots[ok] - 1
    n = len(ok)
    b, rows = np.arange(n)[:, None], np.arange(t)[:, None]
    others = np.ones((n, c), dtype=bool)
    others[b, pivots] = False
    free = np.nonzero(others)[1].reshape(n, c - t)  # ascending in each block
    b = b[:, None]
    det, x = _solve(blocks[b, rows, pivots[:, None]], blocks[b, rows, free[:, None]], dps)
    vectors = _cramer_vectors(det, x, pivots, free, c)
    narrow, loose, margin, size = _checks(blocks, doubles, vectors, free)
    for i in np.flatnonzero(narrow.any(axis=1) | loose.any(axis=1)).tolist():
        k = int(np.argmax(narrow[i] | loose[i]))  # the first vector to fail a check
        mu = mus[ok[i]]
        if narrow[i, k]:
            message = (
                f"kernel vector (mu={mu}, k={k + 1}) at tau={tau}: free-column margin "
                f"|v_q|/max|v| = {float(margin[i, k]):.3g} < RANK_CUTOFF = {RANK_CUTOFF:g}"
            )
        else:
            message = "kernel vector fails annihilation at the requested tolerance"
        failures.setdefault(mu, message)
    _raise_first(failures)
    return vectors, size


def _kept(vectors: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The coefficients :func:`relations` keeps: nonzero, at least COEFF_PRUNE_REL of the largest.

    ``size`` holds the magnitudes of the vectors' complex128 copy.  As in the
    Groebner pruning, ``float(abs(v))`` is taken only where that magnitude is
    within the band of the vector's largest or of the floor, or outside
    ``_CHEAP_RANGE``.  A zero is read from ``_mpc_``: the copy rounds a part
    below the double range to 0.0.
    """
    top = size.max(axis=2, keepdims=True)
    if vectors.dtype != object:
        return (vectors != 0) & (size >= COEFF_PRUNE_REL * top)
    nonzero = np.array([v._mpc_ != _MPC_ZERO for v in vectors.flat]).reshape(size.shape)
    eps, mags = _band(), size.copy()
    peak = nonzero & (~_within(size, _CHEAP_RANGE) | (size * (1 + 2 * eps) >= top))
    mags[peak] = [float(abs(v)) for v in vectors[peak]]
    floor = COEFF_PRUNE_REL * mags.max(axis=2, keepdims=True)
    near = nonzero & ~peak & (size * (1 + eps) >= floor) & (size <= floor * (1 + eps))
    mags[near] = [float(abs(v)) for v in vectors[near]]
    return nonzero & (mags >= floor)


# ---------------------------------------------------------------------------
# public kernel machinery
# ---------------------------------------------------------------------------


def minor_F(
    rm: RMData,
    mu: int,
    cols: tuple[int, ...],
    tau: complex,
    dps: int | None = None,
) -> complex:
    """Determinant of the selected (a+d) block columns (1-based, increasing).

    Computed by LAPACK in double and by :func:`_eliminate` (LU with partial
    pivoting) at ``dps``.  Every column must be an ``int`` (``bool``
    excluded), so a non-integer column is never truncated.
    """
    t, c = rm.trace, rm.degree
    cols = tuple(cols)
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in cols):
        raise DomainError(f"columns must be integers, got {cols}")
    if len(cols) != t:
        raise DomainError(f"need exactly {t} columns, got {len(cols)}")
    if any(not (1 <= x <= c) for x in cols):
        raise DomainError(f"columns must lie in 1..{c}, got {cols}")
    if any(cols[i] >= cols[i + 1] for i in range(t - 1)):
        raise DomainError(f"columns must be strictly increasing, got {cols}")
    with _at(dps):
        block = np.array(block_M(rm, mu, tau, dps).entries)
        det = _det(block[None, :, [j - 1 for j in cols]], dps)[0]
    return complex(det) if dps is None else det


def kernel_pivots(
    rm: RMData,
    mu: int,
    tau: complex,
    dps: int | None = None,
) -> tuple[int, ...]:
    """1-based pivot columns (size a+d), first fit, from :func:`_pivot_scan`.

    The blocks are evaluated at ``dps`` when it is given; the scan reads
    their complex128 copy.
    """
    data = _block(rm, mu)
    with _at(dps):
        _, _, pivots, failures = _pivoted(rm, data.index[None], (mu,), complex(tau), dps)
    _raise_first(failures)
    return tuple(pivots[0].tolist())


def kernel_basis(
    rm: RMData,
    mu: int,
    tau: complex,
    dps: int | None = None,
) -> list[tuple[complex, ...]]:
    """c-(a+d) kernel vectors of the mu-th block, from one LU solve.

    With B the pivot submatrix, vector k belongs to the k-th free column q
    (ascending) and is det(B) (B^-1 c_q on the pivots, -1 at q, 0 elsewhere):
    the Cramer vector, whose entry p_i is the minor with c_q in place of c_p_i.
    One solve against every free column serves every vector.

    Every other vector is 0 at q, so the vectors are independent exactly when
    each keeps its own entry -det(B).  One margin therefore decides the rank:
    :class:`RankDeficient` is raised when |v_q| / max|v| < RANK_CUTOFF (or B is
    exactly singular), and also when a vector fails to annihilate the block.
    This is :func:`relations`' kernel on a stack of one block.
    """
    data = _block(rm, mu)
    with _at(dps):
        vectors, _ = _kernels(rm, data.index[None], (mu,), complex(tau), dps)
        return list(map(tuple, vectors[0].tolist()))


# ---------------------------------------------------------------------------
# presentation assembly and normalizations
# ---------------------------------------------------------------------------


def relations(rm: RMData, tau: complex, dps: int | None = None) -> Presentation:
    """The raw presentation: all mu, ascending free-column index k.

    Term j of relation (mu, k) carries the monomial x_{alpha(mu, j)} x_j;
    coefficients below COEFF_PRUNE_REL of the relation's largest are dropped.
    The level row at tau (:func:`rmtorus.core._level_row`) is summed once,
    all c blocks are gathered from it, and their rank checks and kernels are
    :func:`kernel_basis`'s, batched over the blocks.
    """
    tau_c = complex(tau)
    stack = _block_data(rm)
    with _at(dps):
        vectors, size = _kernels(rm, stack.index, range(1, rm.degree + 1), tau_c, dps)
        kept = _kept(vectors, size).tolist()
    rights = range(1, rm.degree + 1)
    rels: list[Relation] = []
    for mu, (block, vecs, keeps) in enumerate(zip(stack.blocks, vectors.tolist(), kept), start=1):
        for k, (vec, keep) in enumerate(zip(vecs, keeps), start=1):
            terms = map(
                RelationTerm,
                compress(block.partners, keep), compress(rights, keep), compress(vec, keep),
            )
            rels.append(Relation(mu=mu, k=k, terms=tuple(terms)))
    return Presentation(rm=rm, tau=tau_c, normalization="raw", relations=tuple(rels), dps=dps)


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
    return replace(p, normalization=tag, relations=rels)


def normalize_rational(p: Presentation) -> Presentation:
    """Divide every coefficient by theta[0](0, l tau)^(a+d), at the presentation's ``dps``.

    The rescaled coefficients are values of level-group-invariant functions;
    on the imaginary axis they are real to working accuracy.
    """
    _require_raw(p, "normalize_rational")
    with _at(p.dps):
        base = theta_constant(0, p.level * p.tau, p.dps)
        if float(abs(base)) < 1e-12:
            raise DegenerateProbe(f"|theta(0, l tau)| = {float(abs(base))} too small")
        return _scaled(p, base ** (-p.rm.trace), "rational")


def normalize_modular(p: Presentation) -> Presentation:
    """The coefficients as weight-w forms for the level group.

    Requires an even level l.  That leaves only even a+d: with det 1, an odd
    a+d makes ad even, bc = ad - 1 odd and so c odd, and l = c(a+d) odd.  Every
    product of theta constants then has even length already, and each
    coefficient is kept (taken times 1, at the presentation's ``dps``).
    """
    _require_raw(p, "normalize_modular")
    if p.level % 2 != 0:
        raise OddLevel(f"level {p.level} is odd; no even-length patching exists")
    with _at(p.dps):
        return _scaled(p, 1, "modular")


def monic_ordered(p: Presentation) -> Presentation:
    """Transpose monomial slots, sort terms decreasingly, scale leads to 1.

    Term j becomes the monomial x_j x_{alpha(mu, j)}; the leading term of
    relation (mu, k) is the degree-lexicographically largest surviving
    monomial, generically x_q x_{alpha(mu, q)} for the k-th non-pivot column
    q.  Accepts any normalization (the per-relation scale divides out); the
    division runs at the presentation's ``dps``.
    """
    rels: list[Relation] = []
    with _at(p.dps):
        eps = _band()
        for rel in p.relations:
            swapped: list[tuple[tuple[int, int], complex]] = []
            for t in rel.terms:
                if p.normalization == "monic":
                    word = (t.left, t.right)
                else:
                    word = (t.right, t.left)
                swapped.append((word, t.coeff))
            mags = [_magnitude(cf) for _, cf in swapped]
            rough = max(mags)
            # exact near the largest: a magnitude further below it cannot be it
            mags = [float(abs(cf)) if not mag * (1 + 2 * eps) < rough else mag
                    for mag, (_, cf) in zip(mags, swapped)]
            top = max(mags)
            if top < 1e-250:
                raise LeadingCoeffBelowThreshold(
                    f"relation (mu={rel.mu}, k={rel.k}) has no usable leading coefficient"
                )
            floor = COEFF_PRUNE_REL * top
            kept = [(w, cf) for mag, (w, cf) in zip(mags, swapped)
                    if (float(abs(cf)) if floor <= mag * (1 + eps) and mag <= floor * (1 + eps)
                        else mag) >= floor]
            kept.sort(key=lambda item: item[0], reverse=True)
            lead_coeff = kept[0][1]
            terms = [RelationTerm(w[0], w[1], cf / lead_coeff) for w, cf in kept]
            terms[0] = RelationTerm(terms[0].left, terms[0].right, complex(1.0))
            rels.append(Relation(mu=rel.mu, k=rel.k, terms=tuple(terms)))
    return replace(p, normalization="monic", relations=tuple(rels))


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


def _head(p: Presentation) -> dict:
    """The fields before the relations, each of tau, group, scale and quadrature_error if set."""
    head = {
        "g": list(p.rm.g),
        "tau": None if p.tau is None else _complex_json(p.tau),
        "normalization": p.normalization,
        "l": p.level,
        "w": p.weight,
        "group": None if p.group is None else p.group.describe(),
        "scale": p.scale,
        "quadrature_error": p.quadrature_error,
    }
    return {key: value for key, value in head.items() if value is not None}


def _head_text(head: dict) -> str:
    """The opening of ``json.dumps({**head, ...}, indent=2)``, through the fields of ``head``.

    Ints, int lists and {"re", "im"} float pairs come from templates, the rest from :mod:`json`.
    A key that is not a ``str`` raises :class:`DomainError`.
    """
    fields = ["{\n"]
    for key, value in head.items():
        if not isinstance(key, str):
            raise DomainError(f"head keys must be strings, got {key!r}")
        kind = type(value)
        if kind is int:
            text = int.__repr__(value)
        elif kind is str:
            text = json.dumps(value)
        elif kind is list and set(map(type, value)) <= {int}:
            text = _ints_text(value, "  ")
        elif kind is dict and list(value) == ["re", "im"] and (
            type(value["re"]) is type(value["im"]) is float
        ):
            text = _complex_text(complex(value["re"], value["im"]), "  ")
        else:
            text = json.dumps(value, indent=2).replace("\n", "\n  ")
        fields.append(f"  {json.dumps(key)}: {text},\n")
    return "".join(fields)


def presentation_json(p: Presentation) -> dict:
    """Deterministic JSON-ready dict (fixed field and term ordering)."""
    return {**_head(p), "relations": _relations_json(p.relations)}


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
    return f'{_head_text(_head(p))}  "relations": {_list_text(relations_text, "  ")}\n}}'
