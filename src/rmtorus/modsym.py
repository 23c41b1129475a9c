"""Congruence groups, continued fractions, and geodesic period integrals.

Four layers, bottom up:

* exact integer membership tests for principal congruence groups, the
  theta-parity groups Gamma_{n,2n}, and their diagonal-conjugate bracket
  variants;
* exact continued-fraction expansions of real quadratic surds with minimal
  period detection, convergents, and the Lyapunov growth rate of the
  denominators;
* limiting symbols: the finite cusp-to-cusp segment lists (one continued
  fraction period, or a single hyperbolic translate) whose scaled sum
  represents the geodesic limit at the surd, ready for integration;
* numerical integration of theta-constant products and determinant
  coefficient forms along geodesics between cusps, by splitting each geodesic
  at its apex and pulling both halves to vertical rays; evaluation near the
  real axis goes through an exact transformation chain (integer words in the
  generators acting on characteristics) so the series always runs at a
  comfortable height.  A quadrature panel is evaluated at all its nodes in
  one batched theta-constant call and one stacked determinant; a single
  point is first reduced to the fundamental domain.

The final consumer is :func:`averaged_relations`, which integrates every
modular-normalized presentation coefficient over the limiting symbol of the
fixed surd, producing a presentation that does not depend on tau.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np

from .core import QuadraticSurd, RMData, _block, _check_index, _egcd, _level_characteristics, alpha
from .errors import (
    DomainError,
    NotCuspType,
    NotHyperbolic,
    NotSL2,
    OddLevel,
    OddWeight,
    QuadratureFailure,
    RationalInput,
)
from .presentation import (
    Presentation,
    Relation,
    RelationTerm,
    _det,
    _free_columns,
    kernel_pivots,
    presentation_json,
)
from .theta import (
    _check_finite,
    _flatten_2x2,
    _is_int,
    _kernel_sum,
    _kernel_table,
    _unit_phase_mp,
    _working_precision,
    unit_phase,
)

__all__ = [
    "Cusp",
    "GroupSpec",
    "CFExpansion",
    "SymbolChain",
    "QuadratureControl",
    "IntegralResult",
    "ThetaProductHandle",
    "CoefficientHandle",
    "member",
    "cf_expand",
    "convergents",
    "lyapunov",
    "lyapunov_empirical",
    "limiting_symbol",
    "is_cusp_numeric",
    "integrate_geodesic",
    "averaged_relations",
    "averaged_json",
    "coefficient_handles",
    "relation_values",
]


# ---------------------------------------------------------------------------
# cusps and congruence groups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cusp:
    """A point of the rational boundary: p/q in lowest terms, (1, 0) = infinity."""

    p: int
    q: int

    def __post_init__(self) -> None:
        p, q = self.p, self.q
        if not (_is_int(p) and _is_int(q)):
            raise DomainError(f"cusp entries must be integers, got ({p!r}, {q!r})")
        if p == 0 and q == 0:
            raise DomainError("cusp (0, 0) is not a projective point")
        g = math.gcd(abs(p), abs(q))
        p, q = p // g, q // g
        if q < 0 or (q == 0 and p < 0):
            p, q = -p, -q
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @property
    def is_infinity(self) -> bool:
        return self.q == 0

    def value(self) -> float:
        if self.is_infinity:
            raise DomainError("infinity has no finite value")
        return self.p / self.q


def _as_cusp(x) -> Cusp:
    if isinstance(x, Cusp):
        return x
    try:
        p, q = x
    except (TypeError, ValueError) as exc:
        raise DomainError(f"expected a cusp (p, q), got {x!r}") from exc
    return Cusp(p, q)


@dataclass(frozen=True)
class GroupSpec:
    """A congruence subgroup: principal, theta-parity, or bracket variant."""

    kind: str
    n: int
    m: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("principal", "igusa", "bracket"):
            raise DomainError(f"unknown group kind {self.kind!r}")
        if not _is_int(self.n) or self.n < 1:
            raise DomainError(f"group level must be a positive integer, got {self.n!r}")
        if self.kind == "bracket":
            if not _is_int(self.m) or self.m < 1 or self.m % 2 != 0:
                raise DomainError(
                    f"bracket conjugation parameter must be a positive even integer, got {self.m!r}"
                )
        elif self.m is not None:
            raise DomainError(f"{self.kind} group takes no second parameter")

    @staticmethod
    def principal(n: int) -> GroupSpec:
        """Gamma(n): congruent to the identity mod n."""
        return GroupSpec("principal", n)

    @staticmethod
    def igusa(n: int) -> GroupSpec:
        """Gamma_{n,2n}: Gamma(n) with both row products divisible by 2n."""
        return GroupSpec("igusa", n)

    @staticmethod
    def bracket(n: int, m: int) -> GroupSpec:
        """Theta-parity matrices whose diag(m,1) conjugate lies in Gamma_{n,2n}."""
        return GroupSpec("bracket", n, m)

    def describe(self) -> dict:
        out = {"kind": self.kind, "n": self.n}
        if self.m is not None:
            out["m"] = self.m
        return out


def _igusa_member(x: int, y: int, z: int, w: int, n: int) -> bool:
    if (x - 1) % n or (w - 1) % n or y % n or z % n:
        return False
    return (x * y) % (2 * n) == 0 and (z * w) % (2 * n) == 0


def member(gamma, spec: GroupSpec) -> bool:
    """Exact integer membership test."""
    x, y, z, w = _flatten_2x2(gamma)
    if x * w - y * z != 1:
        return False
    if spec.kind == "principal":
        n = spec.n
        return (x - 1) % n == 0 and (w - 1) % n == 0 and y % n == 0 and z % n == 0
    if spec.kind == "igusa":
        return _igusa_member(x, y, z, w, spec.n)
    # bracket: theta-parity plus the diag(m,1) conjugate landing in Gamma_{n,2n}
    if (x * y) % 2 or (z * w) % 2:
        return False
    m = spec.m
    if z % m:
        return False
    return _igusa_member(x, m * y, z // m, w, spec.n)


# ---------------------------------------------------------------------------
# continued fractions of quadratic surds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CFExpansion:
    """Eventually periodic continued fraction of a surd in (0, 1).

    ``integer_part`` records the floor subtracted to land in (0, 1); the
    partial quotients are those of the fractional part.
    """

    preperiod: tuple[int, ...]
    period: tuple[int, ...]
    integer_part: int = 0

    def quotient(self, n: int) -> int:
        """The n-th partial quotient, 1-based."""
        if not _is_int(n) or n < 1:
            raise DomainError(f"quotient index must be an integer >= 1, got {n!r}")
        if n <= len(self.preperiod):
            return self.preperiod[n - 1]
        return self.period[(n - len(self.preperiod) - 1) % len(self.period)]


def cf_expand(theta: QuadraticSurd, max_states: int = 100_000) -> CFExpansion:
    """Exact continued-fraction expansion with minimal-period detection.

    Iterates x -> 1/x - floor(1/x) in exact surd arithmetic; the preperiod
    ends at the first repeated state, which also yields the minimal period.
    """
    if not isinstance(theta, QuadraticSurd):
        raise DomainError(f"expected a QuadraticSurd, got {theta!r}")
    if theta.is_rational():
        raise RationalInput(f"{theta} is rational; expansion does not terminate")
    integer_part = theta.floor()
    x = theta - integer_part
    quotients: list[int] = []
    seen: dict[QuadraticSurd, int] = {}
    while len(quotients) < max_states:
        if x in seen:
            start = seen[x]
            return CFExpansion(
                preperiod=tuple(quotients[:start]),
                period=tuple(quotients[start:]),
                integer_part=integer_part,
            )
        seen[x] = len(quotients)
        y = x.inverse()
        k = y.floor()
        quotients.append(k)
        x = y - k
    raise DomainError(f"no period found within {max_states} states")


def convergents(cf: CFExpansion, n: int) -> tuple[int, int, tuple[tuple[int, int], tuple[int, int]]]:
    """(p_n, q_n, g_n) for the fractional part, with g_n = [[p_{n-1}, p_n], [q_{n-1}, q_n]]."""
    if not _is_int(n) or n < 0:
        raise DomainError(f"convergent index must be an integer >= 0, got {n!r}")
    p_prev, p_cur = 1, 0
    q_prev, q_cur = 0, 1
    for i in range(1, n + 1):
        k = cf.quotient(i)
        p_prev, p_cur = p_cur, k * p_cur + p_prev
        q_prev, q_cur = q_cur, k * q_cur + q_prev
    return p_cur, q_cur, ((p_prev, p_cur), (q_prev, q_cur))


def _period_matrix(cf: CFExpansion) -> tuple[int, int, int, int]:
    a, b, c, d = 1, 0, 0, 1
    for k in cf.period:
        # multiply on the right by [[0, 1], [1, k]]
        a, b = b, a + k * b
        c, d = d, c + k * d
    return a, b, c, d


def lyapunov(theta: QuadraticSurd) -> float:
    """Denominator growth rate: log(spectral radius of the period product)/m."""
    cf = cf_expand(theta)
    a, b, c, d = _period_matrix(cf)
    tr = a + d
    det = a * d - b * c
    m = len(cf.period)
    with mp.workdps(60):
        radius = (abs(tr) + mp.sqrt(mp.mpf(tr) ** 2 - 4 * det)) / 2
        return float(mp.log(radius) / m)


def lyapunov_empirical(theta: QuadraticSurd, n1: int = 50, n2_max: int = 200) -> float:
    """Endpoint slope of log q_n between n1 and the largest aligned n <= n2_max.

    The endpoints are taken a whole number of periods apart so the periodic
    fluctuation of log q_n - n*lambda cancels exactly.
    """
    if not (_is_int(n1) and _is_int(n2_max)):
        raise DomainError(f"n1 and n2_max must be integers, got {n1!r} and {n2_max!r}")
    cf = cf_expand(theta)
    m = len(cf.period)
    n2 = n2_max - ((n2_max - n1) % m)
    if n2 <= n1:
        raise DomainError(f"no aligned endpoint in ({n1}, {n2_max}]")
    _, q1, _ = convergents(cf, n1)
    _, q2, _ = convergents(cf, n2)
    return (math.log(q2) - math.log(q1)) / (n2 - n1)


# ---------------------------------------------------------------------------
# limiting symbols
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymbolChain:
    """Cusp-to-cusp geodesic segments whose sum, times ``scale``, is the limiting symbol."""

    segments: tuple[tuple[Cusp, Cusp], ...]
    scale: float

    def __post_init__(self) -> None:
        if not (self.scale > 0):
            raise DomainError(f"scale must be positive, got {self.scale}")


def _mobius_int(gamma: tuple[int, int, int, int], cusp: Cusp) -> Cusp:
    a, b, c, d = gamma
    return Cusp(a * cusp.p + b * cusp.q, c * cusp.p + d * cusp.q)


def limiting_symbol(
    theta: QuadraticSurd,
    spec: GroupSpec | None = None,
    hyperbolic=None,
) -> SymbolChain:
    """Finite segment representation of the geodesic limit at theta.

    Default: one continued-fraction period after the preperiod; segment n runs
    from g_n^{-1}(0) to g_n^{-1}(infinity), scaled by 1/(m * lambda(theta)).

    With ``hyperbolic`` set to an integer matrix fixing theta (hyperbolic, and
    a member of ``spec`` when one is given), the single segment from 0 to its
    image under the matrix is used instead, scaled by 1/log of the dominant
    eigenvalue.  ``spec`` constrains only that matrix and needs one.
    """
    if hyperbolic is None and spec is not None:
        raise DomainError("spec constrains a hyperbolic matrix; none was given")
    if hyperbolic is not None:
        x, y, z, w = _flatten_2x2(hyperbolic)
        if x * w - y * z != 1:
            raise NotSL2(f"det {x * w - y * z} != 1")
        tr = x + w
        if abs(tr) <= 2:
            raise NotHyperbolic(f"|trace| = {abs(tr)} <= 2")
        moved = (theta * x + y) / (theta * z + w)
        if (moved - theta).sign() != 0:
            raise DomainError("matrix does not fix the surd")
        if spec is not None and not member((x, y, z, w), spec):
            raise DomainError("matrix is not a member of the requested group")
        with mp.workdps(60):
            log_lam = float(
                mp.log((abs(tr) + mp.sqrt(mp.mpf(tr) ** 2 - 4)) / 2)
            )
        segments = ((Cusp(0, 1), _mobius_int((x, y, z, w), Cusp(0, 1))),)
        return SymbolChain(segments=segments, scale=1.0 / log_lam)
    cf = cf_expand(theta)
    m = len(cf.period)
    lam = lyapunov(theta)
    segments = []
    for n in range(len(cf.preperiod) + 1, len(cf.preperiod) + m + 1):
        _, _, g = convergents(cf, n)
        (p_prev, p_cur), (q_prev, q_cur) = g
        # inverse of g_n up to sign: [[q_cur, -p_cur], [-q_prev, p_prev]]
        frm = Cusp(-p_cur, p_prev)
        to = Cusp(q_cur, -q_prev)
        segments.append((frm, to))
    return SymbolChain(segments=tuple(segments), scale=1.0 / (m * lam))


# ---------------------------------------------------------------------------
# adaptive Gauss-Kronrod quadrature (vector integrands)
# ---------------------------------------------------------------------------

_XGK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769, -0.741531185599394,
    -0.586087235467691, -0.405845151377397, -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691, 0.741531185599394,
    0.864864423359769, 0.949107912342759, 0.991455371120813,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250, 0.140653259715525,
    0.169004726639267, 0.190350578064785, 0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119, 0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
])


@dataclass(frozen=True)
class QuadratureControl:
    """Relative tolerance and evaluation cap for one geodesic segment."""

    rel_tol: float = 1e-8
    max_evals: int = 1_000_000

    def __post_init__(self) -> None:
        if not (self.rel_tol > 0):
            raise DomainError(f"rel_tol must be positive, got {self.rel_tol}")
        if not _is_int(self.max_evals) or self.max_evals < 15:
            raise DomainError(f"max_evals must be an integer >= 15, got {self.max_evals!r}")


@dataclass(frozen=True)
class IntegralResult:
    """A complex integral value with its error estimate and evaluation count."""

    value: complex
    error: float
    evaluations: int


def _gk15_vec(f, a: float, b: float):
    center, half = 0.5 * (a + b), 0.5 * (b - a)
    vals = f(center + half * _XGK)
    k15 = half * (_WGK @ vals)
    g7 = half * (_WG @ vals[1::2])
    return k15, float(np.max(np.abs(k15 - g7))), 15


def _adaptive_vec(f, a: float, b: float, quad: QuadratureControl):
    total, err0, n = _gk15_vec(f, a, b)
    heap = [(-err0, 0, a, b, total, err0)]
    tot_err = err0
    count = n
    seq = 1
    while heap:
        scale = float(np.max(np.abs(total))) + 1e-300
        if tot_err <= quad.rel_tol * scale:
            return total, tot_err, count
        if count >= quad.max_evals:
            raise QuadratureFailure(
                f"error {tot_err:.3e} still above {quad.rel_tol:.1e} x {scale:.3e} "
                f"after {count} evaluations"
            )
        neg_err, _, aa, bb, val, er = heapq.heappop(heap)
        mid = 0.5 * (aa + bb)
        left, le, n1 = _gk15_vec(f, aa, mid)
        right, re, n2 = _gk15_vec(f, mid, bb)
        total = total - val + left + right
        tot_err = tot_err - er + le + re
        count += n1 + n2
        heapq.heappush(heap, (-le, seq, aa, mid, left, le))
        heapq.heappush(heap, (-re, seq + 1, mid, bb, right, re))
        seq += 2
    return total, tot_err, count


# ---------------------------------------------------------------------------
# exact transformation chains for theta constants near the real axis
# ---------------------------------------------------------------------------


def _sl2_word(a: int, b: int, c: int, d: int) -> list[tuple]:
    """Decompose an SL2(Z) matrix into T^q / S steps (left factor first)."""
    steps: list[tuple] = []
    while c != 0:
        q = round(a / c)
        steps.append(("T", q))
        a, b = a - q * c, b - q * d
        steps.append(("S",))
        a, b, c, d = c, d, -a, -b
    if a == 1:
        steps.append(("T", b))
    else:
        steps.append(("N",))
        steps.append(("T", -b))
    return steps


class _Chain:
    """theta[r, s](0, gamma w) as exact-phase multiples of theta at w itself.

    Characteristics and phases propagate through the word exactly (rational
    arithmetic); only the final series and the shared square-root factor are
    floating point.  The kernel table of the target characteristics is built
    once, here.  Build a chain through :func:`_chain`, which keeps it.
    """

    def __init__(self, gamma: tuple[int, int, int, int], chars) -> None:
        self.steps = tuple(_sl2_word(*gamma))
        exact = []
        for r, s in chars:
            r, s = Fraction(r), Fraction(s)
            const = Fraction(0)
            for step in self.steps:
                if step[0] == "T":
                    q = step[1]
                    const += -q * r * (r + 1)
                    s = s + q * (r + Fraction(1, 2))
                elif step[0] == "S":
                    const += 2 * r * s - Fraction(1, 4)
                    r, s = s, -r
                else:  # total negation
                    r, s = -r, -s
            exact.append((const % 2, r, s))
        self.exact = tuple(exact)
        self.table = _kernel_table([(r, s) for _, r, s in exact])
        self.phases = np.array([unit_phase(c) for c, _, _ in exact], dtype=complex)
        self.phases.flags.writeable = False

    def root(self, u, sqrt):
        """Product of sqrt factors collected by the S steps, evaluated at u = w.

        ``u`` is an array of complex doubles (with numpy's sqrt) or a single
        mpmath number (with mpmath's).
        """
        root = 1
        for step in reversed(self.steps):
            if step[0] == "T":
                u = u + step[1]
            elif step[0] == "S":
                root = root * sqrt(u)
                u = -1 / u
        return root

    def eval_all(self, ws, dps: int | None = None) -> np.ndarray:
        """One row per point w, one column per characteristic, in one kernel call.

        Complex doubles, or with ``dps`` mpmath numbers at the ambient
        precision.
        """
        thetas = _kernel_sum(self.table, ws, dps)
        if dps is None:
            roots = self.root(np.asarray(ws, dtype=complex), np.sqrt)
            return self.phases * np.reshape(roots, (-1, 1)) * thetas
        phases = [_unit_phase_mp(c) for c, _, _ in self.exact]
        roots = [self.root(w, mp.sqrt) for w in ws]
        return np.array([[p * root for p in phases] for root in roots], dtype=object) * thetas


#: How many exact chains :func:`_chain` keeps.  A warm ``modular`` pass of
#: the benchmark reads 12 (4 level-24 points and 8 geodesic-leg chains).
_CHAINS = 64


@functools.lru_cache(maxsize=_CHAINS)
def _chain(gamma: tuple[int, int, int, int], chars: tuple) -> _Chain:
    """The chain of ``gamma`` for the characteristics ``chars`` (a tuple of pairs), kept."""
    return _Chain(gamma, chars)


def _reduce(w):
    """Split w = gamma v with gamma in SL2(Z) and v in the fundamental domain.

    ``gamma`` is an exact integer matrix; ``v`` is computed in the arithmetic
    of ``w`` (complex double or mpmath) and has Im v >= sqrt(3)/2.
    """
    a, b, c, d = 1, 0, 0, 1
    while True:
        n = round(float(w.real))
        w = w - n
        b, d = a * n + b, c * n + d  # gamma T^n
        if abs(w) >= 1:
            return (a, b, c, d), w
        w = -1 / w
        a, b, c, d = b, -a, d, -c  # gamma S


def _cusp_matrix(cusp: Cusp) -> tuple[int, int, int, int]:
    """SL2(Z) matrix with first column (p, q); sends infinity to the cusp."""
    p, q = cusp.p, cusp.q
    if q == 0:
        return (1, 0, 0, 1)
    _, u, v = _egcd(p, q)  # u p + v q = 1
    return (p, -v, q, u)


class _PulledLevelPoint:
    """The level point l * A(sigma) split as gamma1 * w(sigma), w safely high.

    With A the cusp matrix, l*A(sigma) = gamma1 * ((delta*sigma + off) / eps)
    for an SL2(Z) matrix gamma1 and integers delta = gcd(l p, q),
    eps = l / delta; Im w = (delta^2 / l) Im sigma stays bounded away from the
    real axis along the whole pulled ray.
    """

    def __init__(self, level: int, cusp: Cusp) -> None:
        p, pt, q, qt = _cusp_matrix(cusp)
        lp, lpt = level * p, level * pt
        delta = math.gcd(lp, q)
        _, u, v = _egcd(lp, q)  # u*lp + v*q = delta
        gam = (u, v, -q // delta, lp // delta)
        if gam[0] * gam[3] - gam[1] * gam[2] != 1:
            raise DomainError("level-point splitting failed (determinant)")
        off = u * lpt + v * qt
        eps = level // delta
        g1 = (gam[3], -gam[1], -gam[2], gam[0])
        # verify gamma1 * [[delta, off], [0, eps]] == [[lp, lpt], [q, qt]]
        a1, b1, c1, d1 = g1
        if (a1 * delta, a1 * off + b1 * eps, c1 * delta, c1 * off + d1 * eps) != (
            lp,
            lpt,
            q,
            qt,
        ):
            raise DomainError("level-point splitting failed (reassembly)")
        self.gamma1 = g1
        self.delta = delta
        self.off = off
        self.eps = eps

    def w(self, sigma: complex) -> complex:
        return (self.delta * sigma + self.off) / self.eps


# ---------------------------------------------------------------------------
# integrand handles
# ---------------------------------------------------------------------------


class _LevelThetas:
    """theta[r, s](0, l tau) for fixed characteristics, as a function of tau.

    ``pulled`` evaluates at tau = A(sigma) for a cusp's matrix A through the
    exact chain of the level-point splitting; a chain depends on the cusp
    alone, so it is looked up once per cusp and kept here.  ``at`` evaluates
    at one tau after reducing l tau to the fundamental domain, so the series
    runs at Im >= sqrt(3)/2 however low tau is.  Both return one row per
    point and one column per characteristic; with ``dps`` the caller sets
    the mpmath working precision.  Chains come from :func:`_chain`, so
    handles of the same characteristics share them; besides a reduction
    word's chain, nothing that depends on tau is kept.

    The relation blocks of level l all read from one instance,
    :func:`_level_thetas`, whose characteristics are the l level
    characteristics k/l: its row at a point holds every block entry there.
    """

    def __init__(self, level: int, chars) -> None:
        self.level = level
        self.chars = tuple(map(tuple, chars))
        self._cache: dict[Cusp, tuple[_PulledLevelPoint, _Chain]] = {}

    def pulled(self, cusp: Cusp, sigmas, dps: int | None = None) -> np.ndarray:
        hit = self._cache.get(cusp)
        if hit is None:
            split = _PulledLevelPoint(self.level, cusp)
            hit = self._cache[cusp] = (split, _chain(split.gamma1, self.chars))
        split, chain = hit
        if dps is None:
            return chain.eval_all(split.w(np.asarray(sigmas, dtype=complex)))
        return chain.eval_all([split.w(mp.mpc(s)) for s in sigmas], dps)

    def at(self, tau, dps: int | None = None) -> np.ndarray:
        point = complex(tau) if dps is None else mp.mpc(tau)
        _check_finite(point)
        if not point.imag > 0:
            raise DomainError(f"point {tau} is not in the upper half-plane")
        gamma, w = _reduce(self.level * point)
        return _chain(gamma, self.chars).eval_all([w], dps)


@functools.cache
def _level_thetas(level: int) -> _LevelThetas:
    """The level row theta[k/l](0, l tau), k = 0..l-1: one per level and process."""
    return _LevelThetas(level, _level_characteristics(level))


class ThetaProductHandle:
    """Product of theta constants theta[r_i](0, l tau) at the level point."""

    def __init__(self, level: int, chars) -> None:
        if not _is_int(level) or level < 1:
            raise DomainError(f"level must be a positive integer, got {level!r}")
        self.level = level
        self.chars = tuple(Fraction(r) for r in chars)
        if not self.chars:
            raise DomainError("need at least one characteristic")
        self._thetas = _LevelThetas(level, [(r, Fraction(0)) for r in self.chars])

    def pulled_value(self, cusp: Cusp, sigmas) -> np.ndarray:
        """f(A(sigma)) for the cusp's matrix A at each sigma, via the exact chain."""
        return np.prod(self._thetas.pulled(cusp, sigmas), axis=1)

    def value(self, tau: complex) -> complex:
        """f(tau), evaluated after reducing l tau to the fundamental domain."""
        return complex(np.prod(self._thetas.at(tau)[0]))


#: The point at which every relation's pivot columns are selected.
PIVOT_TAU = 2j


@functools.cache
def _pivots(rm: RMData, mu: int) -> tuple[int, ...]:
    """Block mu's pivots at PIVOT_TAU in double; after mu's check, as ``True`` hashes as 1."""
    return kernel_pivots(rm, mu, PIVOT_TAU)


def _relation(rm: RMData, mu: int, k: int) -> _RelationVector:
    """Relation (mu, k) on its whole support: the pivots at PIVOT_TAU and free column k."""
    _check_index("mu", mu, rm.degree)
    if not _is_int(k):
        raise DomainError(f"relation index k must be an integer, got {k!r}")
    if not (1 <= k <= rm.degree - rm.trace):
        raise DomainError(f"k = {k} outside 1..{rm.degree - rm.trace}")
    pivots = _pivots(rm, mu)
    q = _free_columns(pivots, rm.degree)[k - 1]
    return _RelationVector(rm, mu, pivots, q, sorted((*pivots, q)))


class _RelationVector:
    """Coefficients of one relation of block mu on the given slots, as a vector form.

    The coefficient on slot j is a Cramer determinant of the block over the
    pivot columns, with the free column swapped in for j (or the negated
    pivot minor when j is the free column itself), read from the level row
    through the block's :func:`rmtorus.core._block` index, and times column
    0, theta[0](0, l tau), when a+d is odd.  Values come one row per point,
    one column per slot; a whole quadrature panel takes one kernel call and
    one stacked determinant.

    Each slot keeps its own determinant rather than one solve against the
    pivot minor: along a pulled ray the pivot minor underflows to exactly 0
    while the Cramer minors decay smoothly to 0, and a stacked solve then
    fails on a singular matrix.
    """

    def __init__(self, rm: RMData, mu: int, pivots, free_col: int, slots) -> None:
        self.index = _block(rm, mu).index
        t, columns = rm.trace, range(1, rm.degree + 1)
        pivots = tuple(pivots)
        if (
            len(pivots) != t
            or any(p not in columns for p in pivots)
            or list(pivots) != sorted(set(pivots))
        ):
            raise DomainError(
                f"pivots must be {t} increasing columns in 1..{len(columns)}, got {pivots}"
            )
        if not _is_int(free_col) or free_col in pivots or free_col not in columns:
            raise DomainError(
                f"free column {free_col!r} must be an integer in 1..{len(columns)} "
                "outside the pivots"
            )
        for j in slots:
            if j != free_col and j not in pivots:
                raise DomainError(f"slot {j} outside the support of this relation")
        pivots = tuple(int(p) for p in pivots)  # exact: each is one of the columns
        self.rm, self.mu = rm, mu
        self.pivots = pivots
        self.free_col = free_col
        self.slots = tuple(slots)
        # slot j's minor: the pivot columns with the free column in j's place
        self._columns = [[free_col - 1 if p == j else p - 1 for p in pivots] for j in self.slots]
        self._signs = np.array([-1 if j == free_col else 1 for j in self.slots])

    def pulled_value(self, cusp: Cusp, sigmas, dps: int | None = None) -> np.ndarray:
        with _working_precision(dps):
            rows = _level_thetas(self.rm.level).pulled(cusp, sigmas, dps)
            return self._coefficients(rows, dps)

    def value(self, tau, dps: int | None = None) -> np.ndarray:
        with _working_precision(dps):
            return self._coefficients(_level_thetas(self.rm.level).at(tau, dps), dps)[0]

    def _coefficients(self, rows: np.ndarray, dps: int | None) -> np.ndarray:
        """The slot values at each point, from the level rows there."""
        blocks = rows[:, self.index]
        # (points, rows, slots, cols) -> (points, slots, rows, cols)
        minors = np.moveaxis(blocks[:, :, self._columns], 2, 1)
        values = self._signs * _det(minors, dps)
        if self.rm.trace % 2:
            values = values * rows[:, :1]
        return values


class CoefficientHandle(_RelationVector):
    """One modular-normalized presentation coefficient as a function of tau.

    The one-slot relation vector of the given pivots and free column on the
    shared block of (rm, mu); its values are scalars, one per point.
    """

    def __init__(
        self, rm: RMData, mu: int, pivots: tuple[int, ...], free_col: int, slot: int
    ) -> None:
        super().__init__(rm, mu, pivots, free_col, (slot,))
        self.slot = slot

    def pulled_value(self, cusp: Cusp, sigmas, dps: int | None = None) -> np.ndarray:
        """The coefficient at A(sigma) for the cusp's matrix A, at each sigma."""
        return super().pulled_value(cusp, sigmas, dps)[:, 0]

    def value(self, tau, dps: int | None = None):
        return super().value(tau, dps)[0]


def coefficient_handles(rm: RMData, mu: int, k: int) -> dict[int, CoefficientHandle]:
    """Handles for every support slot of relation (mu, k), pivots chosen at PIVOT_TAU."""
    vector = _relation(rm, mu, k)
    return {
        j: CoefficientHandle(rm, mu, vector.pivots, vector.free_col, j)
        for j in vector.slots
    }


def relation_values(rm: RMData, mu: int, k: int, tau, dps: int | None = None) -> dict:
    """All support-slot coefficient values of relation (mu, k) at one point.

    One block evaluation per call, on the shared block of (rm, mu), so this is
    the economical way to probe a whole relation (e.g. when checking the
    transformation law).
    """
    vector = _relation(rm, mu, k)
    return dict(zip(vector.slots, vector.value(tau, dps)))


# ---------------------------------------------------------------------------
# cusp-type detection and geodesic integration
# ---------------------------------------------------------------------------

_DECAY_HEIGHTS = (5.0, 10.0, 20.0)


def is_cusp_numeric(f, cusps) -> bool:
    """Exponential-decay probe of the pulled-back handle at each cusp.

    Fits log |f(A(iT))| against T in {5, 10, 20} by least squares and requires
    a positive decay rate; exact zeros count as decayed.
    """
    for cusp in cusps:
        cusp = _as_cusp(cusp)
        heights = [complex(0.0, T) for T in _DECAY_HEIGHTS]
        mags = [abs(v) for v in f.pulled_value(cusp, heights)]
        if all(m == 0.0 for m in mags):
            continue
        logs = [math.log(m) if m > 0 else math.log(1e-300) for m in mags]
        t_mean = sum(_DECAY_HEIGHTS) / 3
        y_mean = sum(logs) / 3
        slope = sum(
            (t - t_mean) * (y - y_mean) for t, y in zip(_DECAY_HEIGHTS, logs)
        ) / sum((t - t_mean) ** 2 for t in _DECAY_HEIGHTS)
        if not (-slope > 0):
            return False
    return True


def _half_integral_vec(pulled, size: int, cusp: Cusp, point: complex, quad: QuadratureControl):
    """Integrals from `point` to the cusp along the pulled vertical ray.

    ``pulled(cusp, sigmas)`` gives the integrand's ``size`` values at A(sigma)
    for the cusp's matrix A, one row per sigma: a scalar handle's
    ``pulled_value`` (``size`` 1) or the slots of a relation vector.
    """
    a, b, c, d = _cusp_matrix(cusp)
    sigma0 = (d * point - b) / (-c * point + a)
    x0, t0 = sigma0.real, sigma0.imag

    def integrand(u: np.ndarray) -> np.ndarray:
        out = np.zeros((len(u), size), dtype=complex)
        live = u < 1.0 - 1e-9
        if not live.any():
            return out
        u = u[live]
        t = t0 + u / (1.0 - u)
        jac = 1.0 / (1.0 - u) ** 2
        sigma = x0 + 1j * t
        dtau = 1.0 / (c * sigma + d) ** 2
        factor = 1j * dtau * jac
        values = np.reshape(pulled(cusp, sigma), (len(sigma), size))
        out[live] = values * factor[:, None]
        return out

    return _adaptive_vec(integrand, 0.0, 1.0, quad)


def _geodesic_integral_vec(
    pulled, size: int, cusp_from: Cusp, cusp_to: Cusp, quad: QuadratureControl
):
    """Vector integral along the geodesic from cusp_from to cusp_to."""
    if cusp_from == cusp_to:
        return np.zeros(size, dtype=complex), 0.0, 0
    if cusp_from.is_infinity:
        apex = complex(cusp_to.value(), 1.0)
    elif cusp_to.is_infinity:
        apex = complex(cusp_from.value(), 1.0)
    else:
        x1, x2 = cusp_from.value(), cusp_to.value()
        apex = complex(0.5 * (x1 + x2), 0.5 * abs(x2 - x1))
    v1, e1, n1 = _half_integral_vec(pulled, size, cusp_from, apex, quad)
    v2, e2, n2 = _half_integral_vec(pulled, size, cusp_to, apex, quad)
    # int_from^to = int_from^apex + int_apex^to = -(int_apex^from) + int_apex^to
    return -v1 + v2, e1 + e2, n1 + n2


def integrate_geodesic(
    f, cusp_from, cusp_to, quad: QuadratureControl | None = None
) -> IntegralResult:
    """Integral of f(tau) dtau along the geodesic between two cusps.

    ``f`` is a scalar handle such as :class:`ThetaProductHandle` or
    :class:`CoefficientHandle`; a cusp is a :class:`Cusp` or an integer pair
    (p, q).  The path is split at its apex and each half is pulled to a
    vertical ray.  Raises :class:`NotCuspType` when the integrand fails the
    exponential-decay probe at an endpoint, and :class:`QuadratureFailure` on
    budget exhaustion.
    """
    quad = quad or QuadratureControl()
    cusp_from, cusp_to = _as_cusp(cusp_from), _as_cusp(cusp_to)
    for cusp in (cusp_from, cusp_to):
        if not is_cusp_numeric(f, [cusp]):
            raise NotCuspType(
                f"integrand does not decay at cusp ({cusp.p}, {cusp.q})"
            )
    value, err, count = _geodesic_integral_vec(f.pulled_value, 1, cusp_from, cusp_to, quad)
    return IntegralResult(value=complex(value[0]), error=float(err), evaluations=count)


# ---------------------------------------------------------------------------
# averaged relations
# ---------------------------------------------------------------------------


#: Reference points at which identically-zero coefficient functions are detected.
_ZERO_PROBES = (2j, 0.31 + 1.7j)

#: Relative magnitude below which a probed coefficient counts as identically zero.
_ZERO_PROBE_REL = 1e-10


def averaged_relations(rm: RMData, quad: QuadratureControl | None = None) -> Presentation:
    """Integrate every modular coefficient over the limiting symbol of the surd.

    Returns a :class:`Presentation` with normalization ``"averaged"``, no
    ``tau``, the symbol's ``scale`` and the group label bracket(l^2, l).
    Requires even level and even weight.  Pivot columns are selected once at
    :data:`PIVOT_TAU` and held fixed, making the run deterministic; coefficient
    functions that vanish at the reference probes are identically zero by
    construction and are assigned 0 exactly (no quadrature).

    Every relation reads its blocks from the level row of :func:`_level_thetas`.
    The rows are kept by (cusp, node array) for this call alone, so a node set
    that several relations reach (the probes, and the panels their bisections
    share) is summed once; each relation still refines its own mesh, and
    every value is the one it would compute alone.
    """
    if rm.level % 2 != 0:
        raise OddLevel(f"level {rm.level} is odd")
    if rm.weight % 2 != 0:
        raise OddWeight(f"weight {rm.weight} is odd")
    quad = quad or QuadratureControl()
    chain = limiting_symbol(rm.theta)
    level = _level_thetas(rm.level)
    rows: dict[tuple[Cusp, bytes], np.ndarray] = {}

    def level_rows(cusp: Cusp, sigmas) -> np.ndarray:
        key = (cusp, np.asarray(sigmas, dtype=complex).tobytes())
        if key not in rows:
            rows[key] = level.pulled(cusp, sigmas)
        return rows[key]

    relations_out: list[Relation] = []
    worst_error = 0.0
    for mu in range(1, rm.degree + 1):
        for k in range(1, rm.degree - rm.trace + 1):
            vector = _relation(rm, mu, k)
            probes = vector._coefficients(level_rows(Cusp(1, 0), _ZERO_PROBES), None)
            top = float(np.max(np.abs(probes)))
            live = [
                j
                for i, j in enumerate(vector.slots)
                if float(np.max(np.abs(probes[:, i]))) > _ZERO_PROBE_REL * top
            ]
            live_vector = _RelationVector(rm, mu, vector.pivots, vector.free_col, live)

            def pulled(cusp: Cusp, sigmas) -> np.ndarray:
                return live_vector._coefficients(level_rows(cusp, sigmas), None)

            totals = np.zeros(len(live), dtype=complex)
            seg_err = 0.0
            for frm, to in chain.segments:
                vals, err, _ = _geodesic_integral_vec(pulled, len(live), frm, to, quad)
                totals += vals
                seg_err += err
            worst_error = max(worst_error, chain.scale * seg_err)
            terms = tuple(
                RelationTerm(
                    left=alpha(rm, mu, j),
                    right=j,
                    coeff=complex(chain.scale * totals[pos]),
                )
                for pos, j in enumerate(live)
            )
            relations_out.append(Relation(mu=mu, k=k, terms=terms))
    group = GroupSpec.bracket(rm.level * rm.level, rm.level)
    return Presentation(rm, None, "averaged", tuple(relations_out), group=group,
                        scale=chain.scale, quadrature_error=worst_error)


def averaged_json(av: Presentation) -> dict:
    """:func:`rmtorus.presentation.presentation_json` of an averaged presentation."""
    return presentation_json(av)
