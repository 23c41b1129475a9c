"""Real-multiplication data attached to a hyperbolic integer matrix.

A matrix g = [[a, b], [c, d]] with det 1, trace a + d > 2, and lower-left
entry c >= a + d + 2 determines a real quadratic fixed point theta (the root
of c x^2 + (d - a) x - b with c theta + d between 0 and 1), the eigenvalue
pair lam_plus < 1 < lam_minus, a level l = c (a + d), and a weight
w = floor((a + d + 1) / 2).  This module carries that bookkeeping exactly
(quadratic-surd arithmetic over Z), and evaluates the two independent
constructions of the graded structure constants:

* a lattice sum over a congruence class determined by a pair of matrices, and
* a single theta constant at the level point l tau, selected by a residue
  test mod c.

Their agreement on every index triple is one of the package's acceptance
checks; the two code paths share nothing beyond the series evaluator.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    DegreeTooSmall,
    DomainError,
    IndexOutOfRange,
    NonConvergence,
    NotHyperbolic,
    NotSL2,
    RankDeficient,
)
from .theta import (
    SeriesControl,
    _check_finite,
    _flatten_2x2,
    _kernel_sum,
    _kernel_table,
    _KernelTable,
    theta_constant,
)

__all__ = [
    "QuadraticSurd",
    "RMData",
    "LambdaMatrix",
    "BlockMatrix",
    "validate",
    "canonical_g",
    "alpha",
    "q_mu",
    "lambda_matrix",
    "structure_constant_theta",
    "structure_constant_series",
    "block_characteristics",
    "block_M",
]

#: Relative singular-value cutoff for the block rank test.
RANK_CUTOFF = 1e-8


def _squarefree_split(n: int) -> tuple[int, int]:
    """n = k^2 * d with d squarefree; returns (k, d).  Requires n > 0."""
    k, d, i = 1, n, 2
    while i * i <= d:
        while d % (i * i) == 0:
            d //= i * i
            k *= i
        i += 1
    return k, d


@dataclass(frozen=True)
class QuadraticSurd:
    """Exact real quadratic number (p + q * sqrt(D)) / r.

    Normalized so that r > 0, D is squarefree (0 when the value is rational),
    and gcd(p, q, r) = 1.  Supports field arithmetic within a fixed quadratic
    extension, exact comparison, floor, and conjugation.
    """

    p: int
    q: int
    r: int
    D: int

    def __post_init__(self) -> None:
        p, q, r, D = self.p, self.q, self.r, self.D
        for name, value in (("p", p), ("q", q), ("r", r), ("D", D)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise DomainError(f"surd field {name} must be an integer, got {value!r}")
        if r == 0:
            raise DomainError("surd denominator r must be nonzero")
        if D < 0:
            raise DomainError(f"surd radicand D must be nonnegative, got {D}")
        if q == 0 or D == 0:
            q, D = 0, 0
        else:
            k, D = _squarefree_split(D)
            q *= k
            if D == 1:
                p, q, D = p + q, 0, 0
        if r < 0:
            p, q, r = -p, -q, -r
        g = math.gcd(math.gcd(abs(p), abs(q)), r)
        if g > 1:
            p, q, r = p // g, q // g, r // g
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "D", D)

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def from_rational(x: Fraction | int) -> QuadraticSurd:
        x = Fraction(x)
        return QuadraticSurd(x.numerator, 0, x.denominator, 0)

    def _common_radicand(self, other: QuadraticSurd) -> int:
        if self.D and other.D and self.D != other.D:
            raise DomainError(f"incompatible radicands {self.D} and {other.D}")
        return self.D or other.D

    def is_rational(self) -> bool:
        return self.q == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise DomainError("surd is irrational")
        return Fraction(self.p, self.r)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: QuadraticSurd | Fraction | int) -> QuadraticSurd:
        other = other if isinstance(other, QuadraticSurd) else QuadraticSurd.from_rational(other)
        D = self._common_radicand(other)
        return QuadraticSurd(
            self.p * other.r + other.p * self.r,
            self.q * other.r + other.q * self.r,
            self.r * other.r,
            D,
        )

    def __neg__(self) -> QuadraticSurd:
        return QuadraticSurd(-self.p, -self.q, self.r, self.D)

    def __sub__(self, other: QuadraticSurd | Fraction | int) -> QuadraticSurd:
        other = other if isinstance(other, QuadraticSurd) else QuadraticSurd.from_rational(other)
        return self + (-other)

    def __mul__(self, other: QuadraticSurd | Fraction | int) -> QuadraticSurd:
        other = other if isinstance(other, QuadraticSurd) else QuadraticSurd.from_rational(other)
        D = self._common_radicand(other)
        return QuadraticSurd(
            self.p * other.p + self.q * other.q * D,
            self.p * other.q + self.q * other.p,
            self.r * other.r,
            D,
        )

    def inverse(self) -> QuadraticSurd:
        norm = self.p * self.p - self.q * self.q * self.D
        if norm == 0:
            raise DomainError("surd has no inverse (value is zero)")
        return QuadraticSurd(self.r * self.p, -self.r * self.q, norm, self.D)

    def __truediv__(self, other: QuadraticSurd | Fraction | int) -> QuadraticSurd:
        other = other if isinstance(other, QuadraticSurd) else QuadraticSurd.from_rational(other)
        return self * other.inverse()

    def conjugate(self) -> QuadraticSurd:
        return QuadraticSurd(self.p, -self.q, self.r, self.D)

    # -- exact order --------------------------------------------------------

    def sign(self) -> int:
        """Sign of the value, computed exactly."""
        p, q, D = self.p, self.q, self.D
        if q == 0:
            return (p > 0) - (p < 0)
        if q > 0:
            if p >= 0:
                return 1
            return ((q * q * D > p * p) - (q * q * D < p * p)) or 0
        return -(-self).sign()

    def compare(self, other: QuadraticSurd | Fraction | int) -> int:
        other = other if isinstance(other, QuadraticSurd) else QuadraticSurd.from_rational(other)
        return (self - other).sign()

    def __lt__(self, other):  # noqa: ANN001 - rich comparisons over mixed operands
        return self.compare(other) < 0

    def __le__(self, other):  # noqa: ANN001
        return self.compare(other) <= 0

    def __gt__(self, other):  # noqa: ANN001
        return self.compare(other) > 0

    def __ge__(self, other):  # noqa: ANN001
        return self.compare(other) >= 0

    def floor(self) -> int:
        """Exact integer floor."""
        if self.q == 0:
            return self.p // self.r
        n = math.floor(float(self))
        for candidate in range(n - 2, n + 3):
            if (
                (self - candidate).sign() >= 0
                and (self - (candidate + 1)).sign() < 0
            ):
                return candidate
        raise DomainError("floor search failed; value out of float range")

    def __float__(self) -> float:
        return (self.p + self.q * math.sqrt(self.D)) / self.r

    def __str__(self) -> str:
        if self.q == 0:
            return f"{self.p}/{self.r}" if self.r != 1 else str(self.p)
        return f"({self.p} + {self.q}*sqrt({self.D}))/{self.r}"


@dataclass(frozen=True)
class RMData:
    """Validated arithmetic data of one hyperbolic matrix."""

    g: tuple[int, int, int, int]
    theta: QuadraticSurd
    theta_conj: QuadraticSurd
    lam_plus: QuadraticSurd
    lam_minus: QuadraticSurd
    level: int
    weight: int

    @property
    def a(self) -> int:
        return self.g[0]

    @property
    def b(self) -> int:
        return self.g[1]

    @property
    def c(self) -> int:
        return self.g[2]

    @property
    def d(self) -> int:
        return self.g[3]

    @property
    def trace(self) -> int:
        return self.g[0] + self.g[3]

    @property
    def degree(self) -> int:
        """Number of degree-one generators (the lower-left entry c)."""
        return self.g[2]


def _mobius(g: tuple[int, int, int, int], x: QuadraticSurd) -> QuadraticSurd:
    a, b, c, d = g
    return (x * a + b) / (x * c + d)


def validate(g) -> RMData:
    """Check g and assemble its real-multiplication data.

    Raises :class:`NotSL2` when det != 1, :class:`NotHyperbolic` when
    a + d <= 2, and :class:`DegreeTooSmall` when c < a + d + 2.
    """
    if isinstance(g, RMData):
        g = g.g
    a, b, c, d = _flatten_2x2(g)
    if a * d - b * c != 1:
        raise NotSL2(f"det {a * d - b * c} != 1 for {(a, b, c, d)}")
    t = a + d
    if t <= 2:
        raise NotHyperbolic(f"trace {t} <= 2 for {(a, b, c, d)}")
    if c < t + 2:
        raise DegreeTooSmall(f"need c >= a + d + 2, got c = {c} with a + d = {t}")
    k, D = _squarefree_split(t * t - 4)
    theta = QuadraticSurd(a - d, -k, 2 * c, D)
    theta_conj = QuadraticSurd(a - d, k, 2 * c, D)
    lam_plus = QuadraticSurd(t, -k, 2, D)
    lam_minus = QuadraticSurd(t, k, 2, D)
    if (lam_plus * lam_minus).compare(1) != 0 or (lam_plus + lam_minus).compare(t) != 0:
        raise DomainError("eigenvalue pair failed its defining identities")
    if not (lam_plus.sign() > 0 and lam_plus.compare(1) < 0 and lam_minus.compare(1) > 0):
        raise DomainError("eigenvalues are not ordered 0 < lam_plus < 1 < lam_minus")
    if (_mobius((a, b, c, d), theta) - theta).sign() != 0:
        raise DomainError("fixed-point identity failed")
    return RMData(
        g=(a, b, c, d),
        theta=theta,
        theta_conj=theta_conj,
        lam_plus=lam_plus,
        lam_minus=lam_minus,
        level=c * t,
        weight=(t + 1) // 2,
    )


def canonical_g(t: int) -> RMData:
    """The canonical trace-t member [[t+1, -1], [t+2, -1]]."""
    if not isinstance(t, int) or isinstance(t, bool):
        raise DomainError(f"trace must be an integer, got {t!r}")
    if t <= 2:
        raise NotHyperbolic(f"trace {t} <= 2 has no canonical member")
    return validate((t + 1, -1, t + 2, -1))


def _check_index(name: str, value: int, upper: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise IndexOutOfRange(f"index {name} must be an integer, got {value!r}")
    if not (1 <= value <= upper):
        raise IndexOutOfRange(f"index {name} = {value} outside 1..{upper}")
    return value


def alpha(rm: RMData, mu: int, beta: int) -> int:
    """Partner index in {1..c}: the representative of d*(mu - beta) mod c."""
    c = rm.degree
    _check_index("mu", mu, c)
    _check_index("beta", beta, c)
    rep = (rm.d * (mu - beta)) % c
    return c if rep == 0 else rep


def q_mu(rm: RMData, mu: int) -> Fraction:
    """Base characteristic d*mu/c - mu/l + 1/(a+d) of the mu-th relation row."""
    _check_index("mu", mu, rm.degree)
    return (
        Fraction(rm.d * mu, rm.degree)
        - Fraction(mu, rm.level)
        + Fraction(1, rm.trace)
    )


@dataclass(frozen=True)
class LambdaMatrix:
    """Characteristic offsets Lambda[i][j] = (-d j / c - i / (a+d)) mod 1.

    ``entries`` is (a+d) x c with Fraction values in [0, 1); ``display`` holds
    the integers ((-Lambda) mod 1) * l, the conventional level-scaled table.
    """

    entries: tuple[tuple[Fraction, ...], ...]
    display: tuple[tuple[int, ...], ...]
    level: int


def _lambda_entry(rm: RMData, i: int, j: int) -> Fraction:
    return (Fraction(-rm.d * j, rm.degree) - Fraction(i, rm.trace)) % 1


def lambda_matrix(rm: RMData) -> LambdaMatrix:
    t, c, l = rm.trace, rm.degree, rm.level
    entries = tuple(
        tuple(_lambda_entry(rm, i, j) for j in range(1, c + 1))
        for i in range(1, t + 1)
    )
    display = tuple(
        tuple(int(((-x) % 1) * l) for x in row) for row in entries
    )
    return LambdaMatrix(entries=entries, display=display, level=l)


def structure_constant_theta(
    rm: RMData,
    alpha_idx: int,
    beta: int,
    gamma: int,
    tau: complex,
    ctl: SeriesControl | None = None,
    dps: int | None = None,
) -> complex:
    """Structure constant via a single theta constant at the level point.

    Zero unless alpha_idx is congruent to d*(gamma - beta) mod c; otherwise
    theta[((a+d)*alpha_idx - gamma)/l](0, l*tau).
    """
    c, l = rm.degree, rm.level
    _check_index("alpha", alpha_idx, c)
    _check_index("beta", beta, c)
    _check_index("gamma", gamma, l)
    if (alpha_idx - rm.d * (gamma - beta)) % c != 0:
        return 0j
    char = Fraction(rm.trace * alpha_idx - gamma, l)
    return theta_constant(char, l * complex(tau), ctl, dps)


def _crt_pair(r1: int, m1: int, r2: int, m2: int) -> tuple[int, int] | None:
    """Solve x = r1 (mod m1), x = r2 (mod m2); None when infeasible."""
    g = math.gcd(m1, m2)
    if (r1 - r2) % g != 0:
        return None
    lcm = m1 // g * m2
    _, u, _ = _egcd(m1 // g, m2 // g)
    diff = (r2 - r1) // g
    x = (r1 + m1 * ((diff * u) % (m2 // g))) % lcm
    return x, lcm


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    if b == 0:
        return (abs(a), 1 if a >= 0 else -1, 0)
    g, x, y = _egcd(b, a % b)
    return g, y, x - (a // b) * y


def structure_constant_series(
    g1,
    g2,
    alpha_idx: int,
    beta: int,
    gamma: int,
    tau: complex,
    ctl: SeriesControl | None = None,
) -> complex:
    """Structure constant via the congruence lattice sum.

    Sums exp(pi i tau m^2 / (c1 c2 c12)) over all integers m satisfying
    m = -c1*gamma + c12*alpha_idx (mod c12*c1) and
    m = c2*d12*gamma - c12*d2*beta (mod c12*c2), where the subscripts refer to
    g1, g2, and their product.  An infeasible pair of congruences gives an
    exact zero.  This route shares nothing with the theta-constant route
    beyond complex exponentials.
    """
    rm1 = g1 if isinstance(g1, RMData) else validate(g1)
    rm2 = g2 if isinstance(g2, RMData) else validate(g2)
    ctl = ctl or SeriesControl()
    a1, b1, c1, d1 = rm1.g
    a2, b2, c2, d2 = rm2.g
    c12 = c1 * a2 + d1 * c2
    d12 = c1 * b2 + d1 * d2
    if c12 <= 0:
        raise DomainError(f"product matrix has nonpositive lower-left entry {c12}")
    _check_index("alpha", alpha_idx, c1)
    _check_index("beta", beta, c2)
    _check_index("gamma", gamma, c12)
    solution = _crt_pair(
        (-c1 * gamma + c12 * alpha_idx) % (c12 * c1),
        c12 * c1,
        (c2 * d12 * gamma - c12 * d2 * beta) % (c12 * c2),
        c12 * c2,
    )
    if solution is None:
        return 0j
    m0, step = solution
    if m0 > step // 2:
        m0 -= step
    den = c1 * c2 * c12
    tau = complex(tau)
    if tau.imag <= 0:
        raise DomainError(f"Im(tau) = {tau.imag} must be positive")
    scale = 1j * math.pi * tau / den

    def term(k: int) -> complex:
        m = m0 + k * step
        return cmath.exp(scale * (m * m))

    total = term(0)
    count = 1
    ring = 0
    decay = math.pi * tau.imag / den
    while True:
        ring += 1
        total += term(ring) + term(-ring)
        count += 2
        if count + 2 > ctl.max_terms:
            raise NonConvergence(
                f"congruence sum did not reach tolerance within {ctl.max_terms} terms"
            )
        next_min = (ring + 1) * step - abs(m0)
        if next_min <= 0:
            continue
        log_next = -decay * next_min * next_min
        log_rho = -decay * (2 * next_min * step)
        if log_rho < -math.log(2.0) and log_next + math.log(4.0) < math.log(
            ctl.tolerance * (abs(total) + 1.0)
        ):
            return total


@dataclass(frozen=True)
class BlockMatrix:
    """The (a+d) x c coefficient block of the mu-th relation family.

    ``chars`` holds the exact characteristics q(mu) + Lambda[i][j]; ``entries``
    their theta-constant values at the level point l*tau.  Entry (i, j) equals
    the structure constant with output index gamma = mu + (i-1)*c and input
    pair (alpha(mu, j), j); full row rank a+d is enforced at construction.
    """

    mu: int
    chars: tuple[tuple[Fraction, ...], ...]
    entries: tuple[tuple[complex, ...], ...]
    tau: complex
    level: int


@dataclass(frozen=True, eq=False)
class _BlockData:
    """What the mu-th block is apart from tau: built once per (rm, mu).

    ``chars`` are the exact characteristics of :func:`block_characteristics`,
    ``table`` their kernel table (:func:`rmtorus.theta._kernel_table`, row by
    row) and ``partners`` the indices alpha(mu, j) for j = 1..c.
    """

    chars: tuple[tuple[Fraction, ...], ...]
    table: _KernelTable
    partners: tuple[int, ...]


def _block(rm: RMData, mu: int) -> _BlockData:
    """The tau-independent data of block mu, from the cache after mu's index check.

    The check comes first: ``True`` and ``1.0`` hash as 1 and would otherwise
    be served the entry of mu = 1.
    """
    _check_index("mu", mu, rm.degree)
    return _block_data(rm, mu)


@functools.cache
def _block_data(rm: RMData, mu: int) -> _BlockData:
    t, c, l = rm.trace, rm.degree, rm.level
    base = q_mu(rm, mu)
    partners = tuple(alpha(rm, mu, j) for j in range(1, c + 1))
    rows = []
    for i in range(1, t + 1):
        row = []
        for j in range(1, c + 1):
            char = (base + _lambda_entry(rm, i, j)) % 1
            gamma = mu + (i - 1) * c
            direct = Fraction(t * partners[j - 1] - gamma, l)
            if (char - direct) % 1 != 0:
                raise DomainError(
                    f"block characteristic mismatch at (mu={mu}, i={i}, j={j})"
                )
            row.append(char)
        rows.append(tuple(row))
    table = _kernel_table([(ch, 0) for row in rows for ch in row])
    return _BlockData(chars=tuple(rows), table=table, partners=partners)


def block_characteristics(rm: RMData, mu: int) -> tuple[tuple[Fraction, ...], ...]:
    """Exact characteristics (q(mu) + Lambda[i][j]) mod 1 of the mu-th block.

    An (a+d) x c nested tuple.  Each entry is cross-checked exactly against
    the structure-constant labelling with output index gamma = mu + (i-1) c
    and input pair (alpha(mu, j), j).  Computed once per (rm, mu) and process.
    """
    return _block(rm, mu).chars


def block_M(
    rm: RMData,
    mu: int,
    tau: complex,
    ctl: SeriesControl | None = None,
    dps: int | None = None,
) -> BlockMatrix:
    """Assemble and rank-check the mu-th relation block at tau."""
    t, c, l = rm.trace, rm.degree, rm.level
    data = _block(rm, mu)
    tau_c = complex(tau)
    _check_finite(tau_c)
    flat = _kernel_sum(data.table, [l * tau_c], dps, ctl)[0]
    if dps is None:
        flat = [complex(x) for x in flat]
    entries = [tuple(flat[(i - 1) * c : i * c]) for i in range(1, t + 1)]
    array = np.array([[complex(x) for x in row] for row in entries], dtype=complex)
    singular = np.linalg.svd(array, compute_uv=False)
    rank = int(np.sum(singular > RANK_CUTOFF * singular[0]))
    if rank != t:
        raise RankDeficient(
            f"block mu={mu} has numerical rank {rank} < {t} at tau={tau_c}"
        )
    return BlockMatrix(
        mu=mu, chars=data.chars, entries=tuple(tuple(r) for r in entries),
        tau=tau_c, level=l,
    )
