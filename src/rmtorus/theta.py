"""Theta functions with rational characteristics on the upper half-plane.

Evaluates

    theta[r, s](z, tau) = sum over n in Z of
        exp(pi i (n + r)^2 tau  +  2 pi i (n + r)(z + s))

for rational characteristics ``(r, s)`` by symmetric truncation with an a
priori tail bound.  The truncation is fixed: every series is summed to
:data:`SERIES_TOLERANCE` (to 10^-dps in mpmath when that is lower), and one
that needs more than :data:`SERIES_MAX_TERMS` terms raises
:class:`NonConvergence` before any term is summed.  Every value comes from
one batched kernel, which sums every characteristic at every point at once
by the q-power recurrence; :func:`theta_constants` is its ``z = 0`` face,
and :func:`theta` passes ``z != 0`` in as the complex shift ``s + z``.  The tail bound then widens by
the ``|Im z|`` growth: each ring of terms is at most
``exp(-pi Im(tau) (k - 1/2)^2 + 2 pi |Im z| (k + 1/2))``.  In double
precision a ``z`` whose terms pass the double range raises
:class:`DomainError`; mpmath evaluates it.
The structural operations are built on them: the phase-adjusted variant
whose values generate the coefficient field, the normalized
eighth-root-of-unity multiplier of the theta-constant functional equation,
zero-location residuals, and limiting constant Fourier terms.

Useful identities (all covered by the test suite):

* shifting ``r`` by an integer leaves the value unchanged; shifting ``s`` by
  an integer multiplies it by ``exp(2 pi i r)``;
* the function is even: theta[-r, -s](-z, tau) = theta[r, s](z, tau);
* quasi-periodicity under ``z -> z + m' + m tau``;
* for gamma = [[a, b], [c, d]] with ``ab`` and ``cd`` even,
  theta[0,0](z / (c tau + d), gamma tau) =
  kappa(gamma) (c tau + d)^(1/2) exp(pi i c z^2 / (c tau + d)) theta[0,0](z, tau)
  with ``kappa(gamma)^8 = 1``.

All evaluators run in complex double precision by default and in mpmath
arithmetic at ``dps`` decimal digits when that argument is given.
"""

from __future__ import annotations

import cmath
import contextlib
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np

from .errors import DegenerateProbe, DomainError, NonConvergence

__all__ = [
    "RationalChar",
    "UpperHalfPoint",
    "theta",
    "theta_constant",
    "theta_constants",
    "algebraic_theta",
    "kappa",
    "theta_zero_check",
    "constant_fourier_term",
    "unit_phase",
]

#: Minimum Im(tau) accepted by the series evaluators.
IM_GUARD = 1e-8

#: Probe values below this magnitude are rejected as too close to a zero.
PROBE_GUARD = 1e-8

#: Every series is summed to this tail bound, or to 10^-dps when that is lower.
SERIES_TOLERANCE = 1e-15

#: A series that needs more terms than this raises NonConvergence.
SERIES_MAX_TERMS = 1_000_000

_LOG_DOUBLE_MAX = math.log(sys.float_info.max)

RationalLike = int | Fraction


def _as_fraction(x: RationalLike, what: str) -> Fraction:
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise DomainError(f"{what} must be an integer or Fraction, got {x!r}")
    return x if isinstance(x, Fraction) else Fraction(x)


def unit_phase(x: Fraction) -> complex:
    """exp(pi i x) for rational x, exact up to one complex exponential."""
    x = Fraction(x) % 2
    if x == 0:
        return 1.0 + 0.0j
    if 2 * x == 1:
        return 1j
    if x == 1:
        return -1.0 + 0.0j
    if 2 * x == 3:
        return -1j
    return cmath.exp(1j * math.pi * float(x))


def _unit_phase_mp(x: Fraction) -> mp.mpc:
    x = Fraction(x) % 2
    return mp.expjpi(mp.mpf(x.numerator) / x.denominator)


@dataclass(frozen=True)
class RationalChar:
    """A rational theta characteristic ``(r, s)``.

    Two characteristics are considered equal when they differ componentwise by
    integers; ``canonical()`` returns the representative with both entries in
    ``[0, 1)``.  Note the analytic caveat: integer shifts of ``r`` leave the
    theta value unchanged, while integer shifts of ``s`` scale it by
    ``exp(2 pi i r)``.
    """

    r: Fraction
    s: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "r", _as_fraction(self.r, "characteristic r"))
        object.__setattr__(self, "s", _as_fraction(self.s, "characteristic s"))

    def canonical(self) -> RationalChar:
        return RationalChar(self.r % 1, self.s % 1)

    def negated(self) -> RationalChar:
        return RationalChar(-self.r, -self.s)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalChar):
            return NotImplemented
        return (self.r - other.r).denominator == 1 and (self.s - other.s).denominator == 1

    def __hash__(self) -> int:
        return hash((self.r % 1, self.s % 1))


@dataclass(frozen=True)
class UpperHalfPoint:
    """A point in the open upper half-plane."""

    value: complex

    def __post_init__(self) -> None:
        value = complex(self.value)
        _check_finite(value)
        if not (value.imag > 0):
            raise DomainError(f"point {value} is not in the upper half-plane")
        object.__setattr__(self, "value", value)


def _coerce_tau(tau: complex | UpperHalfPoint) -> complex:
    if isinstance(tau, UpperHalfPoint):
        return tau.value
    return UpperHalfPoint(complex(tau)).value


def _check_dps(dps) -> None:
    """Raise DomainError unless ``dps`` is None or a positive ``int`` (``bool`` excluded)."""
    if dps is not None and (not _is_int(dps) or dps < 1):
        raise DomainError(f"dps must be a positive integer, got {dps!r}")


def _working_precision(dps: int | None):
    """mpmath context with guard digits for ``dps``; none for complex double."""
    _check_dps(dps)
    return contextlib.nullcontext() if dps is None else mp.workdps(dps + 10)


def _check_finite(point) -> None:
    """Raise DomainError for a point with an infinite or nan part."""
    if not (cmath.isfinite(point) if isinstance(point, complex) else mp.isfinite(point)):
        raise DomainError(f"point {complex(point)} is not finite")


def _check_height(points) -> float:
    """Lowest Im over the points, each finite and none below the guard."""
    for point in points:
        _check_finite(point)
    im_min = float(min(point.imag for point in points))
    if not (im_min >= IM_GUARD):
        raise DomainError(f"Im(tau) = {im_min} is below the evaluation guard {IM_GUARD}")
    return im_min


def _log_tolerance(dps: int | None) -> float:
    """log of the series tolerance: SERIES_TOLERANCE, and 10^-dps in mpmath."""
    if dps is None:
        return math.log(SERIES_TOLERANCE)
    return min(math.log(SERIES_TOLERANCE), -dps * math.log(10.0))


def _ring_count(im_min: float, log_tol: float, im_z: float = 0.0) -> int:
    """Rings K the a priori tail bound needs at height Im(tau) >= im_min.

    Ring k holds the terms n + r = rho + k and rho - k with |rho| <= 1/2, each
    of magnitude at most f(k) = exp(-pi Im(tau) (k - 1/2)^2 + 2 pi |Im z| (k + 1/2)).
    Once the ring-to-ring ratio exp(-2 pi Im(tau) k + 2 pi |Im z|) is below
    1/2, the whole tail past ring K is bounded by 4 f(K + 1); K is the first
    ring where both hold with 4 f(K + 1) below the tolerance.
    """
    a = math.pi * im_min
    b = 2.0 * math.pi * abs(im_z)
    h = b / (2.0 * a)
    rings = max(
        1,
        math.floor((math.log(2.0) + b) / (2.0 * a)) + 1,
        math.floor(h + math.sqrt(h * h + (b + math.log(4.0) - log_tol) / a) - 0.5) + 1,
    )
    if 2 * rings + 1 > SERIES_MAX_TERMS:
        # the power of ten, since exp(log_tol) underflows to 0 past dps 308
        raise NonConvergence(
            f"theta series did not reach tolerance 1e{log_tol / math.log(10.0):.0f} "
            f"within {SERIES_MAX_TERMS} terms"
        )
    return rings


def _sum_rings(rho, s, tau, rings: int, expjpi):
    """Sum of exp(pi i (m^2 tau + 2 m s)) over m = rho - rings, ..., rho + rings.

    ``rho`` and ``s`` are arrays over characteristics and ``tau`` a column
    over points, of complex doubles or of mpmath numbers alike; ``s`` is
    complex when it carries z as s + z.  Three
    exponentials per entry seed the q-power recurrence
    T(m +- 1) = T(m) exp(pi i ((1 +- 2m) tau +- 2s)), whose ratios step by
    q^2 = exp(2 pi i tau).
    """
    start = expjpi(rho * rho * tau + 2 * rho * s)
    up = expjpi((1 + 2 * rho) * tau + 2 * s)
    down = expjpi((1 - 2 * rho) * tau - 2 * s)
    q2 = expjpi(2 * tau)
    total = above = below = start
    for _ in range(rings):
        above = above * up
        below = below * down
        total = total + above + below
        up = up * q2
        down = down * q2
    return total


def _char_pair(ch) -> tuple[Fraction, Fraction]:
    if isinstance(ch, RationalChar):
        return ch.r, ch.s
    r, s = ch
    return _as_fraction(r, "characteristic r"), _as_fraction(s, "characteristic s")


def _centred(r: Fraction) -> tuple[int, int]:
    """r minus its nearest integer, as (numerator, denominator) in [-1/2, 1/2]."""
    num, den = r.numerator, r.denominator
    return num - (2 * num + den) // (2 * den) * den, den


@dataclass(frozen=True, eq=False)
class _KernelTable:
    """Characteristics as the kernel sums them, with the doubles it needs.

    ``rho`` holds r minus its nearest integer and ``shift`` holds s, each as
    exact (numerator, denominator) pairs; ``rho_f`` and ``shift_f`` are the
    same values as read-only double arrays.  Nothing here depends on tau.
    """

    rho: tuple[tuple[int, int], ...]
    shift: tuple[tuple[int, int], ...]
    rho_f: np.ndarray
    shift_f: np.ndarray


def _kernel_table(chars) -> _KernelTable:
    """The table :func:`theta_constants` sums, built from exact characteristics."""
    pairs = [_char_pair(ch) for ch in chars]
    rho = tuple(_centred(r) for r, _ in pairs)
    shift = tuple((s.numerator, s.denominator) for _, s in pairs)
    rho_f = np.array([n / d for n, d in rho])
    shift_f = np.array([n / d for n, d in shift])
    rho_f.flags.writeable = shift_f.flags.writeable = False
    return _KernelTable(rho, shift, rho_f, shift_f)


def _kernel_sum(table: _KernelTable, taus, dps: int | None = None, z=0):
    """theta[r, s](z, tau) for the characteristics in ``table``, z entering as s + z.

    In double precision a ``z`` whose terms could pass the double range, by
    the largest term exp(pi (Im z)^2 / Im(tau) + 2 pi |Im z|) times the term
    count, raises :class:`DomainError`; the mpmath sum has no such limit.
    """
    if z != 0:
        _check_finite(z)
    im_z = float(z.imag)
    if dps is None:
        tau = np.asarray(taus, dtype=complex).reshape(-1, 1)
        im_min = _check_height(tau[:, 0].tolist())
        rings = _ring_count(im_min, _log_tolerance(None), im_z)
        shift = table.shift_f
        if z != 0:
            log_peak = math.pi * im_z * im_z / im_min + 2.0 * math.pi * abs(im_z)
            if log_peak + math.log(2 * rings + 1) >= _LOG_DOUBLE_MAX:
                raise DomainError(
                    f"theta terms at z = {complex(z)}, Im(tau) = {im_min} pass the "
                    f"double range; evaluate with dps"
                )
            shift = shift + complex(z)
        return _sum_rings(table.rho_f, shift, tau, rings, lambda x: np.exp(1j * np.pi * x))
    with _working_precision(dps):
        tau = np.array([[mp.mpc(t)] for t in taus], dtype=object)
        im_min = _check_height(tau[:, 0])
        rings = _ring_count(im_min, _log_tolerance(dps), im_z)
        shift = np.array([mp.mpf(n) / d for n, d in table.shift], dtype=object)
        return _sum_rings(
            np.array([mp.mpf(n) / d for n, d in table.rho], dtype=object),
            shift if z == 0 else shift + mp.mpc(z),
            tau,
            rings,
            np.frompyfunc(mp.expjpi, 1, 1),
        )


def theta_constants(chars, taus, dps: int | None = None):
    """theta[r, s](0, tau) for every characteristic at every point, in one sum.

    ``chars`` holds :class:`RationalChar` values or exact ``(r, s)`` pairs and
    ``taus`` points of the upper half-plane with Im(tau) >= 1e-8.  Returns an
    array of shape (len(taus), len(chars)): complex doubles when ``dps`` is
    None, otherwise mpmath numbers from a sum at ``dps`` decimal digits.
    Every series is truncated at the ring the a priori tail bound of the
    lowest point requires for :data:`SERIES_TOLERANCE` (or 10^-dps when that
    is lower); :class:`NonConvergence` is raised, before any summing, when
    that takes more than :data:`SERIES_MAX_TERMS` terms.

    This is :func:`_kernel_table` followed by :func:`_kernel_sum`; a caller
    that sums the same characteristics again keeps the table.
    """
    return _kernel_sum(_kernel_table(chars), taus, dps)


def theta(
    ch: RationalChar,
    z: complex,
    tau: complex | UpperHalfPoint,
    dps: int | None = None,
) -> complex:
    """theta[ch.r, ch.s](z, tau) by symmetric truncation.

    ``tau`` must lie in the upper half-plane with Im(tau) >= 1e-8 and ``z``
    must be finite.  With ``dps`` the sum runs in mpmath arithmetic at that
    many decimal digits and an ``mpmath.mpc`` is returned; with ``dps=None``
    a complex double, and a ``z`` whose terms pass the double range raises
    :class:`DomainError`.
    """
    if not isinstance(ch, RationalChar):
        ch = RationalChar(*ch) if isinstance(ch, tuple) else RationalChar(ch)
    tau_value = _coerce_tau(tau)
    value = _kernel_sum(_kernel_table([ch]), [tau_value], dps, z)[0, 0]
    return complex(value) if dps is None else value


def theta_constant(
    r: RationalLike,
    tau: complex | UpperHalfPoint,
    dps: int | None = None,
) -> complex:
    """theta[r, 0](0, tau); invariant under r -> -r and r -> r + 1."""
    return theta(RationalChar(_as_fraction(r, "characteristic r")), 0.0, tau, dps)


def algebraic_theta(
    ch: RationalChar,
    tau: complex | UpperHalfPoint,
    dps: int | None = None,
) -> complex:
    """exp(-pi i r s) * theta[r, s](0, tau), the phase-normalized constant."""
    if not isinstance(ch, RationalChar):
        raise DomainError(f"expected RationalChar, got {ch!r}")
    value = theta(ch, 0.0, tau, dps)
    x = (-ch.r * ch.s) % 2
    if isinstance(value, complex):
        return unit_phase(x) * value
    return _unit_phase_mp(x) * value


def _is_parity_group_member(gamma: tuple[int, int, int, int]) -> bool:
    a, b, c, d = gamma
    return a * d - b * c == 1 and (a * b) % 2 == 0 and (c * d) % 2 == 0


def kappa(gamma, tau_probe: complex | UpperHalfPoint, dps: int | None = None) -> complex:
    """Normalized multiplier of the theta-constant functional equation.

    For gamma = [[a, b], [c, d]] with det 1 and ab, cd both even, returns
    theta[0,0](0, gamma tau) / ((c tau + d)^(1/2) theta[0,0](0, tau)) with the
    principal square-root branch; the result is an eighth root of unity,
    independent of the probe point.  Probes landing within ``1e-8`` of a theta
    zero raise :class:`DegenerateProbe`.  With ``dps`` the result is an mpmath
    number good to about ``dps`` digits whatever the ambient precision.
    """
    entries = _flatten_2x2(gamma)
    if not _is_parity_group_member(entries):
        raise DomainError(
            f"matrix {entries} is not in the even-product subgroup (det 1, ab and cd even)"
        )
    a, b, c, d = entries
    tau_value = _coerce_tau(tau_probe)
    table = _kernel_table([RationalChar(0, 0)])
    # with dps, gamma tau and c tau + d are formed at the working precision
    # too: formed in double they would hold only 16 digits
    with _working_precision(dps):
        point = tau_value if dps is None else mp.mpc(tau_value)
        base = _kernel_sum(table, [point], dps).item(0)
        if abs(base) < PROBE_GUARD:
            raise DegenerateProbe(f"|theta(0, tau_probe)| = {abs(base)} < {PROBE_GUARD}")
        lifted = _kernel_sum(table, [(a * point + b) / (c * point + d)], dps).item(0)
        sqrt = cmath.sqrt if dps is None else mp.sqrt
        return lifted / (sqrt(c * point + d) * base)


def _is_int(value) -> bool:
    """Whether ``value`` is an ``int`` other than a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


def _flatten_2x2(gamma) -> tuple[int, int, int, int]:
    """Entries (a, b, c, d) of [[a, b], [c, d]] given nested or flat.

    Raises :class:`DomainError` unless every entry is an ``int`` (``bool``
    excluded), so a non-integer entry is never truncated.
    """
    try:
        (a, b), (c, d) = gamma
    except (TypeError, ValueError):
        try:
            a, b, c, d = gamma
        except (TypeError, ValueError) as exc:
            raise DomainError(f"expected a 2x2 integer matrix, got {gamma!r}") from exc
    entries = (a, b, c, d)
    if not all(map(_is_int, entries)):
        raise DomainError(f"matrix entries must be integers, got {entries}")
    return entries


def theta_zero_check(
    ch: RationalChar,
    p: int,
    q: int,
    tau: complex | UpperHalfPoint,
) -> float:
    """|theta[r, s](z0, tau)| at the lattice zero indexed by integers (p, q).

    The zero set of theta[r, s](., tau) is the lattice
    ``z0 = (1/2 - r + p) tau + (1/2 - s + q)``.  Returns the absolute value of
    the series there, which should vanish to evaluation accuracy.
    """
    if not isinstance(ch, RationalChar):
        raise DomainError(f"expected RationalChar, got {ch!r}")
    tau_value = _coerce_tau(tau)
    z0 = (0.5 - float(ch.r) + p) * tau_value + (0.5 - float(ch.s) + q)
    return abs(theta(ch, z0, tau_value))


def constant_fourier_term(r: RationalLike, l: int, dps: int | None = None) -> complex:
    """Limiting constant Fourier coefficient of theta[r, 0](0, l * i T) as T grows.

    Evaluates at heights ``50 l^2`` and ``100 l^2`` and Richardson-extrapolates,
    at ``dps`` digits when that is given; the result is ~1 when r is an
    integer and below 1e-12 otherwise.
    """
    r = _as_fraction(r, "characteristic r")
    if not _is_int(l) or l <= 0:
        raise DomainError(f"level must be a positive integer, got {l!r}")
    v1 = theta_constant(r, complex(0.0, 50.0 * l * l), dps)
    v2 = theta_constant(r, complex(0.0, 100.0 * l * l), dps)
    with _working_precision(dps):
        return 2 * v2 - v1
