"""Command-line front end with reproducible JSON output.

Each subcommand is a thin wrapper over one module entry point.  Output field
order is fixed, floats print in their shortest round-trip form, and exact
rationals and quadratic surds are rendered as integer structures, so repeated
runs with the same arguments produce byte-identical JSON.  Module errors exit
nonzero with a single ``ErrorName: message`` diagnostic line on stderr.

This is the one place that reads the ``RM_TORUS_PRECISION`` environment
variable: ``present``, ``theta``, ``geom`` and ``basis`` pass its digit count
to the library as ``dps``.  The library itself takes precision only as an
argument.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import os
import re
import sys
from collections.abc import Iterable
from decimal import Decimal
from fractions import Fraction

from . import geometry, groebner, modsym, presentation
from .core import QuadraticSurd, RMData, canonical_g, validate
from .errors import DomainError, RMTorusError
from .presentation import _complex_json
from .theta import RationalChar, theta

__all__ = ["main"]


def _surd_json(s: QuadraticSurd) -> dict:
    return {"p": s.p, "q": s.q, "r": s.r, "D": s.D}


def _fraction_json(x: Fraction) -> list[int]:
    x = Fraction(x)
    return [x.numerator, x.denominator]


def _emit(payload: dict | str | Iterable[str], out: str | None) -> None:
    """Write a payload, or its rendered JSON text whole or in chunks, with a final newline."""
    if isinstance(payload, dict):
        payload = json.dumps(payload, indent=2)
    chunks = [payload] if isinstance(payload, str) else payload
    if out is None:
        sys.stdout.writelines(chunks)
        sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
            fh.write("\n")


def _add_g_flags(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--g", nargs=4, type=int, metavar=("A", "B", "C", "D"),
        help="matrix entries a b c d",
    )
    group.add_argument(
        "--trace", type=int, metavar="T",
        help="use the canonical matrix of this trace",
    )


def _add_tau_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--tau", nargs=2, type=float, required=True, metavar=("RE", "IM"),
        help="point of the upper half-plane",
    )


def _add_out_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", metavar="FILE", help="write JSON here instead of stdout")


def _resolve_rm(args) -> RMData:
    if getattr(args, "g", None) is not None:
        return validate(tuple(args.g))
    return canonical_g(args.trace)


def _resolve_tau(parser: argparse.ArgumentParser, args) -> complex:
    """The point of ``--tau``; a non-finite one is left to the library's DomainError."""
    tau = complex(*args.tau)
    if cmath.isfinite(tau) and not tau.imag > 0:
        parser.error("--tau must have positive imaginary part")
    return tau


#: Decimal digits for the subcommands that can run in mpmath arithmetic.
PRECISION_ENV = "RM_TORUS_PRECISION"


def _env_dps() -> int | None:
    """The digit count in ``RM_TORUS_PRECISION``, or None (double) when unset."""
    raw = os.environ.get(PRECISION_ENV)
    if raw is None or raw.strip() == "":
        return None
    try:
        dps = int(raw)
    except ValueError as exc:
        raise DomainError(f"{PRECISION_ENV} must be a positive integer, got {raw!r}") from exc
    if dps <= 0:
        raise DomainError(f"{PRECISION_ENV} must be positive, got {dps}")
    return dps


def _rm_json(rm: RMData) -> dict:
    return {
        "g": list(rm.g),
        "theta": _surd_json(rm.theta),
        "theta_conjugate": _surd_json(rm.theta_conj),
        "lambda_plus": _surd_json(rm.lam_plus),
        "lambda_minus": _surd_json(rm.lam_minus),
        "l": rm.level,
        "w": rm.weight,
    }


def _cmd_validate(parser, args) -> int:
    rm = _resolve_rm(args)
    _emit(_rm_json(rm), args.out)
    return 0


#: Each normalization as f(presentation), at the presentation's dps.
_NORMALIZERS = {
    "raw": lambda p: p,
    "rational": presentation.normalize_rational,
    "modular": presentation.normalize_modular,
    "monic": presentation.monic_ordered,
}


def _cmd_present(parser, args) -> int:
    rm = _resolve_rm(args)
    tau = _resolve_tau(parser, args)
    pres = _NORMALIZERS[args.normalize](presentation.relations(rm, tau, dps=_env_dps()))
    _emit(presentation.presentation_document(pres), args.out)
    return 0


def _cmd_basis(parser, args) -> int:
    rm = _resolve_rm(args)
    tau = _resolve_tau(parser, args)
    state = groebner.state_for(rm, tau, truncation_degree=max(args.degree, 2), dps=_env_dps())
    words = groebner.linear_basis(state, args.degree)
    payload = {
        "g": list(rm.g),
        "tau": _complex_json(tau),
        "degree": args.degree,
        "count": len(words),
        "words": [list(w) for w in words],
    }
    _emit(payload, args.out)
    return 0


def _cmd_hilbert(parser, args) -> int:
    rm = _resolve_rm(args)
    data = presentation.hilbert_coeffs(rm, args.n)
    payload = {
        "g": list(rm.g),
        "n": args.n,
        "coefficients": list(data.coefficients),
    }
    _emit(payload, args.out)
    return 0


def _cmd_theta(parser, args) -> int:
    tau = _resolve_tau(parser, args)
    try:
        r, s = Fraction(args.r), Fraction(args.s)
    except (ValueError, ZeroDivisionError):
        parser.error("--r/--s must be rational, e.g. 1/24 or 0.5")
    value = theta(RationalChar(r, s), 0.0, tau, dps=_env_dps())
    payload = {
        "r": _fraction_json(r),
        "s": _fraction_json(s),
        "tau": _complex_json(tau),
        "value": _complex_json(value),
    }
    _emit(payload, args.out)
    return 0


def _cmd_average(parser, args) -> int:
    rm = _resolve_rm(args)
    av = modsym.averaged_relations(rm, quad=modsym.QuadratureControl(rel_tol=args.tol))
    _emit(presentation.presentation_document(av), args.out)
    return 0


def _cmd_geom(parser, args) -> int:
    rm = _resolve_rm(args)
    tau = _resolve_tau(parser, args)
    pres = presentation.relations(rm, tau, dps=_env_dps())
    matrix = geometry.omega_matrix(pres)
    columns = geometry._minor_columns(matrix, args.cap)
    head = {
        "g": list(rm.g),
        "tau": _complex_json(tau),
        "cap": args.cap,
        "count": len(columns.rows),
    }
    _emit(geometry._minor_chunks(head, columns), args.out)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="rmtorus",
        description=(
            "Homogeneous coordinate rings of real-multiplication "
            "noncommutative tori: presentations, bases, averaged relations, "
            "and determinantal equations, as reproducible JSON."
        ),
        epilog=f"Set {PRECISION_ENV} to a decimal-digit count for mpmath "
        "evaluation in present, theta, geom and basis (basis uses at least 40).",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="check a matrix and print its invariants")
    _add_g_flags(p)
    _add_out_flag(p)
    p.set_defaults(func=_cmd_validate)

    p = subs.add_parser("present", help="quadratic relations at a point")
    _add_g_flags(p)
    _add_tau_flag(p)
    p.add_argument(
        "--normalize", choices=("raw", "rational", "modular", "monic"),
        default="raw", help="coefficient normalization (default raw)",
    )
    _add_out_flag(p)
    p.set_defaults(func=_cmd_present)

    p = subs.add_parser("basis", help="monomial basis of one graded degree")
    _add_g_flags(p)
    _add_tau_flag(p)
    p.add_argument("--degree", type=int, required=True, help="graded degree")
    _add_out_flag(p)
    p.set_defaults(func=_cmd_basis)

    p = subs.add_parser("hilbert", help="dimension sequence h_0..h_n")
    _add_g_flags(p)
    p.add_argument("--n", type=int, required=True, help="largest degree")
    _add_out_flag(p)
    p.set_defaults(func=_cmd_hilbert)

    p = subs.add_parser("theta", help="theta constant with rational characteristics")
    p.add_argument("--r", default="0", help="first characteristic (rational)")
    p.add_argument("--s", default="0", help="second characteristic (rational)")
    _add_tau_flag(p)
    _add_out_flag(p)
    p.set_defaults(func=_cmd_theta)

    p = subs.add_parser("average", help="tau-independent averaged relations")
    _add_g_flags(p)
    p.add_argument(
        "--tol", type=float, default=1e-8,
        help="quadrature relative tolerance (default 1e-8)",
    )
    _add_out_flag(p)
    p.set_defaults(func=_cmd_average)

    p = subs.add_parser("geom", help="determinantal minor equations")
    _add_g_flags(p)
    _add_tau_flag(p)
    p.add_argument(
        "--cap", type=int, default=geometry.MINOR_CAP,
        help=f"maximum number of minors (default {geometry.MINOR_CAP}: traces 3 "
        "and 4; trace 5 has 3432 minors and writes about 184 MB)",
    )
    _add_out_flag(p)
    p.set_defaults(func=_cmd_geom)

    return parser


#: A negative number in exponent form, such as -9.5e-05.
_NEGATIVE_EXPONENT_FORM = re.compile(r"-(\d+\.?\d*|\.\d+)[eE][-+]?\d+")

#: A negative infinity or nan, as float() reads them: -inf, -Infinity, -nan.
_NEGATIVE_NONFINITE = re.compile(r"-(inf|infinity|nan)", re.IGNORECASE)


def _plain_negatives(argv: list[str]) -> list[str]:
    """Write negative numbers so that argparse reads them as values.

    argparse takes a token that starts with '-' for an option flag unless it
    is a plain negative decimal.  Exponent form becomes a plain decimal,
    which is exact, so the value parsed from it is unchanged.  A non-finite
    value has no plain form; it gets a leading space, which argparse does
    not read as a flag and float() ignores.
    """
    return [
        format(Decimal(arg), "f") if _NEGATIVE_EXPONENT_FORM.fullmatch(arg)
        else " " + arg if _NEGATIVE_NONFINITE.fullmatch(arg) else arg
        for arg in argv
    ]


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_plain_negatives(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(parser, args)
    except RMTorusError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
