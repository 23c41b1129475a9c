"""Seeded job lists and correctness checks for the rmtorus benchmark.

A job is shaped like one user request.  Where a CLI subcommand exists the job
is an argv for ``rmtorus.cli.main`` (the harness appends ``--out FILE``);
otherwise it is a call to a public library function.  Every check here runs
outside the timed interval and uses a route independent of the code under
test where one exists (``core.structure_constant_series`` for annihilation, a
Hilbert recurrence written out below for basis sizes).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

#: Canonical trace-t members [[t+1, -1], [t+2, -1]] and the non-canonical one.
CANONICAL = {t: (t + 1, -1, t + 2, -1) for t in (3, 4, 5, 6)}
NONCANONICAL = (7, -2, 11, -3)

#: The tests draw tau from this box: Re in [-0.5, 0.5], Im in [0.8, IM_TOP].
IM_BOTTOM, IM_TOP = 0.8, 2.5

#: Highest Im(tau) each timed job draws.  Below IM_TOP only where the package
#: has a known failure higher up (bench/README.md, "Known baseline failures"):
#: traces 5 and 6 raise RankDeficient from Im(tau) of about 2.2 on both
#: precision paths, and the (7,-2,11,-3) degree-3 basis count drifts from
#: h_3 = 165 above Im(tau) = 1.4 at dps 40.  known_failure_probes keeps those
#: regions measured.
PRESENT_IM_TOP = {3: IM_TOP, 4: IM_TOP, 5: 2.15, 6: 2.15, 11: IM_TOP}
BASIS_IM_TOP = {3: IM_TOP, 4: IM_TOP, 5: 2.15, 11: 1.4}

ANNIHILATION_TOL = 1e-9
QUADRATURE_TOL = 1e-6
TRANSFORMATION_TOL = 1e-6
GEODESIC_TOL = 2e-8

#: Criterion 6 of the test suite: gamma in Gamma[576, 24] with c*tau0 + d = i.
GAMMA6 = (577, 6912, 27648, 331201)


@dataclass
class Job:
    """One request.  ``argv`` for CLI jobs, ``call`` for library jobs."""

    label: str
    kind: str
    argv: list[str] | None = None
    call: object = None
    meta: dict = field(default_factory=dict)


@dataclass
class Workload:
    jobs: list[Job]
    matrices: list[tuple[int, int, int, int]]
    #: check(jobs, outputs) -> ({job index: reason}, {margin name: value});
    #: an output is None for a job that failed on its first run.
    check: object


def g_of(key: int) -> tuple[int, int, int, int]:
    return NONCANONICAL if key == 11 else CANONICAL[key]


def _g_flags(key: int) -> list[str]:
    if key == 11:
        return ["--g", *map(str, NONCANONICAL)]
    return ["--trace", str(key)]


def _fixed(x: float) -> str:
    # Fixed point: argparse takes a negative number in exponent form, such as
    # -9.5e-05, for an option flag (see bench/README.md, "Known failures").
    return f"{x:.6f}"


def _taus(rng: random.Random, n: int, im_top: float) -> list[complex]:
    """n points, Re uniform, Im uniform on [IM_BOTTOM, im_top] in n strata.

    Rounded to the six decimals the CLI arguments carry.
    """
    width = (im_top - IM_BOTTOM) / n
    taus = [complex(float(_fixed(rng.uniform(-0.5, 0.5))),
                    float(_fixed(IM_BOTTOM + (i + rng.random()) * width)))
            for i in range(n)]
    rng.shuffle(taus)
    return taus


def _tau_flags(tau: complex) -> list[str]:
    return ["--tau", _fixed(tau.real), _fixed(tau.imag)]


def hilbert(c: int, t: int, n: int) -> int:
    """h_n of (1 + (c-t)x + x^2) / (1 - t x + x^2): 1, c, tc, then t h - h."""
    h = [1, c, t * c]
    while len(h) <= n:
        h.append(t * h[-1] - h[-2])
    return h[n]


# ---------------------------------------------------------------------------
# present
# ---------------------------------------------------------------------------


def _annihilation(rm, rels, tau: complex) -> float:
    """Worst relative residual of sum_j coeff * C(left, right, gamma) over gamma.

    Structure constants come from the lattice-sum route, which shares nothing
    with the theta route the relations were built from.
    """
    from rmtorus.core import structure_constant_series

    worst = 0.0
    for terms in rels:
        samples = []
        for gamma in range(1, rm.level + 1):
            parts = [coeff * structure_constant_series(rm, rm, left, right, gamma, tau)
                     for left, right, coeff in terms]
            samples.append((abs(sum(parts)), max(abs(p) for p in parts)))
        scale = max(m for _, m in samples)
        worst = max(worst, max(v for v, _ in samples) / scale)
    return worst


def _check_present(job: Job, payload: dict, margins: dict) -> str | None:
    from rmtorus.core import validate

    rm = validate(job.meta["g"])
    c, t = rm.degree, rm.trace
    rels = payload["relations"]
    if len(rels) != c * (c - t):
        return f"{len(rels)} relations, expected c(c-a-d) = {c * (c - t)}"
    monic = payload["normalization"] == "monic"
    terms = [
        [((x["right"], x["left"]) if monic else (x["left"], x["right"]))
         + (complex(x["coeff"]["re"], x["coeff"]["im"]),) for x in rel["terms"]]
        for rel in rels
    ]
    tau = complex(payload["tau"]["re"], payload["tau"]["im"])
    resid = _annihilation(rm, terms, tau)
    margins["presentation.annihilation_resid_max"] = max(
        margins.get("presentation.annihilation_resid_max", 0.0), resid)
    if not resid < ANNIHILATION_TOL:
        return f"annihilation residual {resid:.3e} >= {ANNIHILATION_TOL}"
    return None


def _per_job(check_one):
    def check(jobs, outputs):
        failures, margins = {}, {}
        for i, (job, out) in enumerate(zip(jobs, outputs)):
            if out is None:
                continue
            reason = check_one(job, json.loads(out), margins)
            if reason is not None:
                failures[i] = reason
        return failures, margins
    return check


def present(seed: int) -> Workload:
    rng = random.Random(seed)
    jobs = []
    for key in (3, 4, 5, 6, 11):
        level = g_of(key)[2] * (g_of(key)[0] + g_of(key)[3])
        choices = ("raw", "rational", "monic") + (("modular",) if level % 2 == 0 else ())
        for tau in _taus(rng, 40, PRESENT_IM_TOP[key]):
            norm = rng.choice(choices)
            jobs.append(Job(
                label=f"present g={key} {norm} tau={tau:.4f}", kind="present",
                argv=["present", *_g_flags(key), *_tau_flags(tau), "--normalize", norm],
                meta={"g": g_of(key)},
            ))
    rng.shuffle(jobs)
    return Workload(jobs, [g_of(k) for k in (3, 4, 5, 6, 11)],
                    _per_job(_check_present))


# ---------------------------------------------------------------------------
# basis
# ---------------------------------------------------------------------------


def _check_basis(job: Job, payload: dict, margins: dict) -> str | None:
    a, b, c, d = job.meta["g"]
    n = payload["degree"]
    expected = hilbert(c, a + d, n)
    words = [tuple(w) for w in payload["words"]]
    if payload["count"] != expected or len(words) != expected:
        return f"count {payload['count']} ({len(words)} words), expected h_{n} = {expected}"
    if len(set(words)) != len(words) or any(
            len(w) != n or not all(1 <= x <= c for x in w) for w in words):
        return "basis words are not distinct degree-n words in 1..c"
    return None


def basis(seed: int) -> Workload:
    rng = random.Random(seed)
    jobs = []
    for key, degree, n_tau in ((3, 4, 2), (4, 4, 2), (5, 3, 2), (11, 3, 1)):
        for tau in _taus(rng, n_tau, BASIS_IM_TOP[key]):
            jobs.append(Job(
                label=f"basis g={key} n={degree} tau={tau:.4f}", kind="basis",
                argv=["basis", *_g_flags(key), *_tau_flags(tau), "--degree", str(degree)],
                meta={"g": g_of(key)},
            ))
    return Workload(jobs, [g_of(k) for k in (3, 4, 5, 11)], _per_job(_check_basis))


# ---------------------------------------------------------------------------
# geom
# ---------------------------------------------------------------------------


def _check_geom(job: Job, payload: dict, margins: dict) -> str | None:
    a, b, c, d = job.meta["g"]
    expected = math.comb(c * (c - a - d), c)
    if payload["count"] != expected or len(payload["minors"]) != expected:
        return f"{payload['count']} minors, expected C(c(c-t), c) = {expected}"
    for minor in payload["minors"]:
        for mono in minor["monomials"]:
            if sum(mono["exponents"]) != c:
                return f"minor {minor['rows']} has a monomial of degree != {c}"
    return None


def geom(seed: int) -> Workload:
    rng = random.Random(seed)
    jobs = [
        Job(label=f"geom g={key} tau={tau:.4f}", kind="geom",
            argv=["geom", *_g_flags(key), *_tau_flags(tau), "--cap", "1000"],
            meta={"g": g_of(key)})
        for key in (3, 4) for tau in _taus(rng, 5, IM_TOP)
    ]
    return Workload(jobs, [g_of(3), g_of(4)], _per_job(_check_geom))


# ---------------------------------------------------------------------------
# modular
# ---------------------------------------------------------------------------


def _mpf_exact(x) -> list[int]:
    sign, man, exp, bc = x._mpf_
    return [int(sign), int(man), int(exp), int(bc)]


def _relation_values_job(mu: int, k: int, moved: bool) -> Job:
    def call():
        from mpmath import mp

        from rmtorus import canonical_g, modsym

        with mp.workdps(45):
            a, b, c, d = GAMMA6
            tau0 = mp.mpc(-d, 1) / c
            point = (a * tau0 + b) / (c * tau0 + d) if moved else tau0
            return modsym.relation_values(canonical_g(4), mu, k, point, dps=30)

    return Job(label=f"relation_values mu={mu} k={k} {'gamma*tau0' if moved else 'tau0'}",
               kind="relation_values", call=call, meta={"mu": mu, "k": k, "moved": moved})


def _cusp(q: int) -> str:
    return "inf" if q == 0 else f"1/{q}"


def _geodesic_job(frm: int, to: int) -> Job:
    """One leg of the level-24 product between cusps 1/frm and 1/to (1/0 = infinity)."""
    def call():
        from rmtorus import modsym

        plain = modsym.ThetaProductHandle(
            24, (Fraction(1, 24), Fraction(5, 24), Fraction(7, 24), Fraction(11, 24)))
        return modsym.integrate_geodesic(plain, modsym.Cusp(1, frm), modsym.Cusp(1, to))

    return Job(label=f"integrate_geodesic {_cusp(frm)} -> {_cusp(to)}", kind="geodesic",
               call=call, meta={"legs": (frm, to)})


def serialize(job: Job, result) -> bytes:
    """Exact, deterministic bytes for a library job's result."""
    if job.kind == "relation_values":
        data = {str(slot): [_mpf_exact(v.real), _mpf_exact(v.imag)]
                for slot, v in sorted(result.items())}
    else:
        data = {"value": [result.value.real, result.value.imag],
                "error": result.error, "evaluations": result.evaluations}
    return json.dumps(data).encode()


def _check_modular(jobs, outputs):
    from mpmath import mp

    from rmtorus import canonical_g
    from rmtorus.presentation import kernel_pivots, relations

    rm = canonical_g(4)
    failures, margins = {}, {"modsym.quadrature_error_max": 0.0}
    support = {(r.mu, r.k): {t.right for t in r.terms}
               for r in relations(rm, 2j).relations}
    probes: dict[tuple[int, int], dict[bool, tuple[int, dict]]] = {}
    legs: dict[tuple[int, int], tuple[int, complex]] = {}
    for i, (job, out) in enumerate(zip(jobs, outputs)):
        if out is None:
            continue
        if job.kind == "average":
            payload = json.loads(out)
            err = payload["quadrature_error"]
            margins["modsym.quadrature_error_max"] = max(
                margins["modsym.quadrature_error_max"], err)
            got = {(r["mu"], r["k"]): {t["right"] for t in r["terms"]}
                   for r in payload["relations"]}
            if not err < QUADRATURE_TOL:
                failures[i] = f"quadrature error {err:.3e} >= {QUADRATURE_TOL}"
            elif got != support:
                failures[i] = "averaged support differs from the presentation at 2i"
        elif job.kind == "relation_values":
            probes.setdefault((job.meta["mu"], job.meta["k"]), {})[job.meta["moved"]] = (i, out)
        else:
            legs[job.meta["legs"]] = (i, out.value)

    with mp.workdps(45):
        a, b, c, d = GAMMA6
        jfac = (c * (mp.mpc(-d, 1) / c) + d) ** 2
        for (mu, k), pair in probes.items():
            if len(pair) < 2:
                continue
            (i0, base), (i1, moved) = pair[False], pair[True]
            free = sorted(set(range(1, 7)) - set(kernel_pivots(rm, mu, 2j)))
            lead = free[k - 1]
            reason = None
            if set(base) != set(moved):
                reason = "support differs between tau0 and gamma*tau0"
            else:
                scale = max(abs(v) for v in base.values())
                for slot in base:
                    if abs(moved[slot] - jfac * base[slot]) > TRANSFORMATION_TOL * scale:
                        reason = f"weight-2 law fails at slot {slot}"
                        break
                    ratio = base[slot] / base[lead]
                    if abs(moved[slot] / moved[lead] - ratio) > \
                            TRANSFORMATION_TOL * max(1, abs(ratio)):
                        reason = f"coefficient ratio moves at slot {slot}"
                        break
            if reason is not None:
                failures[i0] = failures[i1] = reason

    if {(24, 0), (0, 24)} <= set(legs):
        (ia, fwd), (ib, bwd) = legs[(24, 0)], legs[(0, 24)]
        if not abs(fwd + bwd) <= GEODESIC_TOL:
            failures[ia] = failures[ib] = f"antisymmetry residual {abs(fwd + bwd):.3e}"
    if {(0, 24), (24, 48), (0, 48)} <= set(legs):
        (ib, leg_a), (ic, leg_b), (id_, whole) = legs[(0, 24)], legs[(24, 48)], legs[(0, 48)]
        if not abs(leg_a + leg_b - whole) <= GEODESIC_TOL:
            failures[ib] = failures[ic] = failures[id_] = \
                f"additivity residual {abs(leg_a + leg_b - whole):.3e}"
    return failures, margins


def modular(seed: int) -> Workload:
    rng = random.Random(seed)
    pairs = rng.sample([(mu, k) for mu in range(1, 7) for k in (1, 2)], 2)
    jobs = [_geodesic_job(frm, to) for frm, to in ((24, 0), (0, 24), (24, 48), (0, 48))]
    jobs += [_relation_values_job(mu, k, moved) for mu, k in pairs for moved in (False, True)]
    jobs += [Job(label=f"average trace=4 tol={tol}", kind="average",
                 argv=["average", "--trace", "4", "--tol", tol])
             for tol in ("1e-8", "1e-10")]
    return Workload(jobs, [CANONICAL[4]], _check_modular)


WORKLOADS = {"present": present, "basis": basis, "geom": geom, "modular": modular}


# ---------------------------------------------------------------------------
# known baseline failures (reported, never timed)
# ---------------------------------------------------------------------------


def known_failure_probes(name: str, seed: int):
    """(label, call) pairs that probe the known failures of the package.

    Each call returns a reason string when the failure still shows and None
    when it no longer does.
    """
    from rmtorus import errors, groebner, presentation, validate

    rng = random.Random(seed)
    probes = []

    def rank_deficient(g, tau, degree=None):
        def call():
            try:
                if degree is None:
                    presentation.relations(validate(g), tau)
                else:
                    groebner.state_for(validate(g), tau, truncation_degree=degree)
            except errors.RankDeficient as exc:
                return f"RankDeficient: {exc}"
            return None
        return call

    def wrong_count(g, tau):
        def call():
            a, b, c, d = g
            st = groebner.state_for(validate(g), tau, truncation_degree=3)
            n = len(groebner.linear_basis(st, 3))
            expected = hilbert(c, a + d, 3)
            return f"count {n} != h_3 = {expected}" if n != expected else None
        return call

    def high(lo):
        return complex(rng.uniform(-0.5, 0.5), rng.uniform(lo, IM_TOP))

    if name == "present":
        for key in (5, 6):
            for _ in range(3):
                tau = high(2.2)
                probes.append((f"present g={key} tau={tau:.4f}",
                               rank_deficient(g_of(key), tau)))
    elif name == "basis":
        tau = high(2.2)
        probes.append((f"basis g=5 n=3 tau={tau:.4f}", rank_deficient(g_of(5), tau, 3)))
        tau = high(1.6)
        probes.append((f"basis g=11 n=3 tau={tau:.4f}", wrong_count(g_of(11), tau)))
    return probes
