"""Degree-truncated noncommutative Buchberger completion.

Words are tuples over {1..c}; polynomials are word->coefficient maps over the
free algebra, ordered by deglex (shorter words smaller; equal lengths compared
left to right, smaller index smaller).  Starting from the monic quadratic
relations, overlap obstructions are resolved degree by degree up to a
truncation bound, and the surviving irreducible words of each degree form a
linear basis of the graded quotient.

Coefficients are inexact, so reductions carry condition tracking: the largest
intermediate magnitude seen during a reduction defines the scale against which
the relative ``zero_threshold`` prunes.  Double precision is insufficient for
the completions that arise here (catastrophic cancellation promotes noise into
fake leading terms); build states from presentations computed at 40+ decimal
digits (see :func:`state_for`), where the default threshold leaves a wide
margin.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import mpmath as mp

from .core import RMData
from .errors import DomainError, TruncationExceeded
from .precision import effective_dps
from .presentation import Presentation, monic_ordered, relations

__all__ = [
    "Word",
    "FreePoly",
    "GroebnerState",
    "deglex_compare",
    "deglex_key",
    "groebner_state",
    "normal_form",
    "complete_to_degree",
    "linear_basis",
    "state_for",
]

Word = tuple[int, ...]


def deglex_key(word: Word) -> tuple[int, Word]:
    return (len(word), word)


def deglex_compare(t1: Word, t2: Word) -> int:
    """-1, 0, or 1 as t1 <, =, > t2 in deglex order."""
    k1, k2 = deglex_key(tuple(t1)), deglex_key(tuple(t2))
    return (k1 > k2) - (k1 < k2)


@dataclass(frozen=True)
class FreePoly:
    """A polynomial in the free algebra: finitely many word -> coeff terms."""

    terms: dict[Word, complex]

    def __post_init__(self) -> None:
        for word in self.terms:
            if not isinstance(word, tuple) or any(
                not isinstance(i, int) or i < 1 for i in word
            ):
                raise DomainError(f"invalid word {word!r}")

    def is_zero(self) -> bool:
        return not self.terms

    def leading_word(self) -> Word:
        if not self.terms:
            raise DomainError("zero polynomial has no leading word")
        return max(self.terms, key=deglex_key)

    def degree(self) -> int:
        if not self.terms:
            return -1
        return max(len(w) for w in self.terms)


@dataclass(frozen=True)
class GroebnerState:
    """An ordered monic reduction system, completed up to ``completed_degree``."""

    system: tuple[FreePoly, ...]
    truncation_degree: int
    zero_threshold: float
    n_generators: int
    completed_degree: int = 2
    new_leads_by_degree: dict[int, tuple[Word, ...]] = field(default_factory=dict)

    def leads(self) -> list[Word]:
        return [p.leading_word() for p in self.system]


def _as_system_entry(poly: FreePoly) -> FreePoly:
    lead = poly.leading_word()
    lc = poly.terms[lead]
    if lc == 1:
        return poly
    return FreePoly({w: c / lc for w, c in poly.terms.items()})


def groebner_state(
    p: Presentation,
    truncation_degree: int = 4,
    zero_threshold: float = 1e-10,
) -> GroebnerState:
    """Initial state from a presentation (monic-ized if necessary)."""
    if truncation_degree < 2:
        raise DomainError(f"truncation degree must be >= 2, got {truncation_degree}")
    if not (zero_threshold > 0):
        raise DomainError(f"zero threshold must be positive, got {zero_threshold}")
    if p.normalization != "monic":
        p = monic_ordered(p)
    polys = []
    for rel in p.relations:
        terms = {(t.left, t.right): t.coeff for t in rel.terms}
        polys.append(_as_system_entry(FreePoly(terms)))
    polys.sort(key=lambda q: deglex_key(q.leading_word()))
    return GroebnerState(
        system=tuple(polys),
        truncation_degree=truncation_degree,
        zero_threshold=zero_threshold,
        n_generators=p.rm.degree,
    )


def _find_reducer(word: Word, system, skip=()):
    """First (lead, poly, position) whose lead occurs as a factor of word."""
    for poly in system:
        lead = poly.leading_word()
        if lead in skip:
            continue
        span = len(lead)
        for pos in range(len(word) - span + 1):
            if word[pos : pos + span] == lead:
                return lead, poly, pos
    return None


def normal_form(f: FreePoly, st: GroebnerState) -> FreePoly:
    """Reduce f against the system until no term has a leading-word factor.

    Each step rewrites the deglex-largest reducible term through the matching
    system element; coefficients falling below ``zero_threshold`` times the
    largest intermediate magnitude are pruned.  Raises
    :class:`TruncationExceeded` if any term exceeds the truncation degree.
    """
    terms = dict(f.terms)
    for word in terms:
        if len(word) > st.truncation_degree:
            raise TruncationExceeded(
                f"term of degree {len(word)} exceeds truncation {st.truncation_degree}"
            )
    condition = 0.0
    while True:
        if terms:
            condition = max(condition, max(float(abs(c)) for c in terms.values()))
            floor = condition * st.zero_threshold
            terms = {w: c for w, c in terms.items() if float(abs(c)) > floor}
        target = None
        for word in sorted(terms, key=deglex_key, reverse=True):
            hit = _find_reducer(word, st.system)
            if hit is not None:
                target = (word, hit)
                break
        if target is None:
            return FreePoly(terms)
        word, (lead, poly, pos) = target
        coeff = terms.pop(word)
        prefix, suffix = word[:pos], word[pos + len(lead) :]
        for w2, c2 in poly.terms.items():
            if w2 == lead:
                continue
            new_word = prefix + w2 + suffix
            if len(new_word) > st.truncation_degree:
                raise TruncationExceeded(
                    f"reduction produced degree {len(new_word)} beyond truncation"
                )
            value = terms.get(new_word, 0) - coeff * c2
            if value == 0:
                terms.pop(new_word, None)
            else:
                terms[new_word] = value


def _s_pairs_for_degree(system, degree: int):
    """Overlap obstructions (f1, f2, k) whose overlap word has the given degree.

    k is the overlap length: the last k letters of lead(f1) equal the first k
    letters of lead(f2), and the overlap word lead(f1) + lead(f2)[k:] has
    length |lead(f1)| + |lead(f2)| - k = degree.  Self-overlaps included.
    """
    pairs = []
    for f1 in system:
        l1 = f1.leading_word()
        for f2 in system:
            l2 = f2.leading_word()
            for k in range(1, min(len(l1), len(l2))):
                if len(l1) + len(l2) - k != degree:
                    continue
                if l1[len(l1) - k :] == l2[:k]:
                    pairs.append((f1, f2, k))
    pairs.sort(key=lambda item: deglex_key(
        item[0].leading_word() + item[1].leading_word()[item[2] :]
    ))
    return pairs


def complete_to_degree(st: GroebnerState, max_degree: int) -> GroebnerState:
    """Resolve all overlap obstructions degree by degree up to max_degree.

    For each obstruction, taken in deglex order of its overlap word, the
    S-element f1*suffix - prefix*f2 is reduced; a nonzero normal form is
    adjoined (monic) and participates in later reductions.  An obstruction is
    skipped when its overlap word is already reducible by a leading term
    adjoined earlier at this degree (the two parents do not count).
    """
    if max_degree > st.truncation_degree:
        raise TruncationExceeded(
            f"completion degree {max_degree} exceeds truncation {st.truncation_degree}"
        )
    system = list(st.system)
    new_by_degree = dict(st.new_leads_by_degree)
    for degree in range(st.completed_degree + 1, max_degree + 1):
        adjoined: list[FreePoly] = []
        for f1, f2, k in _s_pairs_for_degree(system, degree):
            l1, l2 = f1.leading_word(), f2.leading_word()
            overlap = l1 + l2[k:]
            if _find_reducer(overlap, adjoined, skip=(l1, l2)) is not None:
                continue
            suffix, prefix = l2[k:], l1[: len(l1) - k]
            s_terms: dict[Word, complex] = {}
            for w1, c1 in f1.terms.items():
                word = w1 + suffix
                s_terms[word] = s_terms.get(word, 0) + c1
            for w2, c2 in f2.terms.items():
                word = prefix + w2
                value = s_terms.get(word, 0) - c2
                if value == 0:
                    s_terms.pop(word, None)
                else:
                    s_terms[word] = value
            state = GroebnerState(
                system=tuple(system),
                truncation_degree=st.truncation_degree,
                zero_threshold=st.zero_threshold,
                n_generators=st.n_generators,
                completed_degree=degree - 1,
                new_leads_by_degree=new_by_degree,
            )
            reduced = normal_form(FreePoly(s_terms), state)
            if reduced.is_zero():
                continue
            entry = _as_system_entry(reduced)
            adjoined.append(entry)
            system.append(entry)
        system.sort(key=lambda q: deglex_key(q.leading_word()))
        new_by_degree[degree] = tuple(
            sorted((q.leading_word() for q in adjoined), key=deglex_key)
        )
    return GroebnerState(
        system=tuple(system),
        truncation_degree=st.truncation_degree,
        zero_threshold=st.zero_threshold,
        n_generators=st.n_generators,
        completed_degree=max(st.completed_degree, max_degree),
        new_leads_by_degree=new_by_degree,
    )


def linear_basis(st: GroebnerState, n: int) -> list[Word]:
    """All degree-n words with no system leading word as a factor, deglex order."""
    if n < 0:
        raise DomainError(f"degree must be nonnegative, got {n}")
    if n > st.truncation_degree:
        raise TruncationExceeded(
            f"degree {n} exceeds truncation {st.truncation_degree}"
        )
    if n > st.completed_degree:
        raise DomainError(
            f"state completed to degree {st.completed_degree}; "
            f"call complete_to_degree({n}) first"
        )
    basis = []
    for word in itertools.product(range(1, st.n_generators + 1), repeat=n):
        if _find_reducer(word, st.system) is None:
            basis.append(word)
    return basis


def state_for(
    rm: RMData,
    tau: complex,
    truncation_degree: int = 4,
    dps: int | None = None,
) -> GroebnerState:
    """Build and complete a state from scratch at safe precision.

    Computes the monic presentation at ``max(dps, 40)`` decimal digits, sets
    the relative zero threshold to 10^-(dps-15), and completes to the
    truncation degree.
    """
    dps = effective_dps(dps, 40)
    with mp.workdps(dps):
        pres = monic_ordered(relations(rm, tau, dps=dps))
        st = groebner_state(
            pres,
            truncation_degree=truncation_degree,
            zero_threshold=10.0 ** (-(dps - 15)),
        )
        return complete_to_degree(st, truncation_degree)
