"""Degree-truncated noncommutative Buchberger completion.

Words are tuples over {1..c}; polynomials are word->coefficient maps over the
free algebra, ordered by deglex (shorter words smaller; equal lengths compared
left to right, smaller index smaller).  Starting from the monic quadratic
relations, overlap obstructions are resolved degree by degree up to a
truncation bound, and the surviving irreducible words of each degree form a
linear basis of the graded quotient.

A state built from a presentation at a point carries the ring's graded
dimensions h_0..h_N (``dimensions``, from :func:`hilbert_coeffs`), and its
completion is Hilbert-driven (Traverso, "Hilbert functions and the
Buchberger algorithm", J. Symbolic Comput. 22, 1996): once the degree-n
words that no lead divides are down to h_n, the rest of that degree's
obstructions are skipped.  In exact arithmetic every one of them would
reduce to zero.  An average and a hand-built state carry None and reduce
every obstruction.

Coefficients are inexact, so reductions carry condition tracking: the largest
intermediate magnitude seen during a reduction defines the scale against which
the relative ``zero_threshold`` prunes: 10^-(dps-15) at the presentation's
``dps`` (1e-10 in double and below 25 digits), where a state runs its
arithmetic whatever the ambient mpmath precision.  Double precision is
insufficient for the completions that arise here (catastrophic cancellation
promotes noise into fake leading terms); build states from presentations
computed at 40+ decimal digits, as :func:`state_for` does.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import mpmath as mp

from .core import RMData
from .errors import DomainError, TruncationExceeded
from .presentation import (
    Presentation, _at, _band, _magnitude, hilbert_coeffs, monic_ordered, relations,
)
from .theta import _check_dps, _is_int

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

_MPC = mp.mpc


def deglex_key(word: Word) -> tuple[int, Word]:
    return (len(word), word)


def deglex_compare(t1: Word, t2: Word) -> int:
    """-1, 0, or 1 as t1 <, =, > t2 in deglex order."""
    k1, k2 = deglex_key(tuple(t1)), deglex_key(tuple(t2))
    return (k1 > k2) - (k1 < k2)


@dataclass(frozen=True)
class FreePoly:
    """A polynomial in the free algebra: finitely many word -> coeff terms.

    The leading word is found once, at construction.
    """

    terms: dict[Word, complex]
    _lead: Word | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for word in self.terms:
            if not isinstance(word, tuple) or any(
                not isinstance(i, int) or i < 1 for i in word
            ):
                raise DomainError(f"invalid word {word!r}")
        lead = max(self.terms, key=deglex_key) if self.terms else None
        object.__setattr__(self, "_lead", lead)

    def is_zero(self) -> bool:
        return not self.terms

    def leading_word(self) -> Word:
        if self._lead is None:
            raise DomainError("zero polynomial has no leading word")
        return self._lead

    def degree(self) -> int:
        if not self.terms:
            return -1
        return max(len(w) for w in self.terms)


class _LeadIndex:
    """The leading words of an ordered system, each with its rank and element.

    :meth:`find` gives what a first-fit scan of the system would: the element
    of lowest rank whose leading word is a factor of the word, at the earliest
    position.  Only factors whose length is that of some lead are looked up.
    """

    def __init__(self, system) -> None:
        self.entries: dict[Word, tuple[int, FreePoly]] = {}
        for rank, poly in enumerate(system):
            self.entries.setdefault(poly.leading_word(), (rank, poly))
        self.spans = sorted({len(lead) for lead in self.entries})

    def find(self, word: Word, first_rank: int = 0, skip=()):
        """(lead, poly, position) of the first reducer of rank >= first_rank.

        Leads in ``skip`` do not count.  None when no lead is a factor.
        """
        best = None
        for span in self.spans:
            for pos in range(len(word) - span + 1):
                lead = word[pos : pos + span]
                hit = self.entries.get(lead)
                if hit is None or hit[0] < first_rank or lead in skip:
                    continue
                # one rank has one lead, so equal ranks meet only at later
                # positions of the same span
                if best is None or hit[0] < best[0]:
                    best = (hit[0], lead, hit[1], pos)
        return None if best is None else best[1:]

    def ends_in_lead(self, word: Word) -> bool:
        """Whether some leading word is a suffix of word."""
        n = len(word)
        return any(word[n - span :] in self.entries for span in self.spans if span <= n)


@dataclass(frozen=True)
class GroebnerState:
    """An ordered monic reduction system at ``dps`` digits, completed up to ``completed_degree``.

    ``dimensions`` holds the graded dimensions h_0..h_N of the ring the
    system presents, or None when they are not known.
    """

    system: tuple[FreePoly, ...]
    truncation_degree: int
    zero_threshold: float
    n_generators: int
    completed_degree: int = 2
    new_leads_by_degree: dict[int, tuple[Word, ...]] = field(default_factory=dict)
    dps: int | None = None
    dimensions: tuple[int, ...] | None = None

    def leads(self) -> list[Word]:
        return [p.leading_word() for p in self.system]

    @cached_property
    def _index(self) -> _LeadIndex:
        return _LeadIndex(self.system)


def _as_system_entry(poly: FreePoly) -> FreePoly:
    lead = poly.leading_word()
    lc = poly.terms[lead]
    if lc == 1:
        return poly
    return FreePoly({w: c / lc for w, c in poly.terms.items()})


def groebner_state(p: Presentation, truncation_degree: int = 4) -> GroebnerState:
    """Initial state from a presentation (monic-ized if necessary), at its ``dps``.

    A presentation at a point gives the state the ring's graded dimensions up
    to the truncation degree; an average (``tau`` None) gives None.
    """
    if not _is_int(truncation_degree) or truncation_degree < 2:
        raise DomainError(f"truncation degree must be an integer >= 2, got {truncation_degree!r}")
    with _at(p.dps):
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
        zero_threshold=1e-10 if p.dps is None else min(1e-10, 10.0 ** -(p.dps - 15)),
        n_generators=p.rm.degree,
        dps=p.dps,
        dimensions=(
            None if p.tau is None else hilbert_coeffs(p.rm, truncation_degree).coefficients
        ),
    )


def _heap_entry(word: Word) -> tuple:
    """heapq is a min-heap: deglex-larger words get smaller entries."""
    return (-len(word), tuple(-i for i in word), word)


def _top(terms: dict, mags: dict, words, eps: float) -> float:
    """``max(float(abs(terms[w])) for w in words)``, with default 0.0.

    Only the words whose magnitude is within the band of the largest can hold
    the maximum; only they are computed exactly.
    """
    top = max((mags[w] for w in words), default=0.0)
    near = [w for w in words if mags[w] * (1 + 2 * eps) >= top]
    return max((float(abs(terms[w])) for w in near), default=top)


def _prune(terms: dict, mags: dict, floor: float, words, eps: float) -> None:
    """Drop the words whose magnitude is not above floor.

    A magnitude within the band around floor is computed exactly first.
    """
    keep = floor * (1 + eps)
    for word in words:
        mag = mags[word]
        if mag > keep:
            continue
        if mag * (1 + eps) < floor or not float(abs(terms[word])) > floor:
            del terms[word], mags[word]


def normal_form(f: FreePoly, st: GroebnerState) -> FreePoly:
    """Reduce f against the system until no term has a leading-word factor.

    Each step rewrites the deglex-largest reducible term through the first
    system element whose lead is a factor of it (lowest rank, then earliest
    position); coefficients falling below ``zero_threshold`` times the largest
    intermediate magnitude are pruned.  Raises :class:`TruncationExceeded` if
    any term exceeds the truncation degree.

    Words wait in a max-heap.  A rewrite only adds words smaller than the one
    it removes, so words leave the heap in decreasing order, each once: one
    found irreducible stays so.  Magnitudes are kept per term and recomputed
    only for the terms a step changes.

    Magnitudes are doubles from :func:`_magnitude`.  Every pruning decision
    and every value of the largest magnitude is that of ``float(abs(c))`` at
    the working precision: a magnitude within a relative band of the floor,
    or of the current largest, is computed that way before it is used.
    """
    terms = dict(f.terms)
    for word in terms:
        if len(word) > st.truncation_degree:
            raise TruncationExceeded(
                f"term of degree {len(word)} exceeds truncation {st.truncation_degree}"
            )
    index = st._index
    with _at(st.dps):
        eps = _band()  # relative width of the bands that are checked exactly
        mags = {w: _magnitude(c) for w, c in terms.items()}
        condition = _top(terms, mags, list(terms), eps)
        _prune(terms, mags, condition * st.zero_threshold, list(terms), eps)
        heap = [_heap_entry(w) for w in terms]
        heapq.heapify(heap)
        queued = set(terms)
        while heap:
            word = heapq.heappop(heap)[2]
            if word not in terms:
                continue
            hit = index.find(word)
            if hit is None:
                continue
            lead, poly, pos = hit
            coeff = terms.pop(word)
            del mags[word]
            prefix, suffix = word[:pos], word[pos + len(lead) :]
            changed = []
            for w2, c2 in poly.terms.items():
                if w2 == lead:
                    continue
                new_word = prefix + w2 + suffix
                if len(new_word) > st.truncation_degree:
                    raise TruncationExceeded(
                        f"reduction produced degree {len(new_word)} beyond truncation"
                    )
                product = coeff * c2
                old = terms.get(new_word)
                if old is not None:
                    value = old - product
                elif isinstance(product, _MPC):
                    value = -product
                else:
                    value = 0 - product  # -x would flip the sign of a zero part
                if not value:
                    terms.pop(new_word, None)
                    mags.pop(new_word, None)
                    continue
                terms[new_word] = value
                mags[new_word] = _magnitude(value)
                changed.append(new_word)
                if new_word not in queued:
                    queued.add(new_word)
                    heapq.heappush(heap, _heap_entry(new_word))
            top = max((mags[w] for w in changed), default=0.0)
            if top * (1 + eps) > condition:
                top = _top(terms, mags, changed, eps)
                if top > condition:
                    condition = top
                    changed = list(terms)  # a higher floor may drop any term
            _prune(terms, mags, condition * st.zero_threshold, changed, eps)
    return FreePoly(terms)


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
    """Resolve the overlap obstructions degree by degree up to max_degree.

    For each obstruction, taken in deglex order of its overlap word, the
    S-element f1*suffix - prefix*f2 is reduced; a nonzero normal form is
    adjoined (monic) and participates in later reductions.  An obstruction is
    skipped when its overlap word is already reducible by a leading term
    adjoined earlier at this degree (the two parents do not count).

    With ``st.dimensions`` set, a degree stops early.  At its start the
    degree-n words that no lead divides are counted; each adjoined element
    takes one of them, its leading word, away.  Once h_n are left, the
    remaining obstructions of the degree are skipped: the system then spans
    c^n - h_n dimensions of the degree-n part of the ideal, which has no
    more, so in exact arithmetic every skipped S-element reduces to zero.  A
    count that never reaches h_n changes nothing.
    """
    if not _is_int(max_degree):
        raise DomainError(f"completion degree must be an integer, got {max_degree!r}")
    if max_degree > st.truncation_degree:
        raise TruncationExceeded(
            f"completion degree {max_degree} exceeds truncation {st.truncation_degree}"
        )
    system = list(st.system)
    new_by_degree = dict(st.new_leads_by_degree)
    with _at(st.dps):
        for degree in range(st.completed_degree + 1, max_degree + 1):
            state = replace(
                st,
                system=tuple(system),
                completed_degree=degree - 1,
                new_leads_by_degree=new_by_degree,
            )
            first_adjoined = len(system)
            adjoined: list[FreePoly] = []
            surplus = math.inf
            if st.dimensions is not None:
                free = len(_irreducible_words(state._index, st.n_generators, degree))
                surplus = free - st.dimensions[degree]
            for f1, f2, k in _s_pairs_for_degree(system, degree):
                if surplus == 0:
                    break
                l1, l2 = f1.leading_word(), f2.leading_word()
                overlap = l1 + l2[k:]
                if state._index.find(overlap, first_adjoined, skip=(l1, l2)) is not None:
                    continue
                suffix, prefix = l2[k:], l1[: len(l1) - k]
                s_terms: dict[Word, complex] = {}
                for w1, c1 in f1.terms.items():
                    word = w1 + suffix
                    s_terms[word] = s_terms.get(word, 0) + c1
                for w2, c2 in f2.terms.items():
                    word = prefix + w2
                    value = s_terms.get(word, 0) - c2
                    if not value:
                        s_terms.pop(word, None)
                    else:
                        s_terms[word] = value
                reduced = normal_form(FreePoly(s_terms), state)
                if reduced.is_zero():
                    continue
                entry = _as_system_entry(reduced)
                adjoined.append(entry)
                system.append(entry)
                state = replace(state, system=tuple(system))
                surplus -= 1
            system.sort(key=lambda q: deglex_key(q.leading_word()))
            new_by_degree[degree] = tuple(
                sorted((q.leading_word() for q in adjoined), key=deglex_key)
            )
    return replace(
        st,
        system=tuple(system),
        completed_degree=max(st.completed_degree, max_degree),
        new_leads_by_degree=new_by_degree,
    )


def _irreducible_words(index: _LeadIndex, n_generators: int, n: int) -> list[Word]:
    """All degree-n words with no leading word of ``index`` as a factor, lex order.

    Grown letter by letter: a word is irreducible when its prefix is and no
    lead ends at its last letter.  Extending lex-ordered prefixes by letters
    in order keeps the words lex-ordered.
    """
    words: list[Word] = [()]
    for _ in range(n):
        grown = []
        for word in words:
            for letter in range(1, n_generators + 1):
                longer = word + (letter,)
                if not index.ends_in_lead(longer):
                    grown.append(longer)
        words = grown
    return words


def linear_basis(st: GroebnerState, n: int) -> list[Word]:
    """All degree-n words with no system leading word as a factor, deglex order."""
    if not _is_int(n) or n < 0:
        raise DomainError(f"degree must be a nonnegative integer, got {n!r}")
    if n > st.truncation_degree:
        raise TruncationExceeded(
            f"degree {n} exceeds truncation {st.truncation_degree}"
        )
    if n > st.completed_degree:
        raise DomainError(
            f"state completed to degree {st.completed_degree}; "
            f"call complete_to_degree({n}) first"
        )
    return _irreducible_words(st._index, st.n_generators, n)


def state_for(
    rm: RMData,
    tau: complex,
    truncation_degree: int = 4,
    dps: int | None = None,
) -> GroebnerState:
    """Build and complete a state from scratch at safe precision.

    Computes the presentation at ``max(dps, 40)`` decimal digits (40 with
    ``dps=None``; any other ``dps`` must be a positive int), from which the
    state takes its precision, zero threshold and graded dimensions, and
    completes to the truncation degree, each degree stopping once h_n words
    are left.
    """
    _check_dps(dps)
    pres = relations(rm, tau, dps=max(dps or 0, 40))
    return complete_to_degree(groebner_state(pres, truncation_degree), truncation_degree)
