import functools
import heapq
import itertools
import math
import random
from dataclasses import replace

import mpmath as mp
import pytest

from rmtorus import groebner, validate
from rmtorus.core import canonical_g
from rmtorus.errors import DomainError, TruncationExceeded
from rmtorus.groebner import (
    FreePoly,
    GroebnerState,
    Word,
    _as_system_entry,
    _s_pairs_for_degree,
    complete_to_degree,
    deglex_compare,
    deglex_key,
    groebner_state,
    linear_basis,
    normal_form,
    state_for,
)
from rmtorus.modsym import averaged_relations
from rmtorus.presentation import hilbert_coeffs, monic_ordered, relations

TAU = 2j
DPS = 40


def test_new_leads_six_generators(rm6):
    st = state_for(rm6, TAU)
    new3 = set(map(tuple, st.new_leads_by_degree.get(3, ())))
    assert new3 == {(5, 3, j) for j in range(1, 7)}
    assert len(st.new_leads_by_degree.get(4, ())) == 0


def test_new_leads_five_generators(rm5):
    st = state_for(rm5, TAU)
    new3 = set(map(tuple, st.new_leads_by_degree.get(3, ())))
    assert new3 == {(3, 2, 4), (3, 3, 1), (3, 3, 2), (3, 3, 3), (3, 3, 4)}
    assert len(st.new_leads_by_degree.get(4, ())) == 5


def test_basis_sizes_match_graded_dimensions(rm5, rm6):
    st5, st6 = state_for(rm5, TAU), state_for(rm6, TAU)
    assert [len(linear_basis(st5, n)) for n in (2, 3, 4)] == [15, 40, 105]
    assert [len(linear_basis(st6, n)) for n in (2, 3, 4)] == [24, 90, 336]


@pytest.mark.parametrize("dps", [True, 0, -3, 2.5, "40"])
def test_state_for_checks_dps_before_its_floor_of_40(dps):
    # max(dps or 0, 40) would take all but "40" for 40 digits
    with pytest.raises(DomainError, match="dps must be a positive integer"):
        state_for(canonical_g(3), 2j, 3, dps=dps)


def test_state_takes_dps_and_threshold_from_the_presentation(rm6):
    # no enclosing mp.workdps: the state runs at its own 40 digits; at the
    # ambient 15 this completion finds h_3 = 89 (72 with the 1e-25 threshold)
    assert mp.mp.dps == 15
    st = groebner_state(relations(rm6, TAU, dps=DPS), 3)
    assert (st.dps, st.zero_threshold) == (DPS, 10.0 ** -(DPS - 15))
    st = complete_to_degree(st, 3)
    assert [len(linear_basis(st, n)) for n in (2, 3)] == [24, 90]
    assert st == state_for(rm6, TAU, truncation_degree=3)
    double = groebner_state(relations(rm6, TAU), 3)
    assert (double.dps, double.zero_threshold) == (None, 1e-10)


def test_basis_is_deglex_sorted_and_lead_free(rm6):
    st = state_for(rm6, TAU)
    words = linear_basis(st, 3)
    assert words == sorted(words, key=deglex_key)
    assert all(len(w) == 3 for w in words)
    assert not any(tuple(w[:2]) == (5, 3) for w in words)
    assert sum(1 for w in words if tuple(w[:2]) == (4, 1)) == 6


def test_deglex_order_properties():
    rng = random.Random(71)
    assert deglex_compare(Word((1, 1, 1)), Word((6, 6))) > 0
    assert deglex_compare(Word((5, 4)), Word((3, 2))) > 0
    assert deglex_compare(Word((2, 1)), Word((2, 1))) == 0
    words = [Word(tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 4))))
             for _ in range(40)]
    by_key = sorted(words, key=deglex_key)
    by_cmp = sorted(words, key=functools.cmp_to_key(deglex_compare))
    assert by_key == by_cmp


def test_normal_form_is_projection(rm6):
    st = state_for(rm6, TAU)
    basis3 = set(map(tuple, linear_basis(st, 3)))
    rng = random.Random(97)
    for _ in range(8):
        terms = {Word(tuple(rng.randint(1, 6) for _ in range(3))):
                 complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                 for _ in range(4)}
        f = FreePoly(terms)
        nf = normal_form(f, st)
        assert set(map(tuple, nf.terms)) <= basis3
        nf2 = normal_form(nf, st)
        assert set(map(tuple, nf2.terms)) == set(map(tuple, nf.terms))
        scale = max((abs(v) for v in nf.terms.values()), default=1.0)
        for w, v in nf.terms.items():
            assert abs(nf2.terms[w] - v) <= 1e-10 * scale


def test_normal_form_fixes_basis_words(rm6):
    st = state_for(rm6, TAU)
    for w in linear_basis(st, 2)[:5]:
        nf = normal_form(FreePoly({w: 1.0}), st)
        assert list(map(tuple, nf.terms)) == [tuple(w)]
        assert abs(nf.terms[w] - 1.0) < 1e-12


def test_truncation_guard(rm6):
    st = state_for(rm6, TAU)
    with pytest.raises(TruncationExceeded):
        linear_basis(st, 5)


def test_completion_is_idempotent(rm6):
    from rmtorus.groebner import complete_to_degree

    st = state_for(rm6, TAU)
    again = complete_to_degree(st, 4)
    assert again.completed_degree >= 4
    assert set(map(tuple, again.new_leads_by_degree.get(3, ()))) == \
        set(map(tuple, st.new_leads_by_degree.get(3, ())))


# ---------------------------------------------------------------------------
# Reference reduction: a first-fit linear scan of the system and a full
# deglex re-sort of the terms at every step, with the same pruning rule.
# ---------------------------------------------------------------------------


def _lead(terms):
    return max(terms, key=deglex_key)


def _first_fit(word, system, skip=()):
    for poly in system:
        lead = _lead(poly.terms)
        if lead in skip:
            continue
        for pos in range(len(word) - len(lead) + 1):
            if word[pos : pos + len(lead)] == lead:
                return lead, poly, pos
    return None


def _reference_normal_form(terms, system, zero_threshold):
    terms = dict(terms)
    condition = 0.0
    while True:
        if terms:
            condition = max(condition, max(float(abs(c)) for c in terms.values()))
            floor = condition * zero_threshold
            terms = {w: c for w, c in terms.items() if float(abs(c)) > floor}
        for word in sorted(terms, key=deglex_key, reverse=True):
            hit = _first_fit(word, system)
            if hit is not None:
                break
        else:
            return terms
        lead, poly, pos = hit
        coeff = terms.pop(word)
        for w2, c2 in poly.terms.items():
            if w2 == lead:
                continue
            new_word = word[:pos] + w2 + word[pos + len(lead) :]
            value = terms.get(new_word, 0) - coeff * c2
            if value == 0:
                terms.pop(new_word, None)
            else:
                terms[new_word] = value


def _free_words(system, c, n):
    """Degree-n words over 1..c with no leading word of the system as a factor."""
    leads = [_lead(poly.terms) for poly in system]
    return {
        w for w in itertools.product(range(1, c + 1), repeat=n)
        if not any(w[pos : pos + len(lead)] == lead
                   for lead in leads for pos in range(n - len(lead) + 1))
    }


def _reference_completion(st, max_degree):
    """(new leads by degree, system leads, reductions) by the reference.

    Every obstruction not skipped by the adjoined-lead test is reduced, with
    no stop.  A reduction is (degree, free, nonzero): free counts the
    degree-n words that no lead divided before it.
    """
    system = list(st.system)
    new_by_degree = {}
    reductions = []
    for degree in range(st.completed_degree + 1, max_degree + 1):
        adjoined = []
        free = _free_words(system, st.n_generators, degree)
        for f1, f2, k in _s_pairs_for_degree(system, degree):
            l1, l2 = _lead(f1.terms), _lead(f2.terms)
            if _first_fit(l1 + l2[k:], adjoined, skip=(l1, l2)) is not None:
                continue
            s_terms = {}
            for w1, c1 in f1.terms.items():
                s_terms[w1 + l2[k:]] = s_terms.get(w1 + l2[k:], 0) + c1
            for w2, c2 in f2.terms.items():
                word = l1[: len(l1) - k] + w2
                value = s_terms.get(word, 0) - c2
                if value == 0:
                    s_terms.pop(word, None)
                else:
                    s_terms[word] = value
            reduced = _reference_normal_form(s_terms, system, st.zero_threshold)
            reductions.append((degree, len(free), bool(reduced)))
            if reduced:
                entry = _as_system_entry(FreePoly(reduced))
                # the lead of a normal form is a free word of the degree
                free.remove(_lead(entry.terms))
                adjoined.append(entry)
                system.append(entry)
        system.sort(key=lambda q: deglex_key(_lead(q.terms)))
        new_by_degree[degree] = tuple(
            sorted((_lead(q.terms) for q in adjoined), key=deglex_key))
    return new_by_degree, [_lead(q.terms) for q in system], reductions


@pytest.fixture(scope="module")
def initial_states(rm5, rm6):
    """Uncompleted dps-40 states for traces 3 and 4, as state_for builds them."""
    return [groebner_state(relations(rm, TAU, dps=DPS), 4) for rm in (rm5, rm6)]


@pytest.fixture(scope="module")
def completed_states(initial_states):
    with mp.workdps(DPS):
        return [complete_to_degree(st, 4) for st in initial_states]


def test_completion_matches_reference_completion(initial_states, monkeypatch):
    # the reference reduces every obstruction; the completion stops a degree
    # once h_n free words are left, and everything the reference reduces
    # after that point must be zero
    calls = []

    def counted(f, st):
        calls.append(f)
        return normal_form(f, st)

    monkeypatch.setattr(groebner, "normal_form", counted)
    with mp.workdps(DPS):
        for st in initial_states:
            calls.clear()
            done = complete_to_degree(st, 4)
            new_by_degree, leads, reductions = _reference_completion(st, 4)
            assert done.new_leads_by_degree == new_by_degree
            assert done.leads() == leads
            h = st.dimensions
            before = [r for r in reductions if r[1] > h[r[0]]]
            after = [r for r in reductions if r[1] <= h[r[0]]]
            assert len(calls) == len(before)
            assert after and not any(nonzero for _, _, nonzero in after)


def test_an_average_carries_no_dimensions_and_reduces_every_obstruction(rm6, monkeypatch):
    calls = []

    def counted(f, st):
        calls.append(f)
        return normal_form(f, st)

    monkeypatch.setattr(groebner, "normal_form", counted)
    st = groebner_state(averaged_relations(rm6), 3)
    assert st.dimensions is None
    outcomes = []
    for dimensions in (None, hilbert_coeffs(rm6, 3).coefficients):
        calls.clear()
        done = complete_to_degree(replace(st, dimensions=dimensions), 3)
        outcomes.append(([len(linear_basis(done, n)) for n in (2, 3)], len(calls)))
    # 24 reductions: every obstruction the skip test leaves, as with no stop
    assert outcomes[0] == ([24, 72], 24)
    # the RM ring's h_3 = 90 would stop the average's degree 3 short of its 72
    assert outcomes[1][0] == [24, 90]


def test_normal_form_matches_reference_reducer(completed_states):
    rng = random.Random(2024)
    with mp.workdps(DPS):
        for st in completed_states:
            c = st.n_generators
            for _ in range(12):
                terms = {}
                for _ in range(rng.randint(1, 8)):
                    word = tuple(rng.randint(1, c) for _ in range(rng.randint(1, 4)))
                    # magnitudes spread across the pruning threshold
                    scale = mp.mpf(10) ** -rng.uniform(0, 30)
                    terms[word] = scale * mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
                got = normal_form(FreePoly(terms), st).terms
                want = _reference_normal_form(terms, st.system, st.zero_threshold)
                assert set(got) == set(want)
                for word, value in want.items():
                    assert abs(got[word] - value) <= mp.mpf(10) ** -30 * abs(value)


def test_linear_basis_matches_brute_force(completed_states):
    for st in completed_states:
        leads = st.leads()
        for n in range(5):
            brute = [
                w for w in itertools.product(range(1, st.n_generators + 1), repeat=n)
                if not any(w[pos : pos + len(lead)] == lead
                           for lead in leads for pos in range(n - len(lead) + 1))
            ]
            assert linear_basis(st, n) == brute


@pytest.mark.parametrize("n", [True, False, 2.0, "2", None, -1])
def test_linear_basis_rejects_degrees_that_are_not_nonnegative_ints(completed_states, n):
    with pytest.raises(DomainError, match="nonnegative integer"):
        linear_basis(completed_states[0], n)


@pytest.mark.parametrize("degree", [2.5, 3.0, "3", True, None])
def test_degrees_of_state_and_completion_must_be_ints(rm6, completed_states, degree):
    # 2.5 passed the old ">= 2" check and "3" raised a bare TypeError from it
    monic = monic_ordered(relations(rm6, TAU))
    with pytest.raises(DomainError, match=r"truncation degree must be an integer >= 2"):
        groebner_state(monic, truncation_degree=degree)
    with pytest.raises(DomainError, match=r"completion degree must be an integer"):
        complete_to_degree(completed_states[0], degree)


@pytest.mark.parametrize("trace, lead_counts, n_words", [
    (3, {3: 5, 4: 5}, 105),
    (4, {3: 6, 4: 0}, 336),
])
def test_leads_and_basis_independent_of_tau_and_precision(
        rm5, rm6, trace, lead_counts, n_words):
    rm = {3: rm5, 4: rm6}[trace]
    outcomes = []
    for tau, dps in ((2j, 40), (1j, 40), (0.3 + 1.5j, 40), (-0.2 + 0.9j, 40), (2j, 60)):
        st = state_for(rm, tau, truncation_degree=4, dps=dps)
        outcomes.append((st.new_leads_by_degree, linear_basis(st, 4)))
    leads, words = outcomes[0]
    assert {d: len(ws) for d, ws in leads.items()} == lead_counts
    assert len(words) == n_words
    assert all(outcome == outcomes[0] for outcome in outcomes[1:])


DRIFT_TAUS = (1.4j, 1.6j, 2j, 0.3 + 2.4j, 2.5j)

# Points where the dps-40 completion of (7,-2,11,-3) keeps h_3 = 165 words,
# but not the words of dps 80 and 120, which agree with each other.
WORDS_DRIFT = {0.3 + 2.4j, 2.5j}


@pytest.mark.parametrize("tau", DRIFT_TAUS)
def test_noncanonical_words_at_dps_40_match_higher_precision_or_drift(tau):
    # the completion stops a degree at h_3 words, so a precision drift shows
    # in which words are left, not in how many
    rm = validate((7, -2, 11, -3))
    h3 = hilbert_coeffs(rm, 3).coefficients[3]
    words = {
        dps: linear_basis(state_for(rm, tau, truncation_degree=3, dps=dps), 3)
        for dps in (40, 80, 120)
    }
    assert [len(w) for w in words.values()] == [h3] * 3
    assert words[80] == words[120]
    assert (words[40] != words[80]) == (tau in WORDS_DRIFT)


# ---------------------------------------------------------------------------
# The full-precision reducer: normal_form with every magnitude taken as
# float(abs(c)) at the working precision.  normal_form must give the same
# words in the same order and the same values, bit for bit.
# ---------------------------------------------------------------------------


def _full_precision_prune(terms, mags, floor, words):
    for word in words:
        if not mags[word] > floor:
            del terms[word], mags[word]


def _full_precision_normal_form(f, st):
    terms = dict(f.terms)
    index = st._index
    mags = {w: float(abs(c)) for w, c in terms.items()}
    condition = max(mags.values(), default=0.0)
    _full_precision_prune(terms, mags, condition * st.zero_threshold, list(terms))
    heap = [groebner._heap_entry(w) for w in terms]
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
            value = terms.get(new_word, 0) - coeff * c2
            if not value:
                terms.pop(new_word, None)
                mags.pop(new_word, None)
                continue
            terms[new_word] = value
            mags[new_word] = float(abs(value))
            changed.append(new_word)
            if new_word not in queued:
                queued.add(new_word)
                heapq.heappush(heap, groebner._heap_entry(new_word))
        top = max((mags[w] for w in changed), default=0.0)
        if top > condition:
            condition = top
            changed = list(terms)
        _full_precision_prune(terms, mags, condition * st.zero_threshold, changed)
    return FreePoly(terms)


def _bits(value):
    """The exact value: mpmath parts, or repr (signed zeros) for a Python number."""
    return (type(value), getattr(value, "_mpc_", None) or repr(value))


def _assert_same_reduction(f, st):
    got = normal_form(f, st)
    want = _full_precision_normal_form(f, st)
    assert list(got.terms) == list(want.terms)
    assert [_bits(v) for v in got.terms.values()] == \
        [_bits(v) for v in want.terms.values()]
    return got


@pytest.fixture(scope="module")
def dps40_initial_states(initial_states):
    """Traces 3 and 4 at 2i, trace 5 at 2i and (7,-2,11,-3) at 1.2i, with degrees."""
    extra = [
        groebner_state(relations(validate(g), tau, dps=DPS), 3)
        for g, tau in (((6, -1, 7, -1), TAU), ((7, -2, 11, -3), 1.2j))
    ]
    return [(st, 4) for st in initial_states] + [(st, 3) for st in extra]


def test_normal_form_matches_full_precision_on_every_s_element(
        dps40_initial_states, monkeypatch):
    reduced = []

    def checked(f, st):
        reduced.append(f)
        return _assert_same_reduction(f, st)

    monkeypatch.setattr(groebner, "normal_form", checked)
    with mp.workdps(DPS):
        for st, degree in dps40_initial_states:
            reduced.clear()
            complete_to_degree(st, degree)
            assert reduced


def _tiny_state(a, zero_threshold):
    """One rule x2 x2 -> -a x1 x1; words without a factor (2, 2) are irreducible."""
    return GroebnerState(
        system=(FreePoly({(2, 2): 1, (1, 1): a}),),
        truncation_degree=4,
        zero_threshold=zero_threshold,
        n_generators=2,
    )


def _straddling(rng, n):
    """Full-precision values whose double-route magnitude is not float(abs(c))."""
    out = []
    while len(out) < n:
        re, im = (mp.mpf(rng.getrandbits(130)) / 2**130 for _ in range(2))
        c = mp.mpc(re, im) * mp.mpf(2) ** rng.randint(-60, 60)
        if groebner._magnitude(c) != float(abs(c)):
            out.append(c)
    return out


@pytest.mark.parametrize("dps", [15, 40])
def test_decisions_at_the_floor_and_at_the_largest_magnitude(dps):
    rng = random.Random(5)
    k = 20
    with mp.workdps(dps):
        for c in _straddling(rng, 40):
            cheap, exact = groebner._magnitude(c), float(abs(c))
            low, high = min(cheap, exact), max(cheap, exact)
            # reducing x2 x2 with coefficient -x writes c at x1 x1; x lies
            # between the floor and the largest magnitude, so it is reduced
            x = mp.mpf(2) ** math.frexp(low)[1]
            # the floor lies between the two routes' magnitudes of c
            nf = _assert_same_reduction(
                FreePoly({(2, 2): -x * 16, (1, 2): mp.mpf(low * 2**k)}),
                _tiny_state(c / (x * 16), 2.0 ** -k))
            assert ((1, 1) in nf.terms) == (exact > low) != (cheap > low)
            # the largest magnitude lies between them: the term high * 2^-k
            # survives exactly when c does not raise the largest
            nf = _assert_same_reduction(
                FreePoly({(2, 2): -x / 16, (1, 2): mp.mpf(low), (2, 1): mp.mpf(high / 2**k)}),
                _tiny_state(c / (x / 16), 2.0 ** -k))
            assert ((2, 1) in nf.terms) == (exact < cheap)
            # the same two decisions with no reduction step
            st = _tiny_state(1, 2.0 ** -k)
            nf = _assert_same_reduction(FreePoly({(1, 1): c, (1, 2): mp.mpf(low * 2**k)}), st)
            assert ((1, 1) in nf.terms) == (exact > low)
            nf = _assert_same_reduction(
                FreePoly({(1, 1): c, (1, 2): mp.mpf(low), (2, 1): mp.mpf(high / 2**k)}), st)
            assert ((2, 1) in nf.terms) == (exact < cheap)


def test_magnitudes_outside_the_double_range():
    with mp.workdps(DPS):
        big, small = mp.mpc("1e400", "-3e399"), mp.mpc("-2e-400", "1e-400")
        specials = [mp.mpc(mp.inf, 1), mp.mpc(1, mp.nan), mp.mpc(0, 0)]
        for a in (mp.mpc(1, 1), big, small, mp.mpc("1e-320", 1)):
            st = _tiny_state(a, 1e-25)
            for terms in (
                {(2, 2): 1, (1, 2): small},
                {(2, 2): small, (1, 2): mp.mpc(1e-300, 0)},
                {(2, 2): big, (1, 2): 1},
                {(2, 2): 1, (1, 2): big},
                {(2, 2): mp.mpc("1e-200", 0), (2, 1): mp.mpc("1e-230", 0)},
                {(2, 2): mp.mpc("1e300", 0), (2, 1): 1},
            ) + tuple({(2, 2): 1, (1, 2): s} for s in specials):
                _assert_same_reduction(FreePoly(terms), st)


@pytest.mark.parametrize("dps", [10, 15, 60])
def test_normal_form_matches_full_precision_at_other_precisions(completed_states, dps):
    rng = random.Random(dps)
    with mp.workdps(dps):
        for st in completed_states:
            st = replace(st, dps=dps, zero_threshold=10.0 ** -(dps - 5))
            c = st.n_generators
            for _ in range(12):
                terms = {}
                for _ in range(rng.randint(1, 8)):
                    word = tuple(rng.randint(1, c) for _ in range(rng.randint(1, 4)))
                    scale = mp.mpf(10) ** -rng.uniform(0, dps)
                    terms[word] = scale * mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
                _assert_same_reduction(FreePoly(terms), st)


def test_python_complex_inputs_keep_signed_zeros(rm5):
    st = _tiny_state(complex(1, 0), 1e-10)
    # 0 - (0+1j) is -1j; -(0+1j) would be (-0-1j)
    nf = _assert_same_reduction(FreePoly({(2, 2): 1j}), st)
    assert repr(nf.terms[(1, 1)]) == "-1j"
    double = complete_to_degree(groebner_state(monic_ordered(relations(rm5, TAU)), 3), 3)
    rng = random.Random(11)
    parts = (0.0, -0.0, 1.0, -2.5, 1e-12)
    for _ in range(40):
        terms = {
            tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 3))):
            complex(rng.choice(parts), rng.choice(parts))
            for _ in range(rng.randint(1, 6))
        }
        _assert_same_reduction(FreePoly(terms), double)
