import functools
import itertools
import random

import mpmath as mp
import pytest

from rmtorus import groebner
from rmtorus.errors import TruncationExceeded
from rmtorus.groebner import (
    FreePoly,
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
from rmtorus.presentation import monic_ordered, relations

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


def _reference_completion(st, max_degree):
    """(new leads by degree, system leads, S-elements reduced) by the reference."""
    system = list(st.system)
    new_by_degree = {}
    n_reduced = 0
    for degree in range(st.completed_degree + 1, max_degree + 1):
        adjoined = []
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
            n_reduced += 1
            if reduced:
                entry = _as_system_entry(FreePoly(reduced))
                adjoined.append(entry)
                system.append(entry)
        system.sort(key=lambda q: deglex_key(_lead(q.terms)))
        new_by_degree[degree] = tuple(
            sorted((_lead(q.terms) for q in adjoined), key=deglex_key))
    return new_by_degree, [_lead(q.terms) for q in system], n_reduced


@pytest.fixture(scope="module")
def initial_states(rm5, rm6):
    """Uncompleted dps-40 states for traces 3 and 4, as state_for builds them."""
    out = []
    with mp.workdps(DPS):
        for rm in (rm5, rm6):
            pres = monic_ordered(relations(rm, TAU, dps=DPS))
            out.append(groebner_state(pres, 4, 10.0 ** (-(DPS - 15))))
    return out


@pytest.fixture(scope="module")
def completed_states(initial_states):
    with mp.workdps(DPS):
        return [complete_to_degree(st, 4) for st in initial_states]


def test_completion_matches_reference_completion(initial_states, monkeypatch):
    calls = []

    def counted(f, st):
        calls.append(f)
        return normal_form(f, st)

    monkeypatch.setattr(groebner, "normal_form", counted)
    with mp.workdps(DPS):
        for st in initial_states:
            calls.clear()
            done = complete_to_degree(st, 4)
            new_by_degree, leads, n_reduced = _reference_completion(st, 4)
            assert done.new_leads_by_degree == new_by_degree
            assert done.leads() == leads
            assert len(calls) == n_reduced


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
