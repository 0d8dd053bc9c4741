"""Properties of the filling search and its cleanup over random words.

The cleanup's commute BFS looks its rules up in tables keyed on the
events (which are their int codes); ``oracles`` keeps the same BFS
calling the rules directly, and the two must agree on every word, as
must the reductions built on them.  Every trace the search returns must
replay, start from the empty diagram, have chi = -tb(top) (Chantraine
2010), and survive the trace text format.  A front with no normal
ruling has no filling (a filling gives an augmentation, which gives a
ruling), so the search must come back empty on one.  The search pinches
once per run of two adjacent segments: every pinch site it skips must
be two commutes from the site before it.  ``oracles`` also keeps the
recursive search, the per-component eye rule and the ruling
certificate's own site loop that the one search loop replaced; on fronts
with births, whose eyes the cleanup kills, both must find the same
traces and kill the same eyes.  It keeps the scan-based site rule and
certificate goal too: the passes over the word that replaced them must
give the same sites, strand directions and verdicts, on random pinched
words and on every state the certificate searches test.
"""

import functools
import random
from itertools import accumulate
from unittest import mock

from hypothesis import assume, given, settings, strategies as st

from frontcalc import catalog, cobordism
from frontcalc.cobordism import (_COMMUTE_DEPTH, _WINDOW, _WINDOWS,
                                 CobordismTrace, _contraction_at,
                                 _downward_cleanup,
                                 _find_reducing_commutes, _is_max_tb_unlink,
                                 _kill_eye, _pinch_sites, _pinched,
                                 _repeats, _slid_level,
                                 birth, check_trace, pinch,
                                 reduce_diagram, ruling_fillability,
                                 search_decomposable_filling,
                                 trace_from_text, trace_to_text)
from frontcalc.diagrams import FrontDiagram, L, R, X, event
from frontcalc.moves import (Rewrite, _commute_pair, apply_rewrite,
                             random_shuffle)
from frontcalc.rulings import enumerate_rulings
from frontcalc.satellites import builtin_pattern, satellite

from helpers import front_fixture, random_word
from oracles import (reference_enumerate_rulings,
                     reference_find_reducing_commutes,
                     reference_is_max_tb_unlink, reference_kill_eye,
                     reference_pinch, reference_pinch_sites,
                     reference_reduce_diagram,
                     reference_ruling_fillability,
                     reference_run_predecessor,
                     reference_search_decomposable_filling)

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)
SEEDS = st.integers(min_value=0, max_value=2 ** 32 - 1)


def oriented_diagram(rng, **kw):
    events = random_word(rng, **kw)
    n = FrontDiagram(events).n_components
    return FrontDiagram(events, [rng.choice("+-") for _ in range(n)])


def assert_reduction_matches_reference(d):
    assert _find_reducing_commutes(d.events) == \
        reference_find_reducing_commutes(d.events)
    inverses = []
    reduced, applied = reduce_diagram(d, inverses=inverses)
    assert (reduced, applied, inverses) == reference_reduce_diagram(d)


@PROPERTY
@given(SEEDS)
def test_reduction_matches_reference_on_random_words(seed):
    assert_reduction_matches_reference(oriented_diagram(random.Random(seed)))


@settings(PROPERTY, max_examples=150)
@given(st.sampled_from(catalog.names()), st.integers(0, 80), SEEDS)
def test_reduction_matches_reference_on_shuffles(name, steps, seed):
    d = random_shuffle(catalog.get(name).diagram, steps, seed)
    assert_reduction_matches_reference(d)


@PROPERTY
@given(st.sampled_from(catalog.names()), SEEDS)
def test_commute_hunt_matches_reference_on_long_shuffles(name, seed):
    # Every intermediate of the reduction is hunted; the last one is a
    # miss, which the window table answers without the whole-word search.
    d = random_shuffle(catalog.get(name).diagram, 200, seed)
    _reduced, applied = reduce_diagram(d)
    for step in accumulate(applied, apply_rewrite, initial=d):
        assert _find_reducing_commutes(step.events) == \
            reference_find_reducing_commutes(step.events)


def exposes_by_brute_force(events):
    """Whether a word within _COMMUTE_DEPTH commutes of ``events`` holds
    a contraction anywhere."""
    words = frontier = {tuple(events)}
    for _ in range(_COMMUTE_DEPTH):
        frontier = {w[:j] + pair + w[j + 2:]
                    for w in frontier for j in range(len(w) - 1)
                    if (pair := _commute_pair(w[j], w[j + 1])) is not None}
        words |= frontier
    return any(_contraction_at(w, k) is not None
               for w in words for k in range(len(w) - 2))


@settings(PROPERTY, max_examples=400)
@given(st.lists(st.tuples(st.integers(1, 5), st.integers(0, 2)),
                min_size=_WINDOW, max_size=_WINDOW))
def test_window_table_matches_brute_force(window):
    events = tuple(event("LRX"[kind], level) for level, kind in window)
    assert _WINDOWS[events] == exposes_by_brute_force(events)


def front_with_births(name, steps, seed):
    # Births make eyes; a shuffle after them pulls their cusps apart.
    rng = random.Random(seed)
    d = random_shuffle(catalog.get(name).diagram, 20, seed)
    for _ in range(rng.randint(1, 3)):
        j = rng.randint(0, len(d.events))
        d = birth(d, j, rng.randint(1, d.strand_counts[j] + 1),
                  rng.choice("+-"))
    return random_shuffle(d, steps, seed + 1)


@settings(PROPERTY, max_examples=100)
@given(st.sampled_from(catalog.names()), st.integers(0, 60), SEEDS)
def test_killed_eyes_replay_from_a_birth(name, steps, seed):
    d = front_with_births(name, steps, seed)
    kills = [reference_kill_eye(d, c) for c in range(d.n_components)]
    for killed in kills:
        if killed is not None:
            result, record = killed
            assert check_trace(CobordismTrace(result, record[::-1], d))
    # the eye found on the word is the killable eye of least component
    assert _kill_eye(d) == next((k for k in kills if k is not None), None)


@PROPERTY
@given(st.sampled_from(catalog.names()), st.integers(0, 30), SEEDS)
def test_search_loop_finds_the_reference_traces(name, steps, seed):
    d = front_with_births(name, steps, seed)
    for budget in (0, 1):
        assert (search_decomposable_filling(d, isotopy_budget=budget)
                == reference_search_decomposable_filling(
                    d, isotopy_budget=budget))
    for switches in reference_enumerate_rulings(d)[:2]:
        assert (ruling_fillability(d, switches)
                == reference_ruling_fillability(d, switches))


def orientable_sites(d):
    seg_dir = d.segment_direction
    return [(j, i) for j in range(len(d.events) + 1)
            for i in range(1, d.strand_counts[j])
            if seg_dir[d.segments_at_gap(j)[i - 1]]
            != seg_dir[d.segments_at_gap(j)[i]]]


@settings(PROPERTY, max_examples=200)
@given(SEEDS)
def test_a_skipped_pinch_site_is_a_slide_of_the_one_before(seed):
    d = oriented_diagram(random.Random(seed), max_width=8)
    heads = []
    for j, i in orientable_sites(d):
        before = reference_run_predecessor(d, j, i)
        if before is None:
            heads.append((j, i))
            continue
        # the same two segments, one gap earlier
        assert (d.segments_at_gap(j - 1)[before - 1:before + 1]
                == d.segments_at_gap(j)[i - 1:i + 1])
        slid = pinch(d, j - 1, before)
        for k in (j, j - 1):
            slid = apply_rewrite(slid, Rewrite("commute", k))
        assert slid == pinch(d, j, i)
    assert list(_pinch_sites(d)) == heads


def test_slides_keep_the_two_cusp_cases_apart():
    assert _slid_level(1, X(3)) == 1
    assert _slid_level(2, L(1)) == 4
    assert _slid_level(3, R(1)) == 1
    assert _slid_level(1, R(4)) == 1
    # a crossing on the pair's lower strand
    assert _slid_level(1, X(2)) is None
    # (L p, R p+2), which _commute_pair refuses to swap
    assert _slid_level(1, R(3)) is None
    # a left cusp at the pair's own level commutes to another word
    assert _slid_level(2, L(2)) is None


def test_only_pairs_next_to_an_event_can_start_a_run():
    # _pinch_sites reads, after an event at level lv, only the pairs at
    # lv - 1 .. lv + 2 after a left cusp, lv - 2 and lv - 1 after a right
    # cusp and lv - 1 .. lv + 1 after a crossing; every other pair
    # repeats across the event.  Commutes read level differences only,
    # so levels up to 20 cover every case.
    starts = {kind: set() for kind in (L, R, X)}
    for kind in starts:
        for lv in range(1, 21):
            for level in range(1, 24):
                if not _repeats(level, kind(lv)):
                    starts[kind].add(level - lv)
    assert starts == {L: {-1, 0, 1, 2}, R: {-2, -1}, X: {-1, 0, 1}}


def assert_sites_and_goal_match_the_scan(d, unknots=None):
    """The one-pass sites, with their directions, and the goal agree with
    the scan-based references on ``d``; returns the goal's verdict."""
    sites = _pinch_sites(d)
    assert list(sites.items()) == list(reference_pinch_sites(d).items())
    verdict = _is_max_tb_unlink(d, unknots)
    assert verdict == reference_is_max_tb_unlink(d)
    return verdict


@settings(PROPERTY, max_examples=200)
@given(SEEDS, st.integers(0, 3))
def test_sites_and_goal_match_the_scan_on_pinched_words(seed, pinches):
    rng = random.Random(seed)
    d = oriented_diagram(rng, max_width=8)
    for _ in range(pinches):
        d = pinch(d, *rng.choice(orientable_sites(d)))
    assert_sites_and_goal_match_the_scan(d)
    # a search's child is spliced with the directions the pass read
    for (j, i), (up, down) in _pinch_sites(d).items():
        assert _pinched(d, j, i, up, down) == reference_pinch(d, j, i)


@functools.cache
def certificate_states():
    """Every diagram whose goal a certificate search tests, per input:
    each ruling of the trefoil and m9_46, and the first ruling of the
    trefoil's 2-copy within 4 pinches."""
    copy2 = satellite(catalog.get("trefoil").diagram,
                      builtin_pattern("identity", "2")).diagram
    searches = [(catalog.get(name).diagram, sw, None)
                for name in ("trefoil", "m9_46")
                for sw in enumerate_rulings(catalog.get(name).diagram)]
    searches.append((copy2, (2, 5, 18, 21), 4))
    states = []

    def noting(d, *rest):
        states[-1].append(d)
        return _is_max_tb_unlink(d, *rest)

    for d, sw, bound in searches:
        states.append([])
        with mock.patch.object(cobordism, "_is_max_tb_unlink", noting):
            ruling_fillability(d, sw, bound)
    return states


def test_sites_and_goal_match_the_scan_on_certificate_states():
    verdicts = []
    for states in certificate_states():
        unknots = {}
        for d in states:
            verdicts.append(assert_sites_and_goal_match_the_scan(d, unknots))
    assert True in verdicts and False in verdicts


def test_pinch_site_counts():
    hang, _record = _downward_cleanup(front_fixture("trefoil_shuffle_hang"))
    cases = {"trefoil_shuffle_hang cleaned": hang,
             **{name: catalog.get(name).diagram
                for name in ("trefoil", "m9_46", "budget_demo")}}
    counts = {name: (len(d.events), len(orientable_sites(d)),
                     len(list(_pinch_sites(d))))
              for name, d in cases.items()}
    assert counts == {"trefoil_shuffle_hang cleaned": (23, 106, 35),
                      "trefoil": (7, 10, 8),
                      "m9_46": (16, 43, 23),
                      "budget_demo": (16, 37, 18)}


def assert_search_result_holds(d):
    trace = search_decomposable_filling(d)
    if trace is None:
        return
    assert check_trace(trace)
    assert not trace.bottom.events and trace.top == d
    assert trace.chi == -d.tb
    back = trace_from_text(trace_to_text(trace))
    assert back.moves == trace.moves
    assert back.bottom == trace.bottom and back.top == trace.top


@PROPERTY
@given(SEEDS)
def test_search_results_replay_and_meet_chantraine(seed):
    d = oriented_diagram(random.Random(seed), max_width=4, max_events=10)
    assert_search_result_holds(d)


@PROPERTY
@given(SEEDS)
def test_no_ruling_means_no_filling(seed):
    d = oriented_diagram(random.Random(seed), max_width=6, max_events=16)
    assume(not reference_enumerate_rulings(d))
    assert search_decomposable_filling(d) is None


def test_search_result_with_a_minus_birth_survives_text():
    d = catalog.get("trefoil").diagram
    trace = search_decomposable_filling(d)
    assert any(m.kind == "birth" and m.orient == "-" for m in trace.moves)
    assert_search_result_holds(d)
