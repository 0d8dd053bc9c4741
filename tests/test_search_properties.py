"""Properties of the filling search and its cleanup over random words.

The cleanup's commute BFS runs on int-coded words; ``oracles`` keeps the
same BFS on Event words, and the two must agree on every word, as must
the reductions built on them.  Every trace the search returns must replay,
start from the empty diagram, have chi = -tb(top) (Chantraine 2010), and
survive the trace text format.  A front with no normal ruling has no
filling (a filling gives an augmentation, which gives a ruling), so the
search must come back empty on one.
"""

import random
from itertools import accumulate

from hypothesis import assume, given, settings, strategies as st

from frontcalc import catalog
from frontcalc.cobordism import (_find_reducing_commutes, check_trace,
                                 reduce_diagram, search_decomposable_filling,
                                 trace_from_text, trace_to_text)
from frontcalc.diagrams import FrontDiagram
from frontcalc.moves import apply_rewrite, random_shuffle

from helpers import random_word
from oracles import (reference_enumerate_rulings,
                     reference_find_reducing_commutes,
                     reference_reduce_diagram)

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
