"""Window-local moves against the reference orientation transfer.

Every move edits only its window of the event word and of the per-event
direction entries.  ``oracles`` keeps the rule the moves replaced: rebuild
the whole result and give each new component the old direction at its
first event outside the window.  Both must agree on every output.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from frontcalc import catalog
from frontcalc.cobordism import birth, death, pinch, surgery
from frontcalc.diagrams import DiagramError, FrontDiagram, to_text
from frontcalc.moves import (applicable_rewrites, apply_rewrite,
                             random_shuffle, stabilize)

from helpers import random_word
from oracles import (reference_birth, reference_death, reference_pinch,
                     reference_rewrite, reference_shuffle,
                     reference_stabilize, reference_surgery, scan_direction)

PROPERTY = settings(derandomize=True, max_examples=40, deadline=None)
SEEDS = st.integers(min_value=0, max_value=2 ** 32 - 1)


def oriented_diagram(rng, events=None):
    """A random word (or ``events``) with random orientation symbols."""
    if events is None:
        events = random_word(rng, max_width=6, max_events=16)
    n = FrontDiagram(events).n_components
    return FrontDiagram(events, [rng.choice("+-") for _ in range(n)])


def assert_same(got, want):
    assert got.events == want.events
    assert got.orientations == want.orientations
    assert got.strand_counts == want.strand_counts
    assert (got.tb, got.rot) == (want.tb, want.rot)
    assert got.per_component == want.per_component
    for gap, m in enumerate(want.strand_counts):
        for level in range(1, m + 1):
            assert got.direction_at(gap, level) \
                == scan_direction(want, gap, level), (gap, level)
    assert got == want and hash(got) == hash(want)


def assert_agree(move, reference, *args):
    """Same result, or the same exception type, from both."""
    try:
        want = reference(*args)
    except DiagramError as exc:
        with pytest.raises(type(exc)):
            move(*args)
        return None
    got = move(*args)
    assert_same(got, want)
    return got


def sites(d):
    return [(j, i) for j in range(d.n_events + 1)
            for i in range(1, d.strand_counts[j])]


@PROPERTY
@given(SEEDS)
def test_every_rewrite_matches_reference(seed):
    d = oriented_diagram(random.Random(seed))
    for rw in applicable_rewrites(d):
        assert_agree(apply_rewrite, reference_rewrite, d, rw)


@PROPERTY
@given(SEEDS)
def test_pinch_and_surgery_match_reference(seed):
    rng = random.Random(seed)
    d = oriented_diagram(rng)
    for j, i in sites(d):
        assert_agree(pinch, reference_pinch, d, j, i)
        p = assert_agree(pinch, reference_pinch, d, j, i, False)
        assert_agree(surgery, reference_surgery, p, j)
        # the same pair under other orientations, the two cusps' top
        # strands running either the same way or opposite ways
        assert_agree(surgery, reference_surgery,
                     oriented_diagram(rng, p.events), j)


@PROPERTY
@given(SEEDS)
def test_birth_death_stabilize_match_reference(seed):
    d = oriented_diagram(random.Random(seed))
    for sign in (1, -1):
        assert_agree(stabilize, reference_stabilize, d, sign)
    for j in range(d.n_events + 1):
        for level in range(1, d.strand_counts[j] + 2):
            for orient in "+-":
                b = assert_agree(birth, reference_birth, d, j, level, orient)
                for c in range(b.n_components):
                    assert_agree(death, reference_death, b, c)


@pytest.mark.parametrize("name", catalog.names())
def test_shuffle_matches_reference(name):
    d = catalog.get(name).diagram
    for seed in range(5):
        assert (to_text(random_shuffle(d, 500, seed))
                == to_text(reference_shuffle(d, 500, seed)))


@pytest.mark.parametrize("steps, words", [(500, 3), (2000, 1)])
def test_shuffle_matches_reference_on_random_links(steps, words):
    rng = random.Random(steps)
    for seed in range(words):
        d = oriented_diagram(rng)
        while d.n_components < 2:
            d = oriented_diagram(rng)
        got = random_shuffle(d, steps, seed)
        want = reference_shuffle(d, steps, seed)
        assert got.events == want.events
        assert got.directions == want.directions
        assert got.strand_counts == want.strand_counts
