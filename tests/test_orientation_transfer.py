"""Window-local moves against the reference orientation transfer.

Every move edits only its window of the event word and of the per-event
direction entries.  ``oracles`` keeps the rule the moves replaced: rebuild
the whole result and give each new component the old direction at its
first event outside the window.  Both must agree on every output.  A
component's front keeps the parent's entries of its events; the
reference builds it through the validating constructor instead.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from frontcalc import catalog
from frontcalc.cobordism import (NotIsolatedUnknot, birth, death, pinch,
                                 surgery)
from frontcalc.diagrams import DiagramError, Event, FrontDiagram, to_text
from frontcalc.moves import (applicable_rewrites, apply_rewrite,
                             random_shuffle, stabilize)

from helpers import random_word
from oracles import (reference_birth, reference_component_subdiagram,
                     reference_death, reference_directions,
                     reference_orient, reference_per_component,
                     reference_pinch, reference_rewrite, reference_rot,
                     reference_shuffle, reference_stabilize,
                     reference_surgery, reference_tb, reference_writhe,
                     scan_direction)

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
    return [(j, i) for j in range(len(d.events) + 1)
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
    for j in range(len(d.events) + 1):
        for level in range(1, d.strand_counts[j] + 2):
            for orient in "+-":
                b = assert_agree(birth, reference_birth, d, j, level, orient)
                for c in range(b.n_components):
                    assert_agree(death, reference_death, b, c)


# The eye is the component's cusp pair; every word is read under each
# choice of orientation symbols.
@pytest.mark.parametrize("word, component, want", [
    # a left cusp above the eye, then a right cusp above it
    ("L1 L1 R1 R1", 0, "L1 R1"),
    # a left cusp two levels below the eye, then a right cusp there
    ("L1 L3 R3 R1", 0, "L1 R1"),
    # a right cusp two levels below the eye, a pair that does not commute
    ("L1 L1 R3 R1", 1, "L1 R1"),
    # crossings above and below the eye
    ("L1 L1 X1 L3 X5 X1 R3 R1 R1", 2, "L1 L1 X1 X3 X1 R1 R1"),
    ("L1 L2 R2 R1", 0, "event 1 opens inside the eye"),
    # a crossing with the strand just below the eye, then just above it
    ("L1 L1 X2 X2 R1 R1", 1, "event 2 touches the eye"),
    ("L1 L3 X2 X2 R3 R1", 1, "event 2 touches the eye"),
])
def test_death_reads_the_eye_off_the_scan(word, component, want):
    events = [Event.parse(t) for t in word.split()]
    n = FrontDiagram(events).n_components
    for symbols in itertools.product("+-", repeat=n):
        d = FrontDiagram(events, symbols)
        if want.startswith("event"):
            with pytest.raises(NotIsolatedUnknot, match=want):
                death(d, component)
            with pytest.raises(NotIsolatedUnknot):
                reference_death(d, component)
        else:
            got = assert_agree(death, reference_death, d, component)
            assert " ".join(map(str, got.events)) == want


@PROPERTY
@given(SEEDS)
def test_death_matches_reference_on_every_component(seed):
    rng = random.Random(seed)
    for _ in range(25):
        d = oriented_diagram(rng, random_word(rng, max_width=8,
                                              max_events=20))
        for c in range(d.n_components):
            assert_agree(death, reference_death, d, c)


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
        before = (d.events, d.directions, d.strand_counts, d.orientations)
        got = random_shuffle(d, steps, seed)
        assert (d.events, d.directions, d.strand_counts,
                d.orientations) == before
        want = reference_shuffle(d, steps, seed)
        assert got.events == want.events
        assert got.directions == want.directions
        assert got.strand_counts == want.strand_counts
        # the one diagram a walk builds agrees with a validated rebuild
        rebuilt = FrontDiagram(got.events, got.orientations)
        assert got.directions == rebuilt.directions
        assert got.strand_counts == rebuilt.strand_counts
        assert got.orientations == rebuilt.orientations


def assert_word_facts(d):
    """Every word fact of ``d`` against the formulas that read ``kind``."""
    assert d.writhe == reference_writhe(d)
    assert (d.tb, d.rot) == (reference_tb(d), reference_rot(d))
    assert d.per_component == reference_per_component(d)
    assert d.directions == reference_orient(d)
    # the entries that the validating constructor and a re-signing set
    assert FrontDiagram(d.events, d.orientations).directions == d.directions
    flipped = tuple("+-"[s == "+"] for s in d.orientations)
    assert (d._with_orientations(flipped).directions
            == reference_directions(d, flipped))


@PROPERTY
@given(SEEDS)
def test_word_facts_match_reference(seed):
    rng = random.Random(seed)
    for _ in range(10):
        d = oriented_diagram(rng, random_word(rng, max_width=8,
                                              max_events=20))
        assert_word_facts(d)
        assert_word_facts(random_shuffle(d, 200, rng.getrandbits(32)))


@pytest.mark.parametrize("name", catalog.names())
def test_word_facts_match_reference_on_shuffles(name):
    d = catalog.get(name).diagram
    for seed in range(3):
        assert_word_facts(random_shuffle(d, 500, seed))


@PROPERTY
@given(SEEDS)
def test_component_fronts_match_reference(seed):
    d = oriented_diagram(random.Random(seed))
    for c in range(d.n_components):
        got = d.component_subdiagram(c)
        want = reference_component_subdiagram(d, c)
        assert got.directions == want.directions
        assert_same(got, want)
