"""One walk of the cusp graph against the labelling it replaced.

``oracles`` keeps the union-find that numbered the components, the search
that directed the segments from the orientation symbols, the symbols read
off the left-cusp entries and the k-copy's orientation rule.  Every
diagram here, however it was built, must agree with them, and the walk's
sides must flip across every cusp.
"""

import random

from hypothesis import given, settings, strategies as st

from frontcalc.cobordism import (SurgeryPresentation, is_tree, pinch,
                                 surgery)
from frontcalc.diagrams import (_CROSS, FrontDiagram, L, R, X,
                                connected_components, cusp_walk,
                                segment_steps)
from frontcalc.moves import random_shuffle
from frontcalc.satellites import (PatternFront, _k_copy_events,
                                  builtin_pattern, k_copy, satellite)

from helpers import random_tree_presentation, random_word
from oracles import (reference_closure_cycles,
                     reference_connected_components, reference_directions,
                     reference_inherit_orientations, reference_is_tree,
                     reference_labels, reference_orientations,
                     reference_segment_direction)

PROPERTY = settings(derandomize=True, max_examples=40, deadline=None)
SEEDS = st.integers(min_value=0, max_value=2 ** 32 - 1)
PATTERNS = [builtin_pattern("identity", 2), builtin_pattern("half_twist", 3),
            builtin_pattern("whitehead"), builtin_pattern("stab_core", "+"),
            builtin_pattern("stab_core", "-")]


def oriented_diagram(rng, events=None):
    """A random word (or ``events``) with random orientation symbols."""
    if events is None:
        events = random_word(rng, max_width=6, max_events=16)
    n = FrontDiagram(events).n_components
    return FrontDiagram(events, [rng.choice("+-") for _ in range(n)])


def random_pattern(rng, strands, n_events):
    """A random annulus pattern word on ``strands`` strands."""
    events = []
    m = strands
    while len(events) < n_events or m != strands:
        opts = ["L"] if m < strands + 4 else []
        if m >= 2:
            opts += ["X", "R"]
        if m > strands:
            opts.append("R")   # leans back towards ``strands``
        kind = rng.choice(opts)
        if kind == "L":
            events.append(L(rng.randint(1, m + 1)))
            m += 2
        elif kind == "X":
            events.append(X(rng.randint(1, m - 1)))
        else:
            events.append(R(rng.randint(1, m - 1)))
            m -= 2
    return PatternFront(strands, events)


def assert_walk_matches_reference(d):
    scan, comps = reference_labels(d)
    assert d.component_of_segment == comps
    assert d.orientations == reference_orientations(d)
    assert d.segment_direction == reference_segment_direction(d)
    assert d.directions == reference_directions(d, d.orientations)
    label, side = d._walk
    assert label == comps
    for a, b in scan.cusp_pair.values():
        assert side[a] == -side[b]
    for seg, c in enumerate(label):
        if c not in label[:seg]:
            assert side[seg] == 1
        sign = 1 if d.orientations[c] == "+" else -1
        assert d.segment_direction[seg] == sign * side[seg]


def assert_cycles_match_reference(events):
    """``cusp_walk``, which follows the cusp graph's cycles, labels the
    segments as the union-find does and gives the sides of the search
    that walks any graph."""
    touched = list(segment_steps(events)[0])
    cusps = [(top, bottom) for kind, _i, top, bottom in touched
             if kind != _CROSS]
    label, side = cusp_walk(touched)
    assert label == reference_connected_components(len(cusps), cusps)
    assert (label, side) == connected_components(len(cusps), cusps)


def test_cycles_of_the_empty_word_and_an_eye():
    assert cusp_walk([]) == ((), ())
    # a lone eye's cycle has two edges, both between segments 0 and 1
    assert cusp_walk(list(segment_steps([L(1), R(1)])[0])) == ((0, 0),
                                                               (1, -1))
    for events in ([], [L(1), R(1)], [L(1), L(1), R(3), R(1)],
                   [L(1), L(3), X(2), X(2), X(2), R(1), R(1)]):
        assert_cycles_match_reference(events)


@PROPERTY
@given(SEEDS)
def test_cycles_match_reference(seed):
    rng = random.Random(seed)
    d = oriented_diagram(rng)
    assert_cycles_match_reference(d.events)
    assert_cycles_match_reference(random_shuffle(d, 200, seed).events)
    if d.n_components == 1:
        pattern = rng.choice(PATTERNS + [random_pattern(rng, 2, 6)])
        assert_cycles_match_reference(satellite(d, pattern).diagram.events)


@PROPERTY
@given(SEEDS)
def test_words_links_and_shuffles(seed):
    rng = random.Random(seed)
    d = oriented_diagram(rng)
    assert_walk_matches_reference(d)
    assert_walk_matches_reference(d._with_orientations(
        rng.choice("+-") for _ in range(d.n_components)))
    assert_walk_matches_reference(random_shuffle(d, 200, seed))


@PROPERTY
@given(SEEDS)
def test_codirected_pinches_and_surgeries(seed):
    rng = random.Random(seed)
    d = oriented_diagram(rng)
    for j in range(len(d.events) + 1):
        for i in range(1, d.strand_counts[j]):
            p = pinch(d, j, i, orientable_only=False)
            assert_walk_matches_reference(p)
            q = oriented_diagram(rng, p.events)
            assert_walk_matches_reference(surgery(q, j))


@PROPERTY
@given(SEEDS)
def test_copies_and_satellites(seed):
    rng = random.Random(seed)
    d = oriented_diagram(rng, random_word(rng, max_width=4, max_events=10))
    for k in (2, 3):
        c = k_copy(d, k)
        assert_walk_matches_reference(c)
        want = reference_inherit_orientations(d, *_k_copy_events(d, k))
        assert (c.events, c.directions) == (want.events, want.directions)
    if d.n_components == 1:
        pattern = rng.choice(PATTERNS + [random_pattern(rng, 2, 6)])
        assert_walk_matches_reference(satellite(d, pattern).diagram)


@PROPERTY
@given(SEEDS)
def test_closure_cycles_match_reference(seed):
    rng = random.Random(seed)
    p = random_pattern(rng, rng.randint(1, 4), rng.randint(0, 12))
    assert p.closure_cycles() == reference_closure_cycles(p)


@PROPERTY
@given(SEEDS)
def test_is_tree_matches_reference(seed):
    rng = random.Random(seed)
    base, sites = random_tree_presentation(rng.randint(1, 5), rng)
    assert_walk_matches_reference(base)
    # the tree, a forest, and as many arcs as a tree with one doubled,
    # which closes a cycle and leaves a component out
    doubled = sites[:-1] + sites[:1]
    for arcs in (sites, rng.sample(sites, rng.randrange(len(sites))),
                 doubled):
        p = SurgeryPresentation(base, arcs)
        assert is_tree(p) == reference_is_tree(p)
    assert is_tree(SurgeryPresentation(base, sites))
