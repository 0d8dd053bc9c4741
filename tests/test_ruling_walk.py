"""The single-ruling walk against the reference walk.

``is_ruling`` and ``ruling_pairings`` follow one switch set through the
word on a partner array edited in place.  ``oracles`` keeps the
generator they replaced, which steps a fresh pairing per event through
the DP's ``_step``.  On every switch set both must agree: the same
pairing at every gap, and a RulingError, with the same message, exactly
when the reference raises one.  The switch sets are every ruling of the
word, each with one crossing flipped between switch and follow (and,
where that fails at a crossing, that crossing flipped too), each with a
cusp or an out-of-range index added, and random sets of indices."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from frontcalc.diagrams import CROSSING, FrontDiagram
from frontcalc.rulings import (RulingError, enumerate_rulings, is_ruling,
                               ruling_pairings)

from helpers import random_word
from oracles import reference_is_ruling, reference_walk

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)
SEEDS = st.integers(min_value=0, max_value=2 ** 32 - 1)


def rejection(diagram, switches):
    """Why the reference walk rejects a switch set, and at which event:
    (None, None) for a ruling, ('range', None), or one of 'cusp switch',
    'paired switch', 'abnormal switch', 'paired follow' (a crossing of
    paired strands followed) and 'unpaired cusp' with the event."""
    gaps = []
    try:
        for pairing in reference_walk(diagram, switches):
            gaps.append(pairing)
    except RulingError as exc:
        if not gaps:
            assert "out of range" in str(exc)
            return "range", None
        event = len(gaps) - 1
        kind, level = diagram.kinds_and_levels[event]
        paired = kind == CROSSING and gaps[-1][level - 1] == level
        if event in switches:
            if kind != CROSSING:
                return "cusp switch", event
            return "paired switch" if paired else "abnormal switch", event
        return "paired follow" if paired else "unpaired cusp", event
    return None, None


def switch_sets(diagram, rng):
    """Every ruling; each with one crossing flipped, and if that fails at
    a crossing, with that crossing flipped too; each with a cusp or an
    out-of-range index added; and random sets over indices -2..n+1."""
    n = len(diagram.events)
    crossings = diagram.crossing_indices()
    cusps = [k for k in range(n) if k not in set(crossings)]
    sets = []
    for ruling in enumerate_rulings(diagram):
        sets.append(ruling)
        for k in crossings:
            flipped = set(ruling) ^ {k}
            sets.append(tuple(sorted(flipped)))
            why, event = rejection(diagram, flipped)
            if why in ("paired follow", "paired switch", "abnormal switch"):
                sets.append(tuple(sorted(flipped ^ {event})))
        sets.append(ruling + (rng.choice(cusps),))
        sets.append(ruling + (rng.choice((-1, n, n + rng.randrange(9))),))
    for _ in range(8):
        sets.append(tuple(rng.sample(range(-2, n + 2),
                                     rng.randrange(min(6, n + 4)))))
    return sets


def assert_walks_agree(diagram, switches):
    assert is_ruling(diagram, switches) \
        == reference_is_ruling(diagram, switches)
    try:
        want = [tuple(pairing) for pairing in reference_walk(diagram,
                                                             switches)]
    except RulingError as exc:
        with pytest.raises(RulingError) as got:
            ruling_pairings(diagram, switches)
        assert str(got.value) == str(exc)
    else:
        assert ruling_pairings(diagram, switches) == want


@PROPERTY
@given(SEEDS)
def test_walk_matches_reference(seed):
    rng = random.Random(seed)
    d = FrontDiagram(random_word(rng, max_width=6))
    for switches in switch_sets(d, rng):
        assert_walks_agree(d, switches)


def test_switch_sets_meet_every_rejection():
    """The switch sets drawn above reach every way a walk can fail."""
    seen = set()
    for seed in range(40):
        rng = random.Random(seed)
        d = FrontDiagram(random_word(rng, max_width=6))
        seen.update(rejection(d, set(s))[0] for s in switch_sets(d, rng))
    assert seen == {None, "range", "cusp switch", "paired switch",
                    "abnormal switch", "paired follow", "unpaired cusp"}
