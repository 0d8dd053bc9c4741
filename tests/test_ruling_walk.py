"""The single-ruling walks against the reference walk.

``ruling_pairings`` follows one switch set through the word on a
partner array edited in place, and ``is_ruling`` follows one slot key
along ``FrontDiagram.slot_walk``.  ``oracles`` keeps the generator they
replaced, which steps a fresh pairing per event through the positional
DP's ``reference_step`` and reads the word off ``kinds_and_levels``.
On every switch set they must agree with it: the same pairing at every
gap, a RulingError, with the same message, exactly when the reference
raises one, and the same answer from ``is_ruling``.
The switch sets are every ruling of the word, each with one crossing
flipped between switch and follow (and, where that fails at a
crossing, that crossing flipped too), each with a cusp or an
out-of-range index added, and random sets of indices.  ``is_ruling``
also meets random sets of crossings, on shuffled words and satellites,
and rulings with an index repeated or with a negative or non-``int``
index added: an index that is not an ``int`` answers False."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from frontcalc import catalog
from frontcalc.diagrams import CROSSING, FrontDiagram
from frontcalc.moves import random_shuffle
from frontcalc.rulings import (RulingError, enumerate_rulings, is_ruling,
                               ruling_pairings)
from frontcalc.satellites import builtin_pattern, satellite

from helpers import random_word
from oracles import kinds_and_levels, reference_is_ruling, reference_walk
from test_ruling_enumeration import SATELLITES

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
        kind, level = kinds_and_levels(diagram)[event]
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


# indices that are no ints, although a set takes True for 1 and 2.0 for 2
NOT_INTS = (True, "2", 2.0)


def noisy_switch_sets(diagram, rng):
    """Random sets of crossings and of indices; and some rulings as they
    are, with an index repeated, and with a cusp, out-of-range, negative
    or non-``int`` index added, each as a list in random order."""
    n = len(diagram.events)
    crossings = diagram.crossing_indices()
    cusps = [k for k in range(n) if k not in set(crossings)]
    sets = [rng.sample(crossings, rng.randrange(len(crossings) + 1))
            for _ in range(6)]
    sets += [rng.sample(range(n), rng.randrange(min(6, n) + 1))
             for _ in range(3)]
    rulings = enumerate_rulings(diagram)
    for ruling in rng.sample(rulings, min(6, len(rulings))):
        sets.append(list(ruling))
        if ruling:
            sets.append(list(ruling) + [rng.choice(ruling)])
        for extra in (rng.choice(cusps), n + rng.randrange(3),
                      -1 - rng.randrange(3), *NOT_INTS):
            sets.append(list(ruling) + [extra])
    for switches in sets:
        rng.shuffle(switches)
    return sets


def expected_is_ruling(diagram, switches):
    if any(type(idx) is not int for idx in switches):
        return False
    return reference_is_ruling(diagram, switches)


def assert_is_ruling_agrees(diagram, rng):
    for switches in noisy_switch_sets(diagram, rng):
        assert is_ruling(diagram, switches) \
            == expected_is_ruling(diagram, switches), switches


@PROPERTY
@given(SEEDS)
def test_is_ruling_matches_reference(seed):
    rng = random.Random(seed)
    d = FrontDiagram(random_word(rng, max_width=6))
    assert_is_ruling_agrees(d, rng)
    assert_is_ruling_agrees(
        random_shuffle(d, 40, seed=rng.randrange(1 << 16)), rng)


@settings(PROPERTY, max_examples=3)
@given(SEEDS)
@pytest.mark.parametrize("companion,family,param", SATELLITES)
def test_is_ruling_matches_reference_on_satellites(companion, family, param,
                                                   seed):
    pattern = builtin_pattern(family, param)
    d = satellite(catalog.get(companion).diagram, pattern).diagram
    assert_is_ruling_agrees(d, random.Random(seed))


def test_noisy_switch_sets_meet_both_answers():
    """The sets drawn above hold rulings, and sets rejected for each
    kind of index and for failing on the word."""
    answers = set()
    for seed in range(20):
        rng = random.Random(seed)
        d = FrontDiagram(random_word(rng, max_width=6))
        for switches in noisy_switch_sets(d, rng):
            n = len(d.events)
            kinds = {"not an int" if type(k) is not int else
                     "out of range" if not 0 <= k < n else
                     "cusp" if d.events[k].kind != CROSSING else "crossing"
                     for k in switches}
            answers.add((expected_is_ruling(d, switches),
                         max(kinds, key=("crossing", "cusp", "out of range",
                                         "not an int").index,
                             default="crossing")))
    assert answers >= {(True, "crossing"), (False, "crossing"),
                       (False, "cusp"), (False, "out of range"),
                       (False, "not an int")}
