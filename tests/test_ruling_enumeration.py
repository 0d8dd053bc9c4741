"""The ruling DP against the reference enumerator.

``enumerate_rulings`` emits switch sets from the live states of the
two-sided pass that ``count_rulings`` runs.  ``oracles`` keeps the
recursive walk it replaced, which follows every branch of the pairing
tree; both must list the same rulings.  The pass reads the suffixes of
a word as prefixes of its mirror, so a mirrored front must have the
reflected rulings.  The pass steps whole frontiers through
``_advance`` and single states through ``_step``; the two must agree.
"""

import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from frontcalc import catalog, rulings
from frontcalc.diagrams import (CROSSING, LEFT_CUSP, RIGHT_CUSP,
                                FrontDiagram, L, R)
from frontcalc.moves import random_shuffle
from frontcalc.rulings import (MAX_STRANDS, RulingError, count_rulings,
                               enumerate_rulings, is_ruling, ruling_pairings)
from frontcalc.satellites import builtin_pattern, satellite

from helpers import mirror, random_word
from oracles import reference_enumerate_rulings

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)
SEEDS = st.integers(min_value=0, max_value=2 ** 32 - 1)

SATELLITES = [(companion, family, param)
              for companion in ("trefoil", "m9_46", "stab_plus_trefoil")
              for family, param in (("identity", "2"), ("half_twist", "2"),
                                    ("half_twist", "3"), ("whitehead", None))]
SATELLITES.append(("trefoil", "identity", "3"))


def assert_matches_reference(d):
    listed = enumerate_rulings(d)
    assert listed == reference_enumerate_rulings(d)
    assert count_rulings(d) == len(listed)
    for switches in listed:
        gaps = ruling_pairings(d, switches)
        assert len(gaps) == len(d.events) + 1
        assert gaps[0] == gaps[-1] == ()


@PROPERTY
@given(SEEDS)
def test_enumeration_matches_reference(seed):
    rng = random.Random(seed)
    assert_matches_reference(FrontDiagram(random_word(rng, max_width=6)))


@pytest.mark.parametrize("companion,family,param", SATELLITES)
def test_satellite_enumeration_matches_reference(companion, family, param):
    pattern = builtin_pattern(family, param)
    assert_matches_reference(
        satellite(catalog.get(companion).diagram, pattern).diagram)


def assert_mirror_reflects_rulings(d):
    n = len(d.events)
    reflected = sorted(tuple(sorted(n - 1 - k for k in switches))
                       for switches in enumerate_rulings(d))
    m = mirror(d)
    assert count_rulings(m) == count_rulings(d) == len(reflected)
    assert enumerate_rulings(m) == reflected


@PROPERTY
@given(SEEDS)
def test_mirror_reflects_rulings(seed):
    rng = random.Random(seed)
    assert_mirror_reflects_rulings(
        FrontDiagram(random_word(rng, max_width=6)))


@pytest.mark.parametrize("companion,family,param", SATELLITES)
def test_satellite_mirror_reflects_rulings(companion, family, param):
    pattern = builtin_pattern(family, param)
    assert_mirror_reflects_rulings(
        satellite(catalog.get(companion).diagram, pattern).diagram)


def three_copy_of_trefoil():
    return satellite(catalog.get("trefoil").diagram,
                     builtin_pattern("identity", "3")).diagram


def count_work(monkeypatch):
    """Count the pairings stepped: every state of a frontier passed to
    ``_advance`` and every ``_step`` call."""
    work = {"_advance": 0, "_step": 0}
    advance, step = rulings._advance, rulings._step

    def counting_advance(front, kind, i):
        work["_advance"] += len(front)
        return advance(front, kind, i)

    def counting_step(*args):
        work["_step"] += 1
        return step(*args)

    monkeypatch.setattr(rulings, "_advance", counting_advance)
    monkeypatch.setattr(rulings, "_step", counting_step)
    return work


def test_count_meets_in_the_middle(monkeypatch):
    """Growing the thinner side keeps the pairings stepped well below
    the 13,635 of a left-to-right pass over the 3-copy of the trefoil."""
    d = three_copy_of_trefoil()
    work = count_work(monkeypatch)
    assert count_rulings(d) == 256
    assert work["_step"] == 0
    assert work["_advance"] <= 4000


def test_enumeration_steps_each_live_state_once(monkeypatch):
    """The prune goes on with the suffix pass, and emission steps each
    live state once, where stepping every prefix state in the prune and
    every node of the emitting walk takes 10,769 steps."""
    d = three_copy_of_trefoil()
    work = count_work(monkeypatch)
    assert len(enumerate_rulings(d)) == 256
    assert work["_advance"] + work["_step"] <= 4500


@PROPERTY
@given(SEEDS)
def test_advance_merges_step(seed):
    """``_advance`` on a frontier is ``_step`` on each of its states,
    follows and kept pairings merged with their counts summed, for
    every kind at every level a frontier of the pass admits."""
    d = FrontDiagram(random_word(random.Random(seed), max_width=6))
    for _side, front in rulings._meet(d):
        width = len(next(iter(front), b""))
        for kind, levels in ((LEFT_CUSP, width + 1), (RIGHT_CUSP, width - 1),
                             (CROSSING, width - 1)):
            for i in range(levels):
                merged = {}
                for pairing, n in front.items():
                    follow, switch = rulings._step(pairing, kind, i)
                    if follow is not None:
                        merged[follow] = merged.get(follow, 0) + n
                    if switch:
                        merged[pairing] = merged.get(pairing, 0) + n
                assert rulings._advance(front, kind, i) == merged


@pytest.fixture
def default_recursion_limit():
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(old)


@pytest.mark.parametrize("steps,length", [(2000, 1270), (4000, 2381)])
def test_long_word_enumeration(default_recursion_limit, steps, length):
    d = random_shuffle(catalog.get("m9_46").diagram, steps, seed=2)
    assert len(d.events) == length
    listed = enumerate_rulings(d)
    assert len(listed) == count_rulings(d) == 2
    for switches in listed:
        ruling_pairings(d, switches)


def nested_unknots(n):
    """n concentric unknots: 2n strands at the widest gap, one ruling."""
    return FrontDiagram([L(k) for k in range(1, n + 1)]
                        + [R(k) for k in range(n, 0, -1)])


def test_width_limit():
    widest = nested_unknots(MAX_STRANDS // 2)
    assert count_rulings(widest) == 1
    assert enumerate_rulings(widest) == [()]
    too_wide = nested_unknots(MAX_STRANDS // 2 + 1)
    for fn in (count_rulings, enumerate_rulings):
        with pytest.raises(RulingError, match="at most 256 strands"):
            fn(too_wide)
    with pytest.raises(RulingError, match="at most 256 strands"):
        ruling_pairings(too_wide, ())


def test_is_ruling_width_limit():
    """Past the width limit ``is_ruling`` raises, as the rest of the
    module does, rather than answer that the unlink's one normal ruling,
    the empty switch set, is none."""
    assert is_ruling(nested_unknots(MAX_STRANDS // 2), ())
    with pytest.raises(RulingError, match="at most 256 strands"):
        is_ruling(nested_unknots(MAX_STRANDS // 2 + 1), ())
