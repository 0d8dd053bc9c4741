"""The ruling DP against the reference enumerator.

``enumerate_rulings`` emits switch sets from the live states of the
two-sided pass that ``count_rulings`` runs.  ``oracles`` keeps the
recursive walk it replaced, which follows every branch of the pairing
tree; both must list the same rulings.  The pass reads the suffixes of
a word as prefixes of its mirror, so a mirrored front must have the
reflected rulings.
"""

import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from frontcalc import catalog, rulings
from frontcalc.diagrams import FrontDiagram, L, R
from frontcalc.moves import random_shuffle
from frontcalc.rulings import (MAX_STRANDS, RulingError, count_rulings,
                               enumerate_rulings, ruling_pairings)
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


def test_count_meets_in_the_middle(monkeypatch):
    """Growing the thinner side keeps the steps well below the 13,635
    of a left-to-right pass over the 3-copy of the trefoil."""
    d = satellite(catalog.get("trefoil").diagram,
                  builtin_pattern("identity", "3")).diagram
    calls = 0
    step = rulings._step

    def counting_step(*args):
        nonlocal calls
        calls += 1
        return step(*args)

    monkeypatch.setattr(rulings, "_step", counting_step)
    assert count_rulings(d) == 256
    assert calls <= 4000


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
