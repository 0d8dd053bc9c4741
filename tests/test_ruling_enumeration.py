"""The ruling DP against the reference enumerator.

``enumerate_rulings`` emits switch sets from the live states of the
two-sided pass that ``count_rulings`` runs.  ``oracles`` keeps the
recursive walk it replaced, which follows every branch of the pairing
tree; both must list the same rulings.  The pass reads the suffixes of
a word as prefixes of its mirror, so a mirrored front must have the
reflected rulings.  The pass steps whole frontiers of slot keys through
``_advance`` and single keys through ``_step``; the two must agree.
``oracles`` also keeps the positional DP that slot keys replaced: at
every gap, each side's frontier, read as positional pairings, must be
that DP's, with the same counts, and a pairing that both sides reach
must have one key.  The emission after the meet steps only live
states, each once, and those at the meeting gap once per side.
"""

import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from frontcalc import catalog, rulings
from frontcalc.diagrams import CROSSING, RIGHT_CUSP, FrontDiagram, L, R, X
from frontcalc.moves import random_shuffle
from frontcalc.rulings import (MAX_STRANDS, RulingError, count_rulings,
                               enumerate_rulings, is_ruling, ruling_pairings)
from frontcalc.satellites import builtin_pattern, satellite

from helpers import mirror, random_word
from oracles import (positional, reference_enumerate_rulings,
                     reference_frontiers, reference_is_ruling,
                     reference_slot_layout)

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
    """Count the keys stepped: every state of a frontier passed to
    ``_advance`` and every ``_step`` call."""
    work = {"_advance": 0, "_step": 0}
    advance, step = rulings._advance, rulings._step

    def counting_advance(front, *event):
        work["_advance"] += len(front)
        return advance(front, *event)

    def counting_step(*args):
        work["_step"] += 1
        return step(*args)

    monkeypatch.setattr(rulings, "_advance", counting_advance)
    monkeypatch.setattr(rulings, "_step", counting_step)
    return work


def test_count_meets_in_the_middle(monkeypatch):
    """Growing the thinner side keeps the keys stepped well below the
    13,635 of a left-to-right pass over the 3-copy of the trefoil."""
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


def live_keys(d):
    """At every gap, the keys that a ruling prefix reaches and a ruling
    suffix leaves."""
    prefixes, suffixes = slot_frontiers(d)
    return [front.keys() & back.keys()
            for front, back in zip(prefixes, suffixes)]


@pytest.mark.parametrize("build", [
    three_copy_of_trefoil,
    lambda: random_shuffle(catalog.get("m9_46").diagram, 2000, seed=2)],
    ids=["trefoil 3-copy", "m9_46 shuffle"])
def test_emission_steps_only_live_states(monkeypatch, build):
    """From the meeting gap m, the left half steps each crossing k < m
    on the live keys after it and the right half each crossing k >= m
    on the live keys before it: so each live key is stepped once, but
    those at m once by each half.  Every listed set is a ruling, and
    there are as many as the count."""
    d = build()
    m = sum(side == 0 for side, _states in rulings._meet(d)) - 1
    stepped = []
    carry = rulings._carry

    def recording_carry(front, *event):
        stepped.append(set(front))
        return carry(front, *event)

    monkeypatch.setattr(rulings, "_carry", recording_carry)
    listed = enumerate_rulings(d)
    monkeypatch.undo()
    live = live_keys(d)
    crossings = d.crossing_indices()
    want = [live[k + 1] for k in reversed(crossings) if k < m]
    want += [live[k] for k in crossings if k >= m]
    assert stepped == want
    assert sum(map(len, stepped)) <= sum(map(len, live)) + len(live[m])
    assert len(set(listed)) == len(listed) == count_rulings(d)
    assert all(reference_is_ruling(d, switches) for switches in listed)


def gap_events(slots):
    """Every crossing and right cusp a gap whose positions hold
    ``slots`` admits, as steps of ``slot_walk``: each level's two slots,
    top first, with the gap's slot positions."""
    positions = bytearray(max(slots, default=-1) + 1)
    for p, s in enumerate(slots):
        positions[s] = p
    positions = bytes(positions)
    return [(kind, i, slots[i], slots[i + 1], positions)
            for kind in (CROSSING, RIGHT_CUSP)
            for i in range(len(slots) - 1)]


def assert_advance_merges_step(front, event):
    merged = {}
    for key, n in front.items():
        follow, switch = rulings._step(key, *event)
        if follow is not None:
            merged[follow] = merged.get(follow, 0) + n
        if switch is not None:
            merged[switch] = merged.get(switch, 0) + n
    assert rulings._advance(front, *event) == merged


@PROPERTY
@given(SEEDS)
def test_advance_merges_step(seed):
    """``_advance`` on a frontier is ``_step`` on each of its keys,
    follows and switches merged with their counts summed: for every
    event of the word on both sides, and for every crossing and right
    cusp at every level a frontier of the pass admits."""
    d = FrontDiagram(random_word(random.Random(seed), max_width=6))
    steps, mirror_steps, _first, _last = d.slot_walk
    layout = reference_slot_layout(d)
    gap = [0, len(d.events)]
    for side, front in rulings._meet(d):
        for event in steps + mirror_steps:
            assert_advance_merges_step(front, event)
        for event in gap_events(layout[gap[side]]):
            assert_advance_merges_step(front, event)
        gap[side] += -1 if side else 1


def slot_frontiers(d):
    """Every gap's prefix and suffix frontier of slot keys: the slot
    kernel run over the whole word from each end."""
    steps, mirror_steps, first, last = d.slot_walk
    prefixes = [{first: 1}]
    for event in steps:
        prefixes.append(rulings._advance(prefixes[-1], *event))
    suffixes = [{last: 1}]
    for event in reversed(mirror_steps):
        suffixes.append(rulings._advance(suffixes[-1], *event))
    return prefixes, suffixes[::-1]


def assert_slot_keys_match_reference(d):
    prefixes, suffixes = slot_frontiers(d)
    want = reference_frontiers(d)
    layout = reference_slot_layout(d)
    assert len(prefixes) == len(suffixes) == len(layout) == len(d.events) + 1
    for gap, slots in enumerate(layout):
        keys = {}
        for side, front in enumerate((prefixes[gap], suffixes[gap])):
            read = {}
            for key, n in front.items():
                pairing = positional(key, slots)
                assert pairing not in read
                read[pairing] = n
                # one key per pairing, whichever side reached it
                assert keys.setdefault(pairing, key) == key
            assert read == want[side][gap]


@PROPERTY
@given(SEEDS)
def test_slot_keys_match_the_positional_dp(seed):
    rng = random.Random(seed)
    d = FrontDiagram(random_word(rng, max_width=6))
    shuffled = random_shuffle(d, 40, seed=rng.randrange(1 << 16))
    for front in (d, shuffled):
        assert_slot_keys_match_reference(front)
        assert enumerate_rulings(front) == reference_enumerate_rulings(front)


@pytest.mark.parametrize("companion,family,param", SATELLITES)
def test_satellite_slot_keys_match_the_positional_dp(companion, family,
                                                     param):
    pattern = builtin_pattern(family, param)
    assert_slot_keys_match_reference(
        satellite(catalog.get(companion).diagram, pattern).diagram)


def assert_slot_positions_match_layout(d):
    """At every crossing of ``slot_walk``, the positions map each live
    slot to its position in the reference layout; a dead slot's entry
    is not read.  A cusp has no positions."""
    steps, mirror_steps, _first, _last = d.slot_walk
    layout = reference_slot_layout(d)
    for k, (kind, i, top, bottom, positions) in enumerate(steps):
        assert mirror_steps[k][4] is positions
        if kind != CROSSING:
            assert positions is None
            continue
        slots = layout[k]
        assert (top, bottom) == slots[i:i + 2]
        assert [positions[s] for s in slots] == list(range(len(slots)))


@PROPERTY
@given(SEEDS)
def test_slot_positions_match_the_layout(seed):
    rng = random.Random(seed)
    d = FrontDiagram(random_word(rng, max_width=6))
    assert_slot_positions_match_layout(d)
    assert_slot_positions_match_layout(
        random_shuffle(d, 40, seed=rng.randrange(1 << 16)))


@pytest.mark.parametrize("companion,family,param", SATELLITES)
def test_satellite_slot_positions_match_the_layout(companion, family,
                                                   param):
    pattern = builtin_pattern(family, param)
    assert_slot_positions_match_layout(
        satellite(catalog.get(companion).diagram, pattern).diagram)


def test_slot_positions_at_the_width_limit():
    # crossings among 256 strands, before and after a right cusp at the
    # bottom frees a pair of slots and a left cusp takes it again
    n = MAX_STRANDS // 2
    word = ([L(1)] * (n - 1) + [L(2 * n - 1), X(2 * n - 2), X(2 * n - 1),
                                R(2 * n - 1), L(2 * n - 1), X(2 * n - 2),
                                X(1)] + [R(1)] * n)
    d = FrontDiagram(word)
    assert max(d.strand_counts) == MAX_STRANDS
    assert_slot_positions_match_layout(d)


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


def test_width_is_refused_before_the_slot_walk():
    """A front too wide for byte keys is refused from its width, read
    once, before its slot walk is built."""
    too_wide = nested_unknots(MAX_STRANDS // 2 + 1)
    for fn in (count_rulings, enumerate_rulings):
        with pytest.raises(RulingError, match="at most 256 strands"):
            fn(too_wide)
    for fn in (is_ruling, ruling_pairings):
        with pytest.raises(RulingError, match="at most 256 strands"):
            fn(too_wide, ())
    assert too_wide.width == MAX_STRANDS + 2
    assert "slot_walk" not in vars(too_wide)
