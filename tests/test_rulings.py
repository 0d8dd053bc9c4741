import itertools
import random

import pytest

from frontcalc.diagrams import CROSSING, FrontDiagram, L, R, X
from frontcalc.moves import random_shuffle, stabilize
from frontcalc.rulings import (
    CrossingStrandsPaired, RulingError, count_rulings, enumerate_rulings,
    is_normal_switch, is_ruling, ruling_pairings,
)

from helpers import random_diagram
from oracles import reference_step

UNKNOT = FrontDiagram([L(1), R(1)])
TREFOIL = FrontDiagram([L(1), L(3), X(2), X(2), X(2), R(1), R(1)])


def brute_force_rulings(diagram):
    """Oracle: test every subset of crossings as a switch set."""
    xs = diagram.crossing_indices()
    found = []
    for r in range(len(xs) + 1):
        for combo in itertools.combinations(xs, r):
            if is_ruling(diagram, combo):
                found.append(combo)
    return sorted(found)


def test_unknot_has_one_ruling():
    assert count_rulings(UNKNOT) == 1
    assert enumerate_rulings(UNKNOT) == [()]


def test_trefoil_rulings():
    assert count_rulings(TREFOIL) == 3
    assert enumerate_rulings(TREFOIL) == [(2,), (2, 3, 4), (4,)]


def test_stabilized_fronts_have_no_ruling():
    for sign in (1, -1):
        assert count_rulings(stabilize(UNKNOT, sign)) == 0
        assert count_rulings(stabilize(TREFOIL, sign)) == 0


def test_unlink_rulings_multiply():
    d = FrontDiagram([L(1), R(1), L(1), R(1)])
    assert count_rulings(d) == 1


def test_pairings_structure():
    gaps = ruling_pairings(TREFOIL, (2, 3, 4))
    assert gaps[0] == () and gaps[-1] == ()
    for pairing in gaps:
        for i, p in enumerate(pairing):
            assert p != i and pairing[p] == i


def test_invalid_switch_sets_rejected():
    assert not is_ruling(TREFOIL, (3,))
    with pytest.raises(RulingError):
        ruling_pairings(TREFOIL, (3,))


@pytest.mark.parametrize("bad", [7, 999, -1])
def test_out_of_range_switch_indices_rejected(bad):
    switches = (2, 3, 4, bad)
    assert is_ruling(TREFOIL, (2, 3, 4))
    assert not is_ruling(TREFOIL, switches)
    with pytest.raises(RulingError, match=f"switch index {bad} is out of"):
        ruling_pairings(TREFOIL, switches)


def test_switch_on_paired_strands_raises():
    with pytest.raises(CrossingStrandsPaired):
        is_normal_switch((1, 0), 1)


@pytest.mark.parametrize("pairing, level", [
    ((1, 0, 3, 2), 0), ((3, 2, 1, 0), 4), ((1, 0), -1)])
def test_switch_level_out_of_range_rejected(pairing, level):
    with pytest.raises(RulingError, match=f"switch level {level} is out of"):
        is_normal_switch(pairing, level)


@pytest.mark.parametrize("pairing, level", [
    ((1, 1, 3, 2), 2), ((5, 0), 1), ((-1, 0, 3, 2), 1), ((300, 0, 3, 2), 1)])
def test_switch_on_a_non_pairing_rejected(pairing, level):
    with pytest.raises(RulingError, match="not a fixed-point-free involution"):
        is_normal_switch(pairing, level)


def all_pairings(n):
    """Every fixed-point-free involution of range(n), as tuples."""
    if n == 0:
        yield ()
        return
    for mate in range(1, n):
        rest = [k for k in range(1, n) if k != mate]
        for sub in all_pairings(n - 2):
            pairing = [0] * n
            pairing[0], pairing[mate] = mate, 0
            for k, s in enumerate(sub):
                pairing[rest[k]] = rest[s]
            yield tuple(pairing)


def test_normal_switch_matches_reference_step():
    """The positional test agrees with the reference DP's crossing step
    at every level of every pairing of up to 8 strands."""
    for n in (2, 4, 6, 8):
        for pairing in all_pairings(n):
            for level in range(1, n):
                if pairing[level - 1] == level:
                    continue
                _follow, switch = reference_step(bytes(pairing), CROSSING,
                                                 level - 1)
                assert is_normal_switch(pairing, level) == switch


def test_switch_indices_must_be_ints():
    assert not is_ruling(TREFOIL, ["2"])
    assert not is_ruling(TREFOIL, [2, 3, True])
    with pytest.raises(RulingError, match="switch index 2.0 is not an int"):
        ruling_pairings(TREFOIL, [2.0])


def test_switch_on_a_wide_pairing_is_a_width_error():
    # 258 strands: refused as the rest of the module refuses them,
    # before a level is read
    pairing = tuple(257 - k for k in range(258))
    with pytest.raises(RulingError, match="at most 256 strands"):
        is_normal_switch(pairing, 1)


def test_normality_blocks_interleaving():
    # partners 0-3, 1-4, 2-5: the crossing of strands 2,3 (levels 3,4)
    # has companions 5 and 0, giving interleaved intervals
    assert not is_normal_switch((3, 4, 5, 0, 1, 2), 3)
    # nested companions admit the switch
    assert is_normal_switch((5, 2, 1, 4, 3, 0), 3)


def test_count_matches_brute_force():
    rng = random.Random(21)
    for _ in range(60):
        d = random_diagram(rng, max_width=4, max_events=14)
        listed = enumerate_rulings(d)
        assert count_rulings(d) == len(listed)
        assert listed == brute_force_rulings(d)


def test_ruling_count_is_isotopy_invariant():
    rng = random.Random(22)
    for case in range(15):
        d = random_diagram(rng, max_width=4, max_events=10)
        assert count_rulings(random_shuffle(d, 50, seed=case)) \
            == count_rulings(d)
