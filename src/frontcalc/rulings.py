"""Normal rulings of front diagrams.

A ruling pairs the strands at every gap into a fixed-point-free involution,
subject to: the two strands born at a left cusp start out paired, the two
strands dying at a right cusp must be paired, and paired strands never
cross.  At each crossing of unpaired strands the ruling either follows the
crossing (the pairing is conjugated by the transposition) or switches (the
strands bounce off each other and the pairing is kept).  A switch at level
i is admitted only when it is normal: writing a, b for the partners of the
two crossing strands, the vertical intervals [a, i] and [b, i+1] must be
disjoint or nested, never interleaved.

A ruling is recorded by its switch set, a subset of crossing event indices;
``ruling_pairings`` reconstructs its per-gap pairings as tuples of 0-based
partner indices.

Counting and enumeration share one forward pass over pairing states, gap
by gap, with the number of ruling prefixes reaching each state, so
parallel branches merge.  ``count_rulings`` reads the count at the empty
pairing after the last event.  ``enumerate_rulings`` keeps every gap's
states, prunes them backward to the live ones (those from which the
empty pairing at the end is reachable), and then emits switch sets
forward with an explicit stack, visiting live states only: no branch
that dies at a later right cusp is followed, and the depth of the word
costs no recursion.

All three go through one step kernel, ``_step``, the successors of a
pairing at one event.  Inside the DP a pairing is a ``bytes`` object (its
hash is cached, and a cusp's shift of the partner indices is one
``bytes.translate``), so at most 256 strands are supported.
"""

from __future__ import annotations

from functools import cache

from .diagrams import CROSSING, LEFT_CUSP, DiagramError

MAX_STRANDS = 256
_EMPTY = b""
_DEAD = (None, False)


class RulingError(DiagramError):
    pass


class CrossingStrandsPaired(RulingError):
    def __init__(self, level):
        super().__init__(
            f"strands {level}, {level + 1} are paired; no switch possible")


@cache
def _cusp_tables(i):
    """Partner translations for a cusp at 0-based level i.

    Returns (up, down, born): ``up`` moves partners at or above i up two
    (a left cusp), ``down`` moves partners above i + 1 down two (a right
    cusp), and ``born`` is the paired strands a left cusp inserts.
    Entries no valid pairing reaches are zero.
    """
    up = bytes(range(i)) + bytes(range(i + 2, MAX_STRANDS)) + bytes(2)
    down = bytes(range(i)) + bytes(2) + bytes(range(i, MAX_STRANDS - 2))
    return up, down, bytes((i + 1, i))


def _step(pairing, kind, i):
    """Successors of ``pairing`` at an event of ``kind`` at 0-based level i.

    Returns (follow, switch): ``follow`` is the pairing after the event
    without a switch, or None when the ruling dies there; ``switch`` says
    whether a normal switch is admitted, which keeps ``pairing``.
    """
    if kind == CROSSING:
        a = pairing[i]
        if a == i + 1:
            return _DEAD
        b = pairing[i + 1]
        new = bytearray(pairing)
        new[i] = b
        new[i + 1] = a
        new[a] = i + 1
        new[b] = i
        # Neither partner is i or i + 1.  Below i, b must nest around a
        # or lie above i + 1; above i + 1, b must nest inside a.
        if a < i:
            return bytes(new), b < a or b > i
        return bytes(new), i < b < a
    if kind == LEFT_CUSP:
        up, _down, born = _cusp_tables(i)
        shifted = pairing.translate(up)
        return shifted[:i] + born + shifted[i:], False
    if pairing[i] != i + 1:
        return _DEAD
    return (pairing[:i] + pairing[i + 2:]).translate(_cusp_tables(i)[1]), False


def _check_width(diagram):
    if max(diagram.strand_counts) > MAX_STRANDS:
        raise RulingError(
            f"normal rulings are computed on at most {MAX_STRANDS} strands")


def is_normal_switch(pairing, level):
    """Whether a switch at positions level, level+1 (1-based) is admitted.

    ``pairing`` is the 0-based partner array just before the crossing.
    The companion intervals of the two crossing strands must be disjoint
    or nested; interleaving rules the switch out.
    """
    if pairing[level - 1] == level:
        raise CrossingStrandsPaired(level)
    return _step(pairing, CROSSING, level - 1)[1]


def _forward(diagram):
    """Yield each gap's {pairing: number of ruling prefixes reaching it}.

    Starts at gap 0 with the empty pairing and stops after the last gap
    or after the first gap with no states.
    """
    _check_width(diagram)
    states = {_EMPTY: 1}
    yield states
    for ev in diagram.events:
        kind, i = ev.kind, ev.level - 1
        nxt = {}
        get = nxt.get
        for pairing, n in states.items():
            follow, switch = _step(pairing, kind, i)
            if follow is not None:
                nxt[follow] = get(follow, 0) + n
            if switch:
                nxt[pairing] = get(pairing, 0) + n
        yield nxt
        if not nxt:
            return
        states = nxt


def count_rulings(diagram):
    """Number of normal rulings, by DP over pairing states."""
    for states in _forward(diagram):
        pass
    return states.get(_EMPTY, 0)


def enumerate_rulings(diagram):
    """All normal rulings, each as a sorted tuple of switched crossing
    event indices; the list is sorted."""
    events = diagram.events
    n = len(events)
    # Each gap keeps its states only: a tuple takes less memory than the
    # dict of counts.
    gaps = []
    for states in _forward(diagram):
        gaps.append(tuple(states))
    if len(gaps) <= n or _EMPTY not in states:
        return []
    # Backward: keep the states with a successor that is live.  A dead
    # follow is None, which no live set holds.
    live = gaps[n] = {_EMPTY}
    for k in range(n - 1, -1, -1):
        ev = events[k]
        kind, i = ev.kind, ev.level - 1
        after, live = live, set()
        for pairing in gaps[k]:
            follow, switch = _step(pairing, kind, i)
            if follow in after or (switch and pairing in after):
                live.add(pairing)
        gaps[k] = live
    # Forward: every state on the stack extends to at least one ruling.
    rulings = []
    stack = [(0, _EMPTY, ())]
    while stack:
        k, pairing, switches = stack.pop()
        if k == n:
            rulings.append(switches)
            continue
        ev = events[k]
        follow, switch = _step(pairing, ev.kind, ev.level - 1)
        after = gaps[k + 1]
        if follow in after:
            stack.append((k + 1, follow, switches))
        if switch and pairing in after:
            stack.append((k + 1, pairing, switches + (k,)))
    rulings.sort()
    return rulings


def ruling_pairings(diagram, switches):
    """Per-gap partner tuples of the ruling with the given switch set.

    Raises RulingError if the switch set is not a normal ruling.
    """
    _check_width(diagram)
    switches = set(switches)
    pairing = _EMPTY
    gaps = [()]
    for idx, ev in enumerate(diagram.events):
        follow, switch = _step(pairing, ev.kind, ev.level - 1)
        if idx in switches:
            follow = pairing if switch else None
        if follow is None:
            raise RulingError(f"switch set fails at event {idx}")
        pairing = follow
        gaps.append(tuple(pairing))
    return gaps


def is_ruling(diagram, switches):
    try:
        ruling_pairings(diagram, switches)
    except RulingError:
        return False
    return True


def has_ruling(diagram):
    return count_rulings(diagram) > 0
