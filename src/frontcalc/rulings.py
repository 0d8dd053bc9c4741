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

Counting and enumeration share one two-sided pass, ``_meet``: prefix
states grow from the left end, with the number of ruling prefixes
reaching each, and suffix states from the right end, with the number of
ruling suffixes leaving each, so parallel branches merge.  Each step
grows the side whose frontier holds fewer states, until the two meet at
one gap.  The right side is the mirror word (read right to left, left
and right cusps swapped at the same level) run through the same step:
reflecting a front in a vertical line keeps every ruling, since a
switch keeps the pairing and normality reads only that pairing, so the
suffixes of a ruling of the word are the prefixes of a ruling of its
mirror.  ``count_rulings`` sums prefixes times suffixes over the
pairings at the meeting gap.  ``enumerate_rulings`` keeps every
frontier of the pass, then continues the suffix pass from the meeting
gap leftward, keeping at each gap only the states some prefix reached:
those are the live states, with exact suffix counts.  It then emits
switch sets in one forward pass over the live states, stepping each
once: every live state carries the list of switch-set prefixes that
reach it, a follow shares its predecessor's list, a switch extends each
prefix by its index, and states that merge concatenate their lists.  No
branch that dies at a later right cusp is followed, and the depth of
the word costs no recursion.

The pass steps a whole frontier at a time through ``_advance``, which
maps a dict of pairing -> count to the next gap's and reads the event's
kind once per event; counts combine through ``+`` only.  A single
pairing steps through ``_step``, its successors at one event, which the
emission and ``is_normal_switch`` use.  Inside the DP a pairing is a
``bytes`` object (its hash is cached, and a cusp's shift of the partner
indices is one ``bytes.translate``), so at most 256 strands are
supported; every public function raises RulingError on a wider front
or pairing.

``is_ruling`` and ``ruling_pairings`` follow one switch set through
``_walk_in_place``, on a single partner ``bytearray`` edited in place: a
crossing's follow is four item writes, a switch reads two partners for
the normality test, and a cusp is one ``translate`` and one slice
insert or delete.  ``ruling_pairings`` takes a tuple at every gap;
``is_ruling`` takes none.  The crossing rule, follow by conjugation and
the normality test, is written out three times, in ``_advance``,
``_step`` and ``_walk_in_place``, since each loop inlines it; the tests
hold the three equal.
"""

from __future__ import annotations

from functools import cache

from .diagrams import CROSSING, LEFT_CUSP, RIGHT_CUSP, DiagramError

MAX_STRANDS = 256
_EMPTY = b""
_DEAD = (None, False)
_MIRROR = {LEFT_CUSP: RIGHT_CUSP, RIGHT_CUSP: LEFT_CUSP, CROSSING: CROSSING}


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


def _advance(front, kind, i):
    """The frontier after an event of ``kind`` at 0-based level i.

    ``front`` maps pairings to counts; each successor's count is the sum
    of its predecessors' counts, as ``_step`` relates them.
    """
    if kind == LEFT_CUSP:
        up, _down, born = _cusp_tables(i)
        return {(s := p.translate(up))[:i] + born + s[i:]: n
                for p, n in front.items()}
    j = i + 1
    if kind == RIGHT_CUSP:
        down = _cusp_tables(i)[1]
        return {(p[:i] + p[i + 2:]).translate(down): n
                for p, n in front.items() if p[i] == j}
    # Conjugation is injective, so follows never collide; a kept
    # pairing may meet one, and joins it after the loop.
    nxt = {}
    kept = []
    for p, n in front.items():
        a = p[i]
        if a == j:
            continue
        b = p[j]
        new = bytearray(p)
        new[i] = b
        new[j] = a
        new[a] = j
        new[b] = i
        nxt[bytes(new)] = n
        if (b < a or b > j) if a < i else i < b < a:
            kept.append(p)
    get = nxt.get
    for p in kept:
        n = front[p]
        old = get(p)
        nxt[p] = n if old is None else old + n
    return nxt


def _check_width(strands):
    """Refuse a front, or a pairing, of more than MAX_STRANDS strands."""
    if strands > MAX_STRANDS:
        raise RulingError(
            f"normal rulings are computed on at most {MAX_STRANDS} strands")


def is_normal_switch(pairing, level):
    """Whether a switch at positions level, level+1 (1-based) is admitted.

    ``pairing`` is the 0-based partner array just before the crossing.
    The companion intervals of the two crossing strands must be disjoint
    or nested; interleaving rules the switch out.  Raises RulingError
    on more than MAX_STRANDS strands, as the rest of the module does, and
    unless 1 <= level <= len(pairing) - 1.
    """
    _check_width(len(pairing))
    if not 1 <= level <= len(pairing) - 1:
        raise RulingError(f"switch level {level} is out of range "
                          f"1..{len(pairing) - 1}")
    if pairing[level - 1] == level:
        raise CrossingStrandsPaired(level)
    return _step(pairing, CROSSING, level - 1)[1]


def _meet(diagram):
    """Yield (side, states) for the prefix side (0) and the suffix side
    (1), first each side's end and then every frontier the pass grows.

    ``states`` maps each pairing at one gap to the number of ruling
    prefixes reaching it (side 0, gaps 0, 1, ...) or of ruling suffixes
    leaving it for the empty pairing after the last event (side 1, gaps
    n, n - 1, ...).  Each step grows the side whose frontier holds fewer
    states, the left one on a tie, until both sides reach one gap or a
    side's frontier is empty.
    """
    _check_width(max(diagram.strand_counts))
    steps = diagram.kinds_and_levels
    fronts = [{_EMPTY: 1}, {_EMPTY: 1}]
    yield 0, fronts[0]
    yield 1, fronts[1]
    lo, hi = 0, len(steps)
    while lo < hi:
        side = len(fronts[1]) < len(fronts[0])
        if side:
            hi -= 1
            kind, level = steps[hi]
            kind = _MIRROR[kind]
        else:
            kind, level = steps[lo]
            lo += 1
        nxt = fronts[side] = _advance(fronts[side], kind, level - 1)
        yield side, nxt
        if not nxt:
            return


def count_rulings(diagram):
    """Number of normal rulings: at the gap where prefixes and suffixes
    meet, the sum over pairings of prefixes times suffixes."""
    ends = [None, None]
    for side, states in _meet(diagram):
        ends[side] = states
    front, back = ends
    return sum(n * back.get(pairing, 0) for pairing, n in front.items())


def enumerate_rulings(diagram):
    """All normal rulings, each as a sorted tuple of switched crossing
    event indices; the list is sorted."""
    fronts = [], []
    for side, states in _meet(diagram):
        fronts[side].append(states)
    left, right = fronts
    reached = left[-1]
    live = {p: c for p, c in right[-1].items() if p in reached}
    if not live:
        return []
    steps = diagram.kinds_and_levels
    m = len(left) - 1
    # Each gap's live states: reached by a ruling prefix and left by a
    # ruling suffix.  Right of m every state some prefix reaches is
    # live, and only those are visited.  Left of m, go on with the
    # suffix pass and keep the states a prefix reached.
    gaps = [None] * m + [live] + right[-2::-1]
    for k in range(m - 1, -1, -1):
        kind, level = steps[k]
        reached = left[k]
        live = _advance(live, _MIRROR[kind], level - 1)
        live = gaps[k] = {p: c for p, c in live.items() if p in reached}
    # Forward from the empty pairing over live states only, each with
    # the switch-set prefixes reaching it: a follow shares its
    # predecessor's list, a switch extends each prefix by k, and states
    # that merge concatenate their lists.
    front = {_EMPTY: [()]}
    for k, (kind, level) in enumerate(steps):
        after = gaps[k + 1]
        nxt = {}
        get = nxt.get
        for pairing, prefixes in front.items():
            follow, switch = _step(pairing, kind, level - 1)
            if follow in after:
                old = get(follow)
                nxt[follow] = prefixes if old is None else old + prefixes
            if switch and pairing in after:
                grown = [t + (k,) for t in prefixes]
                old = get(pairing)
                nxt[pairing] = grown if old is None else old + grown
        front = nxt
    return sorted(front[_EMPTY])


def _walk_in_place(diagram, switches, gaps=None):
    """Follow the ruling with the given switch set through the word on
    one partner ``bytearray``, appending each later gap's pairing to
    ``gaps`` as a tuple when a list is given.

    A crossing's follow is four item writes and a switch reads the two
    partners for the normality test; a cusp is one ``translate`` and one
    slice insert or delete.  The caller checks the width.  Raises
    RulingError if a switch index is not an event of the word or the
    switch set is not a normal ruling.
    """
    steps = diagram.kinds_and_levels
    switches = set(switches)
    for idx in sorted(switches):
        if not 0 <= idx < len(steps):
            raise RulingError(
                f"switch index {idx} is out of range 0..{len(steps) - 1}")
    pairing = bytearray()
    for idx, (kind, j) in enumerate(steps):
        i = j - 1
        if kind == CROSSING:
            a = pairing[i]
            if a == j:
                break
            b = pairing[j]
            if idx not in switches:
                pairing[i] = b
                pairing[j] = a
                pairing[a] = j
                pairing[b] = i
            elif not ((b < a or b > j) if a < i else i < b < a):
                break
        elif idx in switches:
            break
        elif kind == LEFT_CUSP:
            up, _down, born = _cusp_tables(i)
            pairing = pairing.translate(up)
            pairing[i:i] = born
        elif pairing[i] == j:
            del pairing[i:j + 1]
            pairing = pairing.translate(_cusp_tables(i)[1])
        else:
            break
        if gaps is not None:
            gaps.append(tuple(pairing))
    else:
        return
    raise RulingError(f"switch set fails at event {idx}")


def ruling_pairings(diagram, switches):
    """Per-gap partner tuples of the ruling with the given switch set.

    Raises RulingError if a switch index is not an event of the word or
    the switch set is not a normal ruling.
    """
    _check_width(max(diagram.strand_counts))
    gaps = [()]
    _walk_in_place(diagram, switches, gaps)
    return gaps


def is_ruling(diagram, switches):
    """Whether the switch set is a normal ruling of the diagram.

    Raises RulingError, like the rest of the module, on a front with
    more than ``MAX_STRANDS`` strands at a gap.
    """
    _check_width(max(diagram.strand_counts))
    try:
        _walk_in_place(diagram, switches)
    except RulingError:
        return False
    return True
