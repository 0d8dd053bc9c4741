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
frontier of the pass and then steps, from the live states at the
meeting gap, each half of the word once: leftward over the mirror
steps, carrying switch-set suffixes and keeping at each gap the states
some prefix reached, and rightward, carrying prefixes and keeping the
states some suffix leaves.  So each half steps live states only, each
once.  An entry is a linked ``(index, parent)`` node whose root names
its meeting state; the halves are joined per meeting state.  No branch
that dies is followed, and the depth of the word costs no recursion.

Inside the pass a pairing is keyed by strand slot, not by position.
``FrontDiagram.slot_walk`` gives every strand a slot for its life and
every event the slots of its two strands: a right cusp frees its two
slots as a pair, and a left cusp takes the pair freed last of those
still free, whole and in its (top, bottom) order, or opens the next two
slots s, s + 1.  A key is a ``bytes`` whose entry at each slot is its
partner's slot (its hash is cached), so at most 256 strands are
supported; every public function raises RulingError on a wider front
or pairing.  A dead slot, one whose strand has died or is not yet
born, holds its mate at its last right cusp before the gap, or
``s ^ 1`` if it has none; that is also its mate at the next left cusp
after the gap, which takes the pair whole.  So the dead slots depend
on the gap alone, and a pairing has one key at every gap, whichever
side reached it: the prefix side starts from ``s ^ 1``, the suffix
side from every slot's mate at its last right cusp.

An event then costs little.  A left cusp leaves every key as it is,
since its slots already hold the born pair; a right cusp keeps the keys
whose two slots are paired.  A crossing's follow moves two strands, not
their partners, so it keeps its key object.  Only an admitted switch
builds a key: the two slots exchange partners, and the normality test
reads the partners' positions from the crossing's table in the walk.
The mirror reads each event as ``slot_walk`` mirrors it.  A live state
outlives a cusp, so the enumeration's halves step crossings only.

The pass steps a whole frontier at a time through ``_advance``, which
maps a dict of key -> count to the next gap's; counts combine through
``+`` only.  ``_meet`` does not step a left cusp at all, on either
side: it yields the frontier it has again.  ``_step`` gives one key's
successors, the relation the tests hold ``_advance`` to.  ``is_ruling``
follows one slot key along ``slot_walk``, switching it in place in a
``bytearray``.  ``ruling_pairings`` follows the switch set by position
on a partner ``bytearray``: a cusp is one ``translate``, by the level's
table that ``slot_walk`` also reads, and one slice insert or delete,
and every gap's pairing is taken as a tuple.
The crossing rule is written out on slots in ``_advance``, ``_step``,
``_carry`` (the enumeration's halves) and ``is_ruling``, and on
positions in ``ruling_pairings`` and ``is_normal_switch``, since each
loop inlines it: through ``_step``, ``is_ruling`` takes 1.4-1.6 times
as long and ``enumerate_rulings`` up to 7% longer.  The tests hold the
slot pass equal to a positional DP, frontier by frontier, and every
walk to that DP's step.
"""

from __future__ import annotations

from .diagrams import (CROSSING, LEFT_CUSP, RIGHT_CUSP, DiagramError,
                       _SHIFT_DOWN, _SHIFT_UP)

MAX_STRANDS = 256
_DEAD = (None, None)


class RulingError(DiagramError):
    pass


class CrossingStrandsPaired(RulingError):
    def __init__(self, level):
        super().__init__(
            f"strands {level}, {level + 1} are paired; no switch possible")


def _step(key, kind, i, top, bottom, positions):
    """Successors of ``key`` at one step of ``FrontDiagram.slot_walk``:
    an event of ``kind`` at 0-based level i, on the strands of slots
    ``top`` and ``bottom``, with the crossing's slot positions.

    Returns (follow, switch): ``follow`` is ``key`` itself unless the
    ruling dies there, then None; ``switch`` is the key after an
    admitted normal switch, or None.
    """
    if kind == LEFT_CUSP:
        return key, None
    a = key[top]
    if kind == RIGHT_CUSP:
        return (key if a == bottom else None), None
    if a == bottom:
        return _DEAD
    b = key[bottom]
    pa = positions[a]
    pb = positions[b]
    # Neither partner's position is i or i + 1.  Below i, b's must nest
    # around a's or lie above i + 1; above i + 1, inside a's.
    if not ((pb < pa or pb > i + 1) if pa < i else i < pb < pa):
        return key, None
    new = bytearray(key)
    new[top] = b
    new[b] = top
    new[bottom] = a
    new[a] = bottom
    return key, bytes(new)


def _advance(front, kind, i, top, bottom, positions):
    """The frontier after one step of ``FrontDiagram.slot_walk``.

    ``front`` maps keys to counts; each successor's count is the sum of
    its predecessors' counts, as ``_step`` relates them.  A left cusp
    returns ``front`` itself.
    """
    if kind == LEFT_CUSP:
        return front
    if kind == RIGHT_CUSP:
        return {p: n for p, n in front.items() if p[top] == bottom}
    # Follows keep their keys, and a switch is an involution on keys,
    # so neither collides with its own kind; a switched key may meet a
    # follow, and joins it after the loop.
    j = i + 1
    nxt = {}
    switched = []
    for p, n in front.items():
        a = p[top]
        if a == bottom:
            continue
        nxt[p] = n
        b = p[bottom]
        pa = positions[a]
        pb = positions[b]
        if (pb < pa or pb > j) if pa < i else i < pb < pa:
            new = bytearray(p)
            new[top] = b
            new[b] = top
            new[bottom] = a
            new[a] = bottom
            switched.append((bytes(new), n))
    get = nxt.get
    for p, n in switched:
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
    on more than MAX_STRANDS strands, as the rest of the module does;
    when ``pairing`` is not a fixed-point-free involution of
    ``range(len(pairing))``; and unless 1 <= level <= len(pairing) - 1.
    """
    n = len(pairing)
    _check_width(n)
    if not all(type(a) is int and 0 <= a < n and a != k and pairing[a] == k
               for k, a in enumerate(pairing)):
        raise RulingError(f"pairing {tuple(pairing)} is not a fixed-point-"
                          f"free involution of range({n})")
    if not 1 <= level <= n - 1:
        raise RulingError(f"switch level {level} is out of range "
                          f"1..{n - 1}")
    i, j = level - 1, level
    a = pairing[i]
    if a == j:
        raise CrossingStrandsPaired(level)
    b = pairing[j]
    return (b < a or b > j) if a < i else i < b < a


def _meet(diagram):
    """Yield (side, states) for the prefix side (0) and the suffix side
    (1), first each side's end and then every frontier the pass grows.

    ``states`` maps each key at one gap to the number of ruling
    prefixes reaching it (side 0, gaps 0, 1, ...) or of ruling suffixes
    leaving it for the key after the last event (side 1, gaps n,
    n - 1, ...).  Each step grows the side whose frontier holds fewer
    states, the left one on a tie, until both sides reach one gap or a
    side's frontier is empty.
    """
    _check_width(diagram.width)
    steps, mirror, first, last = diagram.slot_walk
    fronts = [{first: 1}, {last: 1}]
    yield 0, fronts[0]
    yield 1, fronts[1]
    lo, hi = 0, len(steps)
    while lo < hi:
        side = len(fronts[1]) < len(fronts[0])
        if side:
            hi -= 1
            step = mirror[hi]
        else:
            step = steps[lo]
            lo += 1
        if step[0] == LEFT_CUSP:
            # its slots already hold the born pair: every key stays
            yield side, fronts[side]
            continue
        nxt = fronts[side] = _advance(fronts[side], *step)
        yield side, nxt
        if not nxt:
            return


def count_rulings(diagram):
    """Number of normal rulings: at the gap where prefixes and suffixes
    meet, the sum over keys of prefixes times suffixes."""
    ends = [None, None]
    for side, states in _meet(diagram):
        ends[side] = states
    front, back = ends
    return sum(n * back.get(key, 0) for key, n in front.items())


def _carry(front, i, top, bottom, positions, k, keep):
    """The entries after one crossing of ``FrontDiagram.slot_walk``, or
    of its mirror, on the live states of one half of the emission.

    ``front`` maps each key to its list of linked nodes, one per
    switch-set half that reaches it; a follow shares its key's list, an
    admitted normal switch links each node to ``(k, node)``, and only
    keys in ``keep`` are kept.  A key that both a follow and a switch
    reach concatenates their lists.
    """
    j = i + 1
    nxt = {}
    switched = []
    for p, nodes in front.items():
        a = p[top]
        if a == bottom:
            continue
        if p in keep:
            nxt[p] = nodes
        b = p[bottom]
        pa = positions[a]
        pb = positions[b]
        if (pb < pa or pb > j) if pa < i else i < pb < pa:
            new = bytearray(p)
            new[top] = b
            new[b] = top
            new[bottom] = a
            new[a] = bottom
            new = bytes(new)
            if new in keep:
                switched.append((new, [(k, node) for node in nodes]))
    get = nxt.get
    for p, nodes in switched:
        old = get(p)
        nxt[p] = nodes if old is None else old + nodes
    return nxt


def _unlink(node):
    """(meeting key, indices): the indices linked from ``node`` back to
    its root, ``(None, meeting key)``, latest first."""
    indices = []
    k, node = node
    while k is not None:
        indices.append(k)
        k, node = node
    return node, indices


def enumerate_rulings(diagram):
    """All normal rulings, each as a sorted tuple of switched crossing
    event indices; the list is sorted."""
    fronts = [], []
    for side, states in _meet(diagram):
        fronts[side].append(states)
    left, right = fronts
    reached = left[-1]
    meeting = [p for p in right[-1] if p in reached]
    if not meeting:
        return []
    steps, mirror, first, last = diagram.slot_walk
    m = len(left) - 1
    n = len(steps)
    # Each half starts from every meeting key, as a root node, and
    # steps only crossings: a cusp keeps every key, and a key that is
    # live on one side of it is live on the other.  Leftward the keys
    # are suffix states kept where a prefix reached them; rightward,
    # prefix states kept where a suffix leaves them.  Either way every
    # key stepped is live.
    roots = {p: [(None, p)] for p in meeting}
    front = roots
    for k in range(m - 1, -1, -1):
        step = mirror[k]
        if step[0] == CROSSING:
            front = _carry(front, *step[1:], k, left[k])
    heads = {}
    for node in front.get(first, ()):
        root, indices = _unlink(node)
        heads.setdefault(root, []).append(tuple(indices))
    front = roots
    for k in range(m, n):
        step = steps[k]
        if step[0] == CROSSING:
            front = _carry(front, *step[1:], k, right[n - k - 1])
    listed = []
    for node in front.get(last, ()):
        root, indices = _unlink(node)
        indices.reverse()
        tail = tuple(indices)
        listed += [head + tail for head in heads.get(root, ())]
    listed.sort()
    return listed


def ruling_pairings(diagram, switches):
    """Per-gap partner tuples of the ruling with the given switch set.

    Follows the set through the word by position, on one partner
    ``bytearray``: a crossing's follow is four item writes and a switch
    reads the two partners for the normality test; a cusp is one
    ``translate`` and one slice insert or delete.  Raises RulingError
    if a switch index is not an int, is not an event of the word, or
    the switch set is not a normal ruling.
    """
    _check_width(diagram.width)
    steps = diagram.kinds_and_levels
    switches = list(switches)
    for idx in switches:
        if type(idx) is not int:
            raise RulingError(f"switch index {idx!r} is not an int")
    switches = set(switches)
    for idx in sorted(switches):
        if not 0 <= idx < len(steps):
            raise RulingError(
                f"switch index {idx} is out of range 0..{len(steps) - 1}")
    pairing = bytearray()
    gaps = [()]
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
            pairing = pairing.translate(_SHIFT_UP[i])
            pairing[i:i] = j, i
        elif pairing[i] == j:
            del pairing[i:j + 1]
            pairing = pairing.translate(_SHIFT_DOWN[i])
        else:
            break
        gaps.append(tuple(pairing))
    else:
        return gaps
    raise RulingError(f"switch set fails at event {idx}")


def is_ruling(diagram, switches):
    """Whether the switch set is a normal ruling of the diagram: every
    index an ``int`` naming a crossing of the word, and the switch set a
    normal ruling.

    One slot key follows the set along ``FrontDiagram.slot_walk``.  A
    follow keeps the key, so a crossing not in the set only tests that
    its strands are unpaired; a switch also runs the normality test and
    swaps the partners in place.  A right cusp tests its pair, and a
    left cusp's slots already hold theirs.  Raises RulingError, like the
    rest of the module, on a front with more than ``MAX_STRANDS``
    strands at a gap.
    """
    _check_width(diagram.width)
    steps, _mirror, first, _last = diagram.slot_walk
    n = len(steps)
    switches = list(switches)
    for idx in switches:
        if type(idx) is not int or not 0 <= idx < n \
                or steps[idx][0] != CROSSING:
            return False
    switches = set(switches)
    key = bytearray(first)
    for idx, (kind, i, top, bottom, positions) in enumerate(steps):
        if kind == CROSSING:
            a = key[top]
            if a == bottom:
                return False
            if idx in switches:
                b = key[bottom]
                pa = positions[a]
                pb = positions[b]
                if not ((pb < pa or pb > i + 1) if pa < i else i < pb < pa):
                    return False
                key[top] = b
                key[b] = top
                key[bottom] = a
                key[a] = bottom
        elif kind == RIGHT_CUSP and key[top] != bottom:
            return False
    return True
