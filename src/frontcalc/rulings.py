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
the per-gap pairings are reconstructed on demand.  Counting uses dynamic
programming over pairing states, which merges parallel branches and stays
fast on wide diagrams; enumeration walks the same branching tree.
"""

from __future__ import annotations

from .diagrams import CROSSING, LEFT_CUSP, RIGHT_CUSP, DiagramError


class RulingError(DiagramError):
    pass


class CrossingStrandsPaired(RulingError):
    def __init__(self, level):
        super().__init__(
            f"strands {level}, {level + 1} are paired; no switch possible")


def _interleaved(lo1, hi1, lo2, hi2):
    """True if the closed intervals overlap without nesting."""
    if hi1 < lo2 or hi2 < lo1:
        return False
    if lo1 <= lo2 and hi2 <= hi1:
        return False
    if lo2 <= lo1 and hi1 <= hi2:
        return False
    return True


def is_normal_switch(pairing, level):
    """Whether a switch at positions level, level+1 (1-based) is admitted.

    ``pairing`` is the 0-based partner array just before the crossing.
    The companion intervals of the two crossing strands must be disjoint
    or nested; interleaving rules the switch out.
    """
    i = level
    a = pairing[i - 1]
    b = pairing[i]
    if a == i:
        raise CrossingStrandsPaired(level)
    lo1, hi1 = min(a, i - 1), max(a, i - 1)
    lo2, hi2 = min(b, i), max(b, i)
    return not _interleaved(lo1, hi1, lo2, hi2)


def _step_outcomes(pairing, ev):
    """Successor pairings for one event.

    Returns a list of (switched, new_pairing) branches; empty when the
    ruling dies at this event.  Pairings are tuples of 0-based partner
    indices.
    """
    i = ev.level - 1
    if ev.kind == LEFT_CUSP:
        new = [p if p < i else p + 2 for p in pairing]
        new[i:i] = [i + 1, i]
        return [(False, tuple(new))]
    if ev.kind == RIGHT_CUSP:
        if pairing[i] != i + 1:
            return []
        new = [p if p < i else p - 2 for p in pairing]
        del new[i:i + 2]
        return [(False, tuple(new))]
    # crossing
    if pairing[i] == i + 1:
        return []
    out = []
    a, b = pairing[i], pairing[i + 1]
    new = list(pairing)
    new[i], new[i + 1] = b, a
    new[a], new[b] = i + 1, i
    out.append((False, tuple(new)))
    if is_normal_switch(pairing, ev.level):
        out.append((True, tuple(pairing)))
    return out


def count_rulings(diagram):
    """Number of normal rulings, by DP over pairing states."""
    states = {(): 1}
    for ev in diagram.events:
        nxt = {}
        for pairing, n in states.items():
            for _switched, new in _step_outcomes(pairing, ev):
                nxt[new] = nxt.get(new, 0) + n
        states = nxt
        if not states:
            return 0
    return states.get((), 0)


def enumerate_rulings(diagram):
    """All normal rulings, each as a sorted tuple of switched crossing
    event indices."""
    results = []
    events = diagram.events

    def walk(idx, pairing, switches):
        if idx == len(events):
            results.append(tuple(switches))
            return
        ev = events[idx]
        for switched, new in _step_outcomes(pairing, ev):
            if switched:
                switches.append(idx)
            walk(idx + 1, new, switches)
            if switched:
                switches.pop()

    walk(0, (), [])
    return sorted(results)


def ruling_pairings(diagram, switches):
    """Per-gap partner tuples of the ruling with the given switch set.

    Raises RulingError if the switch set is not a normal ruling.
    """
    switches = set(switches)
    pairing = ()
    gaps = [pairing]
    for idx, ev in enumerate(diagram.events):
        want = idx in switches
        branch = [new for sw, new in _step_outcomes(pairing, ev) if sw == want]
        if not branch:
            raise RulingError(f"switch set fails at event {idx}")
        pairing = branch[0]
        gaps.append(pairing)
    return gaps


def is_ruling(diagram, switches):
    try:
        ruling_pairings(diagram, switches)
    except RulingError:
        return False
    return True


def has_ruling(diagram):
    return count_rulings(diagram) > 0

