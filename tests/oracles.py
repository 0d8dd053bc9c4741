"""Independent oracles and reference implementations for the test suite.

Two Kauffman bracket implementations that share no code with the package
or with each other beyond sympy: one resolves crossings directly in the
event-word model (a crossing becomes either nothing or a ")(" cusp
pair), the other works on planar-diagram codes.  Agreement of their
framing-normalized polynomials identifies smooth knot types up to
mirror image, which is how the catalog's nontrivial entries are pinned.

Conventions (fixed arbitrarily but used consistently, so comparisons
are mirror-safe): crossing ends are listed counterclockwise a0..a3 with
the over-strand joining a0-a2; the A-smoothing joins a0-a1 and a2-a3;
a crossing is positive when the under-strand runs a1 -> a3 while the
over-strand runs a0 -> a2.

One section is a reference for orientation transfer across moves:
every move rebuilds the whole result with the validating constructor
and gives each new component the direction its first event outside the
move's window had before.  It reads directions off the full
segment scan only, never off the per-event entries that the package's
moves edit, so the fast moves can be compared against it.  Its fish,
pull and triple-point matchers are the ones that ``moves._TRIPLES``
replaced, one pattern each, so a fault in the table shows against them.

The reference word facts are the writhe, tb, rot, per-component
(tb, rot) and direction-entry formulas that ``FrontDiagram`` used before
it decoded event codes: they read each event's ``kind`` attribute and
ask ``crossing_sign`` and the old ``cusp_is_down`` per event, so a slip
in the package's decoding shows against them.

The reference component front is what ``component_subdiagram`` built
before it kept the parent's direction entries: the component's word
through the validating constructor, with the component's symbol.

The reference ruling enumerator is the recursive walk that the ruling
DP replaced: it follows every branch of the pairing tree, including those
that die at a later right cusp, and tests normality by comparing
intervals.

The reference ruling DP is the positional kernel that slot keys
replaced: a pairing is a ``bytes`` of 0-based partner positions, a
cusp shifts the partners through a cached ``translate`` table and
inserts or deletes the cusp's pair, and a crossing's follow conjugates
the pairing by the transposition.  ``reference_step`` steps one
pairing, ``reference_advance`` a whole frontier, and
``reference_frontiers`` runs both sides of the word through it, every
gap's prefix and suffix frontier with its counts.

The reference single-ruling walk is the generator that the in-place
walk replaced: it steps one pairing per event through
``reference_step``, as a fresh ``bytes``, and yields it.  Its
``is_ruling`` turns every RulingError into False, the width limit's
included.

``reference_slot_layout`` replays the slot rule of
``FrontDiagram.slot_walk`` on its own: the slot at every position at
every gap, from which a slot key reads as a positional pairing.

The reference segment scan is the loop that ``diagrams._Scan`` ran
before it took its segment ids from ``segment_steps``: it numbers,
checks and keeps the segment ids at every gap in one pass.  The
reference word facts, labelling and component fronts read it, not the
package's scan.

The reference cusp-graph labelling is what the package's one walk
replaced: a union-find for the components, a second search that directs
the segments from the orientation symbols, the symbols read off the
left-cusp entries, and the k-copy's orientation rule over both.  The
reference satellite splices its pattern where the first left cusp
search and the level formula put it, before the rule was fixed to the
opening ``L1``.

The reference pinch search at the end is what the one search loop
replaced: a recursive depth-first search per deepening round, an eye
rule that looks each component up and asks whether it is a killable
eye, and the ruling certificate's own loop over the ruling's adjacent
pairs, which tries each pinch and skips the ones that raise.

The reference renderer is the layout that the shared grid replaced:
every front formats its own grid lines and points, keeps its strands'
points in a dict by segment id, and reads each gap through
``segments_at_gap``.
"""

import sympy

A = sympy.Symbol("A")
_DELTA = -A ** 2 - A ** -2


def _loops_of_cusp_word(events):
    """Closed-curve count of an event word (crossings allowed, unknotted
    bookkeeping only: crossings swap, cusps create/join)."""
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    current = []
    fresh = iter(range(10 ** 9))
    for kind, level in events:
        i = level - 1
        if kind == "L":
            a, b = next(fresh), next(fresh)
            parent[find(a)] = find(b)
            current[i:i] = [a, b]
        elif kind == "R":
            parent[find(current[i])] = find(current[i + 1])
            del current[i:i + 2]
        else:
            current[i], current[i + 1] = current[i + 1], current[i]
    assert not current
    return len({find(x) for x in parent})


def bracket_of_word(events):
    """Kauffman bracket of a front word, by direct state sum.

    In the front, a crossing's A-smoothing is the horizontal one ")("
    -- rotating the over (descending) strand counterclockwise sweeps it
    through the left and right regions.
    """
    events = [(e.kind, e.level) for e in events]
    xs = [i for i, (k, _) in enumerate(events) if k == "X"]
    total = sympy.Integer(0)
    for mask in range(1 << len(xs)):
        resolved = []
        a_count = 0
        for i, (k, level) in enumerate(events):
            if k != "X":
                resolved.append((k, level))
                continue
            bit = (mask >> xs.index(i)) & 1
            if bit:  # A-smoothing: ")("
                a_count += 1
                resolved.append(("R", level))
                resolved.append(("L", level))
            else:    # B-smoothing: the two strands pass vertically
                pass
        loops = _loops_of_cusp_word(resolved)
        b_count = len(xs) - a_count
        total += A ** (a_count - b_count) * _DELTA ** (loops - 1)
    return sympy.expand(total)


def writhe_of_word(diagram):
    return diagram.writhe


def normalized_bracket_of_front(diagram):
    """(-A^-3)^(-w) <D>: invariant of the underlying smooth knot.

    The smoothing convention above is the mirror of the classical one
    (a kink contributes -A^-3 here), hence the inverted framing factor.
    """
    w = writhe_of_word(diagram)
    return sympy.expand((-A ** -3) ** (-w) * bracket_of_word(diagram.events))


# -- planar diagram side ---------------------------------------------------

class PD:
    """Crossings as 4-tuples of arc-end labels, counterclockwise, with
    the over-strand joining ends 0 and 2.  Arc-end labels are glued in
    pairs by ``joins`` (plus 0-crossing unknot count in ``extra_loops``)."""

    def __init__(self, crossings, joins, extra_loops=0):
        self.crossings = [tuple(c) for c in crossings]
        self.joins = [tuple(j) for j in joins]
        self.extra_loops = extra_loops


def bracket_of_pd(pd):
    n = len(pd.crossings)
    total = sympy.Integer(0)
    for mask in range(1 << n):
        parent = {}

        def find(x):
            while parent.setdefault(x, x) != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x, y):
            parent[find(x)] = find(y)

        a_count = 0
        for i, (a0, a1, a2, a3) in enumerate(pd.crossings):
            if (mask >> i) & 1:
                a_count += 1
                union(a0, a1)
                union(a2, a3)
            else:
                union(a0, a3)
                union(a1, a2)
        for x, y in pd.joins:
            union(x, y)
        loops = len({find(x) for x in parent}) + pd.extra_loops
        total += A ** (2 * a_count - n) * _DELTA ** (loops - 1)
    return sympy.expand(total)


def writhe_of_pd(pd):
    """Writhe by traversal (knots and links; orientation per component).

    Each arc label occurs in exactly two slots over all crossings and
    joins; joins are degree-two vertices the walk passes through.
    """
    slots = {}
    for i, c in enumerate(pd.crossings):
        for k, lab in enumerate(c):
            slots.setdefault(lab, []).append(("cross", i, k))
    for j, (x, y) in enumerate(pd.joins):
        slots.setdefault(x, []).append(("join", j, 0))
        slots.setdefault(y, []).append(("join", j, 1))
    for lab, occ in slots.items():
        if len(occ) != 2:
            raise ValueError(f"arc label {lab} occurs {len(occ)} times")

    def partner(lab, slot):
        a, b = slots[lab]
        return b if slot == a else a

    entered = {}     # (crossing, k) -> True if traversal enters there
    visited = set()  # slots used in either direction
    for i0, c0 in enumerate(pd.crossings):
        for k0 in range(4):
            if (i0, k0) in visited:
                continue
            i, k = i0, k0
            while True:
                entered[(i, k)] = True
                k_out = (k + 2) % 4
                visited.add((i, k))
                visited.add((i, k_out))
                lab = pd.crossings[i][k_out]
                nxt = partner(lab, ("cross", i, k_out))
                while nxt[0] == "join":
                    _, j, side = nxt
                    lab = pd.joins[j][1 - side]
                    nxt = partner(lab, ("join", j, 1 - side))
                i, k = nxt[1], nxt[2]
                if (i, k) == (i0, k0):
                    break
    w = 0
    for i, (a0, a1, a2, a3) in enumerate(pd.crossings):
        over_in_0 = entered.get((i, 0), False)
        under_in_1 = entered.get((i, 1), False)
        # normalize to over running a0 -> a2
        if over_in_0:
            w += 1 if under_in_1 else -1
        else:
            w += 1 if not under_in_1 else -1
    return w


def normalized_bracket_of_pd(pd):
    return sympy.expand((-A ** -3) ** (-writhe_of_pd(pd)) * bracket_of_pd(pd))


def twist_region(labels_in, labels_out, over_main, start):
    """PD crossings for a horizontal 2-strand twist region.

    labels_in/labels_out: (top, bottom) arc ends at the region's sides;
    over_main True puts the descending (NW-SE) strand on top at every
    crossing, mirroring the front convention; False gives the mirror
    box.  Returns (crossings, joins, next_free_label).
    """
    top, bot = labels_in
    crossings = []
    joins = []
    free = start
    n = len(over_main) if isinstance(over_main, (list, tuple)) else None
    flags = over_main if n is not None else None
    for flag in flags:
        nt, nb = free, free + 1
        free += 2
        # ends counterclockwise: NW, SW, SE, NE
        if flag:
            crossings.append((top, bot, nb, nt))   # over = NW-SE
        else:
            crossings.append((bot, nb, nt, top))   # over = SW-NE
        top, bot = nt, nb
    joins.append((top, labels_out[0]))
    joins.append((bot, labels_out[1]))
    return crossings, joins, free


def pretzel_pd(p, q, r):
    """Planar diagram of the (p, q, r) pretzel, vertical-bands picture.

    Positive entries use front-style boxes (descending strand over),
    negative entries the mirrored boxes.  Chirality is only pinned up
    to overall mirror, which is all the bracket comparisons need.
    """
    crossings = []
    joins = []
    free = 1000
    sides = []
    for m in (p, q, r):
        flags = [m > 0] * abs(m)
        left = (free, free + 1)
        right = (free + 2, free + 3)
        free += 4
        cs, js, free = twist_region(left, right, flags, free)
        crossings.extend(cs)
        joins.extend(js)
        sides.append((left, right))
    (l1, r1), (l2, r2), (l3, r3) = sides
    # left closure: outer arc band1-top to band3-bottom, inner arcs
    # band1-bottom to band2-top, band2-bottom to band3-top; right same
    joins += [(l1[1], l2[0]), (l2[1], l3[0]), (l1[0], l3[1]),
              (r1[1], r2[0]), (r2[1], r3[0]), (r1[0], r3[1])]
    return PD(crossings, joins)


def jones_trefoil_check():
    """Self-test value: the positive-crossing trefoil front in this
    convention has f = A^4 + A^12 - A^16."""
    return sympy.expand(A ** 4 + A ** 12 - A ** 16)


# -- reference orientation transfer ------------------------------------------

import random  # noqa: E402

from frontcalc.diagrams import (CROSSING, LEFT_CUSP, RIGHT_CUSP,  # noqa: E402
                                DiagramError, Event, FrontDiagram, L, R, X,
                                LevelOutOfBounds, NonzeroFinalStrands, event)
from frontcalc import moves as _moves  # noqa: E402
from frontcalc.moves import InapplicableRewrite, Rewrite  # noqa: E402
from frontcalc.cobordism import (NotAdjacent, NotCuspPair,  # noqa: E402
                                 NotIsolatedUnknot, OrientationClash,
                                 CobordismError)


def scan_direction(diagram, gap, level):
    """Direction of the strand at ``level`` at ``gap``, from the full scan."""
    return diagram.segment_direction[diagram.segments_at_gap(gap)[level - 1]]


def _event_ref_components(diagram, idx):
    """(segment, component) of each strand the event at idx touches."""
    ev = diagram.events[idx]
    if ev.kind == CROSSING:
        gap = diagram.segments_at_gap(idx)
        segs = (gap[ev.level - 1], gap[ev.level])
    else:
        segs = diagram.cusp_segments(idx)
    return [(seg, diagram.component_of_segment[seg]) for seg in segs]


def transfer_by_map(old, new_events, index_map):
    """Build the rewritten diagram, carrying component orientations over.

    ``index_map`` sends new event indices to the old indices they
    correspond to; each new component takes the orientation that
    reproduces the old direction at its first mapped event.  Components
    with no mapped event default to '+'.
    """
    trial = FrontDiagram(new_events, None)
    symbols = [None] * trial.n_components
    for new_idx in sorted(index_map):
        old_refs = _event_ref_components(old, index_map[new_idx])
        new_refs = _event_ref_components(trial, new_idx)
        for (oseg, _oc), (nseg, nc) in zip(old_refs, new_refs):
            if symbols[nc] is None:
                same = (old.segment_direction[oseg]
                        == trial.segment_direction[nseg])
                symbols[nc] = "+" if same else "-"
    return FrontDiagram(new_events, [s or "+" for s in symbols])


def rewritten(old, new_events, old_start, old_len, new_len):
    """Transfer orientations across a contiguous rewrite window."""
    new_events = list(new_events)
    shift = new_len - old_len
    index_map = {}
    for new_idx in range(len(new_events)):
        if new_idx < old_start:
            index_map[new_idx] = new_idx
        elif new_idx >= old_start + new_len:
            index_map[new_idx] = new_idx - shift
    return transfer_by_map(old, new_events, index_map)


def reference_match_fish(events, j):
    """If events[j:j+3] is a fish, return (level, variant) else None."""
    if j + 3 > len(events):
        return None
    a, b, c = events[j:j + 3]
    if a.kind != LEFT_CUSP or b.kind != CROSSING or c.kind != RIGHT_CUSP:
        return None
    if a.level == c.level == b.level + 1:
        return (b.level, "below")
    if a.level == c.level == b.level - 1:
        return (b.level - 1, "above")
    return None


def reference_match_pull(events, j):
    """If events[j:j+3] is a pushed cusp, return its contraction."""
    if j + 3 > len(events):
        return None
    a, b, c = events[j:j + 3]
    if a.kind == LEFT_CUSP and b.kind == c.kind == CROSSING:
        if b.level == a.level + 1 and c.level == a.level:
            return [L(a.level + 1)]
        if b.level == a.level - 1 and c.level == a.level:
            return [L(a.level - 1)]
    if a.kind == b.kind == CROSSING and c.kind == RIGHT_CUSP:
        if b.level == a.level + 1 and c.level == a.level:
            return [R(a.level + 1)]
        if b.level == a.level - 1 and c.level == a.level:
            return [R(a.level - 1)]
    return None


def reference_match_r3(events, j):
    if j + 3 > len(events):
        return None
    a, b, c = events[j:j + 3]
    if not (a.kind == b.kind == c.kind == CROSSING):
        return None
    if a.level == c.level and abs(b.level - a.level) == 1:
        return [X(b.level), X(a.level), X(b.level)]
    return None


def reference_rewrite(diagram, rw):
    events = list(diagram.events)
    counts = diagram.strand_counts
    j = rw.index
    if rw.kind == "commute":
        if not 0 <= j < len(events) - 1:
            raise InapplicableRewrite(rw, "index out of range")
        pair = _moves._commute_pair(events[j], events[j + 1])
        if pair is None:
            raise InapplicableRewrite(rw, "events interact")
        return rewritten(diagram, events[:j] + list(pair) + events[j + 2:],
                         j, 2, 2)
    if rw.kind == "r1_insert":
        if not 0 <= j <= len(events) or not 1 <= rw.level <= counts[j]:
            raise InapplicableRewrite(rw, "no strand at site")
        below = _moves._fish_word(rw.level, "below")
        above = _moves._fish_word(rw.level, "above")
        gadget = below if rw.variant == "below" else above
        return rewritten(diagram, events[:j] + gadget + events[j:], j, 0, 3)
    if rw.kind == "r1_remove":
        if reference_match_fish(events, j) is None:
            raise InapplicableRewrite(rw, "no fish pattern")
        return rewritten(diagram, events[:j] + events[j + 3:], j, 3, 0)
    if rw.kind == "r2_push":
        rep = _moves._push_replacement(events, counts, j, rw.variant)
        if rep is None:
            raise InapplicableRewrite(rw, "cusp cannot pass")
        return rewritten(diagram, events[:j] + rep + events[j + 1:], j, 1, 3)
    if rw.kind == "r2_pull":
        rep = reference_match_pull(events, j)
        if rep is None:
            raise InapplicableRewrite(rw, "no pushed-cusp pattern")
        return rewritten(diagram, events[:j] + rep + events[j + 3:], j, 3, 1)
    if rw.kind == "r3_triple":
        rep = reference_match_r3(events, j)
        if rep is None:
            raise InapplicableRewrite(rw, "no triple pattern")
        return rewritten(diagram, events[:j] + rep + events[j + 3:], j, 3, 3)
    raise InapplicableRewrite(rw, f"unknown kind {rw.kind}")


def reference_shuffle(diagram, steps, seed):
    """``moves.random_shuffle``'s random walk over ``reference_rewrite``."""
    rng = random.Random(seed)
    d = diagram
    for _ in range(steps):
        n = len(d.events)
        kind = rng.choice(_moves.KINDS)
        if kind == "r1_insert":
            j = rng.randint(0, n)
            m = d.strand_counts[j]
            if m == 0:
                continue
            rw = Rewrite(kind, j, rng.randint(1, m),
                         rng.choice(("below", "above")))
        elif kind == "r2_push":
            if n == 0:
                continue
            rw = Rewrite(kind, rng.randint(0, n - 1),
                         variant=rng.choice(("down", "up")))
        else:
            if n == 0:
                continue
            rw = Rewrite(kind, rng.randint(0, n - 1))
        try:
            d = reference_rewrite(d, rw)
        except InapplicableRewrite:
            continue
    return d


def reference_pinch(diagram, index, level, orientable_only=True):
    counts = diagram.strand_counts
    if not 0 <= index <= len(diagram.events):
        raise NotAdjacent(index, level)
    if not 1 <= level <= counts[index] - 1:
        raise NotAdjacent(index, level)
    if orientable_only and (scan_direction(diagram, index, level)
                            == scan_direction(diagram, index, level + 1)):
        raise OrientationClash(index, level)
    events = list(diagram.events)
    return rewritten(diagram, events[:index] + [R(level), L(level)]
                     + events[index:], index, 0, 2)


def reference_surgery(diagram, index):
    events = list(diagram.events)
    if not 0 <= index < len(events) - 1:
        raise NotCuspPair(index)
    a, b = events[index], events[index + 1]
    if not (a.kind == RIGHT_CUSP and b.kind == LEFT_CUSP
            and a.level == b.level):
        raise NotCuspPair(index)
    return rewritten(diagram, events[:index] + events[index + 2:],
                     index, 2, 0)


def reference_birth(diagram, index, level, orient="+"):
    counts = diagram.strand_counts
    if not 0 <= index <= len(diagram.events):
        raise CobordismError(f"birth index {index} out of range")
    if not 1 <= level <= counts[index] + 1:
        raise CobordismError(f"birth level {level} out of range at {index}")
    events = list(diagram.events)
    new = events[:index] + [L(level), R(level)] + events[index:]
    d = rewritten(diagram, new, index, 0, 2)
    c = d.component_at(index + 1, level)
    if d.orientations[c] != orient:
        symbols = list(d.orientations)
        symbols[c] = orient
        d = FrontDiagram(new, symbols)
    return d


def reference_death(diagram, component):
    own = diagram.component_events(component)
    if len(own) != 2:
        raise NotIsolatedUnknot(component, f"{len(own)} events, wanted 2")
    j_left, j_right = own
    ev_l, ev_r = diagram.events[j_left], diagram.events[j_right]
    if ev_l.kind != LEFT_CUSP or ev_r.kind != RIGHT_CUSP:
        raise NotIsolatedUnknot(component, "events are not a cusp pair")
    k = ev_l.level
    new_events = list(diagram.events[:j_left])
    index_map = {i: i for i in range(j_left)}
    for idx in range(j_left + 1, j_right):
        ev = diagram.events[idx]
        l = ev.level
        if ev.kind == LEFT_CUSP:
            if l <= k:
                new_l, k = l, k + 2
            elif l >= k + 2:
                new_l = l - 2
            else:
                raise NotIsolatedUnknot(component, "opens inside the eye")
        else:
            if l + 1 <= k - 1:
                new_l = l
                if ev.kind == RIGHT_CUSP:
                    k -= 2
            elif l >= k + 2:
                new_l = l - 2
            else:
                raise NotIsolatedUnknot(component, "touches the eye")
        index_map[len(new_events)] = idx
        new_events.append(Event(ev.kind, new_l))
    for idx in range(j_right + 1, len(diagram.events)):
        index_map[len(new_events)] = idx
        new_events.append(diagram.events[idx])
    return transfer_by_map(diagram, new_events, index_map)


def reference_stabilize(diagram, sign):
    if sign not in (1, -1):
        raise DiagramError("sign must be +1 or -1")
    if not diagram.events:
        raise DiagramError("cannot stabilize an empty diagram")
    level = diagram.events[0].level
    direction = scan_direction(diagram, 1, level)
    if (direction == 1) == (sign == 1):
        gadget = [L(level + 1), R(level)]
    else:
        gadget = [L(level), R(level + 1)]
    events = list(diagram.events)
    return rewritten(diagram, events[:1] + gadget + events[1:], 1, 0, 2)


# -- reference word facts -------------------------------------------------------

def reference_cusp_is_down(diagram, index):
    d = diagram.directions[index][0]
    if diagram.events[index].kind == LEFT_CUSP:
        return d == -1
    return d == 1


def reference_writhe(diagram):
    return sum(do * du
               for ev, (do, du) in zip(diagram.events, diagram.directions)
               if ev.kind == CROSSING)


def reference_tb(diagram):
    return reference_writhe(diagram) - sum(1 for e in diagram.events
                                           if e.kind == RIGHT_CUSP)


def reference_rot(diagram):
    cusps = [i for i, e in enumerate(diagram.events) if e.kind != CROSSING]
    down = sum(1 for i in cusps if reference_cusp_is_down(diagram, i))
    up = len(cusps) - down
    if (down - up) % 2:
        raise DiagramError(f"odd cusp difference {down - up}; "
                           f"rot is not an integer")
    return (down - up) // 2


def reference_per_component(diagram):
    """List of (tb, rot) per component; tb counts self-crossings only."""
    writhe = [0] * diagram.n_components
    rcusps = [0] * diagram.n_components
    downup = [0] * diagram.n_components
    comp = diagram.component_of_segment
    scan = reference_scan(diagram.events)
    for i, (a, b) in scan.crossing_pair.items():
        if comp[a] == comp[b]:
            writhe[comp[a]] += diagram.crossing_sign(i)
    for i, (a, _b) in scan.cusp_pair.items():
        c = comp[a]
        if diagram.events[i].kind == RIGHT_CUSP:
            rcusps[c] += 1
        downup[c] += 1 if reference_cusp_is_down(diagram, i) else -1
    return [(writhe[c] - rcusps[c], downup[c] // 2)
            for c in range(diagram.n_components)]


def reference_orient(diagram):
    """The direction entries of ``diagram``'s word under its own symbols,
    read off its scan and segment directions."""
    scan = reference_scan(diagram.events)
    seg_dirs = diagram.segment_direction
    directions = []
    for idx, ev in enumerate(diagram.events):
        if ev.kind == CROSSING:
            a, b = scan.crossing_pair[idx]
        else:
            a, b = scan.cusp_pair[idx]
        directions.append((seg_dirs[a], seg_dirs[b]))
    return tuple(directions)


# -- reference component front -------------------------------------------------

def reference_component_subdiagram(diagram, c):
    """The front of component c alone, with other strands deleted, built
    by the validating constructor from the component's symbol."""
    diagram._check_component(c)
    comp = diagram.component_of_segment
    scan = reference_scan(diagram.events)
    events = []
    for idx, ev in enumerate(diagram.events):
        gap = scan.gaps[idx]
        if ev.kind == LEFT_CUSP:
            mine = comp[scan.cusp_pair[idx][0]] == c
        else:
            mine = comp[gap[ev.level - 1]] == comp[gap[ev.level]] == c
        if mine:
            above = sum(1 for s in gap[:ev.level - 1] if comp[s] != c)
            events.append(event(ev.kind, ev.level - above))
    return FrontDiagram(events, (diagram.orientations[c],))


# -- reference ruling enumeration --------------------------------------------

def _interleaved(lo1, hi1, lo2, hi2):
    """True if the closed intervals overlap without nesting."""
    if hi1 < lo2 or hi2 < lo1:
        return False
    if lo1 <= lo2 and hi2 <= hi1:
        return False
    if lo2 <= lo1 and hi1 <= hi2:
        return False
    return True


def _reference_step_outcomes(pairing, ev):
    """(switched, new_pairing) branches for one event; empty when the
    ruling dies there.  Pairings are tuples of 0-based partner indices."""
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
    if pairing[i] == i + 1:
        return []
    a, b = pairing[i], pairing[i + 1]
    new = list(pairing)
    new[i], new[i + 1] = b, a
    new[a], new[b] = i + 1, i
    out = [(False, tuple(new))]
    if not _interleaved(min(a, i), max(a, i), min(b, i + 1), max(b, i + 1)):
        out.append((True, tuple(pairing)))
    return out


def reference_enumerate_rulings(diagram):
    """All normal rulings as sorted switch-index tuples, by a recursive
    walk of every branch, dead ones included (one frame per event)."""
    results = []
    events = diagram.events

    def walk(idx, pairing, switches):
        if idx == len(events):
            results.append(tuple(switches))
            return
        for switched, new in _reference_step_outcomes(pairing, events[idx]):
            if switched:
                switches.append(idx)
            walk(idx + 1, new, switches)
            if switched:
                switches.pop()

    walk(0, (), [])
    return sorted(results)


# -- reference ruling DP and single-ruling walk ---------------------------

from functools import cache  # noqa: E402

from frontcalc.rulings import (MAX_STRANDS, RulingError,  # noqa: E402
                               _check_width)

_EMPTY = b""
_REFERENCE_DEAD = (None, False)
_MIRROR = {LEFT_CUSP: RIGHT_CUSP, RIGHT_CUSP: LEFT_CUSP, CROSSING: CROSSING}


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


def reference_step(pairing, kind, i):
    """Successors of ``pairing`` at an event of ``kind`` at 0-based level i.

    Returns (follow, switch): ``follow`` is the pairing after the event
    without a switch, or None when the ruling dies there; ``switch`` says
    whether a normal switch is admitted, which keeps ``pairing``.
    """
    if kind == CROSSING:
        a = pairing[i]
        if a == i + 1:
            return _REFERENCE_DEAD
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
        return _REFERENCE_DEAD
    down = _cusp_tables(i)[1]
    return (pairing[:i] + pairing[i + 2:]).translate(down), False


def reference_advance(front, kind, i):
    """The frontier after an event of ``kind`` at 0-based level i.

    ``front`` maps pairings to counts; each successor's count is the sum
    of its predecessors' counts, as ``reference_step`` relates them.
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


def reference_frontiers(diagram):
    """(prefixes, suffixes): at every gap 0 .. n, the positional
    pairings some ruling prefix reaches, with the number of prefixes
    reaching each, and those some ruling suffix leaves, with the number
    of suffixes leaving each; the suffix side runs the mirror word."""
    _check_width(max(diagram.strand_counts))
    steps = diagram.kinds_and_levels
    prefixes = [{_EMPTY: 1}]
    for kind, level in steps:
        prefixes.append(reference_advance(prefixes[-1], kind, level - 1))
    suffixes = [{_EMPTY: 1}]
    for kind, level in reversed(steps):
        suffixes.append(reference_advance(suffixes[-1], _MIRROR[kind],
                                          level - 1))
    return prefixes, suffixes[::-1]


def reference_slot_layout(diagram):
    """The slot at every position at every gap 0 .. n, by the rule of
    ``FrontDiagram.slot_walk``: a left cusp reuses the pair the last
    right cusp freed, in its order, or opens the next two slots."""
    layout = [()]
    stack = []
    opened = 0
    for ev in diagram.events:
        slots = list(layout[-1])
        i = ev.level - 1
        if ev.kind == LEFT_CUSP:
            if stack:
                pair = stack.pop()
            else:
                pair = (opened, opened + 1)
                opened += 2
            slots[i:i] = pair
        elif ev.kind == RIGHT_CUSP:
            stack.append((slots[i], slots[i + 1]))
            del slots[i:i + 2]
        else:
            slots[i], slots[i + 1] = slots[i + 1], slots[i]
        layout.append(tuple(slots))
    return layout


def positional(key, slots):
    """The slot key ``key`` at a gap whose positions hold ``slots``, as
    a pairing of 0-based partner positions."""
    where = {s: p for p, s in enumerate(slots)}
    return bytes(where[key[s]] for s in slots)


def reference_walk(diagram, switches):
    """Yield the pairing at every gap of the ruling with the given switch
    set, as ``bytes``.

    Raises RulingError if a switch index is not an event of the word or
    the switch set is not a normal ruling.
    """
    _check_width(max(diagram.strand_counts))
    steps = diagram.kinds_and_levels
    switches = set(switches)
    for idx in sorted(switches):
        if not 0 <= idx < len(steps):
            raise RulingError(
                f"switch index {idx} is out of range 0..{len(steps) - 1}")
    pairing = _EMPTY
    yield pairing
    for idx, (kind, level) in enumerate(steps):
        follow, switch = reference_step(pairing, kind, level - 1)
        if idx in switches:
            follow = pairing if switch else None
        if follow is None:
            raise RulingError(f"switch set fails at event {idx}")
        pairing = follow
        yield pairing


def reference_is_ruling(diagram, switches):
    try:
        for _pairing in reference_walk(diagram, switches):
            pass
    except RulingError:
        return False
    return True


# -- reference reduction -------------------------------------------------------

from frontcalc.cobordism import _COMMUTE_DEPTH, _contraction_at  # noqa: E402
from frontcalc.moves import apply_rewrite, inverse  # noqa: E402


def reference_find_reducing_commutes(events):
    """The commute BFS of ``cobordism.reduce_diagram`` on Event words.

    Breadth-first over commute sequences of at most _COMMUTE_DEPTH steps,
    j ascending within each word, skipping words already seen; the first
    word with a contraction in the window j-2 .. j+2 of its last commute
    wins.  Returns (commute rewrites, contraction rewrite) or None.
    """
    start = tuple(events)
    frontier = [(start, [])]
    seen = {start}
    for _ in range(_COMMUTE_DEPTH):
        nxt = []
        for word, path in frontier:
            lst = list(word)
            for j in range(len(lst) - 1):
                pair = _moves._commute_pair(lst[j], lst[j + 1])
                if pair is None:
                    continue
                new = lst[:j] + list(pair) + lst[j + 2:]
                key = tuple(new)
                if key in seen:
                    continue
                seen.add(key)
                npath = path + [Rewrite("commute", j)]
                for k in range(max(0, j - 2), min(len(new) - 2, j + 3)):
                    c = _contraction_at(new, k)
                    if c is not None:
                        return npath, c
                nxt.append((key, npath))
        frontier = nxt
    return None


def reference_reduce_diagram(diagram):
    """``cobordism.reduce_diagram`` on Event words: the leftmost
    contraction, else the reference BFS, until neither finds one.
    Returns (reduced diagram, applied rewrites, their inverses)."""
    applied, inverses = [], []
    d = diagram
    while True:
        events = list(d.events)
        rw = next((c for j in range(len(events))
                   if (c := _contraction_at(events, j)) is not None), None)
        if rw is not None:
            steps = [rw]
        else:
            found = reference_find_reducing_commutes(events)
            if found is None:
                return d, applied, inverses
            commutes, contraction = found
            steps = commutes + [contraction]
        for rw in steps:
            inverses.append(inverse(d, rw))
            d = apply_rewrite(d, rw)
            applied.append(rw)


# -- reference cusp-graph labelling ------------------------------------------

from bisect import bisect_right  # noqa: E402

from types import SimpleNamespace  # noqa: E402

from frontcalc import diagrams as _diagrams  # noqa: E402
from frontcalc.satellites import _k_copy_events  # noqa: E402


def reference_scan(events, strands=0):
    """The segment scan as one loop that numbers segments and checks the
    word as it goes, keeping the segment ids at every gap: what
    ``diagrams._Scan`` was before it took its numbering from
    ``segment_steps``.  ``MAX_SCAN_CELLS`` is read from ``diagrams`` at
    each call, so a test can lower it for both."""
    MAX_SCAN_CELLS = _diagrams.MAX_SCAN_CELLS
    _LEFT, _RIGHT = _diagrams._LEFT, _diagrams._RIGHT
    _too_wide = _diagrams._too_wide
    self = SimpleNamespace()
    self.events = events = tuple(events)
    self.gaps = []           # segment ids at each gap, top to bottom
    self.cusp_pair = {}      # event index -> (top_seg, bottom_seg)
    self.crossing_pair = {}  # event index -> (upper_seg, lower_seg) before
    widest = MAX_SCAN_CELLS // (len(events) + 1)
    if strands > widest:
        _too_wide(events, strands)
    current = list(range(strands))
    next_id = strands
    self.gaps.append(tuple(current))
    for idx, ev in enumerate(events):
        i = ev // 3 - 1
        kind = ev % 3
        if kind == _LEFT:
            if not 0 <= i <= len(current):
                raise LevelOutOfBounds(idx, i + 1, len(current))
            if len(current) + 2 > widest:
                _too_wide(events, len(current) + 2)
            top, bot = next_id, next_id + 1
            next_id += 2
            current[i:i] = [top, bot]
            self.cusp_pair[idx] = (top, bot)
        else:
            if not 0 <= i <= len(current) - 2:
                raise LevelOutOfBounds(idx, i + 1, len(current))
            a, b = current[i], current[i + 1]
            if kind == _RIGHT:
                del current[i:i + 2]
                self.cusp_pair[idx] = (a, b)
            else:
                current[i], current[i + 1] = b, a
                self.crossing_pair[idx] = (a, b)
        self.gaps.append(tuple(current))
    if len(current) != strands:
        raise NonzeroFinalStrands(len(current))
    self.n_segments = next_id
    return self


def reference_connected_components(n, pairs):
    """Component label of every node 0 .. n-1, joined by ``pairs``.

    Components are numbered in order of their first node.  A union-find
    whose roots are always the least node of their set.
    """
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    roots = {}
    return tuple(roots.setdefault(find(x), len(roots)) for x in range(n))


def reference_propagate(scan, component_of_segment, orientations):
    """Segment directions, +1 rightward and -1 leftward.

    The two segments meeting at any cusp point in opposite x-directions;
    each component's first segment is directed by its orientation symbol.
    """
    dirs = [0] * scan.n_segments
    adj = [[] for _ in range(scan.n_segments)]
    for a, b in scan.cusp_pair.values():
        adj[a].append(b)
        adj[b].append(a)
    for first in range(scan.n_segments):
        if dirs[first]:
            continue
        c = component_of_segment[first]
        dirs[first] = 1 if orientations[c] == "+" else -1
        stack = [first]
        while stack:
            s = stack.pop()
            for t in adj[s]:
                if dirs[t] == 0:
                    dirs[t] = -dirs[s]
                    stack.append(t)
    return tuple(dirs)


def reference_labels(diagram):
    """(scan, union-find component of every segment) of a diagram's word."""
    scan = reference_scan(diagram.events)
    return scan, reference_connected_components(scan.n_segments,
                                                scan.cusp_pair.values())


def reference_segment_direction(diagram):
    """Direction of every segment, read off the entry of the left cusp
    creating it."""
    scan = reference_scan(diagram.events)
    dirs = [0] * scan.n_segments
    for idx, (top, bot) in scan.cusp_pair.items():
        if diagram.events[idx].kind == LEFT_CUSP:
            dirs[top], dirs[bot] = diagram.directions[idx]
    return tuple(dirs)


def reference_orientations(diagram):
    """One symbol per component: the direction of its first segment."""
    _scan, comps = reference_labels(diagram)
    seg_dir = reference_segment_direction(diagram)
    out = []
    for seg, c in enumerate(comps):
        if c == len(out):
            out.append("+" if seg_dir[seg] == 1 else "-")
    return tuple(out)


def reference_directions(diagram, orientations):
    """The direction entries of ``diagram``'s word under ``orientations``,
    propagated over the union-find's components."""
    scan, comps = reference_labels(diagram)
    seg_dirs = reference_propagate(scan, comps, orientations)
    out = []
    for idx, ev in enumerate(diagram.events):
        pairs = scan.crossing_pair if ev.kind == CROSSING else scan.cusp_pair
        a, b = pairs[idx]
        out.append((seg_dirs[a], seg_dirs[b]))
    return tuple(out)


def reference_inherit_orientations(diagram, events, origins):
    """A k-copy's orientation: each component takes the direction of its
    first cusp copied from a cusp of ``diagram``, else '+'."""
    scan = reference_scan(events)
    comps = reference_connected_components(scan.n_segments,
                                           scan.cusp_pair.values())
    n = max(comps, default=-1) + 1
    plus = reference_propagate(scan, comps, "+" * n)
    symbols = [None] * n
    for new_idx, ev in enumerate(events):
        if ev.kind == CROSSING:
            continue
        src = origins[new_idx]
        if src is None or diagram.events[src].kind == CROSSING:
            continue
        top = scan.cusp_pair[new_idx][0]
        if symbols[comps[top]] is None:
            same = plus[top] == diagram.directions[src][0]
            symbols[comps[top]] = "+" if same else "-"
    return FrontDiagram(events, [s or "+" for s in symbols])


def reference_satellite(companion, pattern):
    """The satellite's diagram, spliced past the gadget of the first left
    cusp found by a search, at the index found by bisecting the sorted
    origins, on the row the cusp's level and direction give."""
    k = pattern.strands
    events, origins = _k_copy_events(companion, k)
    first_cusp = next(i for i, ev in enumerate(companion.events)
                      if ev.kind == LEFT_CUSP)
    a = k * (companion.events[first_cusp].level - 1) + 1
    splice_at = bisect_right(origins, first_cusp)
    row = a if companion.directions[first_cusp][0] == 1 else a + k
    spliced = [Event(ev.kind, ev.level + row - 1) for ev in pattern.events]
    events[splice_at:splice_at] = spliced
    origins[splice_at:splice_at] = [None] * len(spliced)
    return reference_inherit_orientations(companion, events, origins)


def reference_closure_cycles(pattern):
    """Closed curves of a pattern glued at its seam, by the union-find."""
    scan = reference_scan(pattern.events, pattern.strands)
    seam = zip(scan.gaps[0], scan.gaps[-1])
    return max(reference_connected_components(
        scan.n_segments, [*scan.cusp_pair.values(), *seam])) + 1


def reference_is_tree(p):
    """Whether the arcs join the base's union-find components into a tree."""
    _scan, comps = reference_labels(p.base)
    n = max(comps, default=-1) + 1
    edges = [(comps[p.base.cusp_segments(index)[0]],
              comps[p.base.cusp_segments(index + 1)[0]])
             for index, _level in p.arcs]
    if len(edges) != n - 1 or any(a == b for a, b in edges):
        return False
    return set(reference_connected_components(n, edges)) <= {0}


# -- reference pinch search ----------------------------------------------------

from unittest import mock  # noqa: E402

from frontcalc import cobordism as _cobordism  # noqa: E402
from frontcalc.moves import _SWAPS  # noqa: E402
from frontcalc.rulings import ruling_pairings  # noqa: E402


def reference_pinch_search(diagram, extra, max_pinches, settle, is_goal,
                           children):
    """``cobordism._pinch_search`` as a recursive depth-first search per
    round, with one failure table for the whole call and no early stop."""
    failed = {}

    def descend(d, extra, left):
        settled = settle(d)
        if settled is None:
            return None
        d, record = settled
        key = (d.events, d.directions, extra)
        if failed.get(key, -1) >= left:
            return None
        if is_goal(d):
            return list(record), d
        for move, child, child_extra, child_left in children(d, extra, left):
            found = descend(child, child_extra, child_left)
            if found is not None:
                deeper, bottom = found
                return [*record, move, *deeper], bottom
        failed[key] = left
        return None

    for pinches in range(max_pinches + 1):
        found = descend(diagram, extra, pinches)
        if found is not None:
            down_moves, bottom = found
            return _cobordism.CobordismTrace(bottom, down_moves[::-1],
                                             diagram)
    return None


def reference_run_predecessor(diagram, j, i):
    """The level i' at gap j - 1 of the pinch site (j, i) it repeats, or
    None: its top segment lies at level i' at gap j - 1, read off the
    scan, and two commutes slide the ")(" of ``pinch(diagram, j - 1,
    i')`` past event j - 1 into the word of ``pinch(diagram, j, i)``."""
    if j == 0:
        return None
    top = diagram.segments_at_gap(j)[i - 1]
    before = diagram.segments_at_gap(j - 1)
    if top not in before:
        return None
    level = before.index(top) + 1
    return (level if _cobordism._slid_level(level, diagram.events[j - 1]) == i
            else None)


def reference_pinch_sites(diagram):
    """Every (index, level) where an orientable pinch applies and does not
    repeat the site before it, with the directions (top, bottom) of its
    strands, read off the scan's segment directions."""
    seg_dir = diagram.segment_direction
    sites = {}
    for j in range(len(diagram.events) + 1):
        gap = diagram.segments_at_gap(j)
        for i in range(1, len(gap)):
            up, down = seg_dir[gap[i - 1]], seg_dir[gap[i]]
            if up != down and reference_run_predecessor(diagram, j, i) is None:
                sites[j, i] = up, down
    return sites


def reference_is_max_tb_unlink(diagram):
    """Every component's (tb, rot) is (-1, 0), read off the scan, and its
    front reduces to a 2-event word."""
    if any((tb, rot) != (-1, 0) for tb, rot in diagram.per_component):
        return False
    return all(len(_cobordism.reduce_diagram(
        diagram.component_subdiagram(c))[0].events) == 2
        for c in range(diagram.n_components))


def reference_kill_eye(diagram, component):
    """Kill ``component`` when it is an eye whose cusps commute together.

    Returns (diagram, downward record) or None, as ``cobordism._kill_eye``
    does for the first such eye; the component's events come from the
    segment scan, and its left cusp must pass every event in between.
    """
    own = diagram.component_events(component)
    if len(own) != 2:
        return None
    j_left, j_right = own
    events = diagram.events
    if (events[j_left].kind != LEFT_CUSP
            or events[j_right].kind != RIGHT_CUSP):
        return None
    cusp = events[j_left]
    for ev in events[j_left + 1:j_right]:
        pair = _SWAPS[cusp, ev]
        if pair is None:
            return None
        cusp = pair[1]
    d = diagram
    record = []
    for j in range(j_left, j_right - 1):
        rw = Rewrite("commute", j)
        d = apply_rewrite(d, rw)
        record.append(_cobordism.Move("isotopy", rewrite=rw))
    orient = "+" if diagram.directions[j_left][0] == 1 else "-"
    record.append(_cobordism.Move("birth", j_right - 1,
                                  events[j_right].level, orient))
    return d._edited(j_right - 1, j_right + 1, (), ()), record


def reference_downward_cleanup(diagram):
    """``cobordism._downward_cleanup`` over the per-component eye rule."""
    record = []
    d = diagram
    while True:
        inverses = []
        d, _applied = _cobordism.reduce_diagram(d, inverses=inverses)
        record += [_cobordism.Move("isotopy", rewrite=rw) for rw in inverses]
        for c in range(d.n_components):
            killed = reference_kill_eye(d, c)
            if killed is not None:
                d, moves = killed
                record += moves
                break
        else:
            return d, record


def reference_search_decomposable_filling(diagram, max_pinches=3,
                                          isotopy_budget=0):
    """``search_decomposable_filling`` run by the reference engine and the
    reference cleanup."""
    with mock.patch.object(_cobordism, "_pinch_search",
                           reference_pinch_search), \
            mock.patch.object(_cobordism, "_downward_cleanup",
                              reference_downward_cleanup):
        return _cobordism.search_decomposable_filling(
            diagram, max_pinches, isotopy_budget)


def reference_ruling_fillability(diagram, switches, max_pinches=None):
    """``ruling_fillability`` with its own loop over the adjacent pairs
    that the ruling pairs, run by the reference engine."""
    switches = tuple(switches)
    ruling_pairings(diagram, switches)
    if max_pinches is None:
        max_pinches = len(diagram.crossing_indices()) + diagram.n_components

    def children(d, sw, left):
        if left == 0:
            return
        for j, pairing in enumerate(ruling_pairings(d, sw)):
            for i in range(1, len(pairing)):
                if (pairing[i - 1] != i
                        or reference_run_predecessor(d, j, i) is not None):
                    continue
                try:
                    d2 = _cobordism.pinch(d, j, i)
                except CobordismError:
                    continue
                shifted = tuple(s if s < j else s + 2 for s in sw)
                yield _cobordism.Move("surgery", j, i), d2, shifted, left - 1

    return reference_pinch_search(diagram, switches, max_pinches,
                                  lambda d: (d, ()),
                                  _cobordism._is_max_tb_unlink, children)


# -- reference renderer --------------------------------------------------------

from frontcalc.render import DX, DY, PALETTE, X0, Y0, _caption  # noqa: E402


def _reference_fmt(v):
    s = f"{v:.1f}"
    return s[:-2] if s.endswith(".0") else s


class _ReferenceLayout:
    """Geometry of one front, formatted afresh for every front: strand
    polylines keyed by segment id, cusp tips, crossings."""

    def __init__(self, diagram):
        n = len(diagram.events)
        maxlev = max([1] + [m for m in diagram.strand_counts])
        self.x = [_reference_fmt(X0 + h * DX / 2) for h in range(2 * n + 3)]
        self.y = [_reference_fmt(Y0 + h * DY / 2)
                  for h in range(2 * maxlev + 1)]
        comp = diagram.component_of_segment
        self.points = {}        # segment id -> [point, ...]
        self.crossings = []     # (event index, level, over component)
        for idx, ev in enumerate(diagram.events):
            if ev.kind == CROSSING:
                over = comp[diagram.segments_at_gap(idx)[ev.level - 1]]
                self.crossings.append((idx, ev.level, over))
            else:
                tip = self.point(2 * idx + 1, 2 * ev.level - 1)
                for s in diagram.cusp_segments(idx):
                    self.points.setdefault(s, []).append(tip)
            x = self.x[2 * idx + 2]
            for pos, s in enumerate(diagram.segments_at_gap(idx + 1)):
                self.points[s].append(f"{x} {self.y[2 * pos]}")
        self.width = X0 + (n + 1) * DX
        self.height = Y0 + maxlev * DY

    def point(self, hx, hy):
        return f"{self.x[hx]} {self.y[hy]}"


def _reference_polyline(pts, color, width="2", dash=None):
    d = "M " + " L ".join(pts)
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    return (f'<path d="{d}" fill="none" stroke="{color}" '
            f'stroke-width="{width}" stroke-linejoin="round" '
            f'stroke-linecap="round"{extra}/>')


def _reference_front_group(diagram, ruling=None):
    lay = _ReferenceLayout(diagram)
    x, y, point = lay.x, lay.y, lay.point
    out = []
    if ruling is not None:
        gaps = ruling_pairings(diagram, ruling)
        for g, pairing in enumerate(gaps):
            for i, p in enumerate(pairing):
                if p <= i:
                    continue
                out.append(_reference_polyline(
                    [point(2 * g + 1, 2 * i), point(2 * g + 1, 2 * p)],
                    "#bbbbbb", "1", "3 3"))
        for idx in sorted(set(ruling)):
            level = diagram.events[idx].level
            out.append(f'<circle cx="{x[2 * idx + 1]}" '
                       f'cy="{y[2 * level - 1]}" r="4" fill="#222222"/>')
    comp = diagram.component_of_segment
    for s in sorted(lay.points):
        color = PALETTE[comp[s] % len(PALETTE)]
        out.append(_reference_polyline(lay.points[s], color))
    for idx, level, over in lay.crossings:
        out.append(f'<circle cx="{x[2 * idx + 1]}" cy="{y[2 * level - 1]}" '
                   f'r="5" fill="#ffffff"/>')
        color = PALETTE[over % len(PALETTE)]
        out.append(_reference_polyline([point(2 * idx, 2 * level - 2),
                                        point(2 * idx + 2, 2 * level)],
                                       color))
    return out, lay.width, lay.height


def _reference_document(lines, width, height):
    fmt = _reference_fmt
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{fmt(width)}" height="{fmt(height)}" '
            f'viewBox="0 0 {fmt(width)} {fmt(height)}">')
    return "\n".join([head] + lines + ["</svg>"]) + "\n"


def reference_render_svg(diagram, ruling=None):
    """``render.render_svg`` with every coordinate formatted per front."""
    lines, w, h = _reference_front_group(diagram, ruling=ruling)
    return _reference_document(lines, w, h)


def reference_render_trace_svg(trace):
    """``render.render_trace_svg``, laying out each stage on its own."""
    stages = trace.replay()
    labels = [""] + [_caption(m) for m in trace.moves]
    lines = []
    y_off = 0.0
    width = 0.0
    for d, label in zip(stages, labels):
        body, w, h = _reference_front_group(d)
        if label:
            lines.append(f'<text x="{_reference_fmt(X0)}" '
                         f'y="{_reference_fmt(y_off + 16)}" '
                         f'font-family="monospace" font-size="12">'
                         f'{label}</text>')
            y_off += 24.0
        lines.append(f'<g transform="translate(0 {_reference_fmt(y_off)})">')
        lines.extend(body)
        lines.append("</g>")
        y_off += h
        width = max(width, w)
    return _reference_document(lines, width, y_off)
