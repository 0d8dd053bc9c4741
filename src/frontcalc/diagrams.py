"""Event-word model of Legendrian front diagrams.

A front is encoded as an ordered word of events read left to right.  Strand
positions are 1-based, counted from the top.  A left cusp at level i inserts
two strands at positions i, i+1; a right cusp at level i merges the strands
at positions i, i+1; a crossing at level i transposes them.  A valid word
starts with no strands, so a nonempty one opens with ``L1``.

Crossings carry no over/under data: in a front the descending strand
(upper-left to lower-right, i.e. the one with lesser slope) is always in
front.

Orientation is stored on the word.  Beside its events a diagram keeps one
direction entry per event: the directions (+1 rightward, -1 leftward) of
the two strands the event touches, top first, taken after a left cusp and
before a right cusp or a crossing.  The two strands of a cusp run opposite
ways, so a cusp's entry is fixed by its top strand; a crossing's entry
gives both of its strands.  A local rewrite therefore edits the entries of
its window only, and the direction of any strand can be read off the
next event to its right that touches it: every strand ends at a right
cusp.  The segment ids, the component numbering and the per-component
orientation symbols are derived on first use; the symbol '+' directs the
top strand of a component's first left cusp rightward, and a component's
symbol is read off that cusp's entry.

One walk of the cusp graph, whose nodes are segments and whose edges
are cusps, gives every segment its component, numbered by least
segment, and a side: +1 at the component's least segment, flipping
across every cusp.  Every segment runs from a left cusp to a right
cusp, so the graph is a union of cycles, and ``cusp_walk`` follows
each cycle with no adjacency lists: a segment's mate at its left cusp
is ``s ^ 1`` and its mate at its right cusp is read from one list.  A
segment's direction has one formula: its side, negated on a '-'
component.  It sets the entries from the symbols, and re-signing a
diagram with other symbols reuses the walk.  ``connected_components``,
the same labels and sides on any graph, counts a pattern's closed
curves and tests whether a surgery presentation is a tree.

``FrontDiagram(events, orientations)`` is the validating constructor, for
input from outside the package (text files, the catalog, the CLI): it takes
one orientation symbol per component, all '+' by default.

An event is an ``int`` whose value is its code, ``3 * level`` plus the
index of its kind in ``_KINDS``, with ``kind`` and ``level`` as
attributes: a word is a tuple of small ints, and events order by level,
then kind.  Only this module does arithmetic on codes: in its loops over
whole words, where decoding costs less than reading the attributes (the
scan's check and ``segment_steps`` among them), in ``slot_walk``, the
strand slots the ruling DP and ``is_ruling`` key pairings by, and in
``levels_and_kinds``, which decodes a word lazily for the pinch
search's pass for sites and the walk of ``ruling_pairings``.
``slot_walk`` moves the positions of the slots below a cusp with one
``bytearray.translate`` by that level's table in ``_SHIFT_UP`` or
``_SHIFT_DOWN``, built on first use; ``ruling_pairings`` moves its
partners with the same tables.
Events are interned: every event the package builds comes from
``event(kind, level)`` (or ``L``, ``R``, ``X``, ``Event.parse``), a
bounded cache of at most ``_INTERNED_MAX`` validated events, so a rewrite
reuses the events it writes; ``Event.parse`` keeps as many tokens.
``Event(kind, level)`` still builds a fresh, equal event.

Segments are numbered in one place, ``segment_steps``: one walk down
the word that carries the segment at each strand position, opening two
ids at each left cusp, top first.  Every other reader takes its ids
from that walk.  A diagram keeps one list of what each event touches,
``(kind index, 0-based level, top, bottom)``: the constructor's
``_Scan`` records it, and a spliced diagram walks its word on first
use.  The cusp walk, the orientation symbols, the direction entries,
``per_component``, ``component_events``, ``linking_number``,
``cusp_segments`` and ``component_subdiagram`` read that list, and
``per_component`` and ``split_components`` are module functions, so the
ruling certificate's goal in ``cobordism`` calls them on a walk of its
own.  The renderer appends each gap's points to the point lists of the
segments the walk puts there, ``death`` finds an eye's position on it,
and a pattern's seam glues the walk's last gap to its first.  No
diagram keeps the segment ids at every gap.  Readers that follow
strand positions without segment ids, such as
``rulings.ruling_pairings``, ``strand_direction`` here and the pinch
search's sites, carry what they need on the word itself.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from functools import cached_property, lru_cache
from itertools import repeat
from operator import attrgetter

LEFT_CUSP = "L"
RIGHT_CUSP = "R"
CROSSING = "X"

_KINDS = (LEFT_CUSP, RIGHT_CUSP, CROSSING)
_LEFT, _RIGHT, _CROSS = 0, 1, 2   # kind indices: an event's code % 3


class DiagramError(ValueError):
    """Base class for structured diagram rejections."""


class LevelOutOfBounds(DiagramError):
    def __init__(self, index, level, strands):
        self.index = index
        super().__init__(
            f"event {index}: level {level} out of bounds with {strands} strands")


class NonzeroFinalStrands(DiagramError):
    def __init__(self, strands):
        self.strands = strands
        super().__init__(f"word ends with {strands} open strands")


class OrientationMissing(DiagramError):
    def __init__(self, n_components, n_symbols):
        super().__init__(
            f"diagram has {n_components} components but {n_symbols} "
            f"orientation symbols")


# The most cells, gaps times the widest strand count, that a segment scan
# may take (about 8 bytes each).  Every word that the tests, CI and bench
# build takes at most 21,714.
MAX_SCAN_CELLS = 1 << 22
# The most pairing states, summed over the frontiers it builds, that one
# pass of the ruling DP may step.  The widest front that the tests, CI
# and bench rule, the 3-copy of m9_46, steps 2,090,691.
MAX_RULING_STATES = 1 << 22


class ScanTooLarge(DiagramError):
    """Over ``MAX_SCAN_CELLS`` cells, a cell being one strand at one gap:
    of one segment scan, or of every stage of a trace together."""

    def __init__(self, what, cells, amount="a scan of {} cells"):
        super().__init__(f"{what} needs {amount.format(cells)}, over the "
                         f"limit of {MAX_SCAN_CELLS}")


# Far above the distinct events, 3 kinds per level, of any word handled:
# the 1,270-event shuffle of m9_46 reaches level 15 at 22 strands, so it
# has at most 45.
_INTERNED_MAX = 1 << 12


class Event(int):
    """A cusp or crossing at a 1-based level; its value is its code."""

    def __new__(cls, kind, level):
        if kind not in _KINDS:
            raise DiagramError(f"unknown event kind {kind!r}")
        if type(level) is not int:
            raise DiagramError(f"level must be an int, got {level!r}")
        if level < 1:
            raise DiagramError(f"level must be >= 1, got {level}")
        self = super().__new__(cls, 3 * level + _KINDS.index(kind))
        vars(self).update(kind=kind, level=level, _text=f"{kind}{level}")
        return self

    def __setattr__(self, name, *_value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __getnewargs__(self):
        return self.kind, self.level

    def __repr__(self):
        return f"Event(kind={self.kind!r}, level={self.level!r})"

    def __str__(self):
        return self._text

    @staticmethod
    @lru_cache(maxsize=_INTERNED_MAX)
    def parse(token: str) -> "Event":
        kind, digits = token[:1], token[1:]
        if kind in _KINDS:
            try:
                level = ascii_decimal(digits)
            except ValueError:
                pass
            else:
                return event(kind, level)
        raise DiagramError(f"bad event token {token!r}")


def ascii_decimal(text):
    """The non-negative integer that ``text`` spells in ASCII digits.

    Every integer read from outside the program goes through here.
    Raises ValueError on anything else that ``int`` would take: a sign,
    blanks, ``_`` separators, another script's digits, or more digits
    than ``int`` converts.
    """
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not an ASCII decimal: {text!r}")
    return int(text)


@lru_cache(maxsize=_INTERNED_MAX, typed=True)
def event(kind, level):
    """The event ``Event(kind, level)``, one shared object while cached.

    Raises DiagramError on a bad kind or level, as ``Event`` does; a
    rejected pair is never cached.
    """
    return Event(kind, level)


def L(level):
    return event(LEFT_CUSP, level)


def R(level):
    return event(RIGHT_CUSP, level)


def X(level):
    return event(CROSSING, level)


class _Scan:
    """A checked word's segment walk: what each event touches.

    A segment is a maximal strand piece between two cusps; segments persist
    through crossings.  The scan starts from ``strands`` strands (segments
    0 .. strands-1, top to bottom; none for a diagram, k for an annular
    pattern) and must end with as many.  ``segment_steps`` numbers the
    others, which fixes the component numbering.

    One integer pass over the strand counts checks the word before any
    segment is followed: LevelOutOfBounds at the first event off the
    strands, ScanTooLarge at the left cusp that first widens the word past
    MAX_SCAN_CELLS (gaps times its widest strand count), then
    NonzeroFinalStrands.  ``counts`` is the strand count at every gap,
    ``touched`` the ``(kind index, 0-based level, top, bottom)`` of every
    event, read off one ``segment_steps`` walk.
    """

    def __init__(self, events, strands=0):
        self.events = events = tuple(events)
        widest = MAX_SCAN_CELLS // (len(events) + 1)
        if strands > widest:
            _too_wide(events, strands)
        self.counts = counts = [strands]
        m = strands
        for idx, ev in enumerate(events):
            level, kind = ev // 3, ev % 3
            if kind == _LEFT:
                if not 1 <= level <= m + 1:
                    raise LevelOutOfBounds(idx, level, m)
                m += 2
                if m > widest:
                    _too_wide(events, m)
            else:
                if not 1 <= level <= m - 1:
                    raise LevelOutOfBounds(idx, level, m)
                if kind == _RIGHT:
                    m -= 2
            counts.append(m)
        if m != strands:
            raise NonzeroFinalStrands(m)
        self.touched = list(segment_steps(events, strands)[0])


class _Table(dict):
    """A dict that fills a missing entry from ``fill(key)`` on first read.

    It holds at most ``LIMIT`` entries: a miss that finds it full clears
    it first, so a hit stays a plain dict lookup.  The rule tables'
    steady state is a few thousand entries.
    """

    LIMIT = 1 << 16

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        if len(self) >= self.LIMIT:
            self.clear()
        value = self[key] = self.fill(key)
        return value


# Byte translations for position and partner arrays at a cusp at 0-based
# level i: ``_SHIFT_UP[i]`` adds two to every byte at or above i, the
# strands a left cusp there moves down, and ``_SHIFT_DOWN[i]`` takes two
# from every byte at or above i, the strands below a right cusp there.
# Bytes that no valid array reaches map to zero.  Each level's table is
# sliced from these three on first use.
_IDENTITY = bytes(range(256))
_UP = bytes(range(2, 256)) + bytes(2)
_DOWN = bytes(2) + bytes(range(254))
_SHIFT_UP = _Table(lambda i: _IDENTITY[:i] + _UP[i:])
_SHIFT_DOWN = _Table(lambda i: _IDENTITY[:i] + _DOWN[i:])


def _too_wide(events, strands):
    """Refuse the scan of ``events`` once it reaches ``strands`` strands."""
    raise ScanTooLarge(f"a word of {len(events)} events at {strands} strands",
                       (len(events) + 1) * strands)


def levels_and_kinds(events):
    """(level, kind index) of every event, decoded lazily from its code:
    for a single pass outside this module that follows strand positions,
    not segment ids, such as the pinch search's sites and
    ``rulings.ruling_pairings``."""
    return map(divmod, events, repeat(3))


def segment_steps(events, strands=0):
    """The package's one segment numbering: follow the segment at each
    strand position along a valid word entered with ``strands`` strands.

    Segments 0 .. strands - 1 are the entering strands, top to bottom;
    every left cusp opens the next two, top first.  Returns ``(steps,
    segments)``.  ``steps`` yields ``(kind index, 0-based level, top,
    bottom)`` for every event, lazily and in one pass: ``top`` and
    ``bottom`` are the two segments the event touches, top first, a left
    cusp's two new ones, a right cusp's two closed ones, a crossing's two
    before it swaps them.  ``segments`` is one list, the segment at each
    position at the gap before the event just yielded; it changes in
    place once the next step is asked for, and once ``steps`` is
    exhausted it holds the segments at the last gap.  Nothing is
    validated: ``_Scan`` checks a word before it walks it.
    """
    segments = list(range(strands))
    return _steps(events, strands, segments), segments


def _steps(events, opened, segments):
    """The steps of ``segment_steps``, editing ``segments`` in place."""
    for ev in events:
        i = ev // 3 - 1
        kind = ev % 3
        if kind == _LEFT:
            yield kind, i, opened, opened + 1
            segments[i:i] = opened, opened + 1
            opened += 2
            continue
        a, b = segments[i], segments[i + 1]
        yield kind, i, a, b
        if kind == _RIGHT:
            del segments[i:i + 2]
        else:
            segments[i], segments[i + 1] = b, a


def connected_components(n, pairs):
    """(label, side) of every node 0 .. n-1 of the graph with edges ``pairs``.

    One iterative walk from each node not yet reached, in node order, so
    components are numbered by their least node.  The side is +1 at that
    node and flips across every edge walked.  It serves graphs that need
    not be unions of cycles, a pattern's closure and a surgery
    presentation; a diagram's cusp graph is walked by ``cusp_walk``.
    """
    adj = [[] for _ in range(n)]
    for a, b in pairs:
        adj[a].append(b)
        adj[b].append(a)
    label = [-1] * n
    side = [0] * n
    count = 0
    for first in range(n):
        if label[first] >= 0:
            continue
        label[first] = count
        side[first] = 1
        stack = [first]
        while stack:
            s = stack.pop()
            for t in adj[s]:
                if label[t] < 0:
                    label[t] = count
                    side[t] = -side[s]
                    stack.append(t)
        count += 1
    return tuple(label), tuple(side)


def window_counts(m, events):
    """Strand counts at the gaps of ``events`` entered with ``m`` strands:
    one more count than events, ``m`` first."""
    out = [m]
    for ev in events:
        m += (2, -2, 0)[ev % 3]   # strands an L, R or X adds
        out.append(m)
    return out


def strand_direction(events, directions, gap, level):
    """+1 if the strand at ``level`` at ``gap`` runs rightward, -1 leftward.

    ``events`` and ``directions`` are a valid word and its entries, as
    tuples or lists.  Walks right from the gap to the next event that
    touches the strand and reads its entry.  There always is one: every
    strand ends at a right cusp.  The level is not checked.
    """
    p = level   # the strand's position before event idx
    for idx in range(gap, len(events)):
        ev = events[idx]
        kind, lv = ev % 3, ev // 3
        if kind == _LEFT:
            if lv <= p:
                p += 2
        elif p == lv:
            return directions[idx][0]
        elif p == lv + 1:
            return directions[idx][1]
        elif kind == _RIGHT and p > lv:
            p -= 2


class FrontDiagram:
    """A front diagram: immutable after construction.

    ``FrontDiagram(events, orientations)`` validates its input with a full
    scan.  Moves build their results with :meth:`_edited` instead, which
    splices a window into the parent's tuples without looking at the rest
    of the word.  Either way ``events``, ``directions`` (one entry per
    event, see the module docstring) and ``strand_counts`` are set at
    once; everything else is computed on first use.
    """

    def __init__(self, events, orientations=None):
        events = tuple(events)
        if orientations is not None:
            orientations = tuple(orientations)
            for s in orientations:
                if s not in ("+", "-"):
                    raise DiagramError(f"bad orientation symbol {s!r}")
        scan = _Scan(events)
        walk = cusp_walk(scan.touched)
        n_components = max(walk[0], default=-1) + 1
        if orientations is None:
            orientations = ("+",) * n_components
        if len(orientations) != n_components:
            raise OrientationMissing(n_components, len(orientations))
        self._orient(events, scan.counts, scan.touched, walk, orientations)

    def _orient(self, events, counts, touched, walk, orientations):
        """Set every entry from the walk and one symbol per component."""
        self.events = events
        self.strand_counts = tuple(counts)
        self.__dict__.update(_touched=touched, _walk=walk,
                             orientations=orientations)
        seg_dirs = self.segment_direction
        self.directions = tuple([(seg_dirs[a], seg_dirs[b])
                                 for _kind, _i, a, b in touched])

    def _edited(self, start, stop, events, directions):
        """This diagram with the splice ``(start, stop, events,
        directions)`` applied: ``self.events[start:stop]`` replaced by
        ``events``, whose direction entries are ``directions``.

        Nothing is validated: the caller guarantees a valid word whose
        strand count after the window is unchanged.  The window's strand
        counts come from :func:`window_counts`, the step that
        ``moves.random_shuffle`` shares when it splices lists in place.
        The new diagram copies the parent's three tuples, so it costs time
        linear in the word; a walk of many splices applies them to lists
        and calls this once, with the whole word as the window.  Entries
        outside the window are kept, so a move that reverses strands
        outside it must re-sign the result,
        ``d._with_orientations(d.orientations)``: each component keeps the
        direction of its first left cusp's top strand.
        """
        counts = self.strand_counts
        new = FrontDiagram.__new__(FrontDiagram)
        new.events = self.events[:start] + tuple(events) + self.events[stop:]
        new.directions = (self.directions[:start] + tuple(directions)
                          + self.directions[stop:])
        new.strand_counts = (counts[:start]
                             + tuple(window_counts(counts[start], events))
                             + counts[stop + 1:])
        return new

    def _with_orientations(self, orientations):
        """The same word with every component directed by its symbol,
        re-signed from this diagram's walk."""
        new = FrontDiagram.__new__(FrontDiagram)
        new._orient(self.events, self.strand_counts, self._touched,
                    self._walk, tuple(orientations))
        return new

    # -- derived data, computed on first use ------------------------------

    @cached_property
    def _touched(self):
        """(kind index, 0-based level, top, bottom) of every event: the
        constructor's scan keeps it, a spliced diagram walks its word."""
        return list(segment_steps(self.events)[0])

    @cached_property
    def _walk(self):
        """(component label, side) of every segment: one cusp-graph walk."""
        return cusp_walk(self._touched)

    @cached_property
    def component_of_segment(self):
        return self._walk[0]

    @cached_property
    def n_components(self):
        return max(self.component_of_segment, default=-1) + 1

    @cached_property
    def width(self):
        """The most strands at any gap."""
        return max(self.strand_counts)

    @cached_property
    def slot_walk(self):
        """The strand slots of the word, for the ruling DP's keys:
        ``(steps, mirror, first, last)``.

        Every strand holds a slot while it lives.  A right cusp frees
        its two slots as a pair; a left cusp takes the pair freed last
        of those still free, whole and in its (top, bottom) order, or
        else opens the next two slots s, s + 1 (s even).  So there are
        as many slots as strands at the widest gap.  ``steps`` has one
        ``(kind, 0-based level, top, bottom, positions)`` per event: the
        slots of the two strands it touches, top first before it, and
        at a crossing the position of every slot before it, as
        ``bytes`` (None at a cusp); the entries of dead slots are not
        meaningful.  A cusp moves the positions below it with one
        ``translate`` by its level's table.  ``mirror`` has the same
        event as the mirror word reads it, right to left: a left cusp as
        a right cusp and back, and a crossing's slots after the swap.
        ``first`` holds each slot's mate in its first pair, ``s ^ 1``,
        and ``last`` its mate at its last right cusp.  At most 256
        strands: the positions are bytes.
        """
        width = self.width
        slots = []                    # the slot at each position
        positions = bytearray(width)  # the position of each live slot
        mates = bytearray(s ^ 1 for s in range(width))
        first = bytes(mates)
        freed = []
        steps = []
        mirror = []
        for ev in self.events:
            i = ev // 3 - 1
            kind = ev % 3
            if kind == _CROSS:
                top, bottom = slots[i], slots[i + 1]
                before = bytes(positions)
                steps.append((CROSSING, i, top, bottom, before))
                mirror.append((CROSSING, i, bottom, top, before))
                slots[i], slots[i + 1] = bottom, top
                positions[top], positions[bottom] = i + 1, i
                continue
            if kind == _LEFT:
                top, bottom = freed.pop() if freed else (len(slots),
                                                         len(slots) + 1)
                slots[i:i] = top, bottom
                positions = positions.translate(_SHIFT_UP[i])
                positions[top], positions[bottom] = i, i + 1
            else:
                top, bottom = slots[i], slots[i + 1]
                del slots[i:i + 2]
                freed.append((top, bottom))
                mates[top], mates[bottom] = bottom, top
                positions = positions.translate(_SHIFT_DOWN[i])
            # the mirror swaps the cusp kinds, _LEFT 0 and _RIGHT 1
            steps.append((_KINDS[kind], i, top, bottom, None))
            mirror.append((_KINDS[1 - kind], i, top, bottom, None))
        return tuple(steps), tuple(mirror), first, bytes(mates)

    @cached_property
    def segment_direction(self):
        """Direction of every segment: its side, negated on a '-' component."""
        label, side = self._walk
        sign = [1 if s == "+" else -1 for s in self.orientations]
        return tuple(d * sign[c] for d, c in zip(side, label))

    @cached_property
    def orientations(self):
        """One symbol per component, read off its first left cusp's entry.

        That cusp creates the component's least segment as its top one,
        and first left cusps come in component order, so it is the first
        event whose top segment lies on the next component.
        """
        comp = self.component_of_segment
        out = []
        for (_kind, _i, top, _bottom), entry in zip(self._touched,
                                                    self.directions):
            if comp[top] == len(out):
                out.append("+" if entry[0] == 1 else "-")
        return tuple(out)

    # -- basic queries ----------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, FrontDiagram)
                and self.events == other.events
                and self.directions == other.directions)

    def __hash__(self):
        return hash((self.events, self.directions))

    def __repr__(self):
        return (f"FrontDiagram([{word_text(self.events)}], "
                f"orient={''.join(self.orientations)})")

    def direction_at(self, gap, level):
        """+1 if the strand at ``level`` runs rightward, -1 leftward.

        Raises IndexError when there is no such strand; see
        :func:`strand_direction` for the walk.
        """
        if not (0 <= gap < len(self.strand_counts)
                and 1 <= level <= self.strand_counts[gap]):
            raise IndexError(f"no strand at level {level} at gap {gap}")
        return strand_direction(self.events, self.directions, gap, level)

    def cusp_segments(self, index):
        """(top, bottom) segment ids of the cusp event at ``index``."""
        if 0 <= index < len(self.events):
            kind, _i, top, bottom = self._touched[index]
            if kind != _CROSS:
                return top, bottom
        raise KeyError(index)

    # -- invariants -------------------------------------------------------

    def crossing_sign(self, index):
        """Sign of the crossing at event ``index`` (+1 or -1).

        The descending strand is the overstrand; the sign is the
        determinant of (over tangent, under tangent) with the component
        orientations: over tangent (do, -do), under tangent (du, du).
        """
        do, du = self.directions[index]
        return do * du

    def cusp_is_down(self, index):
        """True if the traversal moves downward through the cusp at ``index``.

        At either cusp kind the incoming strand is the top one exactly for
        a down cusp: leftward into a left cusp, rightward into a right cusp.
        """
        d = self.directions[index][0]
        if self.events[index] % 3 == _LEFT:
            return d == -1
        return d == 1

    @cached_property
    def writhe(self):
        """The sum of the crossing signs: ``crossing_sign`` read inline."""
        return sum([do * du
                    for ev, (do, du) in zip(self.events, self.directions)
                    if ev % 3 == _CROSS])

    @cached_property
    def tb(self):
        return self.writhe - [ev % 3 for ev in self.events].count(_RIGHT)

    @cached_property
    def rot(self):
        cusps = [i for i, e in enumerate(self.events) if e % 3 != _CROSS]
        down = sum(1 for i in cusps if self.cusp_is_down(i))
        up = len(cusps) - down
        if (down - up) % 2:
            raise DiagramError(f"odd cusp difference {down - up}; "
                               f"rot is not an integer")
        return (down - up) // 2

    @cached_property
    def per_component(self):
        """List of (tb, rot) per component; tb counts self-crossings only."""
        return per_component(self._touched, self.component_of_segment,
                             self.n_components, self.directions)

    def _check_component(self, c):
        check_component_index(c, self.n_components)

    def linking_number(self, c1, c2):
        """Half the signed count of crossings between components c1, c2."""
        self._check_component(c1)
        self._check_component(c2)
        if c1 == c2:
            raise DiagramError("linking number needs distinct components")
        comp = self.component_of_segment
        total = 0
        for i, (kind, _i, a, b) in enumerate(self._touched):
            if kind == _CROSS and {comp[a], comp[b]} == {c1, c2}:
                total += self.crossing_sign(i)
        if total % 2:
            raise DiagramError(f"odd signed crossing count {total} between "
                               f"components {c1}, {c2}")
        return total // 2

    def crossing_indices(self):
        return [i for i, e in enumerate(self.events) if e.kind == CROSSING]

    def component_events(self, c):
        """Sorted event indices whose strands all belong to component c."""
        comp = self.component_of_segment
        return [i for i, (_kind, _i, a, b) in enumerate(self._touched)
                if comp[a] == comp[b] == c]

    def component_subdiagram(self, c):
        """The front of component c alone, with other strands deleted.

        Each kept event keeps its direction entry from this diagram: the
        component's strands run as they did, and its first left cusp is
        the new front's first, so the entries are those that
        ``FrontDiagram(events, (self.orientations[c],))`` would set.
        The new front is spliced with :meth:`_edited`, without a scan,
        from the split of every component that the ruling certificate's
        goal also reads.
        """
        self._check_component(c)
        words, entries = split_components(
            self._touched, self.component_of_segment, self.n_components,
            self.directions)
        return self._edited(0, len(self.events), words[c], entries[c])


def cusp_walk(touched):
    """(component, side) of every segment of a word entered with no
    strands, from what its events touch: ``connected_components`` of its
    cusp graph, whose nodes are segments and whose edges are cusps, as
    one walk along each cycle.

    Every segment runs from a left cusp to a right cusp, so the graph is
    a union of cycles that alternate the two.  ``segment_steps`` opens a
    left cusp's segments as a pair 2k, 2k + 1, so a segment's mate at
    its left cusp is ``s ^ 1``; its mate at its right cusp is read from
    one list.  A cycle is walked from its least segment, which is even,
    and its sides alternate along it.  The two segments of a cusp run
    opposite ways, so a segment's side is its direction when its
    component is oriented '+'.
    """
    rights = [(top, bottom) for kind, _i, top, bottom in touched
              if kind == _RIGHT]
    n = 2 * len(rights)
    end = [0] * n         # each segment's mate at its right cusp
    for top, bottom in rights:
        end[top] = bottom
        end[bottom] = top
    label = [-1] * n
    side = [1] * n        # each segment is reached once, as s or as s ^ 1
    count = 0
    for first in range(0, n, 2):
        if label[first] >= 0:
            continue
        s = first
        while True:
            t = s ^ 1
            label[s] = label[t] = count
            side[t] = -1
            s = end[t]
            if s == first:
                break
        count += 1
    return tuple(label), tuple(side)


def per_component(touched, label, n, directions):
    """(tb, rot) of each of the ``n`` components, labelled ``label`` by
    segment, of a word whose events touch ``touched`` and have the entries
    ``directions``; tb counts self-crossings only.

    A cusp is down when its top strand runs rightward into a right cusp
    or leftward into a left one (see ``FrontDiagram.cusp_is_down``), and
    rot is half the down cusps less the up ones.
    """
    tb, down_up = [0] * n, [0] * n
    for (kind, _i, top, bottom), (do, du) in zip(touched, directions):
        c = label[top]
        if kind == _CROSS:
            if label[bottom] == c:
                tb[c] += do * du
        elif kind == _RIGHT:
            tb[c] -= 1
            down_up[c] += do
        else:
            down_up[c] -= do
    return [(t, d // 2) for t, d in zip(tb, down_up)]


def split_components(touched, label, n, directions):
    """(words, entries): the word of each of the ``n`` components alone,
    other strands deleted, and the direction entries of its events.

    One pass over what the events touch keeps the component at each
    strand position; an event of component c goes to c's word at one
    more than the strands of c above it.
    """
    words = [[] for _ in range(n)]
    entries = [[] for _ in range(n)]
    at = []       # the component at each strand position
    for (kind, i, top, bottom), entry in zip(touched, directions):
        c = label[top]
        if label[bottom] == c:
            words[c].append(event(_KINDS[kind], at[:i].count(c) + 1))
            entries[c].append(entry)
        if kind == _LEFT:
            at[i:i] = c, c
        elif kind == _RIGHT:
            del at[i:i + 2]
        else:
            at[i], at[i + 1] = at[i + 1], at[i]
    return words, entries


def check_component_index(c, n_components):
    """Raise DiagramError unless ``c`` numbers one of ``n_components``."""
    if not (type(c) is int and 0 <= c < n_components):
        raise DiagramError(f"no component {c!r}: components are "
                           f"0..{n_components - 1}")


def components(diagram):
    """Partition of segment ids into components, in index order."""
    out = [[] for _ in range(diagram.n_components)]
    for seg, c in enumerate(diagram.component_of_segment):
        out[c].append(seg)
    return out


# -- text format ----------------------------------------------------------

FORMAT_HEADER = "frontdiagram v1"
# An event's token, ``str(event)``, read without a Python call.
_event_text = attrgetter("_text")


def word_text(events):
    """The events' tokens joined by blanks: the word line of every text
    format."""
    return " ".join(map(_event_text, events))


def to_text(diagram):
    word = word_text(diagram.events)
    orient = " ".join(diagram.orientations)
    return f"{FORMAT_HEADER}\n{word}\norient:{' ' + orient if orient else ''}\n"


def from_lines(word_line, orient_line):
    """The diagram of a word line and its ``orient:`` line."""
    events = [Event.parse(tok) for tok in word_line.split()]
    if not orient_line.startswith("orient:"):
        raise DiagramError("missing 'orient:' line")
    return FrontDiagram(events, orient_line[len("orient:"):].split())


def from_text(text):
    lines = text.splitlines()
    if len(lines) < 3 or lines[0] != FORMAT_HEADER:
        raise DiagramError("missing 'frontdiagram v1' header")
    return from_lines(lines[1], lines[2])
