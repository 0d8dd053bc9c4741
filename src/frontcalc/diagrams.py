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
cusp.  The segment scan, the component numbering and the per-component
orientation symbols are derived on first use; the symbol '+' directs the
top strand of a component's first left cusp rightward, and a component's
symbol is read off that cusp's entry.

One iterative walk of the cusp graph, whose nodes are segments and whose
edges are cusps, gives every segment its component, numbered by least
segment, and a side: +1 at the component's least segment, flipping
across every cusp.  A segment's direction has one formula: its side,
negated on a '-' component.  It sets the entries from the symbols, and
re-signing a diagram with other symbols reuses the walk.  The same walk
counts a pattern's closed curves and tests whether a surgery
presentation is a tree.

``FrontDiagram(events, orientations)`` is the validating constructor, for
input from outside the package (text files, the catalog, the CLI): it takes
one orientation symbol per component, all '+' by default.

An event is an ``int`` whose value is its code, ``3 * level`` plus the
index of its kind in ``_KINDS``, with ``kind`` and ``level`` as
attributes: a word is a tuple of small ints, and events order by level,
then kind.  Only this module does arithmetic on codes: in its loops over
whole words, where decoding costs less than reading the attributes, in
``kinds_and_levels``, the decoded word the ruling DP reads, in
``levels_and_kinds``, which decodes a word lazily for the renderer's one
pass per filmstrip frame and the pinch search's pass for sites, and in
``segment_steps``.
Events are interned: every event the package builds comes from
``event(kind, level)`` (or ``L``, ``R``, ``X``, ``Event.parse``), a
bounded cache of at most ``_INTERNED_MAX`` validated events, so a rewrite
reuses the events it writes; ``Event.parse`` keeps as many tokens.
``Event(kind, level)`` still builds a fresh, equal event.

The segment scan is for callers that keep segment ids for a whole
diagram: its cached facts, satellites and the oracles.  Readers of a
word built once follow strand positions on the word itself, as
``_walk_in_place`` in ``rulings`` and ``strand_direction`` here do.  The
renderer carries each segment's point list down the positions, and
colors segments with ``connected_components`` on the cusps it meets.
``segment_steps`` carries the segment ids alone, numbered as the scan
numbers them: the ruling certificate's goal and ``death`` in
``cobordism`` read components, (tb, rot) and an eye's position off it,
and the pinch search's sites carry only directions.  Building and
caching a full ``_Scan`` and its cusp walk per frame, only to learn which
segment sits at each position, took about a third of the time that
drawing the filmstrips of the ``filling`` bench took.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from functools import cached_property, lru_cache
from itertools import repeat

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
    """Single left-to-right pass assigning segment ids and cusp data.

    A segment is a maximal strand piece between two cusps; segments persist
    through crossings.  The scan starts from ``strands`` strands (segments
    0 .. strands-1, top to bottom; none for a diagram, k for an annular
    pattern) and must end with as many.  Later ids are assigned in creation
    order (top strand of a left cusp first), which fixes the component
    numbering.

    A word whose gaps times its widest strand count exceed MAX_SCAN_CELLS
    is refused with ScanTooLarge at the left cusp that first widens it
    that far, before its gaps take that much memory.
    """

    def __init__(self, events, strands=0):
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


def _too_wide(events, strands):
    """Refuse the scan of ``events`` once it reaches ``strands`` strands."""
    raise ScanTooLarge(f"a word of {len(events)} events at {strands} strands",
                       (len(events) + 1) * strands)


def levels_and_kinds(events):
    """(level, kind index) of every event, decoded lazily from its code:
    for a single pass over a word built once, such as a filmstrip frame."""
    return map(divmod, events, repeat(3))


def segment_steps(events):
    """Follow the segment at each strand position along a valid word.

    Yields ``(index, kind index, 0-based level, top, bottom, segments)``
    for every event, in one pass and with no scan.  ``top`` and
    ``bottom`` are the two segments the event touches, top first: a left
    cusp's two new ones, numbered as ``_Scan`` numbers them (in the order
    left cusps open them, top first), a right cusp's two closed ones, a
    crossing's two before it swaps them.  ``segments`` is one list, the
    segment at each position at the gap before the event; it changes in
    place once the next step is asked for.  Nothing is validated.
    """
    segments = []
    opened = 0
    for idx, ev in enumerate(events):
        level, kind = divmod(ev, 3)
        i = level - 1
        if kind == _LEFT:
            yield idx, kind, i, opened, opened + 1, segments
            segments[i:i] = opened, opened + 1
            opened += 2
            continue
        a, b = segments[i], segments[i + 1]
        yield idx, kind, i, a, b, segments
        if kind == _RIGHT:
            del segments[i:i + 2]
        else:
            segments[i], segments[i + 1] = b, a


def connected_components(n, pairs):
    """(label, side) of every node 0 .. n-1 of the graph with edges ``pairs``.

    One iterative walk from each node not yet reached, in node order, so
    components are numbered by their least node.  The side is +1 at that
    node and flips across every edge walked.  On the cusp graph of a
    diagram, whose edges are the cusps, the two segments of a cusp run
    opposite ways and every component has an even number of cusps, so a
    segment's side is its direction when its component is oriented '+'.
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
        walk = connected_components(scan.n_segments, scan.cusp_pair.values())
        n_components = max(walk[0], default=-1) + 1
        if orientations is None:
            orientations = ("+",) * n_components
        if len(orientations) != n_components:
            raise OrientationMissing(n_components, len(orientations))
        self._orient(events, scan, walk, orientations)

    def _orient(self, events, scan, walk, orientations):
        """Set every entry from the walk and one symbol per component."""
        self.events = events
        self.__dict__.update(_scan=scan, _walk=walk,
                             orientations=orientations)
        seg_dirs = self.segment_direction
        # every event is a cusp or a crossing of the scan, by index
        directions = [None] * len(events)
        for pairs in (scan.cusp_pair, scan.crossing_pair):
            for idx, (a, b) in pairs.items():
                directions[idx] = (seg_dirs[a], seg_dirs[b])
        self.directions = tuple(directions)
        self.strand_counts = tuple(map(len, scan.gaps))

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
        new._orient(self.events, self._scan, self._walk, tuple(orientations))
        return new

    # -- derived data, computed on first use ------------------------------

    @cached_property
    def _scan(self):
        return _Scan(self.events)

    @cached_property
    def _walk(self):
        """(component label, side) of every segment: one cusp-graph walk."""
        scan = self._scan
        return connected_components(scan.n_segments, scan.cusp_pair.values())

    @cached_property
    def component_of_segment(self):
        return self._walk[0]

    @cached_property
    def n_components(self):
        return max(self.component_of_segment, default=-1) + 1

    @cached_property
    def kinds_and_levels(self):
        """(kind, level) of every event, decoded once for the ruling DP."""
        return tuple((_KINDS[ev % 3], ev // 3) for ev in self.events)

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
        and first left cusps come in component order.
        """
        comp = self.component_of_segment
        out = []
        for idx, (top, _bot) in self._scan.cusp_pair.items():
            if comp[top] == len(out):
                out.append("+" if self.directions[idx][0] == 1 else "-")
        return tuple(out)

    # -- basic queries ----------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, FrontDiagram)
                and self.events == other.events
                and self.directions == other.directions)

    def __hash__(self):
        return hash((self.events, self.directions))

    def __repr__(self):
        word = " ".join(str(e) for e in self.events)
        return f"FrontDiagram([{word}], orient={''.join(self.orientations)})"

    def segments_at_gap(self, gap):
        """Segment ids top-to-bottom at the gap before event ``gap``."""
        return self._scan.gaps[gap]

    def component_at(self, gap, level):
        """Component index of the strand at 1-based ``level`` at ``gap``."""
        return self.component_of_segment[self._scan.gaps[gap][level - 1]]

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
        return self._scan.cusp_pair[index]

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
        writhe = [0] * self.n_components
        rcusps = [0] * self.n_components
        downup = [0] * self.n_components
        comp = self.component_of_segment
        events, directions = self.events, self.directions
        for i, (a, b) in self._scan.crossing_pair.items():
            c = comp[a]
            if c == comp[b]:
                do, du = directions[i]
                writhe[c] += do * du
        # a cusp is down when its top strand runs rightward into a right
        # cusp or leftward into a left one (see cusp_is_down)
        for i, (a, _b) in self._scan.cusp_pair.items():
            c = comp[a]
            if events[i] % 3 == _RIGHT:
                rcusps[c] += 1
                downup[c] += directions[i][0]
            else:
                downup[c] -= directions[i][0]
        return [(writhe[c] - rcusps[c], downup[c] // 2)
                for c in range(self.n_components)]

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
        for i, (a, b) in self._scan.crossing_pair.items():
            if {comp[a], comp[b]} == {c1, c2}:
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
        out = []
        for i, pair in self._scan.cusp_pair.items():
            if comp[pair[0]] == c:
                out.append(i)
        for i, (a, b) in self._scan.crossing_pair.items():
            if comp[a] == c and comp[b] == c:
                out.append(i)
        return sorted(out)

    def component_subdiagram(self, c):
        """The front of component c alone, with other strands deleted.

        Each kept event keeps its direction entry from this diagram: the
        component's strands run as they did, and its first left cusp is
        the new front's first, so the entries are those that
        ``FrontDiagram(events, (self.orientations[c],))`` would set.
        The new front is spliced with :meth:`_edited`, without a scan.
        """
        self._check_component(c)
        comp = self.component_of_segment
        events = []
        directions = []
        for idx, ev in enumerate(self.events):
            gap = self._scan.gaps[idx]
            if ev.kind == LEFT_CUSP:
                mine = comp[self._scan.cusp_pair[idx][0]] == c
            else:
                mine = comp[gap[ev.level - 1]] == comp[gap[ev.level]] == c
            if mine:
                above = sum(1 for s in gap[:ev.level - 1] if comp[s] != c)
                events.append(event(ev.kind, ev.level - above))
                directions.append(self.directions[idx])
        return self._edited(0, len(self.events), events, directions)


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


def to_text(diagram):
    word = " ".join(str(e) for e in diagram.events)
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
