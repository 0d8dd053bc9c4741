"""Contact-framed copies and satellites of front diagrams.

The k-copy replaces every strand by k parallel push-offs (vertical
translates, which realize the contact framing).  A left cusp at level a
becomes k stacked cusps followed by k(k-1)/2 sorting crossings that
separate the upper branches from the lower ones; a right cusp is the
mirror image; a crossing becomes a k-by-k block of crossings.

A satellite splices an annular pattern word into the k-copy at one
generic x, just past the gadget of the companion's opening ``L1``, on the
k strands that copy that cusp's upper branch.  Pattern words are written
for rightward-parameterized strands; when the companion runs the other
way the lower branch block is used instead, so the splice rows always
point rightward.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# MAX_SCAN_CELLS and ScanTooLarge live with the scan in ``diagrams`` and
# are re-exported here: a pattern, k-copy or satellite spec whose scan
# would take more cells is refused, by arithmetic, before any list is
# built.
from .diagrams import (CROSSING, LEFT_CUSP, MAX_SCAN_CELLS, RIGHT_CUSP,
                       DiagramError, Event, FrontDiagram, L, LevelOutOfBounds,
                       NonzeroFinalStrands, R, ScanTooLarge, X, _CROSS,
                       _Scan, ascii_decimal, connected_components,
                       cusp_walk, event, segment_steps, window_counts,
                       word_text)


class PatternError(DiagramError):
    pass


class CompanionNotKnot(DiagramError):
    def __init__(self, n):
        super().__init__(f"companion has {n} components, wanted a knot")


class UnknownPattern(DiagramError):
    def __init__(self, name):
        super().__init__(f"unknown builtin pattern {name!r}")


def _check_scan(what, events, widest):
    """Refuse a word of ``events`` events at most ``widest`` strands wide
    whose scan would take more than MAX_SCAN_CELLS cells."""
    cells = (events + 1) * widest
    if cells > MAX_SCAN_CELLS:
        raise ScanTooLarge(what, cells)


@dataclass(frozen=True)
class PatternFront:
    """An event word on k strands in the annulus.

    Scanning from k strands must return to k strands (cusps appear in
    balancing pairs); the seam gluing is by position, and the pattern's
    strand-connection permutation is what determines how many components
    the satellite closes into.
    """
    strands: int
    events: tuple

    _scan: _Scan = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.strands < 1:
            raise PatternError("pattern needs at least one strand")
        object.__setattr__(self, "events", tuple(self.events))
        _check_scan("pattern", len(self.events),
                    max(window_counts(self.strands, self.events)))
        try:
            scan = _Scan(self.events, self.strands)
        except LevelOutOfBounds as exc:
            raise PatternError(
                f"pattern event {exc.index} out of bounds") from None
        except NonzeroFinalStrands as exc:
            raise PatternError(f"pattern ends with {exc.strands} strands, "
                               f"started with {self.strands}") from None
        object.__setattr__(self, "_scan", scan)

    def closure_cycles(self):
        """Number of closed curves after gluing the seam by position.

        One segment walk gives the cusps; once it is done, its list holds
        the segments at the last gap, which the seam glues to the
        entering strands 0 .. k-1.
        """
        steps, ends = segment_steps(self.events, self.strands)
        cusps = [(top, bottom) for kind, _i, top, bottom in steps
                 if kind != _CROSS]
        labels, _sides = connected_components(
            self.strands + len(cusps), [*cusps, *enumerate(ends)])
        return max(labels) + 1


def _count_param(name, param):
    """A count given in code (an int) or in a pattern spec (ASCII digits)."""
    try:
        if param is None:
            return 1
        return ascii_decimal(param) if isinstance(param, str) else int(param)
    except ValueError:
        raise UnknownPattern(f"{name}({param!r})") from None


def builtin_pattern(name, param=None):
    """Built-in patterns: identity(k), half_twist(m), stab_core(sign),
    whitehead.

    The whitehead word is the standard 2-strand clasp with one cusp
    pair; it follows the common literature convention.
    """
    if name == "identity":
        return PatternFront(_count_param(name, param), [])
    if name == "half_twist":
        m = _count_param(name, param)
        if m < 0:
            raise UnknownPattern(f"half_twist({m})")
        _check_scan(f"half_twist({m})", m, 2)
        return PatternFront(2, [X(1)] * m)
    if name == "stab_core":
        if param in ("+", 1):
            return PatternFront(1, [L(2), R(1)])
        if param in ("-", -1):
            return PatternFront(1, [L(1), R(2)])
        raise UnknownPattern(f"stab_core({param!r})")
    if name == "whitehead":
        if param is not None:
            raise UnknownPattern(f"whitehead({param!r})")
        return PatternFront(2, [X(1), X(1), R(1), L(1)])
    raise UnknownPattern(name)


# -- construction ----------------------------------------------------------

def _left_gadget(a, k):
    """k stacked left cusps at a, then sorting into upper/lower blocks."""
    events = [L(a + 2 * i) for i in range(k)]
    for i in range(2, k + 1):
        for o in range(2 * i - 3, i - 2, -1):
            events.append(X(a + o))
    return events

def _right_gadget(a, k):
    events = []
    for i in range(k, 1, -1):
        for o in range(i - 1, 2 * i - 2):
            events.append(X(a + o))
    events.extend(R(a) for _ in range(k))
    return events

def _crossing_gadget(a, k):
    return [X(a + j + l) for j in reversed(range(k)) for l in range(k)]


def _k_copy_size(diagram, k):
    """(events, widest strand count) of ``diagram``'s k-copy."""
    crossings = sum(ev.kind == CROSSING for ev in diagram.events)
    cusps = len(diagram.events) - crossings
    return (cusps * k * (k + 1) // 2 + crossings * k * k,
            k * max(diagram.strand_counts))


def _k_copy_events(diagram, k):
    """(events, origins): origins maps emitted cusps to source event index."""
    events = []
    origins = []
    for idx, ev in enumerate(diagram.events):
        a = k * (ev.level - 1) + 1
        if ev.kind == LEFT_CUSP:
            gadget = _left_gadget(a, k)
        elif ev.kind == RIGHT_CUSP:
            gadget = _right_gadget(a, k)
        else:
            gadget = _crossing_gadget(a, k)
        events.extend(gadget)
        origins.extend([idx] * len(gadget))
    return events, origins


def _inherit_orientations(diagram, events, origins):
    """Give every copied component the direction of its source strands.

    A component takes the direction of its first cusp copied from a cusp
    of ``diagram``; components with no such cusp are directed '+'.  A
    cusp's origin is a cusp of ``diagram``, or None for a pattern's cusp.
    Under '+' a strand runs the way its side says, so the symbols are
    read off the scan's segment walk and one cusp-graph walk, which then
    set every direction entry once; the scan's counts are the strand
    counts.
    """
    scan = _Scan(events)
    walk = label, side = cusp_walk(scan.touched)
    symbols = [None] * (max(label, default=-1) + 1)
    for (kind, _i, top, _bottom), src in zip(scan.touched, origins):
        if (kind != _CROSS and src is not None
                and symbols[label[top]] is None):
            same = side[top] == diagram.directions[src][0]
            symbols[label[top]] = "+" if same else "-"
    d = FrontDiagram.__new__(FrontDiagram)
    d._orient(scan.events, scan.counts, scan.touched, walk,
              tuple(s or "+" for s in symbols))
    return d


def k_copy(diagram, k):
    """k contact-framed push-off copies of every component."""
    if k < 1:
        raise DiagramError("k must be >= 1")
    if k == 1:
        return diagram
    _check_scan(f"{k}-copy", *_k_copy_size(diagram, k))
    events, origins = _k_copy_events(diagram, k)
    return _inherit_orientations(diagram, events, origins)


@dataclass(frozen=True)
class SatelliteResult:
    diagram: FrontDiagram
    companion_invariants: tuple   # (tb, rot) of the companion
    pattern_meta: str


def satellite(companion, pattern):
    """Splice an annular pattern into the companion's k-copy.

    The companion must be a knot.  The result's component count equals
    the pattern's closure cycle count.
    """
    if companion.n_components != 1:
        raise CompanionNotKnot(companion.n_components)
    k = pattern.strands
    copied, widest = _k_copy_size(companion, k)
    # the pattern widens the copy by as many strands as it widens itself
    widened = max(pattern._scan.counts) - k
    _check_scan("satellite", copied + len(pattern.events), widest + widened)
    events, origins = _k_copy_events(companion, k)
    # the word opens with L1, whose gadget is k cusps and k(k-1)/2
    # crossings; its upper block runs rightward for a '+' companion,
    # otherwise use the lower block, which runs the other way
    splice_at = k * (k + 1) // 2
    row = 1 if companion.directions[0][0] == 1 else 1 + k
    spliced = [event(ev.kind, ev.level + row - 1) for ev in pattern.events]
    events[splice_at:splice_at] = spliced
    origins[splice_at:splice_at] = [None] * len(spliced)
    d = _inherit_orientations(companion, events, origins)
    if d.n_components != pattern.closure_cycles():
        raise DiagramError("satellite component count mismatch")
    return SatelliteResult(d, (companion.tb, companion.rot),
                           f"pattern on {k} strands, "
                           f"{len(pattern.events)} events")


# -- pattern file format ---------------------------------------------------

PATTERN_HEADER = "pattern v1"


def pattern_to_text(p):
    word = word_text(p.events)
    return f"{PATTERN_HEADER}\nstrands: {p.strands}\n{word}\n"


def pattern_from_text(text):
    lines = text.splitlines()
    if len(lines) < 2 or lines[0] != PATTERN_HEADER:
        raise PatternError("missing 'pattern v1' header")
    if not lines[1].startswith("strands: "):
        raise PatternError("missing 'strands:' line")
    try:
        k = ascii_decimal(lines[1][len("strands: "):])
    except ValueError:
        raise PatternError(f"bad strands line {lines[1]!r}") from None
    word = lines[2].split() if len(lines) > 2 else []
    return PatternFront(k, [Event.parse(t) for t in word])
