"""Decomposable cobordisms between front diagrams.

Elementary moves, read bottom-to-top: a birth inserts a standard 2-cusp
unknot, a death removes an isolated one, a surgery removes an adjacent
right-cusp/left-cusp pair ")(" (reconnecting four arc ends into two
parallel strands), and a pinch inserts such a pair between two vertically
adjacent strands.  Pinch and surgery are the two readings of the same
saddle; each costs -1 of Euler characteristic, births and deaths +1.

A CobordismTrace records a move sequence from a bottom diagram to a top
one.  Traces may also contain isotopy steps (rewrites from the moves
module); they cost nothing and exist so that replay is exact, since the
slice search has to tidy up with Reidemeister moves between saddles and
deaths.  The trace file format marks them with ``isotopy`` lines.

The filling search runs top-down: it pinches, frees isolated unknot
components with a deterministic reduction (pattern removals plus the
commute moves that expose them), and kills them, recording the reverse
of everything; reaching the empty diagram yields a filling trace.  It
drops a state whose link has no normal ruling.  The ruling certificate
pinches only where a normal ruling pairs two adjacent strands, until
every component is a max-tb unknot.  Both take their pinch sites from
one rule, which keeps only the orientable sites where a run of adjacency
of two segments starts, since two commutes slide a pinch along its run;
the certificate keeps those of them that its ruling pairs.  Both run one
iterative-deepening loop on the pinch count over an explicit path of
states, so no search depth sets the depth of Python's stack.  The loop
reverses the downward moves into a trace in one place, keeps one
failure table for the whole call (the most pinches left with which each
state failed, so no state is expanded twice with as few), and stops
deepening once a round cut nothing off.  The reduction's one
breadth-first hunt for commutes runs on event words, which are tuples of
int codes, and stops at the first contraction next to its last commute.
The same hunt fills a table of short windows, which answers every word
it would find nothing on, so the whole-word hunt runs only where it
hits.  Its commutes and contractions come from the two rule tables of
the moves module, ``_SWAPS`` and ``_TRIPLES``, where a contraction is any
three-event rule but a triple point, read through ``moves._contraction``
as the ruling count's contraction pass reads it; those tables and the
window table fill themselves on first lookup.  Eyes are found on the
word: a left cusp that bubbles through the commute table up to a right
cusp at its own level heads an eye, which dies where it stands, with
those commutes recorded; one filling search memoizes the cleanup of
every diagram it meets, so each distinct diagram is cleaned once.

Each search call also decides a fact that reads the event word only once
per word, in a dict that lives as long as the call.  The filling search
keeps "no normal ruling" per cleaned word, since ``count_rulings``
reads only the events and their width, and distinct diagrams clean to
one word.  The ruling certificate keeps its goal, ``_is_max_tb_unlink``,
per word: reversing a component keeps its tb and negates its rot, so
(tb, rot) = (-1, 0) holds in every orientation of a word or in none,
and the reduction and the components' words ignore directions.  It
also keeps, per component word, whether that word reduces to ``L1 R1``.

Neither search builds a segment scan for a state, and neither does
writing a trace.  Pinch sites, and the directions of their two strands,
come from one pass down the word that carries each position's direction
from the entries; each child is spliced with those directions.  The
goal takes what each event touches from one ``diagrams.segment_steps``
walk, the package's one segment numbering, and reads the components'
(tb, rot) off it with ``diagrams.per_component``.  Only when every
component is (-1, 0) does it write their words with
``diagrams.split_components``, the split that ``component_subdiagram``
reads.  It calls both on lists of its own, not through a diagram's
cached facts.  ``death`` takes its component's events from the
diagram's list and finds its eye on a walk of the word.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import moves as _moves
from .diagrams import (_KINDS, _LEFT, _RIGHT, CROSSING, LEFT_CUSP,
                       MAX_SCAN_CELLS, RIGHT_CUSP, DiagramError, FrontDiagram,
                       L, R, ScanTooLarge, ascii_decimal,
                       check_component_index, connected_components,
                       cusp_walk, event, from_lines, levels_and_kinds,
                       per_component, segment_steps, split_components,
                       word_text)
from .moves import (_SWAPS, Rewrite, _Table, _contraction, apply_rewrite,
                    inverse)
from .rulings import TooManyRulingStates, count_rulings, ruling_pairings


class CobordismError(DiagramError):
    pass


class NotAdjacent(CobordismError):
    def __init__(self, index, level):
        super().__init__(f"no adjacent strand pair at {index}@{level}")


class OrientationClash(CobordismError):
    def __init__(self, index, level):
        super().__init__(
            f"strands at {index}@{level} run the same way; "
            f"orientable pinch needs opposite directions")


class NotCuspPair(CobordismError):
    def __init__(self, index):
        super().__init__(f"events {index}, {index + 1} are not a "
                         f"right-cusp/left-cusp pair at one level")


class NotIsolatedUnknot(CobordismError):
    def __init__(self, component, reason):
        super().__init__(f"component {component} is not an isolated "
                         f"standard unknot: {reason}")


class NotATree(CobordismError):
    pass


class ArcSiteInvalid(CobordismError):
    pass


# -- elementary moves ------------------------------------------------------

def pinch(diagram, index, level, orientable_only=True):
    """Insert a ")(" cusp pair between strands level, level+1 at ``index``.

    tb drops by exactly 1, the cusp count rises by 2, the writhe is
    unchanged, and the component count changes by one either way.
    Raises NotAdjacent unless strands level, level+1 exist at that gap.
    """
    if not (0 <= index <= len(diagram.events)
            and 1 <= level <= diagram.strand_counts[index] - 1):
        raise NotAdjacent(index, level)
    up = diagram.direction_at(index, level)
    down = diagram.direction_at(index, level + 1)
    if orientable_only and up == down:
        raise OrientationClash(index, level)
    return _pinched(diagram, index, level, up, down)


def _pinched(diagram, index, level, up, down):
    """``pinch`` once checked: a ")(" pair spliced in at ``index`` between
    strands level, level + 1, which run the ways ``up`` and ``down``."""
    d = diagram._edited(index, index, (R(level), L(level)),
                        ((up, down), (up, down)))
    # A band between strands running the same way reverses part of the
    # merged component; it keeps the direction at its first left cusp.
    return d._with_orientations(d.orientations) if up == down else d


def surgery(diagram, index, level=None):
    """Remove the adjacent ")(" pair at ``index``, ``index + 1``."""
    events = diagram.events
    if not 0 <= index < len(events) - 1:
        raise NotCuspPair(index)
    a, b = events[index], events[index + 1]
    if not (a.kind == RIGHT_CUSP and b.kind == LEFT_CUSP
            and a.level == b.level):
        raise NotCuspPair(index)
    if level is not None and level != a.level:
        raise NotCuspPair(index)
    d = diagram._edited(index, index + 2, (), ())
    # the right cusp's top strand continues as the left cusp's top strand
    same_way = diagram.directions[index][0] == diagram.directions[index + 1][0]
    return d if same_way else d._with_orientations(d.orientations)


def birth(diagram, index, level, orient="+"):
    """Insert a standard unknot [L, R] at word ``index``, position ``level``."""
    counts = diagram.strand_counts
    if not 0 <= index <= len(diagram.events):
        raise CobordismError(f"birth index {index} out of range")
    if not 1 <= level <= counts[index] + 1:
        raise CobordismError(f"birth level {level} out of range at {index}")
    if orient not in ("+", "-"):
        raise DiagramError(f"bad orientation symbol {orient!r}")
    o = 1 if orient == "+" else -1
    return diagram._edited(index, index, [L(level), R(level)],
                           ((o, -o), (o, -o)))


def death(diagram, component):
    """Remove an isolated standard 2-cusp unknot component.

    The component must consist of exactly one left and one right cusp,
    and no other event may touch its two strands anywhere between them
    (strands passing entirely above or below are fine).  The component's
    events are the diagram's ``component_events``, and the eye's position
    at each gap in between is read off a segment walk of the word, with
    no scan.
    """
    events = diagram.events
    check_component_index(component, diagram.n_components)
    own = diagram.component_events(component)
    if len(own) != 2:
        raise NotIsolatedUnknot(component, f"{len(own)} events, wanted 2")
    j_left, j_right = own
    if (events[j_left].kind != LEFT_CUSP
            or events[j_right].kind != RIGHT_CUSP):
        raise NotIsolatedUnknot(component, "events are not a cusp pair")
    top = diagram.cusp_segments(j_left)[0]
    window = []
    steps, segments = segment_steps(events)
    for idx, (kind, i, _top, _bottom) in enumerate(steps):
        if idx <= j_left:
            continue
        if idx == j_right:
            break
        ev, l = events[idx], i + 1
        # the eye holds positions k, k+1 before event idx
        k = segments.index(top) + 1
        if kind == _LEFT:
            if l == k + 1:
                raise NotIsolatedUnknot(component,
                                        f"event {idx} opens inside the eye")
        elif k - 1 <= l <= k + 1:
            raise NotIsolatedUnknot(component, f"event {idx} touches the eye")
        window.append(event(_KINDS[kind], l - 2) if l > k else ev)
    # the events in between keep their strands, only their levels move
    return diagram._edited(j_left, j_right + 1, window,
                           diagram.directions[j_left + 1:j_right])


# -- traces ----------------------------------------------------------------

@dataclass(frozen=True)
class Move:
    kind: str                # birth | death | pinch | surgery | isotopy
    index: int = 0           # word index; component index for death
    level: int = 0
    orient: str = "+"        # birth only
    rewrite: Rewrite = None  # for isotopy moves

    def __str__(self):
        if self.kind == "isotopy":
            rw = self.rewrite
            text = f"isotopy {rw.kind} {rw.index} {rw.level}"
            return f"{text} {rw.variant}" if rw.variant else text
        if self.kind == "death":
            return f"death {self.index}"
        base = f"{self.kind} {self.index}@{self.level}"
        if self.kind == "birth" and self.orient != "+":
            base += f" {self.orient}"
        return base

    @staticmethod
    def parse(line):
        """Read ``isotopy K I L [V]``, ``death C``, ``pinch I@L``,
        ``surgery I@L`` or ``birth I@L [O]``; anything else raises."""
        kind, *args = line.split() or [""]
        try:
            if kind == "isotopy" and len(args) in (3, 4):
                rkind, ridx, rlvl, *variant = args
                return Move(kind, rewrite=Rewrite(
                    rkind, ascii_decimal(ridx), ascii_decimal(rlvl), *variant))
            if kind == "death" and len(args) == 1:
                return Move(kind, ascii_decimal(args[0]))
            if ((kind in ("pinch", "surgery") and len(args) == 1)
                    or (kind == "birth" and len(args) in (1, 2))):
                idx, lvl = args[0].split("@")
                return Move(kind, ascii_decimal(idx), ascii_decimal(lvl),
                            *args[1:])
        except ValueError:
            pass
        raise CobordismError(f"bad move line {line!r}")


def apply_move(diagram, move):
    if move.kind == "birth":
        return birth(diagram, move.index, move.level, move.orient)
    if move.kind == "death":
        return death(diagram, move.index)
    if move.kind == "pinch":
        return pinch(diagram, move.index, move.level)
    if move.kind == "surgery":
        return surgery(diagram, move.index, move.level)
    if move.kind == "isotopy":
        return apply_rewrite(diagram, move.rewrite)
    raise CobordismError(f"unknown move kind {move.kind!r}")


@dataclass
class CobordismTrace:
    """Moves read bottom-to-top, from ``bottom`` to ``top``.

    A trace may hold any move kind.  One returned by
    ``search_decomposable_filling`` starts from the empty diagram and
    holds only ``birth`` (a minimum of the disk), ``surgery`` (a saddle)
    and ``isotopy`` moves, never ``death`` or ``pinch``.
    """

    bottom: FrontDiagram
    moves: list
    top: FrontDiagram

    @property
    def chi(self):
        births = sum(1 for m in self.moves if m.kind in ("birth", "death"))
        saddles = sum(1 for m in self.moves if m.kind in ("pinch", "surgery"))
        return births - saddles

    def count(self, kind):
        return sum(1 for m in self.moves if m.kind == kind)

    def replay(self):
        """Intermediate diagrams, from bottom to the replayed top.

        Stages grow with the word, so a short trace can ask for far more
        than memory holds: ScanTooLarge, before the next stage is built,
        once the stages so far have more than ``MAX_SCAN_CELLS`` strand
        points (one per strand at every gap, the points a filmstrip of
        them draws).
        """
        out = [self.bottom]
        points = sum(self.bottom.strand_counts)
        for m in self.moves:
            out.append(apply_move(out[-1], m))
            points += sum(out[-1].strand_counts)
            if points > MAX_SCAN_CELLS:
                raise ScanTooLarge(
                    f"replaying a trace up to stage {len(out) - 1}", points,
                    "{} strand points")
        return out

    @property
    def orientable(self):
        try:
            self.replay()
        except OrientationClash:
            return False
        return True


def check_trace(trace):
    ok, _report = check_trace_report(trace)
    return ok


def check_trace_report(trace):
    """Replay with full precondition checks; (ok, first-failure report).

    A failure names the move's number, the move and the word it was
    applied to.
    """
    d = trace.bottom
    for n, m in enumerate(trace.moves):
        try:
            d = apply_move(d, m)
        except DiagramError as e:
            word = word_text(d.events) or "the empty word"
            return False, f"move {n} ({m}) failed on {word}: {e}"
    if d != trace.top:
        return False, "replayed top differs from recorded top"
    return True, "ok"


TRACE_HEADER = "trace v1"


def trace_to_text(trace):
    lines = [TRACE_HEADER]
    lines.append("bottom: " + word_text(trace.bottom.events))
    lines.append("orient: " + " ".join(trace.bottom.orientations))
    for m in trace.moves:
        lines.append(str(m))
    lines.append("top: " + word_text(trace.top.events))
    lines.append("orient: " + " ".join(trace.top.orientations))
    return "\n".join(lines) + "\n"


def trace_from_text(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != TRACE_HEADER:
        raise CobordismError("missing 'trace v1' header")
    if len(lines) < 5 or not lines[1].startswith("bottom:"):
        raise CobordismError("missing bottom block")
    bottom = from_lines(lines[1][len("bottom:"):], lines[2])
    if not lines[-2].startswith("top:"):
        raise CobordismError("missing top block")
    top = from_lines(lines[-2][len("top:"):], lines[-1])
    mvs = [Move.parse(ln) for ln in lines[3:-2]]
    return CobordismTrace(bottom, mvs, top)


# -- deterministic reduction ----------------------------------------------

def _first_contraction(word):
    """The leftmost length-reducing rewrite on an event word, or None."""
    for j in range(len(word) - 2):
        rule = _contraction(word[j], word[j + 1], word[j + 2])
        if rule is not None:
            return Rewrite(rule[0], j)
    return None


# How many commutes the reduction may chain to expose one contraction.
_COMMUTE_DEPTH = 3
# The widest window those commutes can act on: walking a hit's commutes
# back from its contraction's three events, drop each commute disjoint
# from the events collected so far (it cannot change them); each kept
# one adds at most one event.  So whether a word's commutes can expose a
# contraction is decided by its windows of this many events.
_WINDOW = 3 + _COMMUTE_DEPTH


def _commute_hit(start):
    """Breadth-first hunt on a word for commutes exposing a contraction.

    Visits every word within _COMMUTE_DEPTH commutes of ``start`` once,
    breadth-first, j ascending within each word, and returns (commute
    positions, contraction kind, contraction index) for the first with a
    contraction starting at j-2 .. j+2 around its last commute at j, or
    None.  Only such a contraction can be new: one elsewhere is already
    in the word it was commuted from, so by induction in ``start``.
    """
    swaps = _SWAPS
    n = len(start)
    frontier = [(start, ())]
    seen = {start}
    for _ in range(_COMMUTE_DEPTH):
        nxt = []
        for word, path in frontier:
            for j in range(n - 1):
                pair = swaps[word[j:j + 2]]
                if pair is None:
                    continue
                new = word[:j] + pair + word[j + 2:]
                if new in seen:
                    continue
                seen.add(new)
                path_j = path + (j,)
                for k in range(max(0, j - 2), min(n - 2, j + 3)):
                    rule = _contraction(*new[k:k + 3])
                    if rule is not None:
                        return path_j, rule[0], k
                nxt.append((new, path_j))
        frontier = nxt
    return None


# A window of events -> whether a word within _COMMUTE_DEPTH commutes
# inside it holds a contraction anywhere in it.
_WINDOWS = _Table(lambda window: _first_contraction(window) is not None
                  or _commute_hit(window) is not None)


def _find_reducing_commutes(events):
    """Hunt for a commute sequence exposing a contraction.

    Returns (commute rewrites, contraction rewrite) or None.  When no
    window of _WINDOW events can expose one, this is None at once;
    otherwise ``_commute_search`` runs on the whole word.
    """
    windows = _WINDOWS
    for a in range(max(1, len(events) - _WINDOW + 1)):
        if windows[events[a:a + _WINDOW]]:
            return _commute_search(events)
    return None


def _commute_search(start):
    """``_commute_hit`` on a whole event word, as rewrites.

    Returns (commute rewrites, contraction rewrite) or None.
    """
    hit = _commute_hit(start)
    if hit is None:
        return None
    path, kind, k = hit
    return [Rewrite("commute", j) for j in path], Rewrite(kind, k)


def reduce_diagram(diagram, inverses=None):
    """Shrink a diagram by removals, using commutes only to enable them.

    Returns (reduced diagram, list of applied rewrites).  Deterministic;
    the word length strictly drops with every round, so this terminates.
    When ``inverses`` is a list, the rewrite undoing each applied one is
    appended to it as that rewrite is applied.
    """
    applied = []
    d = diagram
    while True:
        rw = _first_contraction(d.events)
        if rw is not None:
            steps = [rw]
        else:
            found = _find_reducing_commutes(d.events)
            if found is None:
                return d, applied
            commutes, contraction = found
            steps = commutes + [contraction]
        for rw in steps:
            if inverses is not None:
                inverses.append(inverse(d, rw))
            d = apply_rewrite(d, rw)
            applied.append(rw)


def _kill_eye(diagram):
    """Commute the first isolated eye's two cusps until adjacent, kill it.

    Returns (diagram, downward record) or None when there is no such
    eye.  Each left cusp bubbles rightward through ``_SWAPS``; it heads
    an eye exactly when the first event it cannot pass is a right cusp
    at its bubbled level, since a commute passes only events that touch
    neither of its strands.  Eyes number their components in word order,
    so the first such cusp is the eye of least component.  Decided on the
    coded word, so an eye that cannot be isolated costs no diagram.  The
    record holds the commutes, each its own inverse, and the birth that
    undoes the death.
    """
    events = diagram.events
    for j_left, cusp in enumerate(events):
        if cusp.kind != LEFT_CUSP:
            continue
        for j_right in range(j_left + 1, len(events)):
            pair = _SWAPS[cusp, events[j_right]]
            if pair is None:
                break
            cusp = pair[1]
        if events[j_right] == R(cusp.level):
            break
    else:
        return None
    d = diagram
    record = []
    for j in range(j_left, j_right - 1):
        rw = Rewrite("commute", j)
        d = apply_rewrite(d, rw)
        record.append(Move("isotopy", rewrite=rw))
    # the eye's first segment is its left cusp's top strand
    orient = "+" if diagram.directions[j_left][0] == 1 else "-"
    # the right cusp stays in place, so the pair meets at its level
    record.append(Move("birth", j_right - 1, events[j_right].level, orient))
    # the adjacent pair goes as ``death`` would take it
    return d._edited(j_right - 1, j_right + 1, (), ()), record


# -- filling search --------------------------------------------------------

def _downward_cleanup(diagram):
    """Reduce, then kill every eye that can be made adjacent; repeat.

    Returns (diagram, downward record).  Record entries are upward
    Moves; isotopy steps store the upward rewrite.
    """
    record = []
    d = diagram
    while True:
        inverses = []
        d, _applied = reduce_diagram(d, inverses=inverses)
        record += [Move("isotopy", rewrite=rw) for rw in inverses]
        killed = _kill_eye(d)
        if killed is None:
            return d, record
        d, moves = killed
        record += moves


def _slid_level(level, ev):
    """The level of a ")(" pair at ``level`` slid right past one event.

    The slide is two commutes: the left cusp past the event ``ev``,
    then the right cusp past what that became.  Returns None unless both
    commute and give the event back (the two cusps then meet at one
    level again).  So the pair stays put beside a right cusp two levels
    below it, the (L p, R p+2) form ``_commute_pair`` refuses, and
    beside a left cusp at its own level, which the commutes move.
    """
    first = _SWAPS[L(level), ev]
    if first is None:
        return None
    moved, left = first
    second = _SWAPS[R(level), moved]
    if second is None or second[0] != ev:
        return None
    return left.level


def _repeats(level, ev):
    """Whether the pinch site at ``level`` just after event ``ev`` repeats
    the one before it: its top strand lies at level i' just before the
    event, and ``_slid_level(i', ev)`` is ``level``.  Two commutes then
    slide the ")(" pinched at i' before the event into the word pinched
    at ``level`` after it, one front.  Such a slide passes an event that
    touches neither strand of the pair, so the same two segments are
    adjacent at both gaps.
    """
    lv = ev.level
    # the top strand's level before the event, or 0 when the event opens it
    if ev.kind == CROSSING:
        before = lv + 1 if level == lv else lv if level == lv + 1 else level
    elif ev.kind == RIGHT_CUSP:
        before = level + 2 if level >= lv else level
    else:
        before = level - 2 if level > lv + 1 else 0 if level >= lv else level
    return before > 0 and _slid_level(before, ev) == level


# (level, event) -> ``_repeats(level, event)``
_REPEATS = _Table(lambda key: _repeats(*key))


def _pinch_sites(diagram):
    """Every orientable pinch site that starts its run, in word order and
    top first, as a dict from (index, level) to the directions (top,
    bottom) of the site's two strands.

    One pass down the word carries the direction of the strand at each
    position, from the entries: a left cusp inserts its entry, a crossing
    swaps two, and a right cusp deletes two.  Site (j, i), whose two
    strands run opposite ways, is skipped when it repeats the site before
    it (``_repeats(i, event j - 1)``, read from ``_REPEATS``), so both
    searches pinch only where a run of adjacency starts; runs split by
    other strands stay apart.  Only a pair at a level next to event
    j - 1 can start a run at gap j: with lv the event's level, levels
    lv - 1 .. lv + 2 after a left cusp, lv - 2 and lv - 1 after a right
    cusp, and lv - 1 .. lv + 1 after a crossing.  Any other pair repeats
    across it, so only those levels are read; gap 0 has no strands.
    """
    events, repeats = diagram.events, _REPEATS
    sites = {}
    dirs = []     # the direction of the strand at each position
    steps = zip(events, levels_and_kinds(events), diagram.directions)
    for j, (ev, (lv, kind), entry) in enumerate(steps, 1):
        if kind == _LEFT:
            dirs[lv - 1:lv - 1] = entry
            low, high = lv - 1, lv + 3
        elif kind == _RIGHT:
            del dirs[lv - 1:lv + 1]
            low, high = lv - 2, lv
        else:
            dirs[lv - 1], dirs[lv] = dirs[lv], dirs[lv - 1]
            low, high = lv - 1, lv + 2
        for i in range(max(1, low), min(len(dirs), high)):
            up, down = dirs[i - 1], dirs[i]
            if up != down and not repeats[i, ev]:
                sites[j, i] = up, down
    return sites


def _pinch_search(diagram, extra, max_pinches, settle, is_goal, children):
    """Iteratively deepen on the pinch count; a trace to ``diagram`` or None.

    A search state is a diagram and an ``extra`` part of its key.
    ``settle(d)`` normalises a reached diagram into (diagram, downward
    record), or None when it is a dead end; ``is_goal(d)`` ends the search;
    ``children(d, extra, left)`` yields (upward move, diagram, extra,
    pinches left) for each step down, with no pinch once none is left.

    Each round is a depth-first search over an explicit path of frames
    (key, pinches left, downward moves into the state, its children), so
    no bound sets the depth of Python's stack.  One failure table serves
    every round: it maps a settled state's key to the most pinches left
    with which it failed, and the round in which it did.  A state that
    fails with p pinches left fails with fewer, since it then explores a
    subset of the same steps, so a table hit prunes only failures and the
    first trace found is the one an unpruned search finds.

    Deepening stops after a round that met no state with no pinch left
    and whose every prune hit a state on the current path or one that
    failed earlier in the same round: that round then visited every
    state reachable with any number of pinches.  A prune on a failure of
    an earlier round may hide states that more pinches reach, so it
    keeps the deepening going.
    """
    failed = {}
    for pinches in range(max_pinches + 1):
        cut = False   # a state had no pinch left, or an older round pruned
        root = iter([(None, diagram, extra, pinches)])
        path = []
        on_path = set()
        while True:
            for move, d, ex, left in path[-1][3] if path else root:
                settled = settle(d)
                if settled is None:
                    continue
                d, record = settled
                key = (d.events, d.directions, ex)
                most, round_ = failed.get(key, (-1, pinches))
                if most >= left:
                    cut = cut or (round_ < pinches and key not in on_path)
                    continue
                down = record if move is None else (move, *record)
                if is_goal(d):
                    moves = [m for _k, _l, into, _c in path for m in into]
                    return CobordismTrace(d, [*moves, *down][::-1], diagram)
                cut = cut or left == 0
                on_path.add(key)
                path.append((key, left, down, children(d, ex, left)))
                break
            else:
                if not path:
                    break
                key, left, _down, _children = path.pop()
                on_path.discard(key)
                failed[key] = left, pinches
        if not cut:
            return None
    return None


def search_decomposable_filling(diagram, max_pinches=3, isotopy_budget=0):
    """Bounded top-down search for a decomposable filling.

    Iteratively deepens on the pinch count; ``isotopy_budget`` bounds the
    extra exploratory rewrites (triple-point and cusp-push moves) spent
    beyond the always-free deterministic reduction.  Returns a
    bottom-to-top CobordismTrace from the empty diagram, or None.
    Absence is not a proof: the search is diagram- and budget-dependent.

    The trace holds only ``birth`` (minimum), ``surgery`` (saddle) and
    ``isotopy`` moves, never ``death`` or ``pinch``.  Its surgery count
    is the least pinch count at which this bounded search succeeds, not a
    proven minimum for the knot.
    """
    # (events, directions) of a reached diagram -> its cleanup, (cleaned
    # diagram, downward record), or None when the cleaned diagram has no
    # normal ruling; so each distinct diagram is cleaned once.
    cleaned = {}
    # cleaned events -> whether they have no normal ruling: the count
    # reads the word only, so each cleaned word is counted once
    obstructed = {}

    def settle(d):
        state = (d.events, d.directions)
        if state not in cleaned:
            c, record = _downward_cleanup(d)
            # a filling gives the link, not each component, a normal
            # ruling (Ekholm-Honda-Kalman 2016; Fuchs 2003; Sabloff 2005)
            unruled = obstructed.get(c.events)
            if unruled is None:
                try:
                    unruled = obstructed[c.events] = count_rulings(c) == 0
                except TooManyRulingStates:
                    # a count left unfinished proves nothing: the state
                    # is searched, and the word is not marked
                    unruled = False
            cleaned[state] = None if unruled else (c, tuple(record))
        return cleaned[state]

    def children(d, budget, left):
        if left > 0:
            for (j, i), (up, down) in _pinch_sites(d).items():
                yield (Move("surgery", j, i), _pinched(d, j, i, up, down),
                       budget, left - 1)
        if budget > 0:
            for rw in _moves.applicable_rewrites(d):
                if rw.kind in ("r3_triple", "r2_push"):
                    yield (Move("isotopy", rewrite=inverse(d, rw)),
                           apply_rewrite(d, rw), budget - 1, left)

    return _pinch_search(diagram, isotopy_budget, max_pinches, settle,
                         lambda d: not d.events, children)


def _is_max_tb_unlink(diagram, unknots=None):
    """Whether every component of ``diagram`` is a max-tb unknot.

    One segment walk gives what each event touches, the cusp-graph walk
    labels the segments by component, and ``diagrams.per_component``
    reads each component's (tb, rot), which must be (-1, 0), off the
    entries.  Only when all pass does ``diagrams.split_components``, the
    split that ``component_subdiagram`` reads, write each component's
    word; each word must reduce to ``L1 R1`` (a 2-event word is that
    already).  ``unknots`` memoizes that verdict per component word for
    a caller that tests many diagrams.  The goal calls these functions
    on lists of its own rather than filling the diagram's cached facts.
    """
    events, directions = diagram.events, diagram.directions
    touched = list(segment_steps(events)[0])
    label = cusp_walk(touched)[0]
    n = max(label, default=-1) + 1
    if per_component(touched, label, n, directions).count((-1, 0)) != n:
        return False
    words, entries = split_components(touched, label, n, directions)
    if unknots is None:
        unknots = {}
    for word, own in zip(map(tuple, words), entries):
        if len(word) == 2:
            continue
        if word not in unknots:
            front = diagram._edited(0, len(events), word, own)
            unknots[word] = len(reduce_diagram(front)[0].events) == 2
        if not unknots[word]:
            return False
    return True


def ruling_fillability(diagram, switches, max_pinches=None):
    """Certify a normal ruling fillable by paired pinches, if possible.

    Pinch sites are restricted to adjacent strand pairs that the
    (descended) ruling pairs with each other, at the first gap of each
    run (a pairing persists along a run); success is reaching a
    diagram each of whose components is a max-tb unknot (components may
    stay linked in the front, as they do for the trefoil: its tb rules
    out any filling by honestly split unknots).  Returns a trace whose
    bottom is the reached unlink, or None (absence within the bound
    means unknown, not unfillable).
    """
    switches = tuple(switches)
    ruling_pairings(diagram, switches)   # reject invalid switch sets early
    if max_pinches is None:
        max_pinches = len(diagram.crossing_indices()) + diagram.n_components

    def children(d, sw, left):
        if left == 0:
            return
        pairings = ruling_pairings(d, sw)
        for (j, i), (up, down) in _pinch_sites(d).items():
            if pairings[j][i - 1] == i:
                shifted = tuple(s if s < j else s + 2 for s in sw)
                yield (Move("surgery", j, i), _pinched(d, j, i, up, down),
                       shifted, left - 1)

    # events -> whether every component is a max-tb unknot: reversing a
    # component keeps its tb and negates its rot, and the reduction
    # ignores directions, so each word is tested once
    unlinks = {}
    # a component's word -> whether it reduces to L1 R1
    unknots = {}

    def is_goal(d):
        if d.events not in unlinks:
            unlinks[d.events] = _is_max_tb_unlink(d, unknots)
        return unlinks[d.events]

    return _pinch_search(diagram, switches, max_pinches,
                         lambda d: (d, ()), is_goal, children)


# -- surgery presentations -------------------------------------------------

@dataclass
class SurgeryPresentation:
    base: FrontDiagram       # a max-tb unlink
    arcs: list               # (word index of the ")(" pair, level) on base

    def __post_init__(self):
        for tb, rot in self.base.per_component:
            if (tb, rot) != (-1, 0):
                raise ArcSiteInvalid(
                    f"base component has (tb, rot) = ({tb}, {rot}), "
                    f"wanted the max-tb unknot (-1, 0)")
        events = self.base.events
        for index, level in self.arcs:
            if not (type(index) is int and type(level) is int
                    and 0 <= index < len(events) - 1
                    and events[index].kind == RIGHT_CUSP
                    and events[index + 1].kind == LEFT_CUSP
                    and events[index].level == events[index + 1].level
                    == level):
                raise ArcSiteInvalid(f"no \")(\" pair at {index}@{level!r}")


def presentation_graph(p):
    """Incidence graph: vertices are base components, one edge per arc.

    Returns a dict with 'vertices', 'edges' (arc-ordered component
    pairs), and 'self_arcs' (arc positions whose ends meet the same
    component; these raise the genus and break tree-ness).
    """
    edges = []
    self_arcs = []
    for n, (index, level) in enumerate(p.arcs):
        right_top, _ = p.base.cusp_segments(index)
        left_top, _ = p.base.cusp_segments(index + 1)
        c1 = p.base.component_of_segment[right_top]
        c2 = p.base.component_of_segment[left_top]
        edges.append((c1, c2))
        if c1 == c2:
            self_arcs.append(n)
    return {"vertices": list(range(p.base.n_components)),
            "edges": edges, "self_arcs": self_arcs}


def is_tree(p):
    g = presentation_graph(p)
    n = len(g["vertices"])
    if g["self_arcs"] or len(g["edges"]) != n - 1:
        return False
    # n - 1 edges on n vertices make a tree exactly when they connect
    return not any(connected_components(n, g["edges"])[0])


def apply_presentation_with_sites(p):
    """Perform the surgeries in arc-list order.

    Returns (result diagram, adjusted (index, level) per arc): the index
    each pair actually had when removed, so pinching the result at the
    adjusted sites in reverse order restores the base word exactly.
    """
    d = p.base
    removed = []
    sites = []
    for index, level in p.arcs:
        if any(abs(r - index) <= 1 for r in removed):
            raise ArcSiteInvalid(f"arc at {index}@{level} used twice")
        adj = index - 2 * sum(1 for r in removed if r < index)
        d = surgery(d, adj, level)
        removed.append(index)
        sites.append((adj, level))
    return d, sites


def leaf_pinch_order(p):
    """Arcs reordered so the last is always attached at a tree leaf.

    Reversing this order pinches the surgered diagram back to the
    unlink leaf-by-leaf.  Raises NotATree when the incidence graph is
    not a tree (self-arcs included).
    """
    if not is_tree(p):
        raise NotATree("presentation graph is not a tree")
    g = presentation_graph(p)
    degree = [0] * len(g["vertices"])
    for a, b in g["edges"]:
        degree[a] += 1
        degree[b] += 1
    remaining = set(range(len(p.arcs)))
    order = []
    while remaining:
        for n in sorted(remaining):
            a, b = g["edges"][n]
            if degree[a] == 1 or degree[b] == 1:
                order.append(n)
                remaining.discard(n)
                degree[a] -= 1
                degree[b] -= 1
                break
        else:
            raise NotATree("no leaf arc found")  # unreachable on trees
    return [p.arcs[n] for n in reversed(order)]
