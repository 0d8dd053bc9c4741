"""Legendrian front rewrites on event words.

The move set generates front-generic Legendrian isotopies:

* ``commute``      - swap two adjacent events with disjoint level support
* ``r1_insert``    - grow a fish (cusp pair plus one crossing) on a strand
* ``r1_remove``    - remove a fish pattern
* ``r2_push``      - push a cusp through an adjacent strand (creates a
                     crossing pair between the cusp branches and the strand)
* ``r2_pull``      - the reverse of ``r2_push``
* ``r3_triple``    - triple-point (braid) relation on three crossings

Every rewrite preserves tb, rot, component count and ruling count; each
has an inverse in the set.  Tangencies of two plain strands are never
generated (they are not Legendrian isotopies), which is why crossing pairs
only appear and disappear next to cusps.

One kernel, ``_rewritten(events, directions, counts, kind, index, level,
variant)``, matches a rewrite's pattern at its site and returns the splice
that applies it, ``(start, stop, new_events, new_directions)``, or None on
a miss.  It checks the site's range and the variant, then calls the
kind's matcher in ``_MATCH``, a tuple with one matcher per kind in
``KINDS`` order; ``random_shuffle``, whose draws are always in range,
calls ``_MATCH`` with the kind index it drew.  Patterns of two and three
events are matched in two rule tables only: ``_SWAPS`` holds each event
pair's commute and ``_TRIPLES`` each event triple's removal, pull or
triple-point rewrite, with the inverse's level and variant.  The
matchers, ``inverse``, ``applicable_rewrites`` and the reduction in
``cobordism`` all read them.  The events a fish or a push writes come
from two more tables, ``_FISH`` by (level, variant) and ``_PUSH`` by
(cusp, strand count, variant).  The kernel reads a word, its direction
entries and its strand counts, as tuples or lists, and costs time in
the window only.  A splice is applied in one of two ways, which share
the window's strand-count step (``diagrams.window_counts``):

* ``apply_rewrite`` builds the new diagram with ``FrontDiagram._edited``,
  which copies the parent's tuples, so each call costs time linear in the
  word.  It serves callers that name a ``Rewrite`` and want a refusal
  explained: it raises InapplicableRewrite with the reason.
* ``random_shuffle`` splices each hit into three lists in place and builds
  one diagram when the walk ends, so a hit costs time in its window and a
  list shift.  A missed draw costs neither a ``Rewrite`` nor an exception.
  A walk whose word outgrows the scan limit raises ScanTooLarge.

The walk's draws cost one ``getrandbits`` call each (rarely more):
``_drawer(seed)`` returns ``below(n)``, a copy of CPython's
``Random._randbelow_with_getrandbits``, which ``Random.choice`` and
``Random.randint`` call through ``randrange``.  So
``seq[below(len(seq))]`` and ``a + below(b - a + 1)`` draw the numbers
that ``choice(seq)`` and ``randint(a, b)`` would, in the same order, and
every seeded walk keeps its bytes.

``inverse`` matches its rewrite through ``_rewritten`` first, so it
refuses exactly what ``apply_rewrite`` refuses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import diagrams
from .diagrams import (CROSSING, LEFT_CUSP, RIGHT_CUSP, DiagramError, L, R, X,
                       _Table, _too_wide, event, strand_direction,
                       window_counts)


class InapplicableRewrite(DiagramError):
    def __init__(self, rewrite, reason=""):
        self.rewrite = rewrite
        super().__init__(f"rewrite {rewrite} does not apply: {reason}")


@dataclass(frozen=True)
class Rewrite:
    kind: str
    index: int          # word index (for r1_insert: the gap)
    level: int = 0      # strand level, where meaningful
    variant: str = ""   # 'above'/'below' for r1_insert, 'up'/'down' for r2_push

    def __str__(self):
        bits = [self.kind, str(self.index)]
        if self.level:
            bits.append(f"@{self.level}")
        if self.variant:
            bits.append(self.variant)
        return ":".join(bits)


KINDS = ("commute", "r1_insert", "r1_remove", "r2_push", "r2_pull",
         "r3_triple")

# The variants each kind accepts, and why it is refused at a site in
# range with an accepted variant.
_VARIANTS = {"commute": ("",), "r1_insert": ("below", "above"),
             "r1_remove": ("",), "r2_push": ("down", "up"),
             "r2_pull": ("",), "r3_triple": ("",)}
_MISSES = {"commute": "events interact", "r1_insert": "no strand at site",
           "r1_remove": "no fish pattern", "r2_push": "cusp cannot pass",
           "r2_pull": "no pushed-cusp pattern",
           "r3_triple": "no triple pattern"}


# -- local pattern machinery ----------------------------------------------

def _fish_word(level, variant):
    """The fish gadget on a strand at ``level``, ``below`` or ``above`` it."""
    i = level
    if variant == "below":
        return [L(i + 1), X(i), R(i + 1)]
    return [L(i), X(i + 1), R(i)]


def _push_replacement(events, counts, j, variant):
    """Cusp-through-strand expansion of the single cusp event at j."""
    if j >= len(events):
        return None
    ev = events[j]
    m = counts[j]
    lvl = ev.level
    if ev.kind == LEFT_CUSP:
        if variant == "down" and lvl >= 2:
            return [L(lvl - 1), X(lvl), X(lvl - 1)]
        if variant == "up" and lvl <= m:
            return [L(lvl + 1), X(lvl), X(lvl + 1)]
    elif ev.kind == RIGHT_CUSP:
        if variant == "down" and lvl >= 2:
            return [X(lvl - 1), X(lvl), R(lvl - 1)]
        if variant == "up" and lvl <= m - 2:
            return [X(lvl + 1), X(lvl), R(lvl + 1)]
    return None


def _push_tuple(cusp, count, variant):
    """``_push_replacement`` of a lone cusp entered with ``count`` strands,
    as a tuple, or None."""
    rep = _push_replacement((cusp,), (count,), 0, variant)
    return None if rep is None else tuple(rep)


def _commute_pair(a, b):
    """Swapped pair (b', a') for adjacent events a, b, or None.

    b' is b rewritten in pre-a coordinates, a' is a rewritten after b';
    fails whenever the supports interact.  The supports are the two
    strands a cusp or crossing touches; a left cusp's support is its
    insertion point, which may coincide with another event's level
    without interacting.
    """
    la, lb = a.level, b.level
    if b.kind == LEFT_CUSP:
        if a.kind == RIGHT_CUSP:
            above, below = lb <= la - 1, lb >= la
        else:
            above, below = lb <= la, lb >= la + 2
    else:
        above = lb + 1 <= la - 1
        if a.kind == RIGHT_CUSP:
            below = lb >= la
        elif a.kind == LEFT_CUSP and b.kind == RIGHT_CUSP:
            # (L p, R p+2) and (L p+2, R p) draw the same front (a cusp
            # born in the gap the right cusp vacates) and both would swap
            # to (R p, L p); only the second form commutes, so that the
            # swap stays an involution.
            below = lb >= la + 3
        else:
            below = lb >= la + 2
    if not above and not below:
        return None
    nb = lb
    if below and a.kind == LEFT_CUSP:
        nb = lb - 2
    elif below and a.kind == RIGHT_CUSP:
        nb = lb + 2
    na = la
    if above and b.kind == LEFT_CUSP:
        na = la + 2
    elif above and b.kind == RIGHT_CUSP:
        na = la - 2
    return (event(b.kind, nb), event(a.kind, na))


def _triple_rule(a, b, c):
    """The rewrite that removes or rearranges events a, b, c, or None.

    Returns ``(kind, new_events, kept, inverse)``.  ``kind`` is
    ``r1_remove`` (a fish), ``r2_pull`` (a pushed cusp) or ``r3_triple``
    (three crossings); ``new_events`` replace the three; ``kept`` holds
    the positions (0-2) of the entries that ``new_events`` keep, in order;
    ``inverse`` is the (level, variant) of the r1_insert or r2_push undoing
    the rewrite.  Each pattern is a crossing between two events at one
    level, one strand off it; the outer events' kinds tell them apart, so
    no triple matches two.
    """
    la, lb = a.level, b.level
    if b.kind != CROSSING or c.level != la or abs(lb - la) != 1:
        return None
    if a.kind == LEFT_CUSP and c.kind == RIGHT_CUSP:
        fish = "above" if lb > la else "below"
        return "r1_remove", (), (), (min(la, lb), fish)
    # a pull keeps its cusp's two strands, and so the cusp's entry; the
    # push undoing it takes the cusp from level lb back to la
    pushed = "down" if lb > la else "up"
    if a.kind == LEFT_CUSP and c.kind == CROSSING:
        return "r2_pull", (L(lb),), (0,), (0, pushed)
    if a.kind == CROSSING and c.kind == RIGHT_CUSP:
        return "r2_pull", (R(lb),), (2,), (0, pushed)
    if a.kind == c.kind == CROSSING:
        # the three strands cross pairwise in the opposite order
        return "r3_triple", (X(lb), X(la), X(lb)), (2, 1, 0), (0, "")
    return None


# Event pair -> its commute (b', a') or None: the package's commute table.
_SWAPS = _Table(lambda pair: _commute_pair(*pair))
# Event triple -> its ``_triple_rule`` or None: the table of every
# three-event rewrite, read wherever one is matched.
_TRIPLES = _Table(lambda triple: _triple_rule(*triple))
# (level, variant) -> the fish ``_fish_word`` grows, as a tuple.
_FISH = _Table(lambda key: tuple(_fish_word(*key)))
# (cusp, strand count before it, variant) -> the ``_push_replacement``
# of that cusp, as a tuple, or None.
_PUSH = _Table(lambda key: _push_tuple(*key))


# -- public operations -----------------------------------------------------

def _push_directions(events, directions, j, variant):
    """Direction entries of the three events replacing the cusp at j.

    The cusp's two strands keep their directions; s is the direction of
    the strand the cusp is pushed through, found by a local walk.
    """
    ev = events[j]
    t = directions[j][0]
    if ev.kind == LEFT_CUSP:
        if variant == "down":
            s = strand_direction(events, directions, j, ev.level - 1)
            return ((t, -t), (-t, s), (t, s))
        s = strand_direction(events, directions, j, ev.level)
        return ((t, -t), (s, t), (s, -t))
    if variant == "down":
        s = strand_direction(events, directions, j, ev.level - 1)
        return ((s, t), (s, -t), (t, -t))
    s = strand_direction(events, directions, j, ev.level + 2)
    return ((-t, s), (t, s), (t, -t))


def _match_commute(events, directions, counts, j, level, variant):
    if j >= len(events) - 1:
        return None
    pair = _SWAPS[events[j], events[j + 1]]
    if pair is None:
        return None
    return j, j + 2, pair, (directions[j + 1], directions[j])


def _match_insert(events, directions, counts, j, level, variant):
    if not 1 <= level <= counts[j]:
        return None
    d = strand_direction(events, directions, j, level)
    if variant == "below":
        dirs = ((d, -d), (d, d), (d, -d))
    else:
        dirs = ((-d, d), (d, d), (-d, d))
    return j, j, _FISH[level, variant], dirs


def _match_push(events, directions, counts, j, level, variant):
    if j >= len(events):
        return None
    rep = _PUSH[events[j], counts[j], variant]
    if rep is None:
        return None
    return j, j + 1, rep, _push_directions(events, directions, j, variant)


def _triple_matcher(kind):
    """The matcher of ``kind``, one of the three-event rewrites: a hit
    is a ``_TRIPLES`` rule of that kind."""
    def match(events, directions, counts, j, level, variant):
        if j + 3 > len(events):
            return None
        rule = _TRIPLES[events[j], events[j + 1], events[j + 2]]
        if rule is None or rule[0] != kind:
            return None
        return j, j + 3, rule[1], [directions[j + k] for k in rule[2]]
    return match


# One matcher per kind, in ``KINDS`` order:
# ``match(events, directions, counts, j, level, variant)`` is the splice
# of ``_rewritten`` for a site 0 <= j <= len(events) and a variant the
# kind takes.
_MATCH = (_match_commute, _match_insert, _triple_matcher("r1_remove"),
          _match_push, _triple_matcher("r2_pull"),
          _triple_matcher("r3_triple"))


def _rewritten(events, directions, counts, kind, j, level, variant):
    """The splice ``(start, stop, new_events, new_directions)`` that
    applies the rewrite (kind, j, level, variant) to a word, or None when
    the rewrite does not match there.

    ``events``, ``directions`` and ``counts`` are a diagram's word, its
    direction entries and its strand counts, as tuples or lists; they are
    only read.  The splice replaces ``events[start:stop]`` and the same
    entries, and preserves orientations.  A variant the kind does not
    take is a miss.
    """
    if not 0 <= j <= len(events) or variant not in _VARIANTS.get(kind, ()):
        return None
    return _MATCH[KINDS.index(kind)](events, directions, counts, j, level,
                                     variant)


def _miss_reason(diagram, rw):
    """Why ``_rewritten`` refuses ``rw`` on ``diagram``."""
    n = len(diagram.events)
    if not 0 <= rw.index <= n or (rw.kind == "commute" and rw.index >= n - 1):
        return "index out of range"
    if rw.kind not in _VARIANTS:
        return f"unknown kind {rw.kind}"
    if rw.variant not in _VARIANTS[rw.kind]:
        return f"unknown variant {rw.variant!r} for {rw.kind}"
    return _MISSES[rw.kind]


def apply_rewrite(diagram, rw):
    """Apply a rewrite, preserving component orientations.

    Only the rewrite's window of the word is matched and built.  Raises
    InapplicableRewrite when the local pattern does not match, or the
    rewrite names an unknown kind or variant.
    """
    splice = _rewritten(diagram.events, diagram.directions,
                        diagram.strand_counts, rw.kind, rw.index, rw.level,
                        rw.variant)
    if splice is None:
        raise InapplicableRewrite(rw, _miss_reason(diagram, rw))
    return diagram._edited(*splice)


def inverse(diagram, rw):
    """The rewrite undoing ``rw`` on ``apply_rewrite(diagram, rw)``.

    ``rw`` is matched by ``_rewritten``, as in ``apply_rewrite``, so
    exactly the rewrites that ``apply_rewrite`` refuses raise
    InapplicableRewrite here, with its reason.
    """
    kind, j, events = rw.kind, rw.index, diagram.events
    if _rewritten(events, diagram.directions, diagram.strand_counts, kind,
                  j, rw.level, rw.variant) is None:
        raise InapplicableRewrite(rw, _miss_reason(diagram, rw))
    if kind in ("commute", "r3_triple"):
        return rw
    if kind == "r1_insert":
        return Rewrite("r1_remove", j)
    if kind == "r2_push":
        return Rewrite("r2_pull", j)
    # kind is r1_remove or r2_pull
    rule = _TRIPLES[events[j], events[j + 1], events[j + 2]]
    undone = "r1_insert" if kind == "r1_remove" else "r2_push"
    return Rewrite(undone, j, *rule[3])


def applicable_rewrites(diagram):
    """Complete enumeration of applicable rewrites, in a fixed order."""
    events = diagram.events
    counts = diagram.strand_counts
    out = []
    for j in range(len(events) - 1):
        if _SWAPS[events[j], events[j + 1]] is not None:
            out.append(Rewrite("commute", j))
    for j in range(len(events) + 1):
        for level in range(1, counts[j] + 1):
            out.append(Rewrite("r1_insert", j, level, "below"))
            out.append(Rewrite("r1_insert", j, level, "above"))
    triples = [_TRIPLES[events[j:j + 3]] for j in range(len(events) - 2)]
    for j, rule in enumerate(triples):
        if rule is not None and rule[0] == "r1_remove":
            out.append(Rewrite("r1_remove", j))
    for j in range(len(events)):
        for variant in ("down", "up"):
            if _push_replacement(events, counts, j, variant) is not None:
                out.append(Rewrite("r2_push", j, variant=variant))
    for j, rule in enumerate(triples):
        if rule is not None and rule[0] != "r1_remove":
            out.append(Rewrite(rule[0], j))
    return out


def _drawer(seed):
    """``below(n)``, a draw from ``range(n)`` for n >= 1, made by
    ``random.Random(seed)``.

    ``below`` is CPython's ``Random._randbelow_with_getrandbits``: it
    draws ``n.bit_length()`` bits until they spell a number below n.  On
    one seed, ``seq[below(len(seq))]`` and ``a + below(b - a + 1)`` then
    give the numbers that ``choice(seq)`` and ``randint(a, b)`` give, in
    the same order, without their two to four Python calls per draw.
    ``tests/test_moves.py`` compares the two on many seeds.
    """
    getrandbits = random.Random(seed).getrandbits

    def below(n):
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    return below


def random_shuffle(diagram, steps, seed):
    """Deterministic random walk in the rewrite graph.

    Each step draws a rewrite kind and site at random and applies it if the
    pattern matches; a miss is a no-op, so the walk always terminates after
    exactly ``steps`` draws.  The result is Legendrian isotopic to the
    input by construction.

    The draws are those of ``random.Random(seed)``'s ``choice`` and
    ``randint``, made at ``getrandbits`` cost through ``below`` from
    ``_drawer(seed)``, which copies the algorithm both of them call; so
    a seed gives the walk it gave when the walk called them.

    The walk splices each hit into lists of the word, its direction
    entries and its strand counts, and builds one diagram at the end; a
    walk with no hit returns ``diagram`` itself.  Each draw's kind index
    picks its matcher in ``_MATCH``: the draws are always in range.

    Raises ScanTooLarge once the word's scan, (events + 1) times its
    widest strand count, would pass ``diagrams.MAX_SCAN_CELLS``, the
    limit of every scan: a hit that grows the word is tested, and the
    word the walk ends with.
    """
    below = _drawer(seed)
    n_kinds = len(KINDS)
    insert, push = KINDS.index("r1_insert"), KINDS.index("r2_push")
    limit = diagrams.MAX_SCAN_CELLS
    events = list(diagram.events)
    dirs = list(diagram.directions)
    counts = list(diagram.strand_counts)
    # at least the widest count that a hit growing the word has written
    widest = max(counts)
    hit = False
    for _ in range(steps):
        n = len(events)
        k = below(n_kinds)
        level, variant = 0, ""
        if k == insert:
            j = below(n + 1)
            m = counts[j]
            if m == 0:
                continue
            level = 1 + below(m)
            variant = ("below", "above")[below(2)]
        elif n == 0:
            continue
        else:
            j = below(n)
            if k == push:
                variant = ("down", "up")[below(2)]
        splice = _MATCH[k](events, dirs, counts, j, level, variant)
        if splice is None:
            continue
        start, stop, new_events, new_dirs = splice
        m = counts[start]
        counts[start:stop + 1] = window_counts(m, new_events)
        events[start:stop] = new_events
        dirs[start:stop] = new_dirs
        hit = True
        if len(new_events) > stop - start:
            # a window's counts reach at most two above its first
            if m + 2 > widest:
                widest = m + 2
            if (len(events) + 1) * widest > limit:
                widest = max(counts)
                if (len(events) + 1) * widest > limit:
                    _too_wide(events, widest)
    if not hit:
        return diagram
    # a hit that keeps the word's length can widen it too
    if (len(events) + 1) * max(counts) > limit:
        _too_wide(events, max(counts))
    # the whole word is the window
    return diagram._edited(0, len(diagram.events), events, dirs)


def stabilize(diagram, sign):
    """Zigzag stabilization: tb drops by 1, rot shifts by ``sign``.

    The zigzag is inserted at gap 1 on the top strand of the word's
    opening ``L1``; the gadget (above or below the strand) is chosen from
    the strand direction so the two new cusps are both down (+) or both
    up (-).
    """
    if sign not in (1, -1):
        raise DiagramError("sign must be +1 or -1")
    if not diagram.events:
        raise DiagramError("cannot stabilize an empty diagram")
    d = diagram.directions[0][0]
    # rightward strand: below-zigzag adds two down cusps (S+)
    if (d == 1) == (sign == 1):
        return diagram._edited(1, 1, [L(2), R(1)], ((-d, d), (d, -d)))
    return diagram._edited(1, 1, [L(1), R(2)], ((d, -d), (-d, d)))
