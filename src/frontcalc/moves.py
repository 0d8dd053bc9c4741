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

One kernel, ``_rewritten(diagram, kind, index, level, variant)``, matches
a rewrite's pattern at its site and splices the new window into the
word, or returns None on a miss; it is the only place a rewrite is
matched and applied.  ``apply_rewrite`` wraps it for callers that name a
``Rewrite`` and want a refusal explained: it raises InapplicableRewrite
with the reason.  ``random_shuffle`` calls the kernel directly, so a
missed draw costs neither a ``Rewrite`` nor an exception.  A hit still
copies the parent's word and direction tuples (``FrontDiagram._edited``),
so its cost grows with the length of the word.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .diagrams import (CROSSING, LEFT_CUSP, RIGHT_CUSP, DiagramError, L, R, X,
                       event)


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


def _match_fish(events, j):
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


def _match_pull(events, j):
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


def _match_r3(events, j):
    if j + 3 > len(events):
        return None
    a, b, c = events[j:j + 3]
    if not (a.kind == b.kind == c.kind == CROSSING):
        return None
    if a.level == c.level and abs(b.level - a.level) == 1:
        return [X(b.level), X(a.level), X(b.level)]
    return None


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


# Event pair -> its commute (b', a') or None: the package's commute table.
_SWAPS = _Table(lambda pair: _commute_pair(*pair))


# -- public operations -----------------------------------------------------

def _push_directions(diagram, j, variant):
    """Direction entries of the three events replacing the cusp at j.

    The cusp's two strands keep their directions; s is the direction of
    the strand the cusp is pushed through, found by a local walk.
    """
    ev = diagram.events[j]
    t = diagram.directions[j][0]
    if ev.kind == LEFT_CUSP:
        if variant == "down":
            s = diagram.direction_at(j, ev.level - 1)
            return ((t, -t), (-t, s), (t, s))
        s = diagram.direction_at(j, ev.level)
        return ((t, -t), (s, t), (s, -t))
    if variant == "down":
        s = diagram.direction_at(j, ev.level - 1)
        return ((s, t), (s, -t), (t, -t))
    s = diagram.direction_at(j, ev.level + 2)
    return ((-t, s), (t, s), (t, -t))


def _rewritten(diagram, kind, j, level, variant):
    """``diagram`` with the rewrite (kind, j, level, variant) applied, or
    None when the rewrite does not match there.

    Orientations are preserved, and only the rewrite's window of the word
    is rebuilt.  A variant the kind does not take is a miss.
    """
    events = diagram.events
    n = len(events)
    if not 0 <= j <= n or variant not in _VARIANTS.get(kind, ()):
        return None
    if kind == "commute":
        if j >= n - 1:
            return None
        pair = _SWAPS[events[j:j + 2]]
        if pair is None:
            return None
        dirs = diagram.directions
        return diagram._edited(j, j + 2, pair, (dirs[j + 1], dirs[j]))
    if kind == "r1_insert":
        if not 1 <= level <= diagram.strand_counts[j]:
            return None
        d = diagram.direction_at(j, level)
        if variant == "below":
            dirs = ((d, -d), (d, d), (d, -d))
        else:
            dirs = ((-d, d), (d, d), (-d, d))
        return diagram._edited(j, j, _fish_word(level, variant), dirs)
    if kind == "r1_remove":
        if _match_fish(events, j) is None:
            return None
        return diagram._edited(j, j + 3, (), ())
    if kind == "r2_push":
        rep = _push_replacement(events, diagram.strand_counts, j, variant)
        if rep is None:
            return None
        return diagram._edited(j, j + 1, rep,
                               _push_directions(diagram, j, variant))
    if kind == "r2_pull":
        rep = _match_pull(events, j)
        if rep is None:
            return None
        # the surviving cusp keeps its two strands
        cusp = j if events[j].kind == LEFT_CUSP else j + 2
        return diagram._edited(j, j + 3, rep, (diagram.directions[cusp],))
    rep = _match_r3(events, j)   # kind is "r3_triple"
    if rep is None:
        return None
    # the three strands cross pairwise in the opposite order
    return diagram._edited(j, j + 3, rep, diagram.directions[j:j + 3][::-1])


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

    Only the rewrite's window of the word is touched.  Raises
    InapplicableRewrite when the local pattern does not match, or the
    rewrite names an unknown kind or variant.
    """
    new = _rewritten(diagram, rw.kind, rw.index, rw.level, rw.variant)
    if new is None:
        raise InapplicableRewrite(rw, _miss_reason(diagram, rw))
    return new


def inverse(diagram, rw):
    """The rewrite undoing ``rw`` on ``apply_rewrite(diagram, rw)``."""
    if rw.kind in ("commute", "r3_triple"):
        return rw
    if rw.kind == "r1_insert":
        return Rewrite("r1_remove", rw.index)
    if rw.kind == "r1_remove":
        level, variant = _match_fish(diagram.events, rw.index)
        return Rewrite("r1_insert", rw.index, level, variant)
    if rw.kind == "r2_push":
        return Rewrite("r2_pull", rw.index)
    if rw.kind == "r2_pull":
        ev = diagram.events[rw.index:rw.index + 3]
        contracted = _match_pull(diagram.events, rw.index)[0]
        pattern_cusp = ev[0] if ev[0].kind == LEFT_CUSP else ev[2]
        variant = "down" if contracted.level > pattern_cusp.level else "up"
        return Rewrite("r2_push", rw.index, variant=variant)
    raise InapplicableRewrite(rw, "not invertible")


def applicable_rewrites(diagram):
    """Complete enumeration of applicable rewrites, in a fixed order."""
    events = diagram.events
    counts = diagram.strand_counts
    out = []
    for j in range(len(events) - 1):
        if _SWAPS[events[j:j + 2]] is not None:
            out.append(Rewrite("commute", j))
    for j in range(len(events) + 1):
        for level in range(1, counts[j] + 1):
            out.append(Rewrite("r1_insert", j, level, "below"))
            out.append(Rewrite("r1_insert", j, level, "above"))
    for j in range(len(events) - 2):
        if _match_fish(events, j) is not None:
            out.append(Rewrite("r1_remove", j))
    for j in range(len(events)):
        for variant in ("down", "up"):
            if _push_replacement(events, counts, j, variant) is not None:
                out.append(Rewrite("r2_push", j, variant=variant))
    for j in range(len(events) - 2):
        if _match_pull(events, j) is not None:
            out.append(Rewrite("r2_pull", j))
        if _match_r3(events, j) is not None:
            out.append(Rewrite("r3_triple", j))
    return out


def random_shuffle(diagram, steps, seed):
    """Deterministic random walk in the rewrite graph.

    Each step draws a rewrite kind and site at random and applies it if the
    pattern matches; a miss is a no-op, so the walk always terminates after
    exactly ``steps`` draws.  The result is Legendrian isotopic to the
    input by construction.
    """
    rng = random.Random(seed)
    choice, randint = rng.choice, rng.randint
    d = diagram
    for _ in range(steps):
        n = len(d.events)
        kind = choice(KINDS)
        level, variant = 0, ""
        if kind == "r1_insert":
            j = randint(0, n)
            m = d.strand_counts[j]
            if m == 0:
                continue
            level = randint(1, m)
            variant = choice(("below", "above"))
        elif n == 0:
            continue
        else:
            j = randint(0, n - 1)
            if kind == "r2_push":
                variant = choice(("down", "up"))
        new = _rewritten(d, kind, j, level, variant)
        if new is not None:
            d = new
    return d


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
