"""Shared generators for the test suite."""

import random
from pathlib import Path

from frontcalc import diagrams
from frontcalc.diagrams import (Event, FrontDiagram, L, R, X, DiagramError,
                                from_text)
from frontcalc.moves import random_shuffle

FRONTS = Path(__file__).parent / "fronts"


def front_fixture(name):
    """The diagram stored in ``tests/fronts/<name>.front``."""
    return from_text((FRONTS / f"{name}.front").read_text(encoding="utf-8"))


def count_scans(monkeypatch):
    """A list that gets the arguments of every ``diagrams._Scan`` built
    from now on, while ``monkeypatch`` lasts."""
    built = []

    class CountingScan(diagrams._Scan):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(diagrams, "_Scan", CountingScan)
    return built


def random_word(rng, max_width=6, max_events=24):
    """A random valid event word (uniform-ish, width capped)."""
    events = []
    m = 0
    while True:
        opts = []
        if m < max_width and len(events) < max_events:
            opts += ["L"] * 2
        if m >= 2:
            opts += ["X"] * 3 + ["R"] * 2
        kind = rng.choice(opts)
        if kind == "L":
            events.append(L(rng.randint(1, m + 1)))
            m += 2
        elif kind == "X":
            events.append(X(rng.randint(1, m - 1)))
        else:
            events.append(R(rng.randint(1, m - 1)))
            m -= 2
        if m == 0:
            return events


def random_diagram(rng, **kw):
    return FrontDiagram(random_word(rng, **kw))


def shuffled_random_diagrams(seed, n):
    """``n`` random words, each shuffled 0-60 steps: inputs that hold
    fishes and pulled cusps about as often as not."""
    rng = random.Random(seed)
    return [random_shuffle(random_diagram(rng), rng.randint(0, 60),
                           rng.getrandbits(32)) for _ in range(n)]


def mirror(diagram):
    """The front reflected in a vertical line: its word read right to
    left, with left and right cusps swapped at the same level."""
    swap = {"L": R, "R": L, "X": X}
    return FrontDiagram([swap[ev.kind](ev.level)
                         for ev in reversed(diagram.events)])


def tree_presentation(edges):
    """Realize a tree on nodes 0..n as an unlink-with-arcs word.

    ``edges`` are (parent, child) pairs with parent < child reachable
    from node 0.  Components with several children grow comb-shaped
    kinked right cusps so every arc is a literal ")(" site.  Returns
    (diagram, arc sites).
    """
    adj = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    children = {}
    seen = {0}
    order = [0]
    for v in order:
        for w in adj.get(v, []):
            if w not in seen:
                seen.add(w)
                children.setdefault(v, []).append(w)
                order.append(w)
    out = []
    sites = []

    def emit(node, level):
        ch = children.get(node, [])
        k = len(ch)
        out.append(L(level))
        for _ in range(k - 1):
            out.append(L(level + 1))
            out.append(X(level))
        for i, c in enumerate(ch):
            lvl = level + 1 if i < k - 1 else level
            sites.append((len(out), lvl))
            out.append(R(lvl))
            emit(c, lvl)
        if k == 0:
            out.append(R(level))

    emit(0, 1)
    return FrontDiagram(out), sites


def random_tree_presentation(n_arcs, rng):
    """A random connected presentation with n_arcs arcs on an
    (n_arcs + 1)-component unlink."""
    edges = [(rng.randrange(i), i) for i in range(1, n_arcs + 1)]
    return tree_presentation(edges)
