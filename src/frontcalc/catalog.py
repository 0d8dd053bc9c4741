"""Built-in catalog of front diagrams with pinned invariants.

Every entry freezes an explicit event word.  Where an ``expected``
record is present, the selftest recomputes tb, rot, and the normal
ruling count from scratch and demands an exact match; entries without
expectations are still round-tripped through the text format.

The entries are built once, on first use, and shared by every caller;
entries and their diagrams are immutable.
"""

from dataclasses import dataclass
from functools import cache

from .diagrams import Event, FrontDiagram, from_text, to_text
from .rulings import count_rulings


@dataclass(frozen=True, repr=False)
class CatalogEntry:
    name: str
    diagram: FrontDiagram
    expected: tuple = None   # (tb, rot, ruling count) or None
    source_note: str = ""

    def __repr__(self):
        return f"CatalogEntry({self.name!r})"


def _w(tokens):
    return [Event.parse(t) for t in tokens.split()]


# The m(9_46) entry is the plat closure of the 10-crossing braid
# s2 s4 s3 s3 s2 s4 s3 s3 s2 s4 on six strands.  This is the unique
# w = 2 knot word of its plat family with determinant 9, and its
# Kauffman bracket matches the (3,3,-3) pretzel, which pins the smooth
# type; tb = -1 is the maximum over the smooth class, which pins the
# Legendrian representative.
M946_WORD = "L1 L3 L5 X2 X4 X3 X3 X2 X4 X3 X3 X2 X4 R1 R1 R1"

# A six-strand plat presentation of the unknot whose word defeats the
# deterministic cleanup used by the filling search: with no isotopy
# budget the search finds no filling, while a budget of one exploratory
# move opens a pull cascade down to the empty diagram.  Found by
# exhaustive scan of the 10-crossing parallel-cap plat family.
BUDGET_DEMO_WORD = "L1 L3 L5 X2 X1 X3 X4 X3 X2 X2 X3 X3 X4 R1 R1 R1"


@cache
def _entries():
    unknot = FrontDiagram(_w("L1 R1"))
    trefoil = FrontDiagram(_w("L1 L3 X2 X2 X2 R1 R1"))
    out = [
        CatalogEntry(
            "unknot", unknot, (-1, 0, 1),
            "standard 2-cusp max-tb unknot front"),
        CatalogEntry(
            "trefoil", trefoil, (1, 0, 3),
            "standard max-tb right trefoil front, 3-crossing plat"),
        CatalogEntry(
            "stab_plus_unknot", FrontDiagram(_w("L1 L2 R1 R1")), (-2, 1, 0),
            "unknot with one downward zigzag stabilization"),
        CatalogEntry(
            "stab_minus_unknot", FrontDiagram(_w("L1 L1 R2 R1")), (-2, -1, 0),
            "unknot with one upward zigzag stabilization"),
        CatalogEntry(
            "stab_plus_trefoil",
            FrontDiagram(_w("L1 L2 R1 L3 X2 X2 X2 R1 R1")), (0, 1, 0),
            "right trefoil with one downward zigzag stabilization"),
        CatalogEntry(
            "stab_minus_trefoil",
            FrontDiagram(_w("L1 L1 R2 L3 X2 X2 X2 R1 R1")), (0, -1, 0),
            "right trefoil with one upward zigzag stabilization"),
        CatalogEntry(
            "unlink2", FrontDiagram(_w("L1 R1 L1 R1")), (-2, 0, 1),
            "split 2-component max-tb unlink"),
        CatalogEntry(
            "budget_demo", FrontDiagram(_w(BUDGET_DEMO_WORD)), (-1, 0, 1),
            "tangled max-tb unknot front; the greedy budget-0 filling "
            "search fails on this word, one exploratory move unlocks a "
            "disk filling (see test_acceptance)"),
        CatalogEntry(
            "m9_46", FrontDiagram(_w(M946_WORD)), (-1, 0, 2),
            "max-tb front of the slice pretzel knot, plat closure of a "
            "six-strand weave braid; smooth type certified by Kauffman "
            "bracket against the (3,3,-3) pretzel"),
    ]
    return tuple(out)


@cache
def _by_name():
    return {e.name: e for e in _entries()}


def entries():
    return list(_entries())


def names():
    return [e.name for e in _entries()]


def get(name):
    try:
        return _by_name()[name]
    except KeyError:
        raise KeyError(f"no catalog entry named {name!r}") from None


def selftest():
    """Recompute every pinned value; returns a list of (name, detail)
    failures, empty on success."""
    failures = []
    for e in _entries():
        d = e.diagram
        try:
            round_trip = from_text(to_text(d))
        except Exception as exc:
            failures.append((e.name, f"text round-trip raised {exc!r}"))
            continue
        if round_trip != d:
            failures.append((e.name, "text round-trip changed the diagram"))
        if e.expected is None:
            continue
        got = (d.tb, d.rot, count_rulings(d))
        if got != tuple(e.expected):
            failures.append(
                (e.name, f"expected {tuple(e.expected)}, recomputed {got}"))
    return failures
