"""Top-level acceptance suite.

Each test pins one headline behavior of the package, with an explicit
wall-clock bound checked inside the test; the bounds are generous on
purpose so the suite stays meaningful on slow machines.
"""

import random
import time

import pytest

from frontcalc import catalog
from frontcalc.cobordism import (SurgeryPresentation,
                                 apply_presentation_with_sites, check_trace,
                                 is_tree, leaf_pinch_order, pinch,
                                 presentation_graph, ruling_fillability,
                                 search_decomposable_filling, surgery)
from frontcalc.diagrams import FrontDiagram, L, R, X
from frontcalc.moves import random_shuffle, stabilize
from frontcalc.rulings import count_rulings, enumerate_rulings
from frontcalc.satellites import builtin_pattern, satellite

from helpers import random_diagram, random_tree_presentation
from oracles import normalized_bracket_of_front


class Stopwatch:
    def __init__(self, bound):
        self.bound = bound
        self.start = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.bound, f"took {elapsed:.1f}s, bound {self.bound}s"


def test_ruling_counts():
    watch = Stopwatch(1.0)
    assert count_rulings(catalog.get("unknot").diagram) == 1
    assert count_rulings(catalog.get("trefoil").diagram) == 3
    watch.check()


def test_classical_invariants():
    watch = Stopwatch(1.0)
    expect = {
        "unknot": (-1, 0),
        "stab_plus_unknot": (-2, 1),
        "stab_minus_unknot": (-2, -1),
        "trefoil": (1, 0),
    }
    for name, (tb, rot) in expect.items():
        d = catalog.get(name).diagram
        assert (d.tb, d.rot) == (tb, rot), name
    watch.check()


def test_isotopy_invariance_of_profile():
    watch = Stopwatch(120.0)
    for entry in catalog.entries():
        d = entry.diagram
        profile = (d.tb, d.rot, d.n_components, count_rulings(d))
        for seed in range(20):
            s = random_shuffle(d, 500, seed)
            got = (s.tb, s.rot, s.n_components, count_rulings(s))
            assert got == profile, (entry.name, seed)
    watch.check()


def test_pinch_laws():
    watch = Stopwatch(60.0)
    rng = random.Random(99)
    pairs = 0
    while pairs < 1000:
        d = random_diagram(rng)
        counts = d.strand_counts
        sites = [(j, i)
                 for j in range(len(d.events) + 1)
                 for i in range(1, counts[j])
                 if d.direction_at(j, i) != d.direction_at(j, i + 1)]
        if not sites:
            continue
        j, i = rng.choice(sites)
        p = pinch(d, j, i)

        def cusps(diagram):
            return sum(1 for e in diagram.events if e.kind != "X")

        assert p.tb == d.tb - 1
        assert cusps(p) == cusps(d) + 2
        assert p.writhe == d.writhe
        assert abs(p.n_components - d.n_components) == 1
        assert surgery(p, j, i) == d
        pairs += 1
    watch.check()


def test_slice_search_on_catalog_nine_crossing_knot():
    watch = Stopwatch(60.0)
    d = catalog.get("m9_46").diagram
    trace = search_decomposable_filling(d, max_pinches=3, isotopy_budget=0)
    assert trace is not None
    # Read upward from the empty diagram: the disk's minima are births and
    # its saddles surgeries, so a death cannot occur.  Iterative deepening
    # returns the fewest saddles: one band turns m(9_46) into a 2-component
    # max-tb unlink (Ekholm-Honda-Kalman), capped by two births.
    assert trace.count("surgery") == 1
    assert trace.count("birth") == 2
    assert trace.count("death") == 0
    assert trace.chi == 1
    assert check_trace(trace)
    assert not trace.bottom.events and trace.top == d
    assert trace.orientable
    # check_trace replays with the package's own moves; the bracket oracle
    # shares no code with them.
    steps = trace.replay()
    for move, before, after in zip(trace.moves, steps, steps[1:]):
        if move.kind == "isotopy":
            assert (normalized_bracket_of_front(before)
                    == normalized_bracket_of_front(after)), move
    watch.check()


def test_stabilization_obstruction():
    watch = Stopwatch(10.0)
    for name in ("stab_plus_unknot", "stab_minus_unknot",
                 "stab_plus_trefoil", "stab_minus_trefoil"):
        d = catalog.get(name).diagram
        assert count_rulings(d) == 0, name
        assert search_decomposable_filling(d) is None, name
    watch.check()


def test_satellite_consistency():
    watch = Stopwatch(30.0)
    u = catalog.get("unknot").diagram
    tw = satellite(u, builtin_pattern("half_twist", 3)).diagram
    assert (tw.tb, tw.rot, count_rulings(tw)) == (-1, 0, 1)
    for entry in catalog.entries():
        d = entry.diagram
        if d.n_components != 1:
            continue
        for sign in (1, -1):
            res = satellite(d, builtin_pattern("stab_core", sign)).diagram
            s = stabilize(d, sign)
            assert (res.tb, res.rot) == (s.tb, s.rot), (entry.name, sign)
            assert count_rulings(res) == count_rulings(s) == 0
    watch.check()


def test_ruling_fillability_certificates():
    watch = Stopwatch(30.0)
    u = catalog.get("unknot").diagram
    (only,) = enumerate_rulings(u)
    tr = ruling_fillability(u, only)
    assert tr is not None and check_trace(tr)
    t = catalog.get("trefoil").diagram
    rulings = enumerate_rulings(t)
    assert len(rulings) == 3
    for r in rulings:
        tr = ruling_fillability(t, r)
        assert tr is not None and check_trace(tr), r
    watch.check()


def test_surgery_presentations_are_trees():
    watch = Stopwatch(60.0)
    rng = random.Random(77)
    for _ in range(30):
        n = rng.randint(1, 6)
        base, sites = random_tree_presentation(n, rng)
        p = SurgeryPresentation(base, sites)
        g = presentation_graph(p)
        assert len(g["vertices"]) == n + 1
        assert len(g["edges"]) == n and not g["self_arcs"]
        assert is_tree(p)
        result, adj_sites = apply_presentation_with_sites(p)
        assert result.n_components == 1
        d = result
        for j, lvl in reversed(adj_sites):
            d = pinch(d, j, lvl, orientable_only=False)
        assert d.events == base.events
        assert sorted(leaf_pinch_order(p)) == sorted(sites)
    watch.check()


def test_budget_dependent_search():
    watch = Stopwatch(120.0)
    entry = catalog.get("budget_demo")
    d = entry.diagram
    assert search_decomposable_filling(d, max_pinches=3,
                                       isotopy_budget=0) is None
    trace = None
    for budget in range(1, 9):
        trace = search_decomposable_filling(d, max_pinches=3,
                                            isotopy_budget=budget)
        if trace is not None:
            break
    assert trace is not None
    assert check_trace(trace)
    watch.check()
