import random

import pytest

from frontcalc.cobordism import (
    ArcSiteInvalid, CobordismError, CobordismTrace, Move, NotAdjacent,
    NotATree, NotCuspPair, NotIsolatedUnknot, OrientationClash,
    SurgeryPresentation, apply_presentation_with_sites, birth, check_trace,
    check_trace_report, death, is_tree, leaf_pinch_order, pinch,
    presentation_graph, reduce_diagram, ruling_fillability,
    search_decomposable_filling, surgery, trace_from_text, trace_to_text,
)
from frontcalc.diagrams import DiagramError, FrontDiagram, L, R, X
from frontcalc.moves import random_shuffle, stabilize
from frontcalc.rulings import enumerate_rulings

from helpers import random_diagram, random_tree_presentation, tree_presentation
from oracles import reference_scan

UNKNOT = FrontDiagram([L(1), R(1)])
TREFOIL = FrontDiagram([L(1), L(3), X(2), X(2), X(2), R(1), R(1)])


def test_pinch_splits_unknot():
    d = pinch(UNKNOT, 1, 1)
    assert list(d.events) == [L(1), R(1), L(1), R(1)]
    assert d.n_components == 2
    assert d.tb == UNKNOT.tb - 1


def test_pinch_site_checks():
    with pytest.raises(NotAdjacent):
        pinch(UNKNOT, 1, 2)
    with pytest.raises(NotAdjacent):
        pinch(UNKNOT, 5, 1)


def test_pinch_orientation_gate():
    # both trefoil strands at gap 2, levels 2, 3 run the same way
    with pytest.raises(OrientationClash):
        pinch(TREFOIL, 2, 2)
    merged = pinch(TREFOIL, 2, 2, orientable_only=False)
    assert surgery(merged, 2, 2).events == TREFOIL.events


def test_surgery_undoes_pinch():
    rng = random.Random(31)
    for _ in range(80):
        d = random_diagram(rng)
        sites = [(j, i) for j in range(len(d.events) + 1)
                 for i in range(1, d.strand_counts[j])]
        if not sites:
            continue
        j, i = sites[rng.randrange(len(sites))]
        oriented = d.direction_at(j, i) != d.direction_at(j, i + 1)
        p = pinch(d, j, i, orientable_only=False)
        if oriented:
            # the saddle laws only speak about oriented pinches; a
            # reversing band can keep the component count
            assert p.tb == d.tb - 1
            assert abs(p.n_components - d.n_components) == 1
        else:
            assert abs(p.n_components - d.n_components) <= 1
        assert surgery(p, j, i).events == d.events


def test_surgery_needs_cusp_pair():
    with pytest.raises(NotCuspPair):
        surgery(TREFOIL, 0)
    with pytest.raises(NotCuspPair):
        surgery(FrontDiagram([L(1), R(1), L(1), R(1)]), 1, level=2)


def test_birth_death_roundtrip():
    d = birth(TREFOIL, 3, 5, orient="-")
    assert d.n_components == 2
    assert d.per_component.count((-1, 0)) >= 1
    c = d.component_of_segment[reference_scan(d.events).gaps[4][4]]
    assert d.orientations[c] == "-"
    assert death(d, c) == TREFOIL


def test_death_requires_isolation():
    # the inner eye of a nested pair is isolated, the outer one is not
    d = FrontDiagram([L(1), L(2), R(2), R(1)])
    inner = d.component_of_segment[reference_scan(d.events).gaps[2][1]]
    outer = 1 - inner
    assert death(d, inner).events == (L(1), R(1))
    with pytest.raises(NotIsolatedUnknot):
        death(d, outer)
    with pytest.raises(NotIsolatedUnknot):
        death(TREFOIL, 0)


@pytest.mark.parametrize("component", [5, -1, 1.0, True, "1"])
def test_death_checks_its_component_index(component):
    unlink2 = FrontDiagram([L(1), R(1), L(1), R(1)])
    with pytest.raises(DiagramError,
                       match=r"no component .*: components are 0\.\.1"):
        death(unlink2, component)


def test_reduce_diagram_flattens_shuffles():
    for seed in range(10):
        messy = random_shuffle(UNKNOT, 40, seed=seed)
        reduced, applied = reduce_diagram(messy)
        assert list(reduced.events) == [L(1), R(1)]


def test_filling_of_unknot():
    tr = search_decomposable_filling(UNKNOT)
    assert tr is not None
    assert not tr.bottom.events and tr.top == UNKNOT
    assert tr.chi == 1 and tr.count("pinch") == 0
    assert check_trace(tr)


def test_filling_of_trefoil():
    tr = search_decomposable_filling(TREFOIL)
    assert tr is not None
    assert tr.chi == -TREFOIL.tb == -1
    assert tr.count("birth") + tr.count("death") - tr.count("pinch") \
        - tr.count("surgery") == tr.chi
    assert check_trace(tr)
    assert tr.orientable


def test_stabilized_unknot_has_no_filling():
    for sign in (1, -1):
        assert search_decomposable_filling(stabilize(UNKNOT, sign)) is None


def test_trace_text_roundtrip():
    tr = search_decomposable_filling(TREFOIL)
    text = trace_to_text(tr)
    back = trace_from_text(text)
    assert back.bottom == tr.bottom and back.top == tr.top
    assert [str(m) for m in back.moves] == [str(m) for m in tr.moves]
    assert check_trace(back)


def test_trace_text_rejects_garbage():
    from frontcalc.cobordism import CobordismError
    with pytest.raises(CobordismError):
        trace_from_text("not a trace")
    with pytest.raises(CobordismError):
        trace_from_text("trace v1\nbottom: L1 R1\norient: +\n")


def test_check_trace_report_flags_bad_moves():
    tr = CobordismTrace(UNKNOT, [Move("surgery", 0, 1)], UNKNOT)
    ok, detail = check_trace_report(tr)
    assert not ok and "move 0" in detail
    tr2 = CobordismTrace(UNKNOT, [], TREFOIL)
    ok2, detail2 = check_trace_report(tr2)
    assert not ok2 and "top" in detail2


def test_every_trefoil_ruling_is_fillable():
    for switches in enumerate_rulings(TREFOIL):
        tr = ruling_fillability(TREFOIL, switches)
        assert tr is not None, switches
        assert check_trace(tr)
        assert all(inv == (-1, 0) for inv in tr.bottom.per_component)


def test_presentation_validation():
    with pytest.raises(ArcSiteInvalid):
        SurgeryPresentation(TREFOIL, [])
    base = FrontDiagram([L(1), R(1), L(1), R(1)])
    with pytest.raises(ArcSiteInvalid):
        SurgeryPresentation(base, [(0, 1)])
    p = SurgeryPresentation(base, [(1, 1)])
    assert is_tree(p)
    assert apply_presentation_with_sites(p)[0].n_components == 1


@pytest.mark.parametrize("level", [0, -1, 1.0, "1", True])
def test_arc_level_must_be_an_int_at_the_pair(level):
    base = FrontDiagram([L(1), R(1), L(1), R(1)])
    with pytest.raises(ArcSiteInvalid):
        SurgeryPresentation(base, [(1, level)])


def test_overlapping_arcs_rejected():
    base, sites = tree_presentation([(0, 1), (0, 2)])
    p = SurgeryPresentation(base, [sites[0], sites[0]])
    with pytest.raises(ArcSiteInvalid):
        apply_presentation_with_sites(p)


def test_presentation_graph_and_trees():
    base, sites = tree_presentation([(0, 1), (1, 2), (1, 3)])
    p = SurgeryPresentation(base, sites)
    g = presentation_graph(p)
    assert sorted(g["vertices"]) == [0, 1, 2, 3]
    assert len(g["edges"]) == 3 and not g["self_arcs"]
    assert is_tree(p)
    # dropping an arc disconnects the graph
    assert not is_tree(SurgeryPresentation(base, sites[:2]))
    with pytest.raises(NotATree):
        leaf_pinch_order(SurgeryPresentation(base, sites[:2]))


def test_tree_presentations_pinch_back():
    rng = random.Random(32)
    for _ in range(25):
        n = rng.randint(1, 5)
        base, sites = random_tree_presentation(n, rng)
        p = SurgeryPresentation(base, sites)
        assert is_tree(p)
        result, adj_sites = apply_presentation_with_sites(p)
        assert result.n_components == 1
        assert result.tb == -1
        # pinching the adjusted sites in reverse restores the base word
        d = result
        for j, lvl in reversed(adj_sites):
            d = pinch(d, j, lvl, orientable_only=False)
        assert d.events == base.events
        # the leaf order is a reordering of the same arcs
        assert sorted(leaf_pinch_order(p)) == sorted(sites)


def test_search_applies_each_cleanup_rewrite_once(monkeypatch):
    from frontcalc import catalog, cobordism
    calls = []
    recorded = []
    apply_rewrite, cleanup = cobordism.apply_rewrite, cobordism._downward_cleanup

    def counting_apply(diagram, rw):
        calls.append(rw)
        return apply_rewrite(diagram, rw)

    def noting_cleanup(diagram):
        d, record = cleanup(diagram)
        recorded.extend(m for m in record if m.kind == "isotopy")
        return d, record

    monkeypatch.setattr(cobordism, "apply_rewrite", counting_apply)
    monkeypatch.setattr(cobordism, "_downward_cleanup", noting_cleanup)
    d = catalog.get("m9_46").diagram
    trace = search_decomposable_filling(d, max_pinches=3, isotopy_budget=0)
    assert recorded and len(calls) == len(recorded)
    assert trace is not None and check_trace(trace)


def test_orientable_rejects_a_pinch_off_the_diagram():
    trace = CobordismTrace(UNKNOT, [Move("pinch", 9, 1)], UNKNOT)
    assert not check_trace(trace)
    with pytest.raises(NotAdjacent):
        trace.orientable


def test_orientable_is_false_after_a_same_way_pinch():
    # both trefoil strands at gap 2, levels 2, 3 run the same way
    top = pinch(TREFOIL, 2, 2, orientable_only=False)
    trace = CobordismTrace(TREFOIL, [Move("pinch", 2, 2)], top)
    assert not trace.orientable


def test_search_cleans_each_diagram_once(monkeypatch):
    # Distinct cleanups can reach one diagram after a death, so
    # reduce_diagram may see an input twice; the cleanups themselves
    # must not, across all deepening rounds.
    from frontcalc import catalog, cobordism
    cleaned, reduced = [], []
    cleanup, reduce = cobordism._downward_cleanup, cobordism.reduce_diagram

    def noting_cleanup(diagram):
        cleaned.append(diagram)
        return cleanup(diagram)

    def noting_reduce(diagram, inverses=None):
        reduced.append(diagram)
        return reduce(diagram, inverses)

    monkeypatch.setattr(cobordism, "_downward_cleanup", noting_cleanup)
    monkeypatch.setattr(cobordism, "reduce_diagram", noting_reduce)
    d = catalog.get("budget_demo").diagram
    assert search_decomposable_filling(d, isotopy_budget=0) is None
    assert cleaned and len(set(cleaned)) == len(cleaned)
    assert set(cleaned) <= set(reduced)


def test_pinch_bound_past_the_last_new_state_costs_nothing(monkeypatch):
    # budget_demo's round with 4 pinches meets no state with none left,
    # and each of its prunes hits a state on the current path or one that
    # failed earlier in that round; deepening stops there, so a larger
    # pinch bound expands no more states.
    from frontcalc import catalog, cobordism
    sites = cobordism._pinch_sites
    d = catalog.get("budget_demo").diagram

    def calls(max_pinches):
        counted = []

        def counting_sites(diagram):
            counted.append(None)
            return sites(diagram)

        monkeypatch.setattr(cobordism, "_pinch_sites", counting_sites)
        assert search_decomposable_filling(d, max_pinches) is None
        return len(counted)

    assert calls(5) == calls(200)


def test_commute_search_runs_only_on_hits(monkeypatch):
    # A contraction that commutes expose lies in some window of _WINDOW
    # events, so the window table answers every miss of the cleanup and
    # the whole-word search runs only where it finds one.
    from frontcalc import catalog, cobordism
    hunts, found = 0, []
    hunt, search = (cobordism._find_reducing_commutes,
                    cobordism._commute_search)

    def noting_hunt(events):
        nonlocal hunts
        hunts += 1
        return hunt(events)

    def noting_search(start):
        found.append(search(start))
        return found[-1]

    monkeypatch.setattr(cobordism, "_find_reducing_commutes", noting_hunt)
    monkeypatch.setattr(cobordism, "_commute_search", noting_search)
    d = catalog.get("budget_demo").diagram
    assert search_decomposable_filling(d, isotopy_budget=0) is None
    assert found and None not in found
    assert len(found) < hunts


def test_move_text():
    from frontcalc.moves import Rewrite
    commute = Move("isotopy", rewrite=Rewrite("commute", 3))
    assert str(commute) == "isotopy commute 3 0"
    assert Move.parse(str(commute)) == commute
    push = Move("isotopy", rewrite=Rewrite("r2_push", 2, variant="up"))
    assert str(push) == "isotopy r2_push 2 0 up"
    assert str(Move("birth", 0, 1, "-")) == "birth 0@1 -"
    assert str(Move("birth", 0, 1)) == "birth 0@1"
    assert str(Move.parse("birth 0@1 x")) == "birth 0@1 x"


@pytest.mark.parametrize("line", [
    "surgery 0@1 surgery 2@1", "death 0 junk", "pinch 0@1 -",
    "birth 0@1 + junk", "isotopy commute 3 0 up junk", "surgery 0@1 2",
])
def test_move_lines_with_trailing_tokens_are_rejected(line):
    with pytest.raises(CobordismError, match="bad move line"):
        Move.parse(line)


# int() takes all of these; a move field is ASCII digits only
@pytest.mark.parametrize("line", [
    "birth \u0660@\u0661", "birth 0@1_0", "pinch -1@1",
    "pinch +1@1", "surgery 0@\uff11", "death \u0661",
    "isotopy commute \u0663 0", "isotopy commute 3 -0",
])
def test_move_fields_are_ascii_decimals(line):
    with pytest.raises(CobordismError, match="bad move line"):
        Move.parse(line)


def test_check_trace_report_names_the_move_and_its_word():
    tr = CobordismTrace(UNKNOT, [Move("surgery", 0, 1)], UNKNOT)
    ok, detail = check_trace_report(tr)
    assert not ok and detail.startswith("move 0 (surgery 0@1) failed on L1 R1: ")
    empty = FrontDiagram([])
    tr = CobordismTrace(empty, [Move.parse("birth 0@1 x")], UNKNOT)
    ok, detail = check_trace_report(tr)
    assert not ok
    assert detail == ("move 0 (birth 0@1 x) failed on the empty word: "
                      "bad orientation symbol 'x'")


def test_ruling_search_expands_a_state_once_per_round(monkeypatch):
    # Pinches at different sites commute, so one pinch set is reached in
    # every order; the search must expand the state it reaches once.
    from collections import Counter
    from frontcalc import catalog, cobordism
    from frontcalc.satellites import builtin_pattern, satellite
    d = satellite(catalog.get("trefoil").diagram,
                  builtin_pattern("identity", 2)).diagram
    root = (d.events, d.directions, (2, 5, 18, 21))
    rounds, expanded = [], Counter()
    pairings = cobordism.ruling_pairings

    def noting_pairings(diagram, switches):
        state = (diagram.events, diagram.directions, tuple(switches))
        if state == root:    # the switch-set check, then one per round
            rounds.append(state)
        expanded[len(rounds), state] += 1
        return pairings(diagram, switches)

    monkeypatch.setattr(cobordism, "ruling_pairings", noting_pairings)
    max_pinches = 4
    assert ruling_fillability(d, (2, 5, 18, 21), max_pinches) is None
    assert len(rounds) == 1 + max_pinches
    assert len(expanded) > 100
    assert set(expanded.values()) == {1}


def test_filling_search_prunes_on_the_links_rulings():
    # One component alone has no normal ruling, but the link has 9; the
    # search may prune only a state whose link has none.
    from helpers import front_fixture
    from frontcalc.rulings import count_rulings
    d = front_fixture("unruled_component")
    assert (d.tb, d.n_components, count_rulings(d)) == (4, 2, 9)
    assert count_rulings(d.component_subdiagram(1)) == 0
    trace = search_decomposable_filling(d, max_pinches=5)
    assert trace is not None and check_trace(trace)
    assert trace.chi == -d.tb == -4


def test_ruling_count_over_its_limit_prunes_nothing(monkeypatch):
    # A count stopped by the DP's state limit proves nothing, so the
    # search goes on from that state: with every count stopped, the
    # fillable knots still fill, and budget_demo still misses at budget
    # 0, where its states that have no ruling are searched to the end.
    from frontcalc import catalog, cobordism, diagrams
    from frontcalc.rulings import TooManyRulingStates
    count, stopped = cobordism.count_rulings, []

    def stopped_count(diagram):
        try:
            return count(diagram)
        except TooManyRulingStates:
            stopped.append(diagram.events)
            raise

    monkeypatch.setattr(cobordism, "count_rulings", stopped_count)
    monkeypatch.setattr(diagrams, "MAX_RULING_STATES", 0)
    for name in ("trefoil", "m9_46"):
        trace = search_decomposable_filling(catalog.get(name).diagram)
        assert trace is not None and check_trace(trace)
    assert stopped
    demo = catalog.get("budget_demo").diagram
    assert search_decomposable_filling(demo, isotopy_budget=0) is None


def test_long_shuffle_search_ends_after_few_cleanups(monkeypatch):
    # A 200-step trefoil shuffle (110 events) whose cleaned word has 106
    # orientable pinch sites in 35 runs; pinching each site of a run
    # takes the search past 100,000 cleanups.
    from helpers import front_fixture
    from frontcalc import cobordism
    cleanup, cleanups = cobordism._downward_cleanup, []

    def counting_cleanup(diagram):
        cleanups.append(None)
        return cleanup(diagram)

    monkeypatch.setattr(cobordism, "_downward_cleanup", counting_cleanup)
    d = front_fixture("trefoil_shuffle_hang")
    assert len(d.events) == 110
    assert search_decomposable_filling(d) is None
    assert len(cleanups) < 10_000


def _words_of_calls(monkeypatch, name):
    """Record the event word of every diagram ``cobordism.<name>`` sees."""
    from frontcalc import cobordism
    real, words = getattr(cobordism, name), []

    def noting(diagram, *rest):
        words.append(diagram.events)
        return real(diagram, *rest)

    monkeypatch.setattr(cobordism, name, noting)
    return words


def test_filling_search_counts_each_cleaned_word_once(monkeypatch):
    # The ruling count reads the word only, and distinct diagrams clean
    # to one word, so the prune counts each cleaned word once.
    from frontcalc import catalog
    demo = catalog.get("budget_demo").diagram
    shuffled = random_shuffle(catalog.get("trefoil").diagram, 50, seed=0)
    for d, found in ((demo, False), (shuffled, True)):
        words = _words_of_calls(monkeypatch, "count_rulings")
        trace = search_decomposable_filling(d)
        assert (trace is not None) == found
        assert len(words) > 1 and len(set(words)) == len(words)


@pytest.mark.parametrize("name", ["trefoil", "m9_46"])
def test_ruling_certificate_tests_each_word_once(monkeypatch, name):
    # Whether every component is a max-tb unknot reads the word only, so
    # the certificate's goal is tested once per word reached.
    from frontcalc import catalog
    d = catalog.get(name).diagram
    for sw in enumerate_rulings(d):
        words = _words_of_calls(monkeypatch, "_is_max_tb_unlink")
        assert ruling_fillability(d, sw) is not None
        assert len(words) > 1 and len(set(words)) == len(words)


def test_searches_build_no_segment_scan(monkeypatch):
    # Pinch sites, children and the certificate's goal are read off each
    # state's word in one pass, so no search builds a diagrams._Scan:
    # the certificates of m9_46's rulings, the trefoil 2-copy's ruling
    # 2,5,18,21 within 5 pinches, and the filling of every catalog entry.
    # Writing a certificate reads its bottom's orientation symbols off a
    # segment walk, so that builds none either.
    from frontcalc import catalog
    from frontcalc.satellites import builtin_pattern, satellite
    from helpers import count_scans
    m9_46 = catalog.get("m9_46").diagram
    rulings = enumerate_rulings(m9_46)
    copy2 = satellite(catalog.get("trefoil").diagram,
                      builtin_pattern("identity", "2")).diagram
    fronts = [e.diagram for e in catalog.entries()]
    built = count_scans(monkeypatch)
    FrontDiagram(m9_46.events)
    assert len(built) == 1     # the count sees the constructor's scan
    built.clear()
    certificates = [ruling_fillability(m9_46, sw) for sw in rulings]
    assert len(certificates) == 2 and None not in certificates
    for tr in certificates:
        assert trace_to_text(tr).startswith("trace v1\n")
    assert ruling_fillability(copy2, (2, 5, 18, 21), max_pinches=5) is None
    found = [search_decomposable_filling(d) is not None for d in fronts]
    assert any(found) and not all(found)
    assert built == []
