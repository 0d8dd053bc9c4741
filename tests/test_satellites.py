import random

import pytest
from hypothesis import given, settings, strategies as st

from frontcalc import catalog
from frontcalc.diagrams import FrontDiagram, L, R, X
from frontcalc.moves import random_shuffle, stabilize
from frontcalc.rulings import count_rulings
from frontcalc.satellites import (
    MAX_SCAN_CELLS, CompanionNotKnot, PatternError, PatternFront,
    ScanTooLarge, UnknownPattern, _k_copy_size, builtin_pattern, k_copy,
    pattern_from_text, pattern_to_text, satellite,
)

from helpers import random_diagram
from oracles import reference_satellite

UNKNOT = FrontDiagram([L(1), R(1)])
TREFOIL = FrontDiagram([L(1), L(3), X(2), X(2), X(2), R(1), R(1)])


def test_pattern_validation():
    with pytest.raises(PatternError):
        PatternFront(0, [])
    with pytest.raises(PatternError):
        PatternFront(2, [R(1)])
    with pytest.raises(PatternError):
        PatternFront(1, [X(1)])


def test_builtin_patterns():
    assert builtin_pattern("identity", 3).strands == 3
    assert builtin_pattern("half_twist", 4).events == (X(1),) * 4
    assert builtin_pattern("whitehead").closure_cycles() == 1
    with pytest.raises(UnknownPattern):
        builtin_pattern("nope")
    with pytest.raises(UnknownPattern):
        builtin_pattern("stab_core", 0)


@pytest.mark.parametrize("param", ["5", "xyz", 0])
def test_whitehead_takes_no_parameter(param):
    with pytest.raises(UnknownPattern, match="whitehead"):
        builtin_pattern("whitehead", param)


def test_k_copy_size_is_counted_exactly():
    for name in catalog.names():
        d = catalog.get(name).diagram
        for k in (2, 3):
            c = k_copy(d, k)
            assert _k_copy_size(d, k) == (len(c.events),
                                          max(c.strand_counts))


@pytest.mark.parametrize("build", [
    lambda: builtin_pattern("half_twist", 10 ** 9),
    lambda: builtin_pattern("identity", MAX_SCAN_CELLS + 1),
    lambda: PatternFront(MAX_SCAN_CELLS // 2, [X(1), X(1)]),
    # one strand, but 1,024 nested cusps make the scan 2,049 wide
    lambda: PatternFront(1, [L(1)] * 1024 + [R(1)] * 1024),
    lambda: k_copy(UNKNOT, 10 ** 5),
    lambda: satellite(UNKNOT, builtin_pattern("identity", 10 ** 5)),
    lambda: satellite(UNKNOT, builtin_pattern("half_twist",
                                              MAX_SCAN_CELLS // 2 - 1)),
], ids=["half_twist", "identity", "pattern", "pattern-cusps", "k_copy",
        "satellite", "satellite-twist"])
def test_oversized_words_are_refused_before_they_are_built(build):
    with pytest.raises(ScanTooLarge, match=str(MAX_SCAN_CELLS)):
        build()


def test_words_at_the_scan_limit_are_built():
    # the unknot's k-copy has k(k + 1) events and 2k strands, so it
    # takes (k(k + 1) + 1) * 2k cells: 127 fits, 128 not
    assert len(satellite(UNKNOT, builtin_pattern("identity", 127))
               .diagram.events) == 127 * 128
    with pytest.raises(ScanTooLarge):
        satellite(UNKNOT, builtin_pattern("identity", 128))


def test_closure_cycles():
    assert PatternFront(2, []).closure_cycles() == 2
    assert PatternFront(2, [X(1)]).closure_cycles() == 1
    assert PatternFront(3, [X(1), X(2)]).closure_cycles() == 1
    assert PatternFront(1, [L(1), R(2)]).closure_cycles() == 1


def test_pattern_text_roundtrip():
    p = builtin_pattern("whitehead")
    assert pattern_from_text(pattern_to_text(p)) == p
    with pytest.raises(PatternError):
        pattern_from_text("bad")


def test_non_integer_strands_line_is_pattern_error():
    for line in ("strands: x", "strands: ", "strands: 1.5"):
        with pytest.raises(PatternError, match="strands"):
            pattern_from_text(f"pattern v1\n{line}\nX1\n")


@pytest.mark.parametrize("count", ["\u0662", "2:9", "2_0",
                                   pytest.param("9" * 5000, id="5000-digits")])
def test_strands_count_is_ascii_decimal(count):
    """Only ASCII digits count strands, as in event tokens: no other
    script's digits, no trailing field, no digit separators, and no
    more digits than ``int()`` converts."""
    with pytest.raises(PatternError, match="bad strands line"):
        pattern_from_text(f"pattern v1\nstrands: {count}\nX1\n")


def test_k_copy_counts():
    d2 = k_copy(UNKNOT, 2)
    assert d2.n_components == 2
    assert d2.per_component == [(-1, 0), (-1, 0)]
    assert k_copy(TREFOIL, 1) is TREFOIL
    t2 = k_copy(TREFOIL, 2)
    assert t2.n_components == 2
    assert t2.per_component == [(1, 0), (1, 0)]
    # contact framing: each pair of copies links by the companion's tb
    assert t2.linking_number(0, 1) == TREFOIL.tb


def test_k_copy_framing_random():
    rng = random.Random(41)
    tested = 0
    while tested < 25:
        d = random_diagram(rng, max_width=4, max_events=12)
        if d.n_components != 1:
            continue
        tested += 1
        d2 = k_copy(d, 2)
        assert d2.n_components == 2
        assert d2.linking_number(0, 1) == d.tb
        assert d2.per_component == [(d.tb, d.rot)] * 2


def test_satellite_requires_knot():
    with pytest.raises(CompanionNotKnot):
        satellite(FrontDiagram([L(1), R(1), L(1), R(1)]),
                  builtin_pattern("identity", 2))


def test_identity_satellite_is_k_copy():
    for k in (1, 2, 3):
        res = satellite(TREFOIL, builtin_pattern("identity", k))
        assert res.diagram == k_copy(TREFOIL, k)
        assert res.companion_invariants == (1, 0)


def test_half_twist_satellite_of_unknot():
    res = satellite(UNKNOT, builtin_pattern("half_twist", 3))
    d = res.diagram
    assert d.n_components == 1
    assert (d.tb, d.rot) == (-1, 0)
    assert count_rulings(d) == 1


def test_stab_core_satellite_matches_stabilization():
    for sign in (1, -1):
        pat = builtin_pattern("stab_core", sign)
        res = satellite(TREFOIL, pat)
        s = stabilize(TREFOIL, sign)
        assert (res.diagram.tb, res.diagram.rot) == (s.tb, s.rot)
        assert count_rulings(res.diagram) == 0


def test_whitehead_satellite_of_unknot():
    res = satellite(UNKNOT, builtin_pattern("whitehead"))
    d = res.diagram
    assert d.n_components == 1
    assert d.rot == 0


def test_satellite_orientation_reversal_safe():
    rev = FrontDiagram(list(TREFOIL.events), ("-",))
    res = satellite(rev, builtin_pattern("half_twist", 1))
    assert res.diagram.n_components == 1


@st.composite
def pattern_words(draw, max_strands=4, max_events=12):
    """A valid pattern: k <= max_strands strands, returning to k."""
    k = draw(st.integers(1, max_strands))
    m = k
    events = []
    for _ in range(draw(st.integers(0, max_events))):
        kinds = ((["L"] if m < 2 * max_strands else [])
                 + (["X", "R"] if m >= 2 else []))
        kind = draw(st.sampled_from(kinds))
        if kind == "L":
            events.append(L(draw(st.integers(1, m + 1))))
            m += 2
        elif kind == "X":
            events.append(X(draw(st.integers(1, m - 1))))
        else:
            events.append(R(draw(st.integers(1, m - 1))))
            m -= 2
    events += [R(1)] * ((m - k) // 2) + [L(1)] * ((k - m) // 2)
    return PatternFront(k, events)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(pattern_words())
def test_satellite_components_match_closure_cycles(p):
    # the pattern scan (closure_cycles) against the diagram scan of the
    # spliced word; satellite() also checks this itself
    assert satellite(UNKNOT, p).diagram.n_components == p.closure_cycles()


SPLICE_PATTERNS = ([("identity", k) for k in (1, 2, 3)]
                   + [("half_twist", m) for m in range(4)]
                   + [("stab_core", "+"), ("stab_core", "-"),
                      ("whitehead", None)])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from(["trefoil", "m9_46", "stab_plus_trefoil"]),
       st.sampled_from("+-"), st.integers(0, 60), st.integers(0, 2 ** 16),
       st.sampled_from(SPLICE_PATTERNS))
def test_satellite_splice_matches_reference(name, symbol, steps, seed,
                                            spec):
    # a '-' companion runs leftward at its opening L1, so the splice
    # takes the lower block of rows
    d = random_shuffle(catalog.get(name).diagram, steps, seed)
    companion = FrontDiagram(d.events, (symbol,))
    pattern = builtin_pattern(*spec)
    got = satellite(companion, pattern).diagram
    want = reference_satellite(companion, pattern)
    assert got.events == want.events
    assert got.directions == want.directions


@settings(derandomize=True, max_examples=150, deadline=None)
@given(pattern_words())
def test_pattern_text_roundtrip_property(p):
    assert pattern_from_text(pattern_to_text(p)) == p


@pytest.mark.parametrize("strands, word, message", [
    (1, [X(1)], "pattern event 0 out of bounds"),
    (1, [L(3)], "pattern event 0 out of bounds"),
    (2, [L(1), X(4)], "pattern event 1 out of bounds"),
    (2, [R(1), X(1)], "pattern event 1 out of bounds"),
    (2, [R(2)], "pattern event 0 out of bounds"),
    (2, [R(1)], "pattern ends with 0 strands, started with 2"),
    (3, [L(1)], "pattern ends with 5 strands, started with 3"),
    (1, [L(1), X(2), L(4)], "pattern ends with 5 strands, started with 1"),
])
def test_invalid_pattern_messages(strands, word, message):
    with pytest.raises(PatternError) as err:
        PatternFront(strands, word)
    assert str(err.value) == message
