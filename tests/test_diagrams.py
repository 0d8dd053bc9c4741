import pickle
import random

import pytest

from frontcalc import satellites
from frontcalc.diagrams import (
    MAX_SCAN_CELLS, Event, FrontDiagram, L, R, X, DiagramError,
    LevelOutOfBounds, NonzeroFinalStrands, OrientationMissing, ScanTooLarge,
    _Scan, components, event, from_text, to_text,
)
from frontcalc.satellites import k_copy

from helpers import random_diagram, random_word

UNKNOT = [L(1), R(1)]
TREFOIL = [L(1), L(3), X(2), X(2), X(2), R(1), R(1)]
STAB_PLUS = [L(1), L(2), R(1), R(1)]
STAB_MINUS = [L(1), L(1), R(2), R(1)]


def test_event_parsing_roundtrip():
    for token in ("L1", "R3", "X12"):
        assert str(Event.parse(token)) == token
    with pytest.raises(DiagramError):
        Event.parse("Q1")
    with pytest.raises(DiagramError):
        Event.parse("X")
    with pytest.raises(DiagramError):
        Event("L", 0)


def test_event_is_its_code():
    for kind in "LRX":
        for level in (1, 2, 7, 40):
            ev, code = event(kind, level), 3 * level + "LRX".index(kind)
            assert int(ev) == code and ev == code and hash(ev) == hash(code)
            assert (ev.kind, ev.level) == (kind, level)
            assert str(ev) == f"{kind}{level}"
    assert repr(L(1)) == "Event(kind='L', level=1)"
    # events order by code: by level, then kind
    assert sorted([L(2), X(1), R(1), L(1)]) == [L(1), R(1), X(1), L(2)]


def test_events_are_immutable():
    ev = X(2)
    for name in ("kind", "level", "other"):
        with pytest.raises(AttributeError):
            setattr(ev, name, 1)
        with pytest.raises(AttributeError):
            delattr(ev, name)
    assert (ev.kind, ev.level, ev) == ("X", 2, 8)
    back = pickle.loads(pickle.dumps(ev))
    assert (back, back.kind, back.level) == (ev, "X", 2)


def test_parse_reads_ascii_decimal_levels_only():
    # a superscript two, an Arabic-Indic one, more digits than int() reads
    for token in ("L\u00b2", "L\u0661", "X" + "1" * 5000):
        with pytest.raises(DiagramError):
            Event.parse(token)
    assert Event.parse("R0012") is R(12)


def test_constructor_rejects_non_int_levels():
    assert L(1) is L(1)
    for level in (1.5, 1.0, "1", None, True):
        for make in (Event, event):
            with pytest.raises(DiagramError):
                make("L", level)


def test_events_are_interned():
    assert L(3) is L(3)
    assert Event.parse("X2") is X(2)
    assert event("R", 4) is R(4)
    for kind in "LRX":
        for level in (1, 2, 7):
            shared, fresh = event(kind, level), Event(kind, level)
            assert shared is not fresh
            assert shared == fresh and hash(shared) == hash(fresh)
            assert str(shared) == str(fresh) and not shared < fresh


def test_interning_keeps_validation():
    for token in ("Q1", "L0", "Lx", "R", "X-1"):
        with pytest.raises(DiagramError):
            Event.parse(token)
    for bad in (lambda: L(0), lambda: X(-2), lambda: event("Q", 1)):
        with pytest.raises(DiagramError):
            bad()
    # a refused pair is not cached: it raises again
    with pytest.raises(DiagramError):
        L(0)


def test_interning_cache_is_bounded():
    limit = event.cache_info().maxsize
    assert limit is not None
    for level in range(10 ** 6, 10 ** 6 + limit + 500):
        assert Event.parse(f"X{level}").level == level
    assert event.cache_info().currsize <= limit
    assert L(1) is L(1)


def test_strand_counts():
    counts = FrontDiagram(TREFOIL).strand_counts
    assert list(counts) == [0, 2, 4, 4, 4, 4, 2, 0]
    with pytest.raises(LevelOutOfBounds):
        FrontDiagram([L(1), X(2), R(1)]).strand_counts
    with pytest.raises(NonzeroFinalStrands):
        FrontDiagram([L(1)]).strand_counts


def test_scan_is_bounded():
    # k nested eyes: 2k + 1 gaps, 2k strands at the widest
    assert 2047 * 2046 <= MAX_SCAN_CELLS < 2049 * 2048
    assert FrontDiagram([L(1)] * 1023 + [R(1)] * 1023).n_components == 1023
    with pytest.raises(ScanTooLarge, match=str(MAX_SCAN_CELLS)) as exc:
        FrontDiagram([L(1)] * 1024 + [R(1)] * 1024)
    assert "2048 events at 2048 strands" in str(exc.value)
    # a scan that starts wider than the bound allows builds nothing
    with pytest.raises(ScanTooLarge):
        _Scan([], MAX_SCAN_CELLS + 1)
    assert satellites.ScanTooLarge is ScanTooLarge
    assert satellites.MAX_SCAN_CELLS == MAX_SCAN_CELLS


def test_orientation_count_checked():
    with pytest.raises(OrientationMissing):
        FrontDiagram(UNKNOT, ("+", "-"))
    d = FrontDiagram(UNKNOT, ("-",))
    assert d.orientations == ("-",)


def test_unknot_invariants():
    d = FrontDiagram(UNKNOT)
    assert (d.tb, d.rot) == (-1, 0)
    assert d.n_components == 1
    assert d.writhe == 0


def test_trefoil_invariants():
    d = FrontDiagram(TREFOIL)
    assert (d.tb, d.rot) == (1, 0)
    assert d.writhe == 3
    assert all(d.crossing_sign(i) == 1 for i in d.crossing_indices())


@pytest.mark.parametrize("word,rot", [(STAB_PLUS, 1), (STAB_MINUS, -1)])
def test_stabilized_unknot_invariants(word, rot):
    d = FrontDiagram(word)
    assert (d.tb, d.rot) == (-2, rot)


def test_rot_flips_with_orientation():
    plus = FrontDiagram(STAB_PLUS, ("+",))
    minus = FrontDiagram(STAB_PLUS, ("-",))
    assert plus.rot == -minus.rot == 1
    assert plus.tb == minus.tb


def test_unlink_per_component():
    d = FrontDiagram([L(1), R(1), L(1), R(1)])
    assert d.n_components == 2
    assert d.per_component == [(-1, 0), (-1, 0)]
    assert d.linking_number(0, 1) == 0


def test_linking_number_needs_distinct():
    d = FrontDiagram(UNKNOT)
    with pytest.raises(DiagramError):
        d.linking_number(0, 0)


def test_component_index_out_of_range():
    d = k_copy(FrontDiagram(TREFOIL), 2)
    assert d.n_components == 2
    for call in (lambda: d.linking_number(0, 5),
                 lambda: d.linking_number(-1, 1),
                 lambda: d.component_subdiagram(2),
                 lambda: d.component_subdiagram(-1)):
        with pytest.raises(DiagramError, match=r"component -?\d+.*0\.\.1"):
            call()


def test_component_subdiagram_of_nested_unlink():
    d = FrontDiagram([L(1), L(2), R(2), R(1)])
    assert d.n_components == 2
    for c in range(2):
        sub = d.component_subdiagram(c)
        assert sub.events == (L(1), R(1))


def test_components_partition_segments():
    d = FrontDiagram(TREFOIL)
    parts = components(d)
    assert sorted(s for part in parts for s in part) == list(range(4))


def test_classical_invariants_record():
    d = FrontDiagram(TREFOIL)
    assert (d.tb, d.rot) == (1, 0)
    assert tuple(d.per_component) == ((1, 0),)


def test_text_roundtrip_fixed():
    d = FrontDiagram(TREFOIL, ("-",))
    assert from_text(to_text(d)) == d
    assert to_text(d).startswith("frontdiagram v1\n")


def test_text_rejects_garbage():
    with pytest.raises(DiagramError):
        from_text("nope")
    with pytest.raises(DiagramError):
        from_text("frontdiagram v1\nL1 R1\n")


def test_text_roundtrip_random():
    rng = random.Random(5)
    for _ in range(200):
        d = random_diagram(rng)
        assert from_text(to_text(d)) == d


def test_random_words_validate_and_decompose():
    rng = random.Random(6)
    for _ in range(200):
        d = random_diagram(rng)
        assert sum(len(c) > 0 for c in components(d)) == d.n_components
        assert len(d.per_component) == d.n_components
        # total tb differs from the per-component sum by twice the
        # pairwise linking
        lk = sum(d.linking_number(a, b)
                 for a in range(d.n_components)
                 for b in range(a + 1, d.n_components))
        assert d.tb == sum(t for t, _ in d.per_component) + 2 * lk
        assert d.rot == sum(r for _, r in d.per_component)


def test_cusp_direction_bookkeeping():
    rng = random.Random(7)
    for _ in range(100):
        d = random_diagram(rng)
        for idx, ev in enumerate(d.events):
            if ev.kind == "X":
                continue
            top, bot = d.cusp_segments(idx)
            assert (d.segment_direction[top]
                    == -d.segment_direction[bot])


def test_equality_and_hash():
    a = FrontDiagram(UNKNOT)
    b = FrontDiagram(list(UNKNOT))
    assert a == b and hash(a) == hash(b)
    assert a != FrontDiagram(UNKNOT, ("-",))


def test_parity_checks_raise_diagram_error(monkeypatch):
    """The parity checks of rot and linking number are raises, not
    asserts, so they hold under ``python -O`` too."""
    # Both counts are even on any valid word; break the word to see it.
    broken = FrontDiagram(UNKNOT)
    broken.events += (R(1),)
    monkeypatch.setattr(FrontDiagram, "cusp_is_down",
                        lambda self, index: True)
    with pytest.raises(DiagramError, match="rot"):
        broken.rot
    hopf = FrontDiagram([L(1), L(3), X(2), X(2), R(1), R(1)])
    assert hopf.n_components == 2
    monkeypatch.setattr(FrontDiagram, "crossing_sign",
                        lambda self, index: int(index == 2))
    with pytest.raises(DiagramError, match="odd"):
        hopf.linking_number(0, 1)
