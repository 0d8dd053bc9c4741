"""The package's one segment numbering against the scan it replaced.

``diagrams._Scan`` checks a word with one pass over its strand counts and
takes its segment ids from ``diagrams.segment_steps``.  ``oracles`` keeps
the scan as it was, one loop that numbered, checked and kept every gap.
On valid words both must give the same gaps, cusp and crossing pairs,
segment count and strand counts; on broken ones, the same exception
with the same message.
"""

import random
from unittest import mock

from hypothesis import given, settings, strategies as st

from frontcalc import diagrams
from frontcalc.diagrams import DiagramError, FrontDiagram, _Scan, event

from helpers import random_word
from oracles import reference_scan
from test_satellites import pattern_words

PROPERTY = settings(derandomize=True, max_examples=80, deadline=None)
SEEDS = st.integers(min_value=0, max_value=2 ** 32 - 1)


def outcome(build, events, strands):
    """What ``build(events, strands)`` gives: its scan facts, or the class
    and message of the DiagramError it raises."""
    try:
        scan = build(events, strands)
    except DiagramError as exc:
        return type(exc), str(exc)
    return (scan.gaps, scan.cusp_pair, scan.crossing_pair, scan.n_segments,
            [len(gap) for gap in scan.gaps])


def assert_scan_matches_reference(events, strands=0):
    got = outcome(_Scan, events, strands)
    assert got == outcome(reference_scan, events, strands)
    if len(got) == 2:   # both raised
        return
    scan = _Scan(events, strands)
    assert scan.counts == got[-1]
    # what each event touches, as the reference's pairs give it
    assert scan.touched == [
        (ev % 3, ev // 3 - 1,
         *(scan.cusp_pair.get(idx) or scan.crossing_pair[idx]))
        for idx, ev in enumerate(scan.events)]


def corrupted(rng, events):
    """``events`` with one level moved by 1-3, or one event dropped."""
    events = list(events)
    idx = rng.randrange(len(events))
    if rng.random() < 0.5:
        del events[idx]
    else:
        ev = events[idx]
        shift = rng.choice([-3, -2, -1, 1, 2, 3])
        level = ev.level + shift if ev.level + shift >= 1 else ev.level - shift
        events[idx] = event(ev.kind, level)
    return events


@PROPERTY
@given(SEEDS)
def test_scan_matches_reference_on_words(seed):
    rng = random.Random(seed)
    events = random_word(rng)
    assert_scan_matches_reference(events)
    d = FrontDiagram(events)
    assert list(d.strand_counts) == _Scan(events).counts
    # a spliced diagram walks its word for what each event touches
    spliced = d._edited(0, 0, (), ())
    assert spliced._touched == _Scan(events).touched
    assert spliced.orientations == d.orientations


@PROPERTY
@given(pattern_words())
def test_scan_matches_reference_on_patterns(p):
    assert_scan_matches_reference(p.events, p.strands)


@PROPERTY
@given(SEEDS, st.sampled_from([0, 1, 2, 3]))
def test_corrupt_words_raise_as_reference(seed, strands):
    rng = random.Random(seed)
    events = random_word(rng)
    for _ in range(3):
        assert_scan_matches_reference(corrupted(rng, events), strands)


@PROPERTY
@given(SEEDS, st.integers(min_value=200, max_value=400))
def test_scans_past_the_cell_limit_raise_as_reference(seed, limit):
    # words of up to 61 gaps at up to 12 strands, against a limit lowered
    # to a few hundred cells: some pass, some stop at a left cusp
    rng = random.Random(seed)
    events = random_word(rng, max_width=12, max_events=60)
    with mock.patch.object(diagrams, "MAX_SCAN_CELLS", limit):
        assert_scan_matches_reference(events)
        assert_scan_matches_reference(corrupted(rng, events))
        assert_scan_matches_reference(events, rng.randint(1, 4))
