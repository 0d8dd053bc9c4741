import hashlib
import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from frontcalc import catalog, diagrams, moves
from frontcalc.diagrams import (FrontDiagram, L, R, ScanTooLarge, X, event,
                                from_text, to_text)
from frontcalc.moves import (
    _FISH, _MATCH, _PUSH, _SWAPS, _TRIPLES, _VARIANTS, KINDS,
    InapplicableRewrite, Rewrite, _commute_pair, _drawer, _fish_word,
    _push_replacement, _rewritten, _Table, applicable_rewrites,
    apply_rewrite, inverse, random_shuffle, stabilize,
)
from frontcalc.rulings import count_rulings

from helpers import random_diagram, random_word
from oracles import (reference_match_fish, reference_match_pull,
                     reference_match_r3, reference_rewrite, reference_shuffle)

EMPTY = FrontDiagram([])
UNKNOT = FrontDiagram([L(1), R(1)])
TREFOIL = FrontDiagram([L(1), L(3), X(2), X(2), X(2), R(1), R(1)])


def profile(d):
    return (d.tb, d.rot, d.n_components, count_rulings(d))


def test_r1_insert_makes_fish():
    d = apply_rewrite(UNKNOT, Rewrite("r1_insert", 1, 1, "below"))
    assert list(d.events) == [L(1), L(2), X(1), R(2), R(1)]
    back = apply_rewrite(d, Rewrite("r1_remove", 1))
    assert back == UNKNOT


def test_r2_push_pull_roundtrip():
    rw = Rewrite("r2_push", 1, variant="down")
    d = apply_rewrite(TREFOIL, rw)
    assert len(d.events) == len(TREFOIL.events) + 2
    assert apply_rewrite(d, inverse(TREFOIL, rw)) == TREFOIL


def test_r3_triple_is_braid_relation():
    d = FrontDiagram([L(1), L(3), X(1), X(2), X(1), R(1), R(1)])
    out = apply_rewrite(d, Rewrite("r3_triple", 2))
    assert list(out.events) == [L(1), L(3), X(2), X(1), X(2), R(1), R(1)]


def test_commute_disjoint_supports_only():
    d = FrontDiagram([L(1), L(1), R(3), R(1)])
    swapped = apply_rewrite(d, Rewrite("commute", 0))
    assert swapped.events[0].kind == "L"
    with pytest.raises(InapplicableRewrite):
        apply_rewrite(TREFOIL, Rewrite("commute", 2))


def test_swap_table_is_the_commute_rule():
    events = [event(kind, level) for kind in "LRX" for level in range(1, 7)]
    for a in events:
        for b in events:
            assert _SWAPS[a, b] == _commute_pair(a, b)


# Every event at levels 1-6, and every triple of them.
EVENTS_TO_6 = [event(kind, level) for kind in "LRX" for level in range(1, 7)]
TRIPLES_TO_6 = list(itertools.product(EVENTS_TO_6, repeat=3))


def reference_triple(triple):
    """(kind, new events, fish) from each reference matcher that matches
    ``triple``; fish is the fish matcher's (level, variant), else None."""
    found = []
    fish = reference_match_fish(triple, 0)
    if fish is not None:
        found.append(("r1_remove", [], fish))
    for kind, match in (("r2_pull", reference_match_pull),
                        ("r3_triple", reference_match_r3)):
        rep = match(triple, 0)
        if rep is not None:
            found.append((kind, rep, None))
    return found


def test_triple_table_is_the_reference_matchers():
    matched = 0
    for triple in TRIPLES_TO_6:
        found = reference_triple(triple)
        assert len(found) <= 1, triple
        rule = _TRIPLES[triple]
        if not found:
            assert rule is None, triple
            continue
        matched += 1
        kind, rep, fish = found[0]
        assert rule is not None, triple
        assert (rule[0], list(rule[1])) == (kind, rep), triple
        if fish is not None:
            assert rule[3] == fish, triple
    # 10 fish, 20 pulls and 10 triple points
    assert matched == 40


def closed_word(triple):
    """A valid word: opening L1s, ``triple`` at their end, closing R1s."""
    for opened in range(1, 6):
        m = 2 * opened
        for ev in triple:
            # a left cusp opens at any of m + 1 places, the rest join two
            if ev.level > (m + 1 if ev.kind == "L" else m - 1):
                break
            m += {"L": 2, "R": -2, "X": 0}[ev.kind]
        else:
            return [L(1)] * opened + list(triple) + [R(1)] * (m // 2), opened
    raise AssertionError(triple)


def test_triple_splices_invert():
    for triple in TRIPLES_TO_6:
        if _TRIPLES[triple] is None:
            continue
        word, j = closed_word(triple)
        rw = Rewrite(_TRIPLES[triple][0], j)
        for flip in (0, 1):
            d = FrontDiagram(word)
            n = d.n_components
            d = FrontDiagram(word, ["+-"[(c + flip) % 2] for c in range(n)])
            out = apply_rewrite(d, rw)
            want = reference_rewrite(d, rw)
            assert out.events == want.events, (triple, flip)
            assert out.directions == want.directions, (triple, flip)
            back = apply_rewrite(out, inverse(d, rw))
            assert back.events == d.events, (triple, flip)
            assert back.directions == d.directions, (triple, flip)


def test_rule_table_is_bounded():
    table = _Table(str)
    for key in range(2 * _Table.LIMIT + 1):
        assert table[key] == str(key)
        assert len(table) <= _Table.LIMIT


def test_commute_is_an_involution():
    rng = random.Random(11)
    for _ in range(120):
        d = random_diagram(rng)
        for rw in applicable_rewrites(d):
            if rw.kind != "commute":
                continue
            once = apply_rewrite(d, rw)
            assert apply_rewrite(once, rw) == d


def test_inapplicable_sites_raise():
    for rw in (Rewrite("r1_remove", 0), Rewrite("r2_pull", 0),
               Rewrite("r3_triple", 0), Rewrite("nonsense", 0)):
        with pytest.raises(InapplicableRewrite):
            apply_rewrite(UNKNOT, rw)


@pytest.mark.parametrize("diagram, rw, reason", [
    (TREFOIL, Rewrite("commute", 2), "events interact"),
    (UNKNOT, Rewrite("commute", 1), "index out of range"),
    (UNKNOT, Rewrite("r1_insert", 0, 1, "below"), "no strand at site"),
    (UNKNOT, Rewrite("r1_insert", 1, 3, "above"), "no strand at site"),
    (UNKNOT, Rewrite("r1_remove", 0), "no fish pattern"),
    (UNKNOT, Rewrite("r2_push", 0, variant="down"), "cusp cannot pass"),
    (UNKNOT, Rewrite("r2_pull", 0), "no pushed-cusp pattern"),
    (TREFOIL, Rewrite("r3_triple", 2), "no triple pattern"),
    (UNKNOT, Rewrite("r1_remove", 3), "index out of range"),
    (UNKNOT, Rewrite("r3_triple", -1), "index out of range"),
    (UNKNOT, Rewrite("nonsense", 0), "unknown kind nonsense"),
    (UNKNOT, Rewrite("nonsense", 9), "index out of range"),
], ids=lambda v: str(v) if isinstance(v, Rewrite) else None)
def test_inapplicable_reasons(diagram, rw, reason):
    with pytest.raises(InapplicableRewrite) as exc:
        apply_rewrite(diagram, rw)
    assert exc.value.rewrite is rw
    assert str(exc.value) == f"rewrite {rw} does not apply: {reason}"


@pytest.mark.parametrize("rw, reason", [
    (Rewrite("r1_remove", 0), "no fish pattern"),
    (Rewrite("r2_pull", 0), "no pushed-cusp pattern"),
    (Rewrite("r1_remove", 8), "index out of range"),
    (Rewrite("r2_pull", -1), "index out of range"),
    (Rewrite("nonsense", 0), "unknown kind nonsense"),
    # kinds with an inverse whatever the site: a commute and a
    # triple-point rewrite where none matches, and three past the word
    (Rewrite("commute", 2), "events interact"),
    (Rewrite("r3_triple", 0), "no triple pattern"),
    (Rewrite("commute", 99), "index out of range"),
    (Rewrite("r1_insert", 99, 5, "below"), "index out of range"),
    (Rewrite("r2_push", 99, variant="up"), "index out of range"),
], ids=str)
def test_inverse_refuses_what_apply_rewrite_refuses(rw, reason):
    for call in (apply_rewrite, inverse):
        with pytest.raises(InapplicableRewrite) as exc:
            call(TREFOIL, rw)
        assert exc.value.rewrite is rw
        assert str(exc.value) == f"rewrite {rw} does not apply: {reason}"


def random_rewrite(rng, d):
    """A rewrite drawn over every kind, index, level and variant near the
    word's range, so that most miss; one in four is an applicable one."""
    if rng.random() < 0.25:
        applicable = applicable_rewrites(d)
        if applicable:
            return rng.choice(applicable)
    n = len(d.events)
    kind = rng.choice(KINDS + ("nonsense",))
    variants = _VARIANTS.get(kind, ("",)) + ("", "sideways")
    return Rewrite(kind, rng.randint(-1, n + 1), rng.randint(0, 7),
                   rng.choice(variants))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_inverse_raises_iff_apply_rewrite_raises(seed):
    rng = random.Random(seed)
    events = random_word(rng, max_width=6, max_events=14)
    n = FrontDiagram(events).n_components
    d = FrontDiagram(events, [rng.choice("+-") for _ in range(n)])
    for _ in range(40):
        rw = random_rewrite(rng, d)
        try:
            out = apply_rewrite(d, rw)
        except InapplicableRewrite as exc:
            with pytest.raises(InapplicableRewrite) as refused:
                inverse(d, rw)
            assert str(refused.value) == str(exc)
            continue
        back = apply_rewrite(out, inverse(d, rw))
        assert back == d, str(rw)
        assert back.strand_counts == d.strand_counts
        assert back.orientations == d.orientations


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_matchers_are_the_kernel_and_the_reference(seed):
    """Every site, level and variant of every kind, hits and misses
    alike: ``_MATCH[k]``, which the walk calls with its kind index, gives
    the splice that ``_rewritten`` gives, a hit splices in what
    ``reference_rewrite`` writes, and a miss is what it refuses."""
    rng = random.Random(seed)
    events = random_word(rng, max_width=6, max_events=10)
    n = FrontDiagram(events).n_components
    d = FrontDiagram(events, [rng.choice("+-") for _ in range(n)])
    word, dirs, counts = d.events, d.directions, d.strand_counts
    for k, kind in enumerate(KINDS):
        levels = range(max(counts) + 2) if kind == "r1_insert" else (0,)
        for j in range(len(word) + 1):
            for level in levels:
                for variant in _VARIANTS[kind]:
                    splice = _MATCH[k](word, dirs, counts, j, level, variant)
                    assert splice == _rewritten(word, dirs, counts, kind, j,
                                                level, variant)
                    rw = Rewrite(kind, j, level, variant)
                    if splice is None:
                        with pytest.raises(InapplicableRewrite):
                            reference_rewrite(d, rw)
                        continue
                    got = d._edited(*splice)
                    want = reference_rewrite(d, rw)
                    assert got.events == want.events, str(rw)
                    assert got.directions == want.directions, str(rw)


def test_fish_and_push_tables_are_their_builders():
    for level in range(1, 8):
        for variant in _VARIANTS["r1_insert"]:
            assert _FISH[level, variant] == tuple(_fish_word(level, variant))
    rng = random.Random(16)
    for _ in range(40):
        d = random_diagram(rng)
        word, counts = d.events, d.strand_counts
        for j, ev in enumerate(word):
            for variant in _VARIANTS["r2_push"]:
                rep = _push_replacement(word, counts, j, variant)
                assert _PUSH[ev, counts[j], variant] == (
                    None if rep is None else tuple(rep))


@pytest.mark.parametrize("limit", [300, 1000, 3000])
def test_shuffle_stays_within_the_scan_limit(monkeypatch, limit):
    """A walk whose word would take a scan over the limit raises
    ScanTooLarge; every other walk returns a word that reads back."""
    fronts = [catalog.get(name).diagram for name in catalog.names()]
    monkeypatch.setattr(diagrams, "MAX_SCAN_CELLS", limit)
    outcomes = set()
    for d in fronts:
        if (len(d.events) + 1) * max(d.strand_counts) > limit:
            continue
        for steps, seed in itertools.product((100, 400), range(3)):
            try:
                out = random_shuffle(d, steps, seed)
            except ScanTooLarge as exc:
                assert str(exc).endswith(f"over the limit of {limit}")
                outcomes.add("raised")
                continue
            assert from_text(to_text(out)) == out
            outcomes.add("returned")
    assert outcomes == {"raised", "returned"}


def test_shuffle_raises_iff_its_word_passes_the_limit(monkeypatch):
    # two eyes side by side: 5 gaps at 2 strands, 10 cells; commuting
    # the first R1 past the second L1 nests them, 20 cells, and a fish
    # takes at least 32
    d = FrontDiagram([L(1), R(1), L(1), R(1)])
    walks = {seed: reference_shuffle(d, 1, seed) for seed in range(80)}
    monkeypatch.setattr(diagrams, "MAX_SCAN_CELLS", 15)
    refused = set()
    for seed, want in walks.items():
        cells = (len(want.events) + 1) * max(want.strand_counts)
        if cells <= 15:
            assert random_shuffle(d, 1, seed) == want
            continue
        with pytest.raises(ScanTooLarge):
            random_shuffle(d, 1, seed)
        refused.add(len(want.events))
    # a commute that widens the word is refused as a fish is
    assert refused == {4, 7}


def test_shuffle_stops_at_the_hit_that_passes_the_limit(monkeypatch):
    """A walk is refused at the hit that takes its word past the limit,
    not when it ends: long before its last draw, with a word less than
    half again over the limit."""
    draws = []

    def counting_drawer(seed):
        below = _drawer(seed)

        def counted(n):
            draws.append(n)
            return below(n)
        return counted

    fronts = [catalog.get(name).diagram
              for name in ("unknot", "trefoil", "m9_46")]
    monkeypatch.setattr(moves, "_drawer", counting_drawer)
    monkeypatch.setattr(diagrams, "MAX_SCAN_CELLS", 1000)
    for d in fronts:
        for seed in range(5):
            draws.clear()
            with pytest.raises(ScanTooLarge) as exc:
                random_shuffle(d, 200_000, seed)
            assert 0 < len(draws) < 20_000
            cells = re.search(r"a scan of (\d+) cells", str(exc.value))
            assert 1000 < int(cells.group(1)) < 1500


def test_draws_match_choice_and_randint():
    # the draws of random_shuffle depend on CPython's private
    # _randbelow: a Python that changes it fails here, not in a sha256 pin
    sizes = [len(KINDS), 2] + list(range(1, 3001))
    for seed in range(12):
        below, rng = _drawer(seed), random.Random(seed)
        for n in sizes:
            assert KINDS[below(len(KINDS))] == rng.choice(KINDS)
            assert below(n) == rng.choice(range(n))
            assert below(n) == rng.randint(0, n - 1)
            assert 1 + below(n) == rng.randint(1, n)
            assert below(n + 1) == rng.randint(0, n)
        assert below(1 << 40) == rng.randrange(1 << 40)


def test_unknown_variants_are_refused():
    # one matching site of every kind, found on random words
    rng = random.Random(13)
    sites = {}
    while len(sites) < 6:
        d = random_diagram(rng)
        for rw in applicable_rewrites(d):
            sites.setdefault(rw.kind, (d, rw))
    for kind, (d, rw) in sites.items():
        apply_rewrite(d, rw)
        for bad in ("sideways", "" if rw.variant else "up"):
            wrong = Rewrite(kind, rw.index, rw.level, bad)
            with pytest.raises(InapplicableRewrite) as exc:
                apply_rewrite(d, wrong)
            assert str(exc.value) == (f"rewrite {wrong} does not apply: "
                                      f"unknown variant {bad!r} for {kind}")


def test_every_applicable_rewrite_preserves_invariants():
    rng = random.Random(12)
    for _ in range(40):
        d = random_diagram(rng, max_width=4, max_events=12)
        base = profile(d)
        for rw in applicable_rewrites(d):
            out = apply_rewrite(d, rw)
            assert profile(out) == base, f"{rw} broke invariants"


def test_every_applicable_rewrite_inverts():
    rng = random.Random(13)
    for _ in range(40):
        d = random_diagram(rng, max_width=4, max_events=12)
        for rw in applicable_rewrites(d):
            out = apply_rewrite(d, rw)
            assert apply_rewrite(out, inverse(d, rw)) == d, f"{rw}"


def test_shuffle_deterministic_and_invariant():
    a = random_shuffle(TREFOIL, 60, seed=4)
    b = random_shuffle(TREFOIL, 60, seed=4)
    assert a == b
    assert profile(a) == profile(TREFOIL)
    assert random_shuffle(TREFOIL, 60, seed=5) != a
    # no step, no site on the empty word, and two draws that both miss
    for d, steps, seed in ((TREFOIL, 0, 4), (EMPTY, 60, 4), (UNKNOT, 2, 0)):
        out = random_shuffle(d, steps, seed)
        assert out == d
        assert out.strand_counts == d.strand_counts
        assert out.orientations == d.orientations


# sha256 of the shuffles' text, written before the walk spliced lists in
# place: the kernel's bytes, held fixed whatever the reference shuffle in
# ``oracles`` does.
CATALOG_SHUFFLES_SHA256 = (
    "0f56a9175c921816212891e5f074b81b244bca6b320f7afb9f01c728b7c46291")
LONG_WORD_SHA256 = (
    "3e660052d4b25cb97874ee0ea278cd1af6ce46a296624f76f38398b411dc29ba")


def test_shuffle_bytes_are_pinned():
    digest = hashlib.sha256()
    for name in catalog.names():
        d = catalog.get(name).diagram
        digest.update(to_text(random_shuffle(d, 500, 11)).encode())
        digest.update(to_text(random_shuffle(d, 2000, 12)).encode())
    assert digest.hexdigest() == CATALOG_SHUFFLES_SHA256
    long_word = to_text(random_shuffle(catalog.get("m9_46").diagram, 2000, 2))
    assert hashlib.sha256(long_word.encode()).hexdigest() == LONG_WORD_SHA256


def test_shuffle_preserves_profile_on_random_inputs():
    rng = random.Random(14)
    for case in range(20):
        d = random_diagram(rng, max_width=4, max_events=10)
        out = random_shuffle(d, 40, seed=case)
        assert profile(out) == profile(d)


@pytest.mark.parametrize("sign,rot", [(1, 1), (-1, -1)])
def test_stabilize_unknot(sign, rot):
    s = stabilize(UNKNOT, sign)
    assert (s.tb, s.rot) == (-2, rot)
    assert count_rulings(s) == 0


def test_stabilize_laws_random():
    rng = random.Random(15)
    for _ in range(60):
        d = random_diagram(rng)
        for sign in (1, -1):
            s = stabilize(d, sign)
            assert s.tb == d.tb - 1
            assert s.rot == d.rot + sign
            assert s.n_components == d.n_components
