"""The three benchmark workloads: seeded inputs, operations and checks.

Every workload is a closed loop with one client.  Its operations come in
rounds of fixed composition, and a run always measures whole rounds, so
runs with different seeds do the same mix of work on different inputs.

Each operation checks its answer against facts that the code under test
does not compute itself:

* the catalog's pinned (tb, rot, ruling count), copied into ``TRUTH``;
* Chantraine's relation chi(L) = -tb(top) for exact fillings;
* a front with no normal ruling has no filling (filling -> augmentation
  -> ruling), so a stabilized input must come back without a trace;
* a pinch lowers tb by exactly one;
* ``count_rulings`` equals the number of rulings enumerated;
* contact push-offs link each other tb(companion) times;
* the satellite formula of Ng and Traynor for tb and rot.

A check that fails raises WrongAnswer.  Any exception marks the
operation failed; the run goes on.

Why these workloads, and what each leaves out:

* ``isotopy`` (write-heavy) hammers ``moves.apply_rewrite`` and
  ``FrontDiagram`` construction.  Word length is its traffic dimension:
  about 300 events after 500 shuffle steps and about 1150 after 2000,
  which shows whether a rewrite costs O(word) or O(window).  It bypasses
  the filling search and ruling enumeration.
* ``filling`` (search) is the only workload that runs ``cobordism``
  (the search and the commute BFS of ``reduce_diagram``) and the
  ``cli``.  Its costs spread from a CLI-bound unknot search to the
  exhaustive budget-0 miss on ``budget_demo``.  It bypasses satellites
  and wide ruling enumeration.
* ``rulings_wide`` (read-heavy) spends most of its time in ``rulings``,
  mostly in the non-merging enumeration of satellites.  It builds a few
  large diagrams and does no rewrites, so work made lazy in
  ``FrontDiagram`` to cheapen rewrites shows up here as a cost.  The
  long-word enumeration ops raise RecursionError at the time of writing
  (``enumerate_rulings`` recurses once per event); they stay in the mix
  and count as failed.  The 3-copy of ``m9_46`` (18 strands) is left
  out because ``count_rulings`` alone takes about 45 s on it, longer
  than a run, not because its answer is wrong.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from dataclasses import dataclass

# name -> (tb, rot, normal rulings, components), as pinned in the catalog.
TRUTH = {
    "unknot": (-1, 0, 1, 1),
    "trefoil": (1, 0, 3, 1),
    "stab_plus_unknot": (-2, 1, 0, 1),
    "stab_minus_unknot": (-2, -1, 0, 1),
    "stab_plus_trefoil": (0, 1, 0, 1),
    "stab_minus_trefoil": (0, -1, 0, 1),
    "unlink2": (-2, 0, 1, 2),
    "budget_demo": (-1, 0, 1, 1),
    "m9_46": (-1, 0, 2, 1),
}
# Every unlink2 component is a max-tb unknot.
COMPONENT_TRUTH = {"unlink2": [(-1, 0), (-1, 0)]}

ISOTOPY_STEPS = (500, 2000)
FILLABLE = ("unknot", "trefoil", "unlink2", "m9_46")
FILLABLE_STEPS = (0, 50, 200)
STABILIZED = ("stab_plus_unknot", "stab_minus_unknot", "stab_plus_trefoil",
              "stab_minus_trefoil")
STABILIZED_STEPS = (0, 200)
BUDGETS = (0, 1, 2)
# Two fixed filling inputs run this many extra times per round:
# budget_demo at budget 0, so that a run holds well over 10 of them and
# the tail percentile lands on them; and the m9_46 ruling certificates,
# so that the median op is one of them rather than whichever shuffled
# input happens to land there.
EXTRA_RUNS = 2
# Rounds take turns among this many sets of shuffled filling inputs, so
# that a run's median rests on many random words, not on a dozen.
FILLING_VARIANTS = 4
RULED = ("trefoil", "m9_46")
COMPANIONS = ("trefoil", "m9_46", "stab_plus_trefoil")
# m = 2, 3 cover both parities and cost alike, so the median op of a
# round is always a trefoil 2-copy.
HALF_TWISTS = (2, 3)
# The long word is one fixed 2000-step shuffle of m9_46 (1270 events),
# not a seeded one: its set-up cost would otherwise swing with the seed.
LONG_WORD_STEPS = 2000
LONG_WORD_SEED = 2
LONG_OPS_PER_ROUND = 3     # beside 2 x 10 satellite ops: about one in eight
ROUNDS = 64                # distinct rounds generated; a run cycles through


class WrongAnswer(Exception):
    pass


def expect(cond, message):
    if not cond:
        raise WrongAnswer(message)


def components_truth(name):
    tb, rot, _, comps = TRUTH[name]
    return COMPONENT_TRUTH.get(name, [(tb, rot)] * comps)


@dataclass
class Op:
    kind: str            # label, also used in failure reports
    args: tuple
    known_defect: type = None   # exception class expected at this commit


@dataclass
class Workload:
    ops: list            # ROUNDS * round_len operations
    round_len: int
    digest: str
    run: object          # run(op) -> decided: bool
    warm_up: Op          # run once, untimed, at the end of set-up


def _digest(items):
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def check_catalog(fc):
    """The benchmark's truths must agree with the catalog's pins."""
    for name, (tb, rot, rulings, _comps) in TRUTH.items():
        pinned = tuple(fc.catalog.get(name).expected)
        if pinned != (tb, rot, rulings):
            raise RuntimeError(f"catalog pins {name} at {pinned}, "
                               f"benchmark expects {(tb, rot, rulings)}")


# -- isotopy ----------------------------------------------------------------

def prepare_isotopy(fc, seed, workdir):
    """Rounds of 9 shuffles, one per catalog entry.  One shuffle in a
    round takes 2000 steps, on an entry that rotates from round to round;
    with the 500-step ops at about 8 in 9, both the median and the
    2000-step tail rest on many samples in a run.

    The 500-step shuffle seeds come from the benchmark seed.  The
    2000-step ones are the same for every benchmark seed, like the long
    word of rulings_wide: a run holds only about 25 of them, they take
    half its time, and their cost varies about 2x with the shuffle, so
    seeded ones would make throughput and tail measure the seed."""
    rng = random.Random(f"isotopy:{seed}")
    long_rng = random.Random("isotopy:long")
    names = list(TRUTH)
    ops = []
    for r in range(ROUNDS):
        for i, name in enumerate(names):
            steps = ISOTOPY_STEPS[(r + i) % len(names) == 0]
            shuffle_seed = (long_rng if steps == ISOTOPY_STEPS[1]
                            else rng).getrandbits(32)
            ops.append(Op(f"isotopy {name} {steps}",
                          (name, steps, shuffle_seed)))

    def run(op):
        name, steps, shuffle_seed = op.args
        d = fc.moves.random_shuffle(fc.catalog.get(name).diagram, steps,
                                    shuffle_seed)
        profile = (d.tb, d.rot, fc.rulings.count_rulings(d), d.n_components)
        expect(profile == TRUTH[name],
               f"profile {profile}, pinned {TRUTH[name]}")
        expect(sorted(d.per_component) == components_truth(name),
               f"per_component {d.per_component}")
        text = fc.diagrams.to_text(d)
        back = fc.diagrams.from_text(text)
        expect(back.events == d.events
               and back.orientations == d.orientations
               and fc.diagrams.to_text(back) == text,
               "frontdiagram text round trip changed the diagram")
        return True

    return Workload(ops, len(names),
                    _digest(op.args for op in ops), run,
                    Op("warm-up", ("unknot", 50, 0)))


# -- filling ----------------------------------------------------------------

@dataclass
class FillingInput:
    label: str
    name: str            # catalog entry the input is isotopic to
    text: str
    argv: list


def run_cli(fc, argv):
    """Run ``frontcalc.cli.main`` in-process; (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = fc.cli.main([str(a) for a in argv])
        except SystemExit as exc:      # argparse rejects its input this way
            code = exc.code
    return code, out.getvalue()


def _word_and_orient(word_line, orient_line):
    word = word_line.split(":", 1)[1].split()
    orient = orient_line.split(":", 1)[1].split()
    return word, orient


def _parse_trace(text):
    """(bottom, top, move kinds) read from ``trace v1`` text."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    expect(len(lines) >= 5 and lines[0] == "trace v1"
           and lines[1].startswith("bottom:") and lines[-2].startswith("top:"),
           "malformed trace text")
    bottom = _word_and_orient(lines[1], lines[2])
    top = _word_and_orient(lines[-2], lines[-1])
    return bottom, top, [ln.split()[0] for ln in lines[3:-2]]


def _check_filling_trace(fc, inp, trace_text):
    bottom, top, kinds = _parse_trace(trace_text)
    lines = inp.text.splitlines()
    expect(top == (lines[1].split(), lines[2].split(":", 1)[1].split()),
           "trace top differs from the input")
    saddles = kinds.count("pinch") + kinds.count("surgery")
    chi = kinds.count("birth") + kinds.count("death") - saddles
    tb = TRUTH[inp.name][0]
    if inp.argv[0] == "search-filling":
        expect(bottom == ([], []), "filling trace bottom is not empty")
        expect(chi == -tb, f"chi {chi} != -tb {-tb} (Chantraine)")
    else:
        # ruling-fillable traces start at a link of max-tb unknots and
        # only pinch (read downward); each pinch lowers tb by one.
        expect(saddles == len(kinds), f"non-saddle move in {kinds}")
        word, orient = bottom
        d = fc.diagrams.from_text(
            f"frontdiagram v1\n{' '.join(word)}\norient: {' '.join(orient)}\n")
        expect(all(pc == (-1, 0) for pc in d.per_component),
               f"bottom components {d.per_component} are not max-tb unknots")
        expect(d.tb == tb - saddles,
               f"bottom tb {d.tb} != {tb} - {saddles} saddles")


def prepare_filling(fc, seed, workdir):
    """A round runs every input once, and three times budget_demo at
    budget 0 and the m9_46 ruling certificates, in a seeded order.
    Rounds cycle through FILLING_VARIANTS sets of shuffled inputs;
    unshuffled inputs are shared."""
    rng = random.Random(f"filling:{seed}")
    specs = [(n, s, "search-filling", []) for n in FILLABLE
             for s in FILLABLE_STEPS]
    specs += [(n, s, "search-filling", []) for n in STABILIZED
              for s in STABILIZED_STEPS]
    specs += [("budget_demo", 0, "search-filling", ["--budget", b])
              for b in BUDGETS]
    for name in RULED:
        rulings = fc.rulings.enumerate_rulings(fc.catalog.get(name).diagram)
        expect(len(rulings) == TRUTH[name][2], f"{name} rulings {rulings}")
        specs += [(name, 0, "ruling-fillable",
                   ["--ruling", ",".join(map(str, r)) or "-"])
                  for r in rulings]

    def write(name, steps, command, extra, variant=0):
        d = fc.catalog.get(name).diagram
        if steps:
            d = fc.moves.random_shuffle(d, steps, rng.getrandbits(32))
        label = "-".join([command, name, str(steps)] + [str(e) for e in extra]
                         + [f"v{variant}"])
        path = workdir / f"{label.replace(',', '_')}.front"
        text = fc.diagrams.to_text(d)
        path.write_text(text, encoding="utf-8")
        return FillingInput(label, name, text, [command] + extra + [path])

    shared = [write(*spec) for spec in specs if not spec[1]]
    shared += [inp for inp in shared
               if inp.argv[1:3] == ["--budget", 0]
               or (inp.argv[0] == "ruling-fillable" and inp.name == "m9_46")
               ] * EXTRA_RUNS
    rounds = []
    for variant in range(FILLING_VARIANTS):
        rnd = shared + [write(*spec, variant) for spec in specs if spec[1]]
        rng.shuffle(rnd)
        rounds.append(rnd)
    trace_path = workdir / "op.trace"
    svg_path = workdir / "op.svg"

    def run(op):
        (inp,) = op.args
        code, out = run_cli(fc, inp.argv)
        if code == 1:
            expect("trace v1" not in out, "exit 1 with a trace")
            # A missing normal ruling proves there is no filling.
            return TRUTH[inp.name][2] == 0
        expect(code == 0, f"exit code {code}")
        expect(TRUTH[inp.name][2] > 0, "filling found for a front without "
               "normal rulings")
        _check_filling_trace(fc, inp, out)
        trace_path.write_text(out, encoding="utf-8")
        code, report = run_cli(fc, ["check-trace", trace_path])
        expect(code == 0 and "ok: true" in report, f"check-trace: {report}")
        code, _ = run_cli(fc, ["render", "--svg", svg_path, trace_path])
        expect(code == 0 and svg_path.read_text(encoding="utf-8")
               .startswith("<svg"), "render wrote no SVG")
        return True

    ops = [Op(f"filling {inp.label}", (inp,))
           for r in range(ROUNDS) for inp in rounds[r % FILLING_VARIANTS]]
    unknot = next(inp for inp in shared if inp.name == "unknot")
    return Workload(ops, len(rounds[0]),
                    _digest((op.args[0].label, op.args[0].text) for op in ops),
                    run, Op("warm-up", (unknot,)))


# -- rulings_wide -----------------------------------------------------------

def _pattern_facts(family, param):
    """(closed components, winding number, tb, rot) of a builtin pattern.

    half_twist:m is m positive crossings of two co-oriented strands; the
    whitehead clasp has two negative crossings of oppositely oriented
    strands and one right cusp.
    """
    if family == "identity":
        return param, param, 0, 0
    if family == "half_twist":
        return 1 if param % 2 else 2, 2, param, 0
    return 1, 0, -3, 0


def prepare_rulings_wide(fc, seed, workdir):
    """Rounds of 20 satellite ops (every companion/pattern pair twice,
    half-twist counts drawn by the seed) and 3 long-word enumerations,
    in a seeded order."""
    rng = random.Random(f"rulings_wide:{seed}")
    # (companion, pattern family, parameter); half-twist counts are drawn
    pairs = [(c, f, p) for c in COMPANIONS
             for f, p in (("identity", 2), ("half_twist", None),
                          ("whitehead", None))]
    pairs.append(("trefoil", "identity", 3))
    long_diagram = fc.moves.random_shuffle(fc.catalog.get("m9_46").diagram,
                                           LONG_WORD_STEPS, LONG_WORD_SEED)
    long_text = fc.diagrams.to_text(long_diagram)
    ops = []
    for _ in range(ROUNDS):
        rnd = []
        for companion, family, param in pairs * 2:
            if family == "half_twist":
                param = rng.choice(HALF_TWISTS)
            rnd.append(Op(f"satellite {companion} {family}:{param}",
                          (companion, family, param)))
        rnd += [Op("long-word enumeration", ("long",),
                   known_defect=RecursionError)] * LONG_OPS_PER_ROUND
        rng.shuffle(rnd)
        ops += rnd

    def run_long():
        d = long_diagram
        n = fc.rulings.count_rulings(d)
        rulings = fc.rulings.enumerate_rulings(d)
        expect(n == len(rulings) == TRUTH["m9_46"][2],
               f"count {n}, enumerated {len(rulings)}")
        expect(all(fc.rulings.is_ruling(d, r) for r in rulings),
               "enumerated switch set is not a normal ruling")
        return True

    def run(op):
        if op.args == ("long",):
            return run_long()
        companion, family, param = op.args
        tb, rot = TRUTH[companion][:2]
        pattern = fc.satellites.builtin_pattern(
            family, None if param is None else str(param))
        d = fc.satellites.satellite(fc.catalog.get(companion).diagram,
                                    pattern).diagram
        comps = d.n_components
        want, winding, tb_p, rot_p = _pattern_facts(family, param)
        expect(comps == want, f"{comps} components")
        # Ng-Traynor: tb(S) = w^2 tb(C) + tb(P), rot(S) = w rot(C) + rot(P)
        expect((d.tb, d.rot) == (winding ** 2 * tb + tb_p,
                                 winding * rot + rot_p),
               f"satellite (tb, rot) {(d.tb, d.rot)}")
        if family == "identity":
            expect(d.per_component == [(tb, rot)] * comps,
                   f"copies have (tb, rot) {d.per_component}")
            links = [d.linking_number(i, j) for i in range(comps)
                     for j in range(i + 1, comps)]
            expect(all(lk == tb for lk in links),
                   f"push-off linking {links} != tb {tb}")
        n = fc.rulings.count_rulings(d)
        rulings = fc.rulings.enumerate_rulings(d)
        expect(n == len(rulings) == len(set(rulings)),
               f"count {n}, enumerated {len(rulings)}")
        expect(all(fc.rulings.is_ruling(d, r) for r in rulings),
               "enumerated switch set is not a normal ruling")
        svg = fc.render.render_svg(d, ruling=rulings[0] if rulings else None)
        expect(svg.startswith("<svg"), "render_svg returned no SVG")
        return True

    return Workload(ops, len(pairs) * 2 + LONG_OPS_PER_ROUND,
                    _digest([long_text] + [op.args for op in ops]), run,
                    Op("warm-up", ("stab_plus_trefoil", "whitehead", None)))


PREPARE = {
    "isotopy": prepare_isotopy,
    "filling": prepare_filling,
    "rulings_wide": prepare_rulings_wide,
}
