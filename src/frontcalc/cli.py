"""Command line interface.

Diagrams are referenced either as ``catalog:<name>`` or as a path to a
``frontdiagram v1`` file.  Output is deterministic; ``--format tsv``
switches to tab-separated key/value rows.  Exit codes: 0 success, 1
domain error (invalid move, no filling, failed check) or standard output
closed by its reader, 2 parse error.  Input too large to handle
(``ScanTooLarge``) follows the same rule: exit 2 while input is parsed
(a front or trace file, a pattern spec), exit 1 once it is (a satellite
too large to build, a trace too large to replay, a shuffle whose word
grows too large to scan).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .diagrams import DiagramError, ascii_decimal, from_text, to_text
from .moves import random_shuffle
from .rulings import count_rulings, enumerate_rulings
from . import cobordism as cob
from .render import render_svg, render_trace_svg
from .satellites import builtin_pattern, pattern_from_text, satellite

PARSE_ERROR = 2
DOMAIN_ERROR = 1


class CliParseError(Exception):
    pass


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliParseError(f"cannot read {path}: {exc.strerror}")


def _parse(source, parser, *args):
    """Run a parser on outside input; any rejection is a parse error.

    Every text the CLI reads (diagram, trace and pattern files, builtin
    pattern specs) goes through here, so malformed input exits 2.
    DiagramError is a ValueError.
    """
    try:
        return parser(*args)
    except ValueError as exc:
        raise CliParseError(f"{source}: {exc}")


def load_diagram(ref):
    if ref.startswith("catalog:"):
        from . import catalog
        name = ref.split(":", 1)[1]
        try:
            entry = catalog.get(name)
        except KeyError:
            raise CliParseError(f"no catalog entry named {name!r}")
        return entry.diagram
    return _parse(ref, from_text, _read(ref))


def _emit(pairs, fmt):
    if fmt == "tsv":
        return "\n".join(f"{k}\t{v}" for k, v in pairs)
    return " ".join(f"{k}={v}" for k, v in pairs)


def _seed(args):
    if args.seed is not None:
        return args.seed
    env = os.environ.get("FRONTCALC_SEED")
    try:
        return ascii_decimal(env) if env else 0
    except ValueError:
        raise CliParseError(
            f"FRONTCALC_SEED must be ASCII digits, got {env!r}")


def cmd_invariants(args, out):
    d = load_diagram(args.diagram)
    pairs = [("tb", d.tb), ("rot", d.rot), ("components", d.n_components)]
    print(_emit(pairs, args.format), file=out)
    return 0


def cmd_rulings(args, out):
    d = load_diagram(args.diagram)
    sep = "\t" if args.format == "tsv" else " "
    if args.list:
        rulings = enumerate_rulings(d)
        for r in rulings:
            print(sep.join(str(i) for i in r) if r else "-", file=out)
        n = len(rulings)
    else:
        n = count_rulings(d)
    if args.format == "tsv":
        print(f"count\t{n}", file=out)
    else:
        print(f"count: {n}", file=out)
    return 0


def cmd_shuffle(args, out):
    d = load_diagram(args.diagram)
    shuffled = random_shuffle(d, args.steps, _seed(args))
    out.write(to_text(shuffled))
    return 0


def _parse_site(text):
    try:
        index, level = text.split("@")
        return ascii_decimal(index), ascii_decimal(level)
    except ValueError:
        raise CliParseError(f"bad site {text!r}, wanted INDEX@LEVEL")


def cmd_pinch(args, out):
    d = load_diagram(args.diagram)
    index, level = _parse_site(args.site)
    out.write(to_text(cob.pinch(d, index, level)))
    return 0


def cmd_search_filling(args, out):
    d = load_diagram(args.diagram)
    trace = cob.search_decomposable_filling(
        d, max_pinches=args.max_pinches, isotopy_budget=args.budget)
    if trace is None:
        print("no decomposable filling found", file=out)
        return DOMAIN_ERROR
    out.write(cob.trace_to_text(trace))
    return 0


def _parse_ruling(text):
    if text in ("", "-"):
        return ()
    try:   # signed, so that a negative index is a domain error
        return tuple(-ascii_decimal(t[1:]) if t[0] == "-" else ascii_decimal(t)
                     for t in text.replace(",", " ").split())
    except ValueError:
        raise CliParseError(f"bad ruling {text!r}, wanted crossing indices")


def cmd_ruling_fillable(args, out):
    d = load_diagram(args.diagram)
    trace = cob.ruling_fillability(d, _parse_ruling(args.ruling),
                                   max_pinches=args.max_pinches)
    if trace is None:
        print("ruling not certified fillable", file=out)
        return DOMAIN_ERROR
    out.write(cob.trace_to_text(trace))
    return 0


def _load_pattern(spec):
    if os.path.exists(spec):
        return _parse(spec, pattern_from_text, _read(spec))
    name, _, param = spec.partition(":")
    return _parse(spec, builtin_pattern, name, param if param else None)


def cmd_satellite(args, out):
    d = load_diagram(args.diagram)
    result = satellite(d, _load_pattern(args.pattern))
    out.write(to_text(result.diagram))
    return 0


def cmd_check_trace(args, out):
    trace = _parse(args.trace, cob.trace_from_text, _read(args.trace))
    ok, detail = cob.check_trace_report(trace)
    rows = [("ok", str(ok).lower()), ("detail", detail),
            ("chi", trace.chi), ("pinches", trace.count("pinch")),
            ("births", trace.count("birth")), ("deaths", trace.count("death")),
            ("surgeries", trace.count("surgery"))]
    print(_emit(rows, args.format) if args.format == "tsv"
          else "\n".join(f"{k}: {v}" for k, v in rows), file=out)
    return 0 if ok else DOMAIN_ERROR


def cmd_render(args, out):
    text = None
    if not args.diagram.startswith("catalog:") and os.path.exists(args.diagram):
        text = _read(args.diagram)
    if text is not None and text.startswith(cob.TRACE_HEADER):
        if args.ruling is not None:
            raise CliParseError(f"{args.diagram}: --ruling applies to a "
                                f"front, not to a trace")
        svg = render_trace_svg(_parse(args.diagram, cob.trace_from_text,
                                      text))
    else:
        d = (load_diagram(args.diagram) if text is None
             else _parse(args.diagram, from_text, text))
        ruling = _parse_ruling(args.ruling) if args.ruling is not None else None
        svg = render_svg(d, ruling=ruling)
    try:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(svg)
    except OSError as exc:
        raise CliParseError(f"cannot write {args.svg}: {exc.strerror}")
    print(f"wrote {args.svg}", file=out)
    return 0


def cmd_catalog(args, out):
    from . import catalog
    if args.action == "list":
        for entry in catalog.entries():
            d = entry.diagram
            row = [("name", entry.name), ("tb", d.tb), ("rot", d.rot),
                   ("components", d.n_components)]
            print(_emit(row, args.format), file=out)
        return 0
    failures = catalog.selftest()
    for name, detail in failures:
        print(f"FAIL {name}: {detail}", file=out)
    n = len(catalog.entries())
    print(f"checked {n} entries, {len(failures)} failures", file=out)
    return 0 if not failures else DOMAIN_ERROR


def _count(text):
    """An argparse type: a non-negative integer; anything else exits 2."""
    try:
        return ascii_decimal(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"wanted a non-negative integer, got {text!r}") from None


@functools.cache
def build_parser():
    """The CLI's parser, built once per process: parsing leaves it as it
    was, since each ``parse_args`` fills a fresh namespace."""
    p = argparse.ArgumentParser(
        prog="frontcalc",
        description="Front diagram calculus: invariants, rulings, "
                    "cobordism search, satellites, rendering.")
    p.add_argument("--format", choices=("plain", "tsv"), default="plain")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("invariants", cmd_invariants, help="classical invariants")
    sp.add_argument("diagram")

    sp = add("rulings", cmd_rulings, help="count or list normal rulings")
    sp.add_argument("--list", action="store_true")
    sp.add_argument("diagram")

    sp = add("shuffle", cmd_shuffle, help="random isotopy shuffle")
    sp.add_argument("--steps", type=_count, default=100)
    sp.add_argument("--seed", type=_count, default=None)
    sp.add_argument("diagram")

    sp = add("pinch", cmd_pinch, help="pinch at a site")
    sp.add_argument("--site", required=True, metavar="INDEX@LEVEL")
    sp.add_argument("diagram")

    sp = add("search-filling", cmd_search_filling,
             help="search a decomposable filling")
    sp.add_argument("--max-pinches", type=_count, default=3)
    sp.add_argument("--budget", type=_count, default=0)
    sp.add_argument("diagram")

    sp = add("ruling-fillable", cmd_ruling_fillable,
             help="certify a ruling by paired pinches")
    sp.add_argument("--ruling", required=True,
                    help="switched crossing indices, comma separated; - for none")
    sp.add_argument("--max-pinches", type=_count, default=None)
    sp.add_argument("diagram")

    sp = add("satellite", cmd_satellite, help="splice a pattern")
    sp.add_argument("--pattern", required=True,
                    help="builtin name[:param] or pattern file")
    sp.add_argument("diagram")

    sp = add("check-trace", cmd_check_trace, help="verify a cobordism trace")
    sp.add_argument("trace")

    sp = add("render", cmd_render, help="render a front or trace to SVG")
    sp.add_argument("--svg", required=True, metavar="OUT")
    sp.add_argument("--ruling", default=None,
                    help="switched crossing indices of a ruling to overlay "
                         "on a front (not a trace), comma separated")
    sp.add_argument("diagram")

    sp = add("catalog", cmd_catalog, help="catalog operations")
    sp.add_argument("action", choices=("list", "selftest"))
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args, sys.stdout)
        sys.stdout.flush()    # a closed reader shows here, not at exit
        return code
    except CliParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_ERROR
    except DiagramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DOMAIN_ERROR
    except BrokenPipeError:
        # The reader closed standard output.  Point it at devnull, so
        # that the interpreter's flush at exit does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return DOMAIN_ERROR


if __name__ == "__main__":
    sys.exit(main())
