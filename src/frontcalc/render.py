"""Deterministic SVG rendering of fronts, rulings, and traces.

Strands are drawn as polylines sampled once per event column; cusps
come to a point, and at each crossing the understrand is broken by a
small mask so the descending strand reads as passing in front.  The
output depends only on the input diagram, so files are byte-stable.

Every coordinate lies on a grid of half columns and half levels.  One
render call formats that grid once, in a ``_Grid`` that every front of
the call shares: a filmstrip's frames look their points up instead of
formatting them, and no point is formatted twice.

A frame reads only the front's events, its strand counts and the grid,
and builds no segment scan.  A segment is a strand piece between two
cusps, drawn as one polyline.  The frame takes its segments from one
``diagrams.segment_steps`` walk of the word, the package's one segment
numbering, which says which segment sits at each strand position at
each gap.  Each segment is colored by its component, numbered by least
segment in one ``diagrams.cusp_walk`` of the steps met.

A filmstrip draws one point per strand at every gap of every stage, so
``CobordismTrace.replay`` refuses it with ScanTooLarge once those points
pass ``MAX_SCAN_CELLS``: frames grow with the word, so a short trace can
ask for far more points than memory holds.
"""

from __future__ import annotations

from itertools import zip_longest

from .diagrams import _CROSS, _LEFT, cusp_walk, segment_steps
from .rulings import ruling_pairings

X0 = 30.0
Y0 = 30.0
DX = 36.0
DY = 28.0

PALETTE = ("#1f6f8b", "#c0392b", "#52772b", "#7d3c98",
           "#b9770e", "#1a5276", "#6e2c00", "#117864")


def _path_end(color, width="2", extra=""):
    """The end of a path element, after the points of its "d" attribute."""
    return (f'" fill="none" stroke="{color}" stroke-width="{width}" '
            f'stroke-linejoin="round" stroke-linecap="round"{extra}/>')


# the end of a strand's path element, by component % len(PALETTE)
_STRAND_END = tuple(map(_path_end, PALETTE))
# the end of a ruling's dashed pairing line
_PAIRING_END = _path_end("#bbbbbb", "1", ' stroke-dasharray="3 3"')


def _fmt(v):
    return f"{v:.1f}".removesuffix(".0")


def _lines(origin, step, n):
    """The first n grid lines ``origin + h * step / 2``, formatted.

    The origins and half steps are whole numbers, so each line is the
    ``str`` of an int, which ``_fmt`` would write the same.
    """
    start, half = int(origin), int(step) // 2
    return list(map(str, range(start, start + n * half, half)))


class _Grid:
    """Formatted coordinates shared by the fronts of one render call.

    ``x[h]`` and ``y[h]`` are grid line h.  ``gaps[g][p]`` is the "x y"
    point of the strand at 0-based position p in gap g (after event
    g - 1), for the most strands any of the fronts has there.  As
    they are met, ``tips`` maps (event index, 0-based level) to the point
    of a cusp tip, so a grid holds only the tips its fronts use.
    """

    def __init__(self, diagrams):
        counts = [max(col) for col in
                  zip_longest(*(d.strand_counts for d in diagrams),
                              fillvalue=0)]
        x = _lines(X0, DX, 2 * len(counts) + 1)
        y = _lines(Y0, DY, 2 * max(1, *counts) + 1)
        self.x, self.y = x, y
        gap_y = [" " + v for v in y[::2]]
        self.gaps = [list(map(x[2 * g].__add__, gap_y[:m]))
                     for g, m in enumerate(counts)]
        self.tips = {}


def _front_group(grid, diagram, ruling=None):
    """SVG fragment for one front; returns (markup lines, w, h).

    One ``diagrams.segment_steps`` walk of the word gives, at each gap,
    the segment at each strand position, and each gap's points go onto
    the point lists of those segments.  A left cusp opens the lists of
    its two segments at its tip, top first; a right cusp puts its tip on
    the two it closes; a crossing records its upper segment.  Segments
    are colored by their component in ``diagrams.cusp_walk`` of the
    steps met.
    """
    x, y, tips = grid.x, grid.y, grid.tips
    points = []             # point lists, by segment
    touched = []            # the walk's steps, for ``cusp_walk``
    crossings = []          # (event index, 0-based level, upper segment)
    walk, segments = segment_steps(diagram.events)
    steps = zip(walk, grid.gaps)
    for idx, (step, col) in enumerate(steps):
        touched.append(step)
        kind, i, top, bottom = step
        for s, pt in zip(segments, col):
            points[s].append(pt)
        if kind == _CROSS:
            crossings.append((idx, i, top))
            continue
        tip = tips.get((idx, i))
        if tip is None:
            tip = tips[idx, i] = f"{x[2 * idx + 1]} {y[2 * i + 1]}"
        if kind == _LEFT:
            points += [tip], [tip]
        else:
            points[top].append(tip)
            points[bottom].append(tip)
    comp = cusp_walk(touched)[0]
    out = []
    if ruling is not None:
        for g, pairing in enumerate(ruling_pairings(diagram, ruling)):
            cx = x[2 * g + 1]
            for i, p in enumerate(pairing):
                if p > i:
                    out.append(f'<path d="M {cx} {y[2 * i]} L {cx} '
                               f'{y[2 * p]}{_PAIRING_END}')
        for idx in sorted(set(ruling)):
            level = diagram.events[idx].level
            out.append(f'<circle cx="{x[2 * idx + 1]}" '
                       f'cy="{y[2 * level - 1]}" r="4" fill="#222222"/>')
    ends = len(PALETTE)
    out += ['<path d="M ' + " L ".join(pts) + _STRAND_END[c % ends]
            for pts, c in zip(points, comp)]
    gaps = grid.gaps
    for idx, i, over in crossings:
        out.append(f'<circle cx="{x[2 * idx + 1]}" cy="{y[2 * i + 1]}" '
                   f'r="5" fill="#ffffff"/>')
        out.append('<path d="M ' + gaps[idx][i] + " L " + gaps[idx + 1][i + 1]
                   + _STRAND_END[comp[over] % ends])
    counts = diagram.strand_counts
    return out, X0 + len(counts) * DX, Y0 + max(1, *counts) * DY


def _document(lines, width, height):
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{_fmt(width)}" height="{_fmt(height)}" '
            f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">')
    return "\n".join([head] + lines + ["</svg>"]) + "\n"


def render_svg(diagram, ruling=None):
    """SVG document for one front, optionally with a ruling overlay."""
    grid = _Grid([diagram])
    lines, w, h = _front_group(grid, diagram, ruling=ruling)
    return _document(lines, w, h)


def _caption(move):
    """A move's trace line, as the caption of its stage.

    An isotopy caption keeps a blank after a rewrite without variant, as
    trace lines had before they dropped it: SVG text collapses the blank,
    and filmstrips keep the bytes they were rendered with.
    """
    text = str(move)
    if move.kind == "isotopy" and not move.rewrite.variant:
        text += " "
    return text


def render_trace_svg(trace):
    """Filmstrip of every stage of a cobordism trace, bottom to top.

    Every frame draws on one grid, sized for the widest and tallest
    stage.
    """
    stages = trace.replay()
    labels = [""] + [_caption(m) for m in trace.moves]
    grid = _Grid(stages)
    lines = []
    y_off = 0.0
    width = 0.0
    for d, label in zip(stages, labels):
        body, w, h = _front_group(grid, d)
        if label:
            lines.append(f'<text x="{_fmt(X0)}" y="{_fmt(y_off + 16)}" '
                         f'font-family="monospace" font-size="12">'
                         f'{label}</text>')
            y_off += 24.0
        lines.append(f'<g transform="translate(0 {_fmt(y_off)})">')
        lines.extend(body)
        lines.append("</g>")
        y_off += h
        width = max(width, w)
    return _document(lines, width, y_off)
