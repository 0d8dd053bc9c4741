"""Deterministic SVG rendering of fronts, rulings, and traces.

Strands are drawn as polylines sampled once per event column; cusps
come to a point, and at each crossing the understrand is broken by a
small mask so the descending strand reads as passing in front.  The
output depends only on the input diagram, so files are byte-stable.

Every coordinate lies on a grid of half columns and half levels.  One
render call formats that grid once, in a ``_Grid`` that every front of
the call shares: a filmstrip's frames look their points up instead of
formatting them.
"""

from __future__ import annotations

from itertools import zip_longest

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


class _Grid:
    """Formatted coordinates shared by the fronts of one render call.

    ``x[h]`` and ``y[h]`` are grid line h.  ``gaps[g][p]`` is the "x y"
    point of the strand at 0-based position p in gap g (after event
    g - 1), for the most strands any of the fronts has there; ``tips``
    maps (event index, level) to the point of a cusp tip, filled as
    cusps are met.  So a grid holds only points its fronts use.
    """

    def __init__(self, diagrams):
        counts = [max(col) for col in
                  zip_longest(*(d.strand_counts for d in diagrams),
                              fillvalue=0)]
        x = [_fmt(X0 + h * DX / 2) for h in range(2 * len(counts) + 1)]
        y = [_fmt(Y0 + h * DY / 2)
             for h in range(2 * max(1, *counts) + 1)]
        self.x, self.y = x, y
        gap_y = [" " + v for v in y[::2]]
        self.gaps = [list(map(x[2 * g].__add__, gap_y[:m]))
                     for g, m in enumerate(counts)]
        self.tips = {}


def _front_group(grid, diagram, ruling=None):
    """SVG fragment for one front; returns (markup lines, w, h).

    One pass over the diagram's scan puts every point on its segment's
    list: a cusp's tip on both its segments, then the gap after the
    event down its strands.
    """
    x, y, tips = grid.x, grid.y, grid.tips
    scan = diagram._scan
    cusps = scan.cusp_pair
    counts = diagram.strand_counts
    comp = diagram.component_of_segment
    points = [[] for _ in range(scan.n_segments)]
    add = [pts.append for pts in points]
    crossings = []          # (event index, level, over segment)
    for idx, (ev, gap, col) in enumerate(zip(diagram.events, scan.gaps[1:],
                                             grid.gaps[1:])):
        pair = cusps.get(idx)
        if pair is None:
            crossings.append((idx, ev.level, scan.crossing_pair[idx][0]))
        else:
            key = (idx, ev.level)
            tip = tips.get(key)
            if tip is None:
                tip = tips[key] = f"{x[2 * idx + 1]} {y[2 * ev.level - 1]}"
            add[pair[0]](tip)
            add[pair[1]](tip)
        for s, pt in zip(gap, col):
            add[s](pt)
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
    for idx, level, over in crossings:
        out.append(f'<circle cx="{x[2 * idx + 1]}" cy="{y[2 * level - 1]}" '
                   f'r="5" fill="#ffffff"/>')
        out.append('<path d="M ' + gaps[idx][level - 1] + " L "
                   + gaps[idx + 1][level] + _STRAND_END[comp[over] % ends])
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
