"""Deterministic SVG rendering of fronts, rulings, and traces.

Strands are drawn as polylines sampled once per event column; cusps
come to a point, and at each crossing the understrand is broken by a
small mask so the descending strand reads as passing in front.  The
output depends only on the input diagram, so files are byte-stable.
"""

from __future__ import annotations

from .diagrams import CROSSING
from .rulings import ruling_pairings

X0 = 30.0
Y0 = 30.0
DX = 36.0
DY = 28.0

PALETTE = ("#1f6f8b", "#c0392b", "#52772b", "#7d3c98",
           "#b9770e", "#1a5276", "#6e2c00", "#117864")


def _fmt(v):
    s = f"{v:.1f}"
    return s[:-2] if s.endswith(".0") else s


class _Layout:
    """Geometry of one front: strand polylines, cusp tips, crossings.

    Every coordinate lies on a grid of half columns and half levels;
    ``x[h]`` and ``y[h]`` are grid line h formatted, so each coordinate
    is formatted once per front.  Points are "x y" strings.  Segment ids
    and positions come from the diagram's scan.
    """

    def __init__(self, diagram):
        n = len(diagram.events)
        maxlev = max([1] + [m for m in diagram.strand_counts])
        self.x = [_fmt(X0 + h * DX / 2) for h in range(2 * n + 3)]
        self.y = [_fmt(Y0 + h * DY / 2) for h in range(2 * maxlev + 1)]
        comp = diagram.component_of_segment
        self.points = {}        # segment id -> [point, ...]
        self.crossings = []     # (event index, level, over component)
        for idx, ev in enumerate(diagram.events):
            if ev.kind == CROSSING:
                over = comp[diagram.segments_at_gap(idx)[ev.level - 1]]
                self.crossings.append((idx, ev.level, over))
            else:
                tip = self.point(2 * idx + 1, 2 * ev.level - 1)
                for s in diagram.cusp_segments(idx):
                    self.points.setdefault(s, []).append(tip)
            x = self.x[2 * idx + 2]
            for pos, s in enumerate(diagram.segments_at_gap(idx + 1)):
                self.points[s].append(f"{x} {self.y[2 * pos]}")
        self.width = X0 + (n + 1) * DX
        self.height = Y0 + maxlev * DY

    def point(self, hx, hy):
        return f"{self.x[hx]} {self.y[hy]}"


def _polyline(pts, color, width="2", dash=None):
    d = "M " + " L ".join(pts)
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    return (f'<path d="{d}" fill="none" stroke="{color}" '
            f'stroke-width="{width}" stroke-linejoin="round" '
            f'stroke-linecap="round"{extra}/>')


def _front_group(diagram, ruling=None):
    """SVG fragment for one front; returns (markup lines, w, h)."""
    lay = _Layout(diagram)
    x, y, point = lay.x, lay.y, lay.point
    out = []
    if ruling is not None:
        gaps = ruling_pairings(diagram, ruling)
        for g, pairing in enumerate(gaps):
            for i, p in enumerate(pairing):
                if p <= i:
                    continue
                out.append(_polyline([point(2 * g + 1, 2 * i),
                                      point(2 * g + 1, 2 * p)],
                                     "#bbbbbb", "1", "3 3"))
        for idx in sorted(set(ruling)):
            level = diagram.events[idx].level
            out.append(f'<circle cx="{x[2 * idx + 1]}" '
                       f'cy="{y[2 * level - 1]}" r="4" fill="#222222"/>')
    comp = diagram.component_of_segment
    for s in sorted(lay.points):
        color = PALETTE[comp[s] % len(PALETTE)]
        out.append(_polyline(lay.points[s], color))
    for idx, level, over in lay.crossings:
        out.append(f'<circle cx="{x[2 * idx + 1]}" cy="{y[2 * level - 1]}" '
                   f'r="5" fill="#ffffff"/>')
        color = PALETTE[over % len(PALETTE)]
        out.append(_polyline([point(2 * idx, 2 * level - 2),
                              point(2 * idx + 2, 2 * level)], color))
    return out, lay.width, lay.height


def _document(lines, width, height):
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{_fmt(width)}" height="{_fmt(height)}" '
            f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">')
    return "\n".join([head] + lines + ["</svg>"]) + "\n"


def render_svg(diagram, ruling=None):
    """SVG document for one front, optionally with a ruling overlay."""
    lines, w, h = _front_group(diagram, ruling=ruling)
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
    """Filmstrip of every stage of a cobordism trace, bottom to top."""
    stages = trace.replay()
    labels = [""] + [_caption(m) for m in trace.moves]
    lines = []
    y_off = 0.0
    width = 0.0
    for d, label in zip(stages, labels):
        body, w, h = _front_group(d)
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
