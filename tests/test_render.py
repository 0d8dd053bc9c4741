import hashlib
import xml.etree.ElementTree as ET

from frontcalc import catalog
from frontcalc.cobordism import search_decomposable_filling
from frontcalc.diagrams import FrontDiagram, L, R, X
from frontcalc.render import render_svg, render_trace_svg
from frontcalc.rulings import enumerate_rulings

UNKNOT = FrontDiagram([L(1), R(1)])
TREFOIL = FrontDiagram([L(1), L(3), X(2), X(2), X(2), R(1), R(1)])


def test_svg_parses():
    for d in (UNKNOT, TREFOIL):
        root = ET.fromstring(render_svg(d))
        assert root.tag.endswith("svg")


def test_svg_is_deterministic():
    assert render_svg(TREFOIL) == render_svg(TREFOIL)
    assert render_svg(TREFOIL) != render_svg(UNKNOT)


def test_svg_has_a_path_per_segment():
    svg = render_svg(TREFOIL)
    root = ET.fromstring(svg)
    paths = root.findall(".//{http://www.w3.org/2000/svg}path")
    # 4 segments plus one redrawn over-strand per crossing
    assert len(paths) == 4 + 3
    # one white mask disk per crossing
    circles = root.findall(".//{http://www.w3.org/2000/svg}circle")
    assert len(circles) == 3


def test_ruling_overlay_adds_switch_marks():
    switches = enumerate_rulings(TREFOIL)[1]   # (2, 3, 4)
    plain = render_svg(TREFOIL)
    overlay = render_svg(TREFOIL, ruling=switches)
    assert overlay != plain
    root = ET.fromstring(overlay)
    circles = root.findall(".//{http://www.w3.org/2000/svg}circle")
    dots = [c for c in circles if c.get("r") == "4"]
    assert len(dots) == len(switches)


def test_trace_filmstrip():
    tr = search_decomposable_filling(TREFOIL)
    svg = render_trace_svg(tr)
    root = ET.fromstring(svg)
    texts = root.findall(".//{http://www.w3.org/2000/svg}text")
    # one caption per move; the bottom stage is unlabelled
    assert len(texts) == len(tr.moves)
    assert render_trace_svg(tr) == svg


# sha256 of the SVG bytes, pinned so that a change to the layout code
# cannot alter any rendered file unnoticed
CATALOG_SVG_SHA256 = {
    "unknot":
        "0240c3754adbd4d99e1b59501e7371c8b9eb70cf86ea934fa52f4fbb278b94c4",
    "trefoil":
        "545607adda29996a6c29c85874842f385efc184a0ea3d7625c5dec60e6fc3b02",
    "stab_plus_unknot":
        "1e842a67cfd735e88c265cb2dd5e3902e1bcd5b95000602deaef4968b6ce0a8a",
    "stab_minus_unknot":
        "f3703425a80e93fa711f6110949f5bcffbc92f9c9bb0b4d6c17bb3d290d2ff88",
    "stab_plus_trefoil":
        "4cf6eb579c4e311dd520a933c3fa8d2bee17438e4bdf59bc9ecd001fb725e258",
    "stab_minus_trefoil":
        "f513fbd3166e8ee73dd6bc6914c5c94bdefe365e51c324aba0fe619ca50fa42f",
    "unlink2":
        "d55fe34be5086e0c6df6a0787d4c40d610dc5499e2a40b0268045ce99441102c",
    "budget_demo":
        "30a57babe1afbac57e25fda3830d02ccc87e070aee0a820abe706ad4786e2e77",
    "m9_46":
        "0868b9a4d1344a43cadae4fed5c13bbbc225a655d3ed1151c53c08c1dcbe2102",
}

TREFOIL_RULING_SVG_SHA256 = {
    (2,): "e0a4f9058eca41b2f1382952a58aa2ce22bfd9858a7b25c903c2ee641a261de9",
    (2, 3, 4):
        "9070a4e4e0056af5054e8f906cbef1a1b6bd83335a37257efe852658c85ddd9d",
    (4,): "3a6bcbca6e4f98feba99dd73403c6e2b3883f1e5ba2b320ce5deca3e6e3bb3d3",
}

TREFOIL_TRACE_SVG_SHA256 = (
    "065413edaddf45850296861f444418f404a21871d4fa228d92593b2d669e0e80")


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_catalog_svg_bytes_are_pinned():
    got = {e.name: _sha256(render_svg(e.diagram)) for e in catalog.entries()}
    assert got == CATALOG_SVG_SHA256


def test_ruling_overlay_svg_bytes_are_pinned():
    got = {r: _sha256(render_svg(TREFOIL, ruling=r))
           for r in enumerate_rulings(TREFOIL)}
    assert got == TREFOIL_RULING_SVG_SHA256


def test_trace_svg_bytes_are_pinned():
    tr = search_decomposable_filling(TREFOIL)
    assert _sha256(render_trace_svg(tr)) == TREFOIL_TRACE_SVG_SHA256
