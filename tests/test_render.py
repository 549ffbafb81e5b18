"""SVG rendering: glyph counts, determinism, well-formedness."""

import gc
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import model_entries, oracle_curve_svg, oracle_model_svg
from twobridge.conway import ConwayWord, parse_conway
from twobridge.curves import ImmersedCurve, bigon_reduce, build_plat_diagram, outer_smooth, strip_decompose
from twobridge import render, serialize
from twobridge.morse import LEAVES, REEB_EDGES, SADDLES, assemble_stable_map
from twobridge.render import render_svg


def _curve(entries, reduced=False):
    curve = outer_smooth(build_plat_diagram(ConwayWord(entries)))
    return bigon_reduce(curve) if reduced else curve


def test_curve_svg_has_one_glyph_per_double_point():
    svg = render_svg(_curve((3, 2, 3)))
    assert svg.count('<g class="crossing">') == 2


def test_reduced_curve_svg_has_tangency_glyphs():
    svg = render_svg(_curve((2, 4, 2), reduced=True))
    assert svg.count('<g class="crossing">') == 0
    assert svg.count('<g class="tangency">') == 2


def test_strips_svg_highlights_type2():
    decomposition = strip_decompose(_curve((3, 2, 3)), "f2")
    svg = render_svg(decomposition)
    assert svg.count('strip-type2') == 1
    assert svg.count('class="gamma"') == len(decomposition.strips) - 1


def test_model_svg_draws_reeb_trees():
    model = assemble_stable_map(ConwayWord((3, 2, 3)), "f2")
    svg = render_svg(model)
    assert svg.count('class="reeb-tree"') == len(model.strips.strips) - 1
    assert svg.count('class="event-ii2"') == 2


def test_the_edges_of_a_rendered_tree_follow_the_cross_section_edges():
    # the tree beneath separator k, at x = 16 + 36k: leaves 1 and 2 at its
    # top left and right, the saddles down its middle, 3 and 4 at its
    # bottom left and right
    root = ET.fromstring(render_svg(assemble_stable_map(ConwayWord((3, 2, 3)), "f2")))
    trees = root.findall("{http://www.w3.org/2000/svg}g[@class='reeb-tree']")
    assert len(trees) == 8
    for k, tree in enumerate(trees, 1):
        x = 16 + 36 * k
        vertex = {(x - 8, 128): 1, (x + 8, 128): 2, (x, 144): "s_hi", (x, 160): "s_lo", (x - 8, 176): 3, (x + 8, 176): 4}
        ends = [tuple(int(line.get(a)) for a in ("x1", "y1", "x2", "y2")) for line in tree]
        assert [(vertex[e[:2]], vertex[e[2:]]) for e in ends] == list(REEB_EDGES)
    # the drawing is read off the tree: one place per vertex
    assert set(render._PLACES) == {*LEAVES, *SADDLES}


def test_f3_model_svg_marks_ii3_events():
    model = assemble_stable_map(ConwayWord((2, 4, 2)), "f3")
    svg = render_svg(model)
    assert svg.count('class="event-ii3"') == 2


def test_render_is_byte_deterministic():
    first = render_svg(assemble_stable_map(ConwayWord((2, 2, 2)), "f2"))
    second = render_svg(assemble_stable_map(ConwayWord((2, 2, 2)), "f2"))
    assert first == second
    assert first.encode() == second.encode()


def test_render_matches_golden_file():
    from pathlib import Path

    golden = Path(__file__).parent / "data" / "model-C3-2-3-f2.svg"
    svg = render_svg(assemble_stable_map(ConwayWord((3, 2, 3)), "f2"))
    assert svg == golden.read_text()


@pytest.mark.parametrize(
    "subject",
    [
        _curve((3, 2, 3)),
        _curve((2, 2, 2), reduced=True),
        strip_decompose(_curve((3, 2, 3)), "f2"),
        assemble_stable_map(ConwayWord((2, -2, 2)), "f3"),
    ],
)
def test_output_is_wellformed_svg(subject):
    svg = render_svg(subject)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert root.get("viewBox") is not None
    assert root.get("version") == "1.1"


def test_render_rejects_unknown_subject():
    with pytest.raises(TypeError):
        render_svg("C(3,2,3)")


@settings(deadline=None, max_examples=60)
@given(model_entries(), st.sampled_from(["f2", "f3"]), st.sampled_from(["crossing", "region", "fine"]))
def test_model_svg_matches_the_per_strip_oracle(entries, variant, granularity):
    model = assemble_stable_map(ConwayWord(entries), variant, granularity)
    expected = oracle_model_svg(model)
    assert render_svg(model) == expected
    # blocks put in as a plain tuple, whose runs are found anew
    assert render_svg(replace(model, blocks=tuple(model.blocks))) == expected


@pytest.mark.parametrize(("text", "variant"), [("C(30000,2,3)", "f2"), ("C(-3,-20000,-3)", "f3")])
def test_large_model_svg_matches_the_per_strip_oracle(text, variant):
    # x past 10^6 in the first, 10000 event dots in the second
    model = assemble_stable_map(parse_conway(text), variant)
    assert render_svg(model) == oracle_model_svg(model)


@settings(deadline=None, max_examples=60)
@given(model_entries(), st.booleans())
def test_curve_svg_matches_the_per_column_oracle(entries, reduced):
    curve = _curve(entries, reduced)
    assert render_svg(curve) == oracle_curve_svg(curve)


@pytest.mark.parametrize(
    ("text", "reduced"),
    [("C(40000,2,3)", False), ("C(-3,-20000,-3)", True), ("C(" + "3,2," * 400 + "3)", True)],
)
def test_large_curve_svg_matches_the_per_column_oracle(text, reduced):
    curve = _curve(parse_conway(text).entries, reduced)
    assert render_svg(curve) == oracle_curve_svg(curve)


@st.composite
def _progressions(draw):
    """An offset, a step, a first row and a row count whose x run across
    one of 10^3 .. 10^7, or stay below 1000."""
    step = draw(st.integers(1, 1500))
    first, n = draw(st.integers(0, 400)), draw(st.integers(0, 400))
    if draw(st.booleans()):
        power = draw(st.sampled_from([10**3, 10**4, 10**5, 10**6, 10**7]))
        offset = max(0, power - (first + draw(st.integers(0, n))) * step - draw(st.integers(0, step)))
    else:
        n = min(n, 999 // step)
        first = min(first, (999 - (n - 1) * step) // step) if n else first
        offset = draw(st.integers(0, max(0, 999 - (first + n - 1) * step)))
    return offset, step, first, n


@settings(max_examples=300, deadline=None)
@given(
    _progressions(),
    st.integers(1, 40),
    st.sampled_from(["", ",", '" y2="5"/>\n']),
    st.integers(0, 5000),
    st.lists(st.integers(0, 300), max_size=4),
    st.booleans(),
    st.tuples(st.sampled_from([0, 1, 3]), st.integers(1, 60), st.integers(1, 60)),
)
def test_coordinate_pieces_are_the_text_of_each_x(progression, other_step, literal, far, lengths, far_first, across):
    # rows are built on demand: each example starts from no layout, and a
    # far stretch, filled in consecutive runs as a document fills them,
    # comes before or after the drawn run and a run across row low, the
    # end of the built rows (a period past low) or a page's start; a run
    # that ends inside the built rows is one text
    render._layout.cache_clear()
    offset, step, first, n = progression
    template = "<{0}" + literal + "{1}|{0}>"
    fields = ((offset, step), (offset + 8, other_step))
    layout = render._layout(template, fields)
    periods, before, after = across
    boundary = layout.low + periods * layout.period
    runs = [(first, n), (max(0, boundary - before), min(boundary, before) + after)]
    stretch = list(zip(accumulate(lengths, initial=far), lengths))
    for first, n in [*stretch, *runs] if far_first else [*runs, *stretch]:
        parts = ["before"]
        if n:
            layout.fill(parts, first, n)
            assert first + n >= len(layout.built[1]) or len(parts) == 2, (first, n, layout.low, layout.period)
        expected = "".join(
            f"<{offset + k * step}{literal}{offset + 8 + k * other_step}|{offset + k * step}>" for k in range(first, first + n)
        )
        assert "".join(parts) == "before" + expected


def test_threads_rendering_at_once_write_the_same_bytes():
    # each grows the layouts and swaps in pages while the others read them,
    # with more threads than cores and a thread switch every microsecond
    models = [assemble_stable_map(parse_conway(text), "f3") for text in ("C(3,2,3,2,9000)", "C(-3,-20000,-3)", "C(2,4,2)")]
    expected = [render_svg(model) for model in models]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            render._layout.cache_clear()
            with ThreadPoolExecutor(6) as pool:
                futures = [pool.submit(render_svg, model) for model in models * 2]
                assert [future.result(timeout=60) for future in futures] == expected * 2
    finally:
        sys.setswitchinterval(interval)


def test_no_layout_holds_text_past_a_period_beyond_its_low_row():
    # fills are fast because they hand out fewer pieces, not because
    # layouts keep documents: whatever was exported and rendered, a layout
    # holds text for its rows up to low + period, and pieces for its period
    for text in ("C(10000,2,10000)", "C(-3,-20000,-3)"):
        model = assemble_stable_map(parse_conway(text), "f3")
        documents = ("".join(serialize._export_parts(model)), render_svg(model), render_svg(model.strips), render_svg(ImmersedCurve(model.word, "f3")))
        assert all(len(document) > 10**6 for document in documents)
    layouts = [obj for obj in gc.get_objects() if isinstance(obj, render._Layout)]
    assert any(len(layout.built[1]) - 1 == layout.low + layout.period for layout in layouts)
    for layout in layouts:
        text, starts, rows = layout.built
        assert len(starts) - 1 <= layout.low + layout.period and len(text) == starts[-1], layout.template
        assert len(rows) <= layout.period * layout.stride, layout.template


def test_model_render_peaks_under_1_7_times_its_length():
    model = assemble_stable_map(ConwayWord((2000, 2, 2000)), "f2")
    render_svg(assemble_stable_map(ConwayWord((3, 2, 3)), "f2"))  # the layouts are built once per process
    tracemalloc.start()
    try:
        svg = render_svg(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.7 * len(svg), (peak, len(svg))
