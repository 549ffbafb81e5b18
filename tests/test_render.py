"""SVG rendering: glyph counts, determinism, well-formedness."""

import xml.etree.ElementTree as ET
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import model_entries, oracle_model_svg
from twobridge.conway import ConwayWord
from twobridge.curves import bigon_reduce, build_plat_diagram, outer_smooth, strip_decompose
from twobridge.morse import assemble_stable_map
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
    assert svg.count('class="gamma"') == decomposition.n


def test_model_svg_draws_reeb_trees():
    model = assemble_stable_map(ConwayWord((3, 2, 3)), "f2")
    svg = render_svg(model)
    assert svg.count('class="reeb-tree"') == model.strips.n
    assert svg.count('class="event-ii2"') == 2


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
    # strips and blocks put in as plain tuples, whose runs are found anew
    plain = replace(
        model,
        blocks=tuple(model.blocks),
        strips=replace(model.strips, strips=tuple(model.strips.strips)),
    )
    assert render_svg(plain) == expected
