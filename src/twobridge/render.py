"""Deterministic SVG rendering of curves, strip decompositions, and models.

All layout constants are fixed and all coordinates are integers, so the
same input always renders to the same bytes.  Strip separators are drawn
as vertical lines, Type 2 strips are highlighted, and model renders add
the standard Reeb tree beneath every separator.  Rendering is one-way;
SVG is never imported.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import compress, repeat

from .curves import ImmersedCurve, StripDecomposition, _mapped
from .morse import StableMapModel

MARGIN = 16
COL_W = 28
CAP_W = 24
CURVE_TOP = 32
CURVE_BOT = 88
STRIP_W = 36
STRIP_TOP = 16
STRIP_BOT = 112
TREE_H = 48
TREE_W = 16

_HEADER = '<?xml version="1.0" encoding="UTF-8"?>'


def _svg(width: int, height: int, parts: list[str]) -> str:
    opening = (
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 {width} {height}" width="{width}" height="{height}">'
    )
    return "\n".join([_HEADER, opening, *parts, "</svg>", ""])


def _line(x1, y1, x2, y2, cls, dashed=False) -> str:
    dash = ' stroke-dasharray="4 3"' if dashed else ""
    return (
        f'<line class="{cls}" x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
        f'stroke="black" stroke-width="2"{dash}/>'
    )


@lru_cache(maxsize=64)
def _pieces(template: str) -> tuple[str, ...]:
    """The template split at its ``{i}`` fields: text, field, text, ..."""
    return tuple(re.split(r"\{(\d+)\}", template))


def _filled(template: str, *texts: list[str]) -> list[str]:
    """``template.format(*row)`` for each row of ``zip(*texts)``: every
    output line is joined from the template's pieces and the given text."""
    pieces = _pieces(template)
    rows = len(texts[0])
    parts = (repeat(p, rows) if i % 2 == 0 else texts[int(p)] for i, p in enumerate(pieces))
    return list(map("".join, zip(*parts)))


def _render_curve(curve: ImmersedCurve) -> str:
    n = len(curve.columns)
    width = 2 * MARGIN + 2 * CAP_W + n * COL_W
    height = CURVE_BOT + CURVE_TOP
    mid = (CURVE_TOP + CURVE_BOT) // 2
    left = MARGIN + CAP_W
    right = left + n * COL_W
    parts = [
        f'<rect class="region-E" x="{MARGIN // 2}" y="{MARGIN // 2}" '
        f'width="{width - MARGIN}" height="{height - MARGIN}" '
        f'fill="none" stroke="gray" stroke-width="1"/>',
        f'<path class="cap" d="M {left} {CURVE_TOP} C {MARGIN} {CURVE_TOP} '
        f'{MARGIN} {CURVE_BOT} {left} {CURVE_BOT}" fill="none" stroke="black" stroke-width="2"/>',
        f'<path class="cap" d="M {right} {CURVE_TOP} C {width - MARGIN} {CURVE_TOP} '
        f'{width - MARGIN} {CURVE_BOT} {right} {CURVE_BOT}" fill="none" stroke="black" stroke-width="2"/>',
    ]
    for i, col in enumerate(curve.columns):
        x0 = left + i * COL_W
        x1 = x0 + COL_W
        if col.kind == "crossing":
            parts.append(
                '<g class="crossing">'
                + _line(x0, CURVE_TOP, x1, CURVE_BOT, "strand")
                + _line(x0, CURVE_BOT, x1, CURVE_TOP, "strand")
                + "</g>"
            )
        elif col.kind == "tangency":
            cx = (x0 + x1) // 2
            parts.append(
                '<g class="tangency">'
                f'<path d="M {x0} {CURVE_TOP} Q {cx} {mid} {x1} {CURVE_TOP}" '
                f'fill="none" stroke="black" stroke-width="2"/>'
                f'<path d="M {x0} {CURVE_BOT} Q {cx} {mid} {x1} {CURVE_BOT}" '
                f'fill="none" stroke="black" stroke-width="2"/>'
                "</g>"
            )
        else:
            parts.append(_line(x0, CURVE_TOP, x1, CURVE_TOP, "strand"))
            parts.append(_line(x0, CURVE_BOT, x1, CURVE_BOT, "strand"))
            cx = (x0 + x1) // 2
            parts.append(_line(cx, CURVE_TOP - 8, cx, CURVE_BOT + 8, "smoothed-mark", dashed=True))
    return _svg(width, height, parts)


def _strip_rect(strip) -> tuple[str, str]:
    """The rect of ``strip`` before and after its x."""
    kind = strip.kind
    if kind == "type2":
        fill = "#ffd27f"
        cls = "strip strip-type2"
    elif kind in ("type1", "type4"):
        fill = "#e8e8e8"
        cls = f"strip strip-{kind}"
    else:
        fill = "white"
        cls = "strip strip-type3"
    return (
        f'<rect class="{cls}" x="',
        f'" y="{STRIP_TOP}" width="{STRIP_W}" height="{STRIP_BOT - STRIP_TOP}" fill="{fill}" stroke="none"/>',
    )


# A gamma line split at its two x fields, so that ``x.join(_GAMMA)`` is
# the line at x.
_GAMMA = tuple(_line("{0}", STRIP_TOP, "{0}", STRIP_BOT, "gamma").split("{0}"))


def _strip_parts(strips) -> tuple[list[str], list[str]]:
    """The strip rects, the outline of E and the gamma lines, and the
    text of every strip edge's x, turned into text once.  A rect is the
    text of its x between the two pieces of its strip's rect."""
    n = len(strips)
    xs = list(map(str, range(MARGIN, MARGIN + (n + 1) * STRIP_W, STRIP_W)))
    parts = list(map(str.join, xs, _mapped(strips, _strip_rect)))
    parts.append(
        f'<rect class="region-E" x="{xs[0]}" y="{STRIP_TOP}" '
        f'width="{n * STRIP_W}" height="{STRIP_BOT - STRIP_TOP}" '
        f'fill="none" stroke="black" stroke-width="2"/>'
    )
    parts += map(str.join, xs[1:n], repeat(_GAMMA))
    return parts, xs


def _render_strips(decomposition: StripDecomposition) -> str:
    width = 2 * MARGIN + len(decomposition.strips) * STRIP_W
    height = STRIP_BOT + MARGIN
    return _svg(width, height, _strip_parts(decomposition.strips)[0])


def _tree_glyph(y: int) -> str:
    """The standard cross-section tree: two leaves above, two below, with
    ``{0}``, ``{1}`` and ``{2}`` for its left, middle and right x."""
    top = y
    s_hi = y + TREE_H // 3
    s_lo = y + 2 * TREE_H // 3
    bot = y + TREE_H
    segs = [
        _line("{0}", top, "{1}", s_hi, "reeb-edge"),
        _line("{2}", top, "{1}", s_hi, "reeb-edge"),
        _line("{1}", s_hi, "{1}", s_lo, "reeb-edge"),
        _line("{1}", s_lo, "{0}", bot, "reeb-edge"),
        _line("{1}", s_lo, "{2}", bot, "reeb-edge"),
    ]
    return '<g class="reeb-tree">' + "".join(segs) + "</g>"


def _event_dots(block) -> tuple[str, ...]:
    """The dots of a block's events, one line each, split at their cx:
    ``cx.join(...)`` is the block's dots, and ``()`` stands for none."""
    events = block.events
    mid_y = (STRIP_TOP + STRIP_BOT) // 2
    dots = (
        f'<circle class="{"event-ii2" if event.kind == "II2" else "event-ii3"}" cx="{{0}}" '
        f'cy="{mid_y + (j - len(events) // 2) * 14}" r="4" fill="black"/>'
        for j, event in enumerate(events)
    )
    return tuple("\n".join(dots).split("{0}")) if events else ()


def _render_model(model: StableMapModel) -> str:
    strips = model.strips.strips
    n = len(strips)
    left = MARGIN
    width = 2 * MARGIN + n * STRIP_W
    height = STRIP_BOT + TREE_H + 3 * MARGIN
    parts, xs = _strip_parts(strips)
    # The dots of each block with events, at the middle x of its strip.
    dots = _mapped(model.blocks, _event_dots)
    mids = compress(range(left + STRIP_W // 2, left + len(dots) * STRIP_W, STRIP_W), dots)
    parts += map(str.join, map(str, mids), filter(None, dots))
    # One tree beneath each separator, at x = left + k * STRIP_W.
    half = TREE_W // 2
    parts += _filled(
        _tree_glyph(STRIP_BOT + MARGIN),
        list(map(str, range(left + STRIP_W - half, left + n * STRIP_W - half, STRIP_W))),
        xs[1:n],
        list(map(str, range(left + STRIP_W + half, left + n * STRIP_W + half, STRIP_W))),
    )
    return _svg(width, height, parts)


def render_svg(subject) -> str:
    """Render an ImmersedCurve, StripDecomposition, or StableMapModel."""
    if isinstance(subject, ImmersedCurve):
        return _render_curve(subject)
    if isinstance(subject, StripDecomposition):
        return _render_strips(subject)
    if isinstance(subject, StableMapModel):
        return _render_model(subject)
    raise TypeError(f"cannot render {type(subject).__name__}")
