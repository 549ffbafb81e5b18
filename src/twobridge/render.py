"""Deterministic SVG rendering of curves, strip decompositions, and models.

All layout constants are fixed and all coordinates are integers, so the
same input always renders to the same bytes.  Strip separators are drawn
as vertical lines, Type 2 strips are highlighted, and model renders add
the standard Reeb tree beneath every separator.  Rendering is one-way;
SVG is never imported.

A document is one flat list of shared strings, joined once.  Its
elements are rows of a few templates, and along a run of rows each x is
``offset + k*step``, so its text is two shared pieces taken from tables
built once per process: its thousands, and its last three digits with
the template's next literal (``_fill``).
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import chain, repeat
from math import gcd, lcm
from operator import itemgetter

from .curves import ImmersedCurve, StripDecomposition, _expand, _mapped, _runs_of
from .morse import CrossSection, StableMapModel

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


def _opening(width: int, height: int) -> list[str]:
    """A document's parts up to its first element; every part ends its line."""
    svg = f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="0 0 {width} {height}" width="{width}" height="{height}">'
    return [f'<?xml version="1.0" encoding="UTF-8"?>\n{svg}\n']


def _line(x1, y1, x2, y2, cls, dashed=False) -> str:
    dash = ' stroke-dasharray="4 3"' if dashed else ""
    return f'<line class="{cls}" x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="black" stroke-width="2"{dash}/>'


@lru_cache(maxsize=64)
def _pieces(template: str) -> tuple[str, ...]:
    """The template split at its ``{i}`` fields: text, field, text, ..."""
    return tuple(re.split(r"\{(\d+)\}", template))


def _heads(x: int, step: int, n: int) -> list[str]:
    """The thousands of x + k*step for k < n, one shared text per run of
    rows ('' below 1000)."""
    heads = []
    for h in range(x // 1000, (x + (n - 1) * step) // 1000 + 1):
        heads += [str(h) if h else ""] * (min(n, (1000 * (h + 1) - x + step - 1) // step) - len(heads))
    return heads


@lru_cache(maxsize=64)
def _layout(template: str, fields: tuple) -> tuple[list[str], int, list[str], dict]:
    """The first rows of ``template`` over the progressions ``fields``,
    once per process: a row is its first literal, then per field the
    thousands of its x and the rest with the next literal.  They run until
    every x is 1000 or more, then for the period of the tails (1000 /
    gcd(step, 1000) rows).  Returns the rows, their stride, the period's
    rows and, for each progression, the places of its thousands in a row."""
    pieces = _pieces(template)
    low = max((max(0, (1000 - offset + step - 1) // step) for offset, step in fields), default=0)
    count = low + lcm(*(1000 // gcd(step, 1000) for _, step in fields))
    columns, slots = [[pieces[0]] * count] if pieces[0] else [], {}
    for name, literal in zip(pieces[1::2], pieces[2::2]):
        offset, step = fields[int(name)]
        slots.setdefault((offset, step), []).append(len(columns))
        xs = range(offset, offset + count * step, step)
        columns += (_heads(offset, step, count), [f"{x % 1000:03d}{literal}" if x >= 1000 else f"{x}{literal}" for x in xs])
    rows = list(chain.from_iterable(zip(*columns)))
    return rows, len(columns), rows[low * len(columns) :], slots


def _fill(parts: list, template: str, n: int, fields: tuple, first: int = 0) -> None:
    """Append rows ``first`` to ``first + n - 1`` of ``template``, whose
    field ``{j}`` reads offset + k*step in row k for ``fields[j] = (offset,
    step)``: sliced out of the layout, then out of its period, for which
    only the thousands are written, one shared text per run of rows.  No
    row is made as one string and no number is formatted per row; for
    ``n <= 0`` nothing is appended."""
    if n <= 0:
        return
    rows, stride, period, slots = _layout(template, fields)
    end, top = first + n, max(first, len(rows) // stride)
    parts += rows[first * stride : min(end, top) * stride]
    if end <= top:
        return
    start, size = len(parts), (end - top) * stride
    at = (top * stride - len(rows) + len(period)) % len(period)
    parts += period[at : at + size]
    for _ in range((start + size - len(parts)) // len(period)):
        parts += period
    parts += period[: start + size - len(parts)]
    for (offset, step), places in slots.items():
        heads = _heads(offset + top * step, step, end - top)
        for j in places:
            parts[start + j :: stride] = heads


# One row per column kind: {0} is the column's left x, {1} its right x
# and {2} its middle, and any other kind is a smoothed crossing.
_PATHS = "".join(
    f'<path d="M {{0}} {y} Q {{2}} {(CURVE_TOP + CURVE_BOT) // 2} {{1}} {y}" fill="none" stroke="black" stroke-width="2"/>'
    for y in (CURVE_TOP, CURVE_BOT)
)
_COLUMN_ROWS = {
    "crossing": f'<g class="crossing">{_line("{0}", CURVE_TOP, "{1}", CURVE_BOT, "strand")}'
    f'{_line("{0}", CURVE_BOT, "{1}", CURVE_TOP, "strand")}</g>\n',
    "tangency": f'<g class="tangency">{_PATHS}</g>\n',
}
_PASS_ROW = (
    f'{_line("{0}", CURVE_TOP, "{1}", CURVE_TOP, "strand")}\n{_line("{0}", CURVE_BOT, "{1}", CURVE_BOT, "strand")}\n'
    f'{_line("{2}", CURVE_TOP - 8, "{2}", CURVE_BOT + 8, "smoothed-mark", dashed=True)}\n'
)


def _curve_parts(curve: ImmersedCurve) -> list[str]:
    width = 2 * MARGIN + 2 * CAP_W + len(curve.columns) * COL_W
    height = CURVE_BOT + CURVE_TOP
    left, right = MARGIN + CAP_W, width - MARGIN - CAP_W
    parts = _opening(width, height)
    parts.append(
        f'<rect class="region-E" x="{MARGIN // 2}" y="{MARGIN // 2}" width="{width - MARGIN}" '
        f'height="{height - MARGIN}" fill="none" stroke="gray" stroke-width="1"/>\n'
        + "".join(
            f'<path class="cap" d="M {x} {CURVE_TOP} C {edge} {CURVE_TOP} {edge} {CURVE_BOT} {x} {CURVE_BOT}" '
            f'fill="none" stroke="black" stroke-width="2"/>\n'
            for x, edge in ((left, MARGIN), (right, width - MARGIN))
        )
    )
    fields = ((left, COL_W), (left + COL_W, COL_W), (left + COL_W // 2, COL_W))
    first = 0
    for column, count in _runs_of(curve.columns):
        _fill(parts, _COLUMN_ROWS.get(column.kind, _PASS_ROW), count, fields, first)
        first += count
    return parts


_RECT_FILL = {"type1": "#e8e8e8", "type2": "#ffd27f", "type4": "#e8e8e8"}


@lru_cache(maxsize=16)
def _strip_rect(kind: str) -> tuple[str, str]:
    """The rect of a strip of ``kind`` before and after its x; a kind
    other than Type 1, 2 or 4 is drawn as Type 3."""
    kind = kind if kind in _RECT_FILL else "type3"
    return (
        f'<rect class="strip strip-{kind}" x="',
        f'" y="{STRIP_TOP}" width="{STRIP_W}" height="{STRIP_BOT - STRIP_TOP}" '
        f'fill="{_RECT_FILL.get(kind, "white")}" stroke="none"/>\n',
    )


def _strip_parts(parts: list, strips) -> list[str]:
    """``parts`` with the strip rects, the outline of E and the gamma
    lines appended; a rect's x lies between the two pieces of its rect."""
    n = len(strips)
    rects, xs = list(_expand(*_mapped(strips, lambda strip: _strip_rect(strip.kind)))), []
    _fill(xs, "{0}", n, ((MARGIN, STRIP_W),))
    start = len(parts)
    parts += repeat(None, 4 * n)
    parts[start :: 4], parts[start + 3 :: 4] = map(itemgetter(0), rects), map(itemgetter(1), rects)
    parts[start + 1 :: 4], parts[start + 2 :: 4] = xs[0::2], xs[1::2]
    parts.append(
        f'<rect class="region-E" x="{MARGIN}" y="{STRIP_TOP}" width="{n * STRIP_W}" '
        f'height="{STRIP_BOT - STRIP_TOP}" fill="none" stroke="black" stroke-width="2"/>\n'
    )
    _fill(parts, _line("{0}", STRIP_TOP, "{0}", STRIP_BOT, "gamma") + "\n", n - 1, ((MARGIN + STRIP_W, STRIP_W),))
    return parts


# The standard cross-section tree, edge by edge: leaves 1 and 2 above,
# 3 and 4 below, the saddles between, with {0}, {1} and {2} for the
# left, middle and right x.
_TOP, _HI, _LO, _BOT = (STRIP_BOT + MARGIN + k * TREE_H // 3 for k in range(4))
_PLACES = {1: ("{0}", _TOP), 2: ("{2}", _TOP), "s_hi": ("{1}", _HI), "s_lo": ("{1}", _LO), 3: ("{0}", _BOT), 4: ("{2}", _BOT)}
_TREE = '<g class="reeb-tree">' + "".join(_line(*_PLACES[u], *_PLACES[v], "reeb-edge") for u, v in CrossSection.edges) + "</g>\n"


@lru_cache(maxsize=64)
def _event_dots(events: tuple) -> tuple[str, ...]:
    """The dots of a block's events, one line each, split at their cx:
    ``cx.join(...)`` is the block's dots, and ``()`` stands for none."""
    n, mid_y = len(events), (STRIP_TOP + STRIP_BOT) // 2
    dots = "".join(
        f'<circle class="{"event-ii2" if event.kind == "II2" else "event-ii3"}" cx="{{0}}" '
        f'cy="{mid_y + (j - n // 2) * 14}" r="4" fill="black"/>\n'
        for j, event in enumerate(events)
    )
    return tuple(dots.split("{0}")) if dots else ()


def _model_parts(model: StableMapModel) -> list[str]:
    n = len(model.strips.strips)
    parts = _strip_parts(_opening(2 * MARGIN + n * STRIP_W, STRIP_BOT + TREE_H + 3 * MARGIN), model.strips.strips)
    # The dots of each block with events, at the middle x of its strip.
    mid = MARGIN + STRIP_W // 2
    runs, patterned = _mapped(model.blocks, lambda block: _event_dots(block.events))
    for dots, count in runs:
        if not patterned:
            if dots:
                parts += map(str.join, map(str, range(mid, mid + count * STRIP_W, STRIP_W)), repeat(dots))
            mid += count * STRIP_W
            continue
        # A pattern's blocks take turns: block j of each repetition is j strips on.
        step = len(dots) * STRIP_W
        if any(dots):
            rows = (map(str.join, map(str, range(x, x + count * step, step)), repeat(d)) for x, d in zip(range(mid, mid + step, STRIP_W), dots) if d)
            parts += chain.from_iterable(zip(*rows))
        mid += count * step
    # One tree beneath each separator, at x = MARGIN + k * STRIP_W.
    x = MARGIN + STRIP_W
    _fill(parts, _TREE, n - 1, ((x - TREE_W // 2, STRIP_W), (x, STRIP_W), (x + TREE_W // 2, STRIP_W)))
    return parts


def _svg_parts(subject) -> list[str]:
    """The parts of ``render_svg(subject)``, in order."""
    if isinstance(subject, ImmersedCurve):
        parts = _curve_parts(subject)
    elif isinstance(subject, StripDecomposition):
        parts = _strip_parts(_opening(2 * MARGIN + len(subject.strips) * STRIP_W, STRIP_BOT + MARGIN), subject.strips)
    elif isinstance(subject, StableMapModel):
        parts = _model_parts(subject)
    else:
        raise TypeError(f"cannot render {type(subject).__name__}")
    parts.append("</svg>\n")
    return parts


def render_svg(subject) -> str:
    """Render an ImmersedCurve, StripDecomposition, or StableMapModel."""
    return "".join(_svg_parts(subject))
