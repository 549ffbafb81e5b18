"""Deterministic SVG rendering of curves, strip decompositions, and models.

All layout constants are fixed and all coordinates are integers, so the
same input always renders to the same bytes.  Strip separators are drawn
as vertical lines, Type 2 strips are highlighted, and model renders add
the standard Reeb tree beneath every separator.  Rendering is one-way;
SVG is never imported.

A document is runs of rows: a strip rect, a gamma line, a tree, a column
glyph of a curve, or in an export a strip or block entry; rects, glyphs
and blocks are placed per run off their numbering (``_run_rows``).
Along a run each x is ``offset + k*step``, so a row is shared pieces: per x
its thousands, and its last three digits with the template's next
literal.  A template's rows are laid out once per process, only as far
as calls ask, and joined, so a run of them is one slice of that text; a
row past them is a slice of a cached page of its period (``_Layout``),
so a call costs the same wherever its run starts.  A document is one
list of parts, filled run by run (``_windowed``), with an optional
``flush`` callback that is handed the list each time ``_WINDOW`` more
row pieces have gone in.  ``render_svg`` and ``export_json`` pass none
and join the list once; the CLI passes one that writes the parts and
empties the list, so what it holds does not grow with the document.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import accumulate, chain, islice, repeat
from math import gcd, lcm

from .curves import ImmersedCurve, StripDecomposition, _numbered
from .morse import _ENTRIES, REEB_EDGES, StableMapModel, _facts

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

_WINDOW = 1 << 13  # row pieces a flush is handed, give or take a row


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


# A row source has ``stride``, the pieces of each of its rows, and
# ``fill(parts, first, n)``, which appends rows first to first + n - 1.


class _Layout:
    """The rows of ``template`` over the progressions ``fields``: a row is
    its first literal, then per field the thousands of its x and the rest
    with the next literal.  Rows are built as far as calls ask, until
    every x is 1000 or more (row ``low``) and then for the period of the
    tails (1000 / gcd(step, 1000) rows), and held joined with each row's
    start, so a run of them is one slice of the text.  The period's rows
    are also held as pieces: a row past them is a row of a page, the
    period with the thousands of one stretch of rows written in; the last
    page is kept.  The built rows (text, starts and pieces) and the page
    are each one value, swapped in whole and never changed after, so
    calls from two threads at once read consistent rows."""

    __slots__ = ("template", "fields", "pieces", "stride", "low", "period", "places", "built", "page")

    def __init__(self, template: str, fields: tuple):
        self.template, self.fields = template, fields
        self.pieces = pieces = _pieces(template)
        self.stride = bool(pieces[0]) + len(pieces) - 1  # parts per row
        self.low = max((max(0, (1000 - offset + step - 1) // step) for offset, step in fields), default=0)
        self.period = lcm(*(1000 // gcd(step, 1000) for _, step in fields))
        places: dict[tuple, list[int]] = {}  # each progression's thousands in a row
        for at, name in enumerate(pieces[1::2]):
            places.setdefault(fields[int(name)], []).append(bool(pieces[0]) + 2 * at)
        self.places = tuple(places.items())
        self.built: tuple[str, list[int], list[str]] = ("", [0], [])  # text, row starts, pieces of rows low on
        self.page: tuple[int, int, list[str]] = (0, 0, [])  # first row, end, rows

    def _build(self, start: int, end: int) -> list[str]:
        """Rows ``start`` to ``end - 1``, part by part."""
        n, pieces = end - start, self.pieces
        columns = [repeat(pieces[0], n)] if pieces[0] else []
        for name, literal in zip(pieces[1::2], pieces[2::2]):
            offset, step = self.fields[int(name)]
            x = offset + start * step
            xs = range(x, x + n * step, step)
            columns += (_heads(x, step, n), [f"{x % 1000:03d}{literal}" if x >= 1000 else f"{x}{literal}" for x in xs])
        return list(chain.from_iterable(zip(*columns)))

    def fill(self, parts: list, first: int, n: int) -> None:
        """Append rows ``first`` to ``first + n - 1``, for ``n >= 1``: one
        text if they end inside the built rows."""
        end, stride = first + n, self.stride
        text, starts, rows = self.built
        if end < len(starts):
            parts.append(text[starts[first] : starts[end]])
            return
        start, stop, page = self.page
        if start <= first and end <= stop:
            parts += page[(first - start) * stride : (end - start) * stride]
            return
        built, low, period = len(starts) - 1, self.low, self.period
        if built < low + period:
            new = self._build(built, min(low + period, max(end, 2 * built, 16)))
            starts = starts + list(accumulate(map(len, new), initial=len(text)))[stride::stride]
            text, rows = text + "".join(new), rows + new[max(0, low - built) * stride :]
            self.built, built = (text, starts, rows), len(starts) - 1
        if first < built:
            parts.append(text[starts[first] : starts[min(end, built)]])
            first = built
        if end - first <= period:  # a slice of a page or two
            while first < end:
                start = first - (first - low) % period
                stop, page = self._page(rows, start)
                parts += page[(first - start) * stride : (min(end, stop) - start) * stride]
                first = stop
            return
        # Longer: whole periods of the page, then the thousands written in.
        page = self.page[2] or self._page(rows, low + period)[1]
        start, size = len(parts), (end - first) * stride
        at = (first - low) % period * stride
        parts += page[at : at + size]
        for _ in range((start + size - len(parts)) // len(page)):
            parts += page
        parts += page[: start + size - len(parts)]
        for (offset, step), places in self.places:
            heads = _heads(offset + first * step, step, end - first)
            for j in places:
                parts[start + j :: stride] = heads

    def _page(self, rows: list, start: int) -> tuple[int, list[str]]:
        """The end and the rows of the page from row ``start`` on: the
        period's pieces ``rows``, with the thousands of rows ``start``
        onwards written in."""
        at, stop, page = self.page
        if at != start:
            page, stop, stride = rows[:], start + self.period, self.stride
            for (offset, step), places in self.places:
                heads = _heads(offset + start * step, step, self.period)
                for j in places:
                    page[j::stride] = heads
            self.page = (start, stop, page)
        return stop, page


@lru_cache(maxsize=64)
def _layout(template: str, fields: tuple) -> _Layout:
    """The one layout of ``template`` over ``fields`` in this process."""
    return _Layout(template, fields)


class _Text:
    """Rows that are one text each: a template with no field."""

    __slots__ = ("template",)
    stride, fields = 1, ()

    def __init__(self, template: str):
        self.template = template

    def fill(self, parts: list, first: int, n: int) -> None:
        parts += [self.template] * n  # the one text n times: ``template * n`` would copy a long run once more


class _Texts:
    """Rows that are the texts of an iterator, one each, taken in order:
    filled from the first row on, each row once, at C speed."""

    __slots__ = ("texts",)
    stride = 1

    def __init__(self, texts):
        self.texts = texts

    def fill(self, parts: list, first: int, n: int) -> None:
        parts += islice(self.texts, n)


def _row(template: str, fields: tuple):
    """The rows of ``template`` over ``fields``: a layout, or a text if it
    has no field."""
    return _layout(template, fields) if fields else _Text(template)


def _followed(row, filler):
    """The row of a fine model's entry (``_row``): ``row``, then the
    filler's, one joined row per strip and filler from strip 1 on, so
    each field steps by two strips (``_run_rows``)."""
    shifted = re.sub(r"\{(\d+)\}", lambda m: f"{{{int(m[1]) + len(row.fields)}}}", filler.template)
    fields = tuple((offset + (1 + j) * step, 2 * step) for j, item in enumerate((row, filler)) for offset, step in item.fields)
    return _row(row.template + shifted, fields)


def _run_rows(numbered, rows, fine_rows=None):
    """The runs ``(row, count, first)`` (``_windowed``) of a sequence
    ``numbered`` (``curves._numbered``) whose distinct item k has the rows
    ``rows[k]``, from its first item on; numbered fine, every run but the
    caps takes ``fine_rows[k]`` (``_followed``), a row per item and filler."""
    numbers, counts, fine, _ = numbered
    if not fine:
        return zip(map(rows.__getitem__, numbers), counts, accumulate(counts, initial=0))
    runs = list(zip(map(fine_rows.__getitem__, numbers), counts, accumulate(counts, initial=-1)))
    runs[0], runs[-1] = (rows[numbers[0]], 1, 0), (rows[numbers[-1]], 1, 2 * runs[-1][2] + 1)
    return runs


def _windowed(parts: list, runs, flush=None) -> list:
    """Append to ``parts`` the rows of each run ``(row, count, first)``,
    rows ``first`` to ``first + count - 1`` of a row source, none for a
    count below 1, and return it.  With ``flush``, ``parts`` is handed to
    ``flush`` whenever ``_WINDOW`` row pieces have gone in and more are to
    go in, so never after the last row: it writes them and empties the
    list (``cli._write_output``).  A row counts as its ``stride`` pieces
    and a part that ``parts`` starts with as one, however few strings a
    fill appends: one text can hold thousands of rows.  Without
    ``flush``, a run is one fill."""
    held = len(parts)
    for row, count, first in runs:
        while flush and count > 0 and held + count * row.stride > _WINDOW:
            if held >= _WINDOW:
                flush(parts)
                held = 0
            k = min(count, (_WINDOW - held) // row.stride + 1)  # to the window's end and one more
            row.fill(parts, first, k)
            first, count, held = first + k, count - k, held + k * row.stride
        if count > 0:
            row.fill(parts, first, count)
            held += count * row.stride
    return parts


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


def _curve_runs(curve: ImmersedCurve) -> tuple[list[str], list]:
    """The opening parts of the curve's document and its runs of rows."""
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
    numbered = _numbered(curve.columns)
    return parts, _run_rows(numbered, [_layout(_COLUMN_ROWS.get(column.kind, _PASS_ROW), fields) for column in numbered.values])


_RECT_FILL = {"type1": "#e8e8e8", "type2": "#ffd27f", "type4": "#e8e8e8"}
# The rect of a strip of each kind at its x; a kind other than Type 1, 2
# or 4 is drawn as Type 3.
_RECTS = {
    kind: _layout(
        f'<rect class="strip strip-{kind}" x="{{0}}" y="{STRIP_TOP}" width="{STRIP_W}" height="{STRIP_BOT - STRIP_TOP}" '
        f'fill="{_RECT_FILL.get(kind, "white")}" stroke="none"/>\n',
        ((MARGIN, STRIP_W),),
    )
    for kind in ("type1", "type2", "type3", "type4")
}
_FINE_RECTS = {rect: _followed(rect, _RECTS["type3"]) for rect in _RECTS.values()}  # each with the filler's after it
_GAMMA = _layout(_line("{0}", STRIP_TOP, "{0}", STRIP_BOT, "gamma") + "\n", ((MARGIN + STRIP_W, STRIP_W),))


def _strip_runs(numbered, n: int) -> list:
    """The rects of the ``n`` strips ``numbered`` (``curves._numbered``),
    the outline of E and the gamma lines."""
    outline = (
        f'<rect class="region-E" x="{MARGIN}" y="{STRIP_TOP}" width="{n * STRIP_W}" '
        f'height="{STRIP_BOT - STRIP_TOP}" fill="none" stroke="black" stroke-width="2"/>\n'
    )
    rects = [_RECTS.get(strip.kind) or _RECTS["type3"] for strip in numbered.values]
    fine = numbered.fine and list(map(_FINE_RECTS.__getitem__, rects))
    return [*_run_rows(numbered, rects, fine), (_Text(outline), 1, 0), (_GAMMA, n - 1, 0)]


# The standard cross-section tree, edge by edge: leaves 1 and 2 above,
# 3 and 4 below, the saddles between, with {0}, {1} and {2} for the
# left, middle and right x.
_TOP, _HI, _LO, _BOT = (STRIP_BOT + MARGIN + k * TREE_H // 3 for k in range(4))
_PLACES = {1: ("{0}", _TOP), 2: ("{2}", _TOP), "s_hi": ("{1}", _HI), "s_lo": ("{1}", _LO), 3: ("{0}", _BOT), 4: ("{2}", _BOT)}
_TREE_X = tuple((MARGIN + STRIP_W + dx, STRIP_W) for dx in (-TREE_W // 2, 0, TREE_W // 2))
_TREE = _layout('<g class="reeb-tree">' + "".join(_line(*_PLACES[u], *_PLACES[v], "reeb-edge") for u, v in REEB_EDGES) + "</g>\n", _TREE_X)


def _event_dots(block) -> tuple[str, ...]:
    """The dots of a block's events, one line each, split at their cx:
    ``cx.join(...)`` is the block's dots, and ``()`` stands for none."""
    events = block.events
    n, mid_y = len(events), (STRIP_TOP + STRIP_BOT) // 2
    dots = "".join(
        f'<circle class="{"event-ii2" if event.kind == "II2" else "event-ii3"}" cx="{{0}}" '
        f'cy="{mid_y + (j - n // 2) * 14}" r="4" fill="black"/>\n'
        for j, event in enumerate(events)
    )
    return tuple(dots.split("{0}")) if dots else ()


_DOTS = tuple(map(_event_dots, _ENTRIES))  # by entry number


def _dot_run(numbered) -> tuple[_Texts, int, int]:
    """The dots of the blocks ``numbered`` by entry (``morse._catalogued``)
    at the middle x of each strip, one run of texts formatted as taken:
    cheaper than a fill per run where runs are one block long.  Numbered
    fine, each block but the first is two strips wide, with the filler."""
    numbers, counts, fine, _ = numbered
    dots = _facts(_DOTS, numbered, _event_dots)
    texts, total, step, first = [], 0, STRIP_W << fine, MARGIN + STRIP_W // 2
    mid = first + STRIP_W - step  # where the first run would start, were it as wide as the others
    for number, count in zip(numbers, counts):
        if dots[number]:
            x = mid if mid > first else first
            texts.append([str(x).join(dots[number])] if count == 1 else map(str.join, map(str, range(x, x + count * step, step)), repeat(dots[number])))
            total += count
        mid += count * step
    return _Texts(chain.from_iterable(texts)), total, 0


def _model_runs(model: StableMapModel) -> tuple[list[str], list]:
    """The opening parts of the model's document and its runs of rows:
    the strips', the dots, and one tree beneath each separator, at x =
    MARGIN + k * STRIP_W."""
    n = len(model.strips.strips)
    parts = _opening(2 * MARGIN + n * STRIP_W, STRIP_BOT + TREE_H + 3 * MARGIN)
    return parts, [*_strip_runs(model._strips_numbered, n), _dot_run(model._blocks_numbered), (_TREE, n - 1, 0)]


def _svg_parts(subject, flush=None) -> list[str]:
    """The parts of ``render_svg(subject)``, in order (``_windowed``)."""
    if isinstance(subject, ImmersedCurve):
        parts, runs = _curve_runs(subject)
    elif isinstance(subject, StripDecomposition):
        n = len(subject.strips)
        parts, runs = _opening(2 * MARGIN + n * STRIP_W, STRIP_BOT + MARGIN), _strip_runs(subject._slicing[1], n)
    elif isinstance(subject, StableMapModel):
        parts, runs = _model_runs(subject)
    else:
        raise TypeError(f"cannot render {type(subject).__name__}")
    _windowed(parts, runs, flush).append("</svg>\n")
    return parts


def render_svg(subject) -> str:
    """Render an ImmersedCurve, StripDecomposition, or StableMapModel."""
    return "".join(_svg_parts(subject))
