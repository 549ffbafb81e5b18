"""Plat diagrams and the derived immersed curves and strip decompositions.

The plat model fixes one concrete realization of the Conway form:

* four strand positions, numbered 1..4 top to bottom, capped by arcs
  joining (1,2) and (3,4) at both ends;
* a horizontal twist region a_i puts |a_i| crossings on the middle
  strands (2,3) -- these are the crossings adjacent to the outer region;
* a vertical twist region b_j puts |b_j| crossings on the top strands
  (1,2);
* entry signs map to braid exponents as sign(a_i) and -sign(b_j), so a
  word with all entries >= 2 (or all <= -2) yields a reduced alternating
  diagram.

Smoothing every outer-adjacent crossing horizontally disconnects the
(3,4)-strand circle, which is discarded; the rest is a single closed
curve whose double points are exactly the b-crossings.  For the f3
variant, bigon reduction then pairs them into self-tangencies
(``_curve``).  So each twist region fixes its run of columns, and
assembly reads them off the word (``_word_regions``), building neither
diagram nor curve; one per-region emitter (``_sliced``) slices those
regions, or a curve's (``strip_decompose``), into strips.  The module
owns the ``VARIANTS`` and ``GRANULARITIES``: assembly and import read
them here, and the CLI's parser writes them out.  Geometry stays
abstract: strips are combinatorial tokens, and coordinates only exist
in the SVG renderer.

A plat diagram holds one of four shared Crossing objects per twist
region, a curve one of six shared Column objects per twist region and a
strip decomposition one Strip object per value, each as a run
``(object, count)`` of a run-length sequence (``_RunSeq``); a fine
decomposition holds an interior strip and the empty filler after it as
one pattern run ``((strip, filler), count)``.  Only the runs say where a
piece sits, so at every granularity the work is per region, not per
crossing, from the diagram on, and a model's memory does not grow with
its crossing count.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate, chain, compress, repeat, starmap
from operator import index, is_not, itemgetter, mul

from .conway import ConwayWord
from .errors import (
    OddTwistError,
    UnsliceableShapeError,
    VariantMismatchError,
)

VARIANTS = ("f2", "f3")
GRANULARITIES = ("crossing", "region", "fine")

A_STRANDS = (2, 3)
B_STRANDS = (1, 2)

_object, _count = itemgetter(0), itemgetter(1)  # of a run ``(object, count)``


class _RunSeq:
    """An immutable sequence held as runs ``(object, count)``, or in a
    ``patterned`` one ``(pattern, count)``, a tuple of objects repeated
    (a fine decomposition repeats ``(strip, filler)``).  Counts are
    positive, on trust; adjacent runs may hold the same object.  As a
    sequence it is ``tuple(self)``: its length, indexing, iteration,
    ``==``, ``hash`` and ``repr`` are those of the expanded tuple, and a
    slice is that tuple's slice.  Length is O(1), an index is a bisection
    over the run ends, iteration runs at C speed, and equality with
    another run-length sequence whose runs line up takes one step per
    run; only ``hash``, ``repr`` and slices expand."""

    __slots__ = ("runs", "patterned", "_ends")

    def __init__(self, runs=(), patterned=False, like=None):
        """``like``, if given, is a sequence whose runs line up with these."""
        self.runs = runs = tuple(runs)
        self.patterned = patterned
        counts = map(_count, runs)
        self._ends = like._ends if like else tuple(accumulate(map(mul, map(len, map(_object, runs)), counts) if patterned else counts))

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __iter__(self):
        return _expand(self.runs, self.patterned)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return tuple(self)[key]
        i = index(key)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("tuple index out of range")
        run = bisect_right(self._ends, i)
        item = self.runs[run][0]
        # a pattern run ends on its pattern's last item
        return item[(i - self._ends[run]) % len(item)] if self.patterned else item

    def _shape(self) -> tuple:  # what two sequences whose runs line up share
        return self._ends, self.patterned and tuple(map(len, map(_object, self.runs)))

    def __eq__(self, other):
        if isinstance(other, _RunSeq):
            if self._shape() == other._shape():
                return self.runs == other.runs
            return len(self) == len(other) and tuple(self) == tuple(other)
        if isinstance(other, tuple):
            return len(self) == len(other) and tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class Crossing:
    """A crossing of the plat diagram, by orientation and sign.  There
    are four, one per ``(outer_adjacent, entry_sign)``, and every diagram
    shares them (``_CROSSINGS``).

    ``braid_sign`` is the exponent of the underlying braid letter;
    ``outer_adjacent`` marks the crossings smoothed by ``outer_smooth``.
    """

    strands: tuple[int, int]
    braid_sign: int
    entry_sign: int
    outer_adjacent: bool


_CROSSINGS = {
    (outer, sign > 0): Crossing(A_STRANDS if outer else B_STRANDS, sign if outer else -sign, sign, outer)
    for outer in (True, False)
    for sign in (1, -1)
}


@dataclass(frozen=True)
class PlatDiagram:
    """The word's twist regions laid out left to right as a capped 4-plat:
    ``crossings`` holds one run ``(crossing, |entry|)`` per region, in
    the word's order, of the crossing for its orientation (horizontal for
    even regions) and sign."""

    word: ConwayWord

    @cached_property
    def crossings(self) -> Sequence[Crossing]:
        runs = ((_CROSSINGS[region % 2 == 0, entry > 0], abs(entry)) for region, entry in enumerate(self.word.entries))
        return _RunSeq(runs)


@dataclass(frozen=True)
class Column:
    """One interior tile of an immersed curve: a smoothed-crossing mark,
    a surviving double point, or a self-tangency.  There are six, one
    per ``(kind, sign)``, and every curve shares them (``_COLUMNS``)."""

    kind: str  # 'pass' | 'crossing' | 'tangency'
    sign: int


_COLUMNS = {
    (kind, sign > 0): Column(kind, sign) for kind in ("pass", "crossing", "tangency") for sign in (1, -1)
}


@dataclass(frozen=True)
class ImmersedCurve:
    word: ConwayWord
    variant: str  # 'f2' (double points) | 'f3' (tangencies)
    columns: Sequence[Column] = field(hash=False)


@dataclass(frozen=True)
class Strip:
    """Rectangular region token.  ``param`` is the signed content count:
    the b-entry for a whole-clasp Type 2 strip, +/-1 for a tangency
    Type 2 strip, the signed crossing count for Type 3 (0 for fillers)."""

    kind: str  # 'type1' | 'type2' | 'type3' | 'type4'
    columns: Sequence[Column] = field(default=(), hash=False)
    param: int = 0


@dataclass(frozen=True)
class StripDecomposition:
    word: ConwayWord
    variant: str
    granularity: str
    strips: Sequence[Strip] = field(hash=False)


build_plat_diagram = PlatDiagram  # the public name the benchmark times as curves.plat


def _runs(items) -> list[tuple[object, int]]:
    """Maximal runs of one repeated object, as ``(object, length)``.

    Identity, not equality, delimits a run, and the run starts are found
    at C speed."""
    if not items:
        return []
    starts = [0, *compress(range(1, len(items)), map(is_not, items, items[1:]))]
    return [(items[a], b - a) for a, b in zip(starts, starts[1:] + [len(items)])]


def _runs_of(items) -> Sequence[tuple[object, int]]:
    """The runs ``(object, count)`` of ``items``: those a run-length
    sequence without patterns carries, or ``_runs`` of any other sequence,
    such as a tuple put into a model after assembly.  A patterned
    sequence is refused, since its runs are not of one object: a caller
    that takes one writes it out (``_item_runs``)."""
    if getattr(items, "patterned", False):
        raise TypeError("a patterned sequence has no runs of one object")
    return items.runs if isinstance(items, _RunSeq) else _runs(tuple(items))


def _item_runs(items) -> Sequence[tuple[object, int]]:
    """``_runs_of(items)``, with a patterned sequence written out first,
    a step per item.  Only what writes out every item anyway (a trace's
    components, a document's entries) asks for these."""
    return _runs(tuple(items)) if getattr(items, "patterned", False) else _runs_of(items)


def _as_runs(items) -> _RunSeq:
    """``items`` as a run-length sequence: itself, or its runs."""
    return items if isinstance(items, _RunSeq) else _RunSeq(_runs(items))


def _expand(runs, patterned=False):
    """The items of ``runs``, at C speed, never holding more than one."""
    items = chain.from_iterable(starmap(repeat, runs))
    return chain.from_iterable(items) if patterned else items


_Numbering = namedtuple("_Numbering", ("numbers", "counts", "patterns", "values"))


def _numbered(items) -> _Numbering:
    """``items`` numbered by identity, one step per run: per run its count,
    and its number, its object's place among the distinct ``values`` in
    order of first sight, or in a patterned sequence its pattern's among
    the distinct ``patterns`` (else None), tuples of their items' numbers."""
    seq = _as_runs(items)
    patterns = [] if seq.patterned else None
    place, values, numbers = {}, [], []  # place: an object's or a pattern's number, by its id
    for x, _ in seq.runs:
        k = place.get(id(x))
        if k is None:
            if patterns is None:
                k = place[id(x)] = len(values)
                values.append(x)
            else:  # a pattern: its items numbered in turn, and it among the patterns
                pattern = []
                for y in x:
                    j = place.get(id(y))
                    if j is None:
                        j = place[id(y)] = len(values)
                        values.append(y)
                    pattern.append(j)
                k = place[id(x)] = len(patterns)
                patterns.append(tuple(pattern))
        numbers.append(k)
    return _Numbering(numbers, tuple(map(_count, seq.runs)), patterns, values)


def _through(numbered: _Numbering, table) -> zip:
    """The runs of ``numbered``, number k read as ``table[k]`` and a
    pattern as the tuple of its items', at C speed."""
    numbers, counts, patterns, _ = numbered
    if patterns is not None:
        table = [tuple(map(table.__getitem__, p)) for p in patterns]
    return zip(map(table.__getitem__, numbers), counts)


def _each(numbered: _Numbering, f):
    """The items of ``numbered`` as ``f`` of each distinct one, at C speed."""
    return _expand(_through(numbered, list(map(f, numbered.values))), numbered.patterns is not None)


def outer_smooth(d: PlatDiagram) -> ImmersedCurve:
    """Smooth every crossing adjacent to the outer region, drop the
    outermost circle, and forget the remaining crossing information: each
    region's run of crossings becomes a run of the shared Column for its
    kind and sign."""
    columns = _RunSeq(
        (_COLUMNS["pass" if x.outer_adjacent else "crossing", x.entry_sign > 0], count)
        for x, count in _runs_of(d.crossings)
    )
    # One closed curve always remains: caps join strands 1, 2 at both ends, whatever the crossings swap.
    return ImmersedCurve(word=d.word, variant="f2", columns=columns)


def _regions(columns: Sequence[Column]) -> list[tuple[str, int, list[tuple[Column, int]]]]:
    """The runs of ``columns`` grouped by twist region, as ``(kind,
    region, runs)``: a region is a maximal stretch of one kind, numbered
    in order.  A plat's regions alternate kinds, so each is one run; a
    curve built by hand may hold a region as several runs."""
    regions = []
    for run in _runs_of(columns):
        if regions and regions[-1][0] == run[0].kind:
            regions[-1][2].append(run)
        else:
            regions.append((run[0].kind, len(regions), [run]))
    return regions


def bigon_reduce(c: ImmersedCurve) -> ImmersedCurve:
    """Replace each vertical twist region's double points pairwise by
    self-tangencies; requires every b_i even."""
    if c.variant != "f2":
        raise VariantMismatchError("bigon_reduce expects a pre-reduction curve")
    runs: list[tuple[Column, int]] = []
    for kind, region, group in _regions(c.columns):
        if kind != "crossing":
            runs += group
            continue
        count = sum(map(_count, group))
        if count % 2 != 0:
            raise OddTwistError(
                f"region {region} has {count} double points; pairing impossible"
            )
        runs.append((_COLUMNS["tangency", group[0][0].sign > 0], count // 2))
    return ImmersedCurve(word=c.word, variant="f3", columns=_RunSeq(runs))


def _curve(word: ConwayWord, variant: str) -> ImmersedCurve:
    """The curve of a ``variant`` model of ``word``: its plat's outer smoothing, bigon-reduced for f3."""
    curve = outer_smooth(PlatDiagram(word))
    return bigon_reduce(curve) if variant == "f3" else curve


# The strips that need no word: the caps, the empty filler, and the strip
# over one shared pass column (Type 3) or tangency (Type 2), by its id.
_CAP_IN, _CAP_OUT, _FILLER = Strip("type1"), Strip("type4"), Strip("type3")
_ONE_KIND = {"pass": "type3", "tangency": "type2"}
_ONE_COLUMN = {
    id(column): Strip(_ONE_KIND[column.kind], _RunSeq([(column, 1)]), param=column.sign)
    for column in _COLUMNS.values()
    if column.kind in _ONE_KIND
}


@lru_cache(maxsize=1024)
def _strip(kind: str, runs: tuple[tuple[Column, int], ...]) -> Strip:
    """The one strip of ``kind`` over the column ``runs`` in this process,
    while it is among the last 1024 asked for: a frozen value of its key,
    so every decomposition that has the region may hold it."""
    columns = _RunSeq(runs)
    return Strip(kind, columns, param=runs[0][0].sign * len(columns))


def _sliced(word: ConwayWord, variant: str, granularity: str, regions) -> tuple[StripDecomposition, _Numbering]:
    """The strip decomposition of a curve of ``word`` with the twist
    ``regions`` ``(kind, column runs)``, and its numbering (``_numbered``),
    from one per-region emitter: each run is numbered by identity as it is
    emitted, and at ``fine`` a strip's pattern ``(strip, filler)`` is made
    and numbered when the strip is first emitted."""
    fine = granularity == "fine"
    runs, numbers, values = [((_CAP_IN,) if fine else _CAP_IN, 1)], [0], [_CAP_IN]
    place, patterns, pattern_of = {id(_CAP_IN): 0}, [(0,)] if fine else None, {}  # by id: a strip's number, its pattern's
    for kind, group in regions:
        one = _ONE_KIND.get(kind)
        if kind == "crossing" or kind == "pass" and granularity == "region":  # the region is one strip
            group, one = [(_strip(one or "type2", tuple(group)), 1)], None
        for strip, count in group:
            if one:  # a strip per column: Type 3 over a pass, Type 2 over a tangency
                strip = _ONE_COLUMN.get(id(strip)) or _strip(one, ((strip, 1),))
            k = place.setdefault(id(strip), len(values))
            if k == len(values):
                values.append(strip)
            if fine:  # the pattern (strip, filler), made and numbered at the strip's first sight
                pattern, number = pattern_of.get(id(strip)) or ((strip, _FILLER), len(patterns))
                if number == len(patterns):
                    pattern_of[id(strip)] = pattern, number
                    filler = place.setdefault(id(_FILLER), len(values))
                    if filler == len(values):
                        values.append(_FILLER)
                    patterns.append((k, filler))
                strip, k = pattern, number
            runs.append((strip, count))
            numbers.append(k)
    runs.append(((_CAP_OUT,) if fine else _CAP_OUT, 1))
    numbers.append(len(patterns) if fine else len(values))
    if fine:
        patterns.append((len(values),))
    values.append(_CAP_OUT)
    numbering = _Numbering(numbers, tuple(map(_count, runs)), patterns, values)
    return StripDecomposition(word, variant, granularity, _RunSeq(runs, fine)), numbering


def _require_known(variant, granularity) -> None:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if granularity not in GRANULARITIES:
        raise ValueError(f"unknown granularity {granularity!r}")


def _word_regions(word: ConwayWord, variant: str):
    """The twist regions of ``word`` as the curve of a ``variant`` model
    holds them (``_curve``), one column run each: a pass column at even
    positions, and at odd ones the crossing column (f2) or |b|/2
    tangencies (f3), every b even on trust."""
    odd = "tangency" if variant == "f3" else "crossing"
    for i, entry in enumerate(word.entries):
        kind = odd if i % 2 else "pass"
        yield kind, [(_COLUMNS[kind, entry > 0], abs(entry) // 2 if kind == "tangency" else abs(entry))]


def _word_strips(word: ConwayWord, variant: str, granularity: str) -> tuple[StripDecomposition, _Numbering]:
    """The strip decomposition of a ``variant`` model of ``word``, sliced from its regions, and its numbering."""
    _require_known(variant, granularity)
    return _sliced(word, variant, granularity, _word_regions(word, variant))


def strip_decompose(
    curve: ImmersedCurve, variant: str, granularity: str = "crossing"
) -> StripDecomposition:
    """Slice the rectangle into Type 1..4 strips around the curve.

    A whole vertical twist region occupies one Type 2 strip in an f2
    decomposition; each self-tangency gets its own Type 2 strip in f3.
    Granularity only changes how smoothed-crossing marks distribute over
    Type 3 strips ('fine' puts the empty filler after each interior
    strip, as pattern runs); the Type 2 content is invariant.  Strips of
    one kind over the same column runs are one object, wherever they
    sit and in whichever decomposition (``_strip``), and those that need
    no word always are.  The curve's regions are checked here, then
    sliced as a word's are (``_sliced``).
    """
    _require_known(variant, granularity)
    if curve.variant != variant:
        raise VariantMismatchError(
            f"curve is {curve.variant}-style, decomposition wants {variant}"
        )
    regions = _regions(curve.columns)
    for kind, region, group in regions:
        if kind == "crossing":
            count = sum(map(_count, group))
            entries = curve.word.entries  # a curve built by hand may have more regions
            expected = abs(entries[region]) if region < len(entries) else 0
            if count != expected:
                raise UnsliceableShapeError(
                    f"region {region}: {count} double points in one slice, "
                    f"expected the full twist region of {expected}"
                )
        elif kind not in _ONE_KIND:
            raise UnsliceableShapeError(f"unknown tile kind {kind!r}")
    return _sliced(curve.word, variant, granularity, ((kind, group) for kind, _, group in regions))[0]
