"""Immersed curves and strip decompositions, read off a Conway word's twist regions.

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
variant, bigon reduction then pairs them into self-tangencies.  So each
twist region fixes its run of columns, and a curve and a strip
decomposition are their arguments, ``ImmersedCurve(word, variant)`` and
``StripDecomposition(word, variant, granularity)``, checked when built:
one region reader (``_word_regions``) gives their runs, and one
per-region emitter (``_sliced``) slices and numbers the strips.  No
diagram is built; the public stages (``outer_smooth``, ``bigon_reduce``,
``strip_decompose``) are one constructor call each, and the test
suite's oracle derives the same strips crossing by crossing.  The module
owns the ``VARIANTS`` and ``GRANULARITIES``: assembly and import read
them here, and the CLI's parser writes them out.  Geometry stays
abstract: strips are combinatorial tokens, and coordinates only exist in
the SVG renderer.

A curve holds one of six shared Column objects per twist region and a
strip decomposition one Strip object per value, each as a run
``(object, count)`` of a run-length sequence (``_RunSeq``); a fine
decomposition holds the crossing-level runs, and the empty filler after
each interior strip is a fact of the sequence (``_Filled``), not of its
runs.  So at every granularity the work is per region, not per
crossing, and a model's memory does not grow with its crossing count.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate, chain, compress, islice, repeat, starmap
from operator import index, is_not, itemgetter

from .conway import ConwayWord, all_b_even
from .errors import OddTwistError, VariantMismatchError

VARIANTS = ("f2", "f3")
GRANULARITIES = ("crossing", "region", "fine")

_count = itemgetter(1)  # of a run ``(object, count)``


class _RunSeq:
    """An immutable sequence held as runs ``(object, count)``.  Counts
    are positive, on trust; adjacent runs may hold the same object.  As a
    sequence it is ``tuple(self)``: its length, indexing, iteration,
    ``==``, ``hash`` and ``repr`` are those of the expanded tuple, and a
    slice is that tuple's slice.  Length is O(1), an index is a bisection
    over the run ends, iteration runs at C speed, and equality with
    another run-length sequence whose runs line up takes one step per
    run; only ``hash``, ``repr`` and slices expand."""

    __slots__ = ("runs", "_ends", "filler")

    def __init__(self, runs=(), like=None, filler=None):
        """``like``: a sequence whose runs line up with these; ``filler``: a ``_Filled`` one's."""
        self.runs = runs = tuple(runs)
        self.filler = filler
        self._ends = like._ends if like else tuple(accumulate(map(_count, runs)))

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __iter__(self):
        return _expand(self.runs)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return tuple(self)[key]
        i = index(key)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("tuple index out of range")
        return self._at(i)

    def _at(self, i: int):
        return self.runs[bisect_right(self._ends, i)][0]

    def __eq__(self, other):
        if isinstance(other, _RunSeq):
            if self._ends == other._ends and self.filler == other.filler:
                return self.runs == other.runs
            return len(self) == len(other) and tuple(self) == tuple(other)
        if isinstance(other, tuple):
            return len(self) == len(other) and tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


class _Filled(_RunSeq):
    """A fine sequence: the items of the crossing-level ``runs``, whose
    first and last are one cap each, with ``filler`` after every item but
    those two.  As a sequence it is its tuple, as a ``_RunSeq`` is.  The
    filler is the empty one (``_FILLER``, or its catalogued block), which
    the numbering and the tables take it to be."""

    __slots__ = ()

    def __len__(self) -> int:
        return 2 * self._ends[-1] - 2

    def __iter__(self):
        items = _expand(self.runs)  # the first, then each of the next n - 2 with the filler, then the last
        return chain(islice(items, 1), chain.from_iterable(zip(islice(items, self._ends[-1] - 2), repeat(self.filler))), items)

    def _at(self, i: int):
        return super()._at((i + 1) // 2) if i % 2 or not i else self.filler


@dataclass(frozen=True)
class PlatDiagram:
    """The word's twist regions laid out left to right as a capped
    4-plat.  It holds only its word: ``outer_smooth`` reads its curve off
    the word."""

    word: ConwayWord


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
    """The ``variant`` curve of ``word``: ``columns`` holds one run
    ``(column, count)`` per twist region (``_word_regions``), read off
    the word when first asked for."""

    word: ConwayWord
    variant: str  # 'f2' (double points) | 'f3' (tangencies)

    def __post_init__(self):
        _check(self.word, self.variant)

    @cached_property
    def columns(self) -> Sequence[Column]:
        return _RunSeq(_word_regions(self.word, self.variant))


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
    """The Type 1..4 strips around the ``variant`` curve of ``word``,
    sliced off the word when first asked for (``_sliced``, which also
    numbers them; assembly sets them as it builds one).

    A whole vertical twist region occupies one Type 2 strip in an f2
    decomposition; each self-tangency gets its own Type 2 strip in f3.
    ``granularity`` only changes how smoothed-crossing marks distribute
    over Type 3 strips ('fine' puts the empty filler after each interior
    strip, ``_Filled``).  Strips of one kind over one run of one column
    value are one object, wherever they sit and in whichever
    decomposition (``_strip``), and those that need no word always are.
    """

    word: ConwayWord
    variant: str
    granularity: str

    def __post_init__(self):
        _check(self.word, self.variant, self.granularity)

    @cached_property
    def _slicing(self) -> tuple[Sequence[Strip], _Numbering]:
        return _sliced(self.word, self.variant, self.granularity)

    @property
    def strips(self) -> Sequence[Strip]:
        return self._slicing[0]


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
    """The runs ``(object, count)`` of ``items``: a plain run-length
    sequence's own, else ``_runs`` of its items, as of a fine one or a tuple."""
    return items.runs if type(items) is _RunSeq else _runs(tuple(items))


def _as_runs(items) -> _RunSeq:
    """``items`` as a run-length sequence: itself, or its runs."""
    return items if isinstance(items, _RunSeq) else _RunSeq(_runs(items))


def _expand(runs):
    """The items of ``runs``, at C speed, never holding more than one."""
    return chain.from_iterable(starmap(repeat, runs))


_Numbering = namedtuple("_Numbering", ("numbers", "counts", "fine", "values"))


def _numbered(items) -> _Numbering:
    """``items`` numbered by identity, one step per run: per run its count,
    and its number, its object's place among the distinct ``values`` in
    order of first sight; a ``fine`` one (``_Filled``) by its runs."""
    seq = _as_runs(items)
    place, values, numbers = {}, [], []  # place: an object's number, by its id
    for x, _ in seq.runs:
        k = place.get(id(x))
        if k is None:
            k = place[id(x)] = len(values)
            values.append(x)
        numbers.append(k)
    return _Numbering(numbers, tuple(map(_count, seq.runs)), seq.filler is not None, values)


def _through(numbered: _Numbering, table) -> zip:
    """The runs of ``numbered``, number k read as ``table[k]``, at C speed."""
    return zip(map(table.__getitem__, numbered.numbers), numbered.counts)


def _each(numbered: _Numbering, table: list, filler=None):
    """The items of ``numbered``, value k as ``table[k]`` (and ``filler`` between, if fine), at C speed."""
    runs = _through(numbered, table)
    return iter(_Filled(runs, filler=filler)) if numbered.fine else _expand(runs)


def outer_smooth(d: PlatDiagram) -> ImmersedCurve:
    """Smooth every crossing adjacent to the outer region, drop the
    outermost circle, and forget the remaining crossing information: the
    f2 curve of the diagram's word, whose columns are each region's run
    of the shared Column for its kind and sign."""
    # One closed curve always remains: caps join strands 1, 2 at both ends, whatever the crossings swap.
    return ImmersedCurve(d.word, "f2")


def bigon_reduce(c: ImmersedCurve) -> ImmersedCurve:
    """Replace each vertical twist region's double points pairwise by
    self-tangencies: the f3 curve, which requires every b_i even."""
    if c.variant != "f2":
        raise VariantMismatchError("bigon_reduce expects a pre-reduction curve")
    return ImmersedCurve(c.word, "f3")


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
def _strip(kind: str, column_kind: str, sign: int, count: int) -> Strip:
    """The one strip of ``kind`` over ``count`` columns of ``column_kind``
    and ``sign`` in this process, while it is among the last 1024 asked
    for: a frozen value of its key, so every decomposition that has the
    region may hold it.  The key is plain values, which hash at C speed."""
    return Strip(kind, _RunSeq([(Column(column_kind, sign), count)]), param=sign * count)


def _sliced(word: ConwayWord, variant: str, granularity: str) -> tuple[Sequence[Strip], _Numbering]:
    """The strips of the ``variant`` curve of ``word`` at ``granularity``,
    sliced from its twist regions (``_word_regions``), and their numbering
    (``_numbered``), from one per-region emitter: each run is numbered by
    identity as it is emitted.  A fine decomposition is the crossing one
    with the filler after each interior strip (``_Filled``), and so is
    its numbering."""
    runs, numbers, values, place = [(_CAP_IN, 1)], [0], [_CAP_IN], {id(_CAP_IN): 0}  # place: a strip's number, by its id
    for column, count in _word_regions(word, variant):
        kind = column.kind
        if kind == "crossing" or kind == "pass" and granularity == "region":  # the region is one strip
            strip, count = _strip(_ONE_KIND.get(kind, "type2"), kind, column.sign, count), 1
        else:  # a strip per column: Type 3 over a pass, Type 2 over a tangency
            strip = _ONE_COLUMN[id(column)]
        k = place.setdefault(id(strip), len(values))
        if k == len(values):
            values.append(strip)
        runs.append((strip, count))
        numbers.append(k)
    runs.append((_CAP_OUT, 1))
    numbers.append(len(values))
    values.append(_CAP_OUT)
    fine = granularity == "fine"
    numbering = _Numbering(numbers, tuple(map(_count, runs)), fine, values)
    return (_Filled(runs, filler=_FILLER) if fine else _RunSeq(runs)), numbering


def _require_known(variant, granularity) -> None:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if granularity not in GRANULARITIES:
        raise ValueError(f"unknown granularity {granularity!r}")


def _check(word: ConwayWord, variant, granularity="crossing") -> None:
    """Raise unless ``variant`` and ``granularity`` are known and, for
    f3, every vertical twist region of ``word`` pairs into tangencies."""
    _require_known(variant, granularity)
    if variant == "f3" and not all_b_even(word):
        region = next(i for i, b in enumerate(word.entries) if i % 2 and b % 2)
        raise OddTwistError(f"region {region} has {abs(word.entries[region])} double points; pairing impossible")


def _word_regions(word: ConwayWord, variant: str):
    """The twist regions of ``word`` as its ``variant`` curve holds them,
    one column run each: a pass column at even positions, and at odd ones
    the crossing column (f2) or |b|/2 tangencies (f3), every b even as
    ``_check`` has found."""
    odd = "tangency" if variant == "f3" else "crossing"
    for i, entry in enumerate(word.entries):
        kind = odd if i % 2 else "pass"
        yield _COLUMNS[kind, entry > 0], abs(entry) // 2 if kind == "tangency" else abs(entry)


def strip_decompose(
    curve: ImmersedCurve, variant: str, granularity: str = "crossing"
) -> StripDecomposition:
    """Slice the rectangle into Type 1..4 strips around the curve: the
    decomposition of its word (``StripDecomposition``)."""
    _require_known(variant, granularity)
    if curve.variant != variant:
        raise VariantMismatchError(
            f"curve is {curve.variant}-style, decomposition wants {variant}"
        )
    return StripDecomposition(curve.word, variant, granularity)
