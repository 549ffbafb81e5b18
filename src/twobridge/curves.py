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
curve whose double points are exactly the b-crossings.  Geometry stays
abstract throughout: strips are combinatorial tokens, and coordinates
only exist in the SVG renderer.

A curve repeats one Column object per twist region, and a strip
decomposition one Strip object per run of like columns, so the work
downstream is per region, not per crossing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, groupby
from operator import attrgetter, is_not

from .conway import ConwayWord
from .errors import (
    OddTwistError,
    UnsliceableShapeError,
    VariantMismatchError,
)

CAP_PAIRS = ((1, 2), (3, 4))
GRANULARITIES = ("crossing", "region", "fine")

A_STRANDS = (2, 3)
B_STRANDS = (1, 2)


@dataclass(frozen=True)
class Crossing:
    """One crossing of the plat diagram.

    ``braid_sign`` is the exponent of the underlying braid letter;
    ``outer_adjacent`` marks the crossings smoothed by ``outer_smooth``.
    """

    region: int
    slot: int
    strands: tuple[int, int]
    braid_sign: int
    entry_sign: int
    outer_adjacent: bool


@dataclass(frozen=True)
class PlatDiagram:
    word: ConwayWord
    crossings: tuple[Crossing, ...]

    def __post_init__(self):
        counts = self.region_counts
        expected = tuple(abs(e) for e in self.word.entries)
        if counts != expected:
            raise ValueError(f"region counts {counts} != {expected}")

    @property
    def total_crossings(self) -> int:
        return len(self.crossings)

    @property
    def region_counts(self) -> tuple[int, ...]:
        counts = [0] * len(self.word.entries)
        for x in self.crossings:
            counts[x.region] += 1
        return tuple(counts)


@dataclass(frozen=True)
class CrossingCensus:
    total: int
    per_region: tuple[int, ...]
    sum_a: int
    sum_b: int
    bigon_pairs: int | None


@dataclass(frozen=True)
class Column:
    """One interior tile of an immersed curve: a smoothed-crossing mark,
    a surviving double point, or a self-tangency."""

    kind: str  # 'pass' | 'crossing' | 'tangency'
    region: int
    sign: int


@dataclass(frozen=True)
class ImmersedCurve:
    word: ConwayWord
    variant: str  # 'f2' (double points) | 'f3' (tangencies)
    columns: tuple[Column, ...]
    removed_circles: int = 1

    @property
    def double_points(self) -> int:
        return sum(1 for c in self.columns if c.kind == "crossing")

    @property
    def tangencies(self) -> int:
        return sum(1 for c in self.columns if c.kind == "tangency")

    @property
    def tile_word(self) -> tuple[str, ...]:
        return ("cap_left",) + tuple(c.kind for c in self.columns) + ("cap_right",)


@dataclass(frozen=True)
class Strip:
    """Rectangular region token.  ``param`` is the signed content count:
    the b-entry for a whole-clasp Type 2 strip, +/-1 for a tangency
    Type 2 strip, the signed crossing count for Type 3 (0 for fillers)."""

    kind: str  # 'type1' | 'type2' | 'type3' | 'type4'
    columns: tuple[Column, ...] = ()
    param: int = 0


@dataclass(frozen=True)
class StripDecomposition:
    word: ConwayWord
    variant: str
    granularity: str
    strips: tuple[Strip, ...]
    validation: tuple[tuple[str, bool], ...] = field(default=())

    @property
    def n(self) -> int:
        """Number of separating segments: strip count minus one."""
        return len(self.strips) - 1

    @property
    def type2_count(self) -> int:
        return sum(1 for s in self.strips if s.kind == "type2")

    @property
    def expected_type2(self) -> int:
        if self.variant == "f2":
            return self.word.m
        return sum(abs(b) for b in self.word.b_entries) // 2

    @property
    def ok(self) -> bool:
        return all(passed for _, passed in self.validation)


def _region_runs(word: ConwayWord) -> list[tuple[int, int, bool, int]]:
    """Each twist region as ``(region, crossings, outer_adjacent, entry_sign)``."""
    return [
        (region, abs(entry), region % 2 == 0, 1 if entry > 0 else -1)
        for region, entry in enumerate(word.entries)
    ]


def build_plat_diagram(word: ConwayWord) -> PlatDiagram:
    """Lay out the word's twist regions left to right as a capped 4-plat."""
    crossings = []
    for region, count, horizontal, sign in _region_runs(word):
        strands = A_STRANDS if horizontal else B_STRANDS
        braid_sign = sign if horizontal else -sign
        for slot in range(count):
            crossings.append(
                Crossing(
                    region=region,
                    slot=slot,
                    strands=strands,
                    braid_sign=braid_sign,
                    entry_sign=sign,
                    outer_adjacent=horizontal,
                )
            )
    return PlatDiagram(word=word, crossings=tuple(crossings))


def _runs(items) -> list[tuple[object, int]]:
    """Maximal runs of one repeated object, as ``(object, length)``.

    Identity, not equality, delimits a run, and the run starts are found
    at C speed, so a sequence that repeats one object per twist region
    costs one step per region."""
    if not items:
        return []
    starts = [0, *compress(range(1, len(items)), map(is_not, items, items[1:]))]
    return [(items[a], b - a) for a, b in zip(starts, starts[1:] + [len(items)])]


def _mapped(items, f) -> list:
    """``[f(x) for x in items]``, one call per run of one object."""
    out = []
    for item, count in _runs(items):
        out += [f(item)] * count
    return out


def crossing_census(d: PlatDiagram) -> CrossingCensus:
    sum_a = sum(abs(a) for a in d.word.a_entries)
    sum_b = sum(abs(b) for b in d.word.b_entries)
    pairs = sum_b // 2 if all(b % 2 == 0 for b in d.word.b_entries) else None
    return CrossingCensus(
        total=d.total_crossings,
        per_region=d.region_counts,
        sum_a=sum_a,
        sum_b=sum_b,
        bigon_pairs=pairs,
    )


def _smooth(word: ConwayWord, region_runs) -> ImmersedCurve:
    """The smoothing routine: each run ``(region, crossings,
    outer_adjacent, entry_sign)`` of like crossings becomes one Column,
    repeated once per crossing."""
    columns: list[Column] = []
    for region, count, outer, sign in region_runs:
        columns += [Column("pass" if outer else "crossing", region, sign)] * count
    # One closed curve always remains: caps join strands 1, 2 at both ends, whatever the crossings swap.
    return ImmersedCurve(word=word, variant="f2", columns=tuple(columns), removed_circles=1)


def _smooth_word(word: ConwayWord) -> ImmersedCurve:
    """``outer_smooth(build_plat_diagram(word))`` straight from the twist
    regions, without a Crossing per crossing."""
    return _smooth(word, _region_runs(word))


def outer_smooth(d: PlatDiagram) -> ImmersedCurve:
    """Smooth every crossing adjacent to the outer region, drop the
    outermost circle, and forget the remaining crossing information."""
    runs = groupby(d.crossings, attrgetter("region", "outer_adjacent", "entry_sign"))
    return _smooth(d.word, [(region, len(list(group)), outer, sign) for (region, outer, sign), group in runs])


def _column_runs(columns: tuple[Column, ...]) -> list[tuple[Column, int, int]]:
    """Maximal runs of columns of one kind and region, as ``(first
    column, start, stop)``."""
    out: list[tuple[Column, int, int]] = []
    start = 0
    for col, count in _runs(columns):
        stop = start + count
        if out and (out[-1][0].kind, out[-1][0].region) == (col.kind, col.region):
            out[-1] = (out[-1][0], out[-1][1], stop)
        else:
            out.append((col, start, stop))
        start = stop
    return out


def bigon_reduce(c: ImmersedCurve) -> ImmersedCurve:
    """Replace each vertical twist region's double points pairwise by
    self-tangencies; requires every b_i even."""
    if c.variant != "f2":
        raise VariantMismatchError("bigon_reduce expects a pre-reduction curve")
    out: list[Column] = []
    cols = c.columns
    for col, start, stop in _column_runs(cols):
        if col.kind != "crossing":
            out += cols[start:stop]
            continue
        run = stop - start
        if run % 2 != 0:
            raise OddTwistError(
                f"region {col.region} has {run} double points; pairing impossible"
            )
        out += [Column("tangency", col.region, col.sign)] * (run // 2)
    return ImmersedCurve(
        word=c.word, variant="f3", columns=tuple(out), removed_circles=c.removed_circles
    )


def strip_decompose(
    curve: ImmersedCurve, variant: str, granularity: str = "crossing"
) -> StripDecomposition:
    """Slice the rectangle into Type 1..4 strips around the curve.

    A whole vertical twist region occupies one Type 2 strip in an f2
    decomposition; each self-tangency gets its own Type 2 strip in f3.
    Granularity only changes how smoothed-crossing marks distribute over
    Type 3 strips ('fine' additionally interleaves empty ones); the
    Type 2 content is invariant.
    """
    if variant not in ("f2", "f3"):
        raise ValueError(f"unknown variant {variant!r}")
    if granularity not in GRANULARITIES:
        raise ValueError(f"unknown granularity {granularity!r}")
    if curve.variant != variant:
        raise VariantMismatchError(
            f"curve is {curve.variant}-style, decomposition wants {variant}"
        )

    interior: list[Strip] = []
    type2 = 0
    cols = curve.columns
    for col, start, stop in _column_runs(cols):
        run = cols[start:stop]
        if col.kind == "pass":
            if granularity == "region":
                interior.append(Strip("type3", run, param=col.sign * len(run)))
            else:
                interior += _mapped(run, lambda c: Strip("type3", (c,), param=c.sign))
        elif col.kind == "crossing":
            expected = abs(curve.word.entries[col.region])
            if len(run) != expected:
                raise UnsliceableShapeError(
                    f"region {col.region}: {len(run)} double points in one slice, "
                    f"expected the full twist region of {expected}"
                )
            interior.append(Strip("type2", run, param=col.sign * len(run)))
            type2 += 1
        elif col.kind == "tangency":
            interior += _mapped(run, lambda c: Strip("type2", (c,), param=c.sign))
            type2 += len(run)
        else:
            raise UnsliceableShapeError(f"unknown tile kind {col.kind!r}")

    if granularity == "fine":
        spaced: list[Strip] = [Strip("type3", (), param=0)] * (2 * len(interior))
        spaced[0::2] = interior
        interior = spaced

    strips = (Strip("type1"),) + tuple(interior) + (Strip("type4"),)
    decomposition = StripDecomposition(
        word=curve.word,
        variant=variant,
        granularity=granularity,
        strips=strips,
        validation=(),
    )
    checks = (
        ("first_is_type1", strips[0].kind == "type1"),
        ("last_is_type4", strips[-1].kind == "type4"),
        ("type2_count", type2 == decomposition.expected_type2),
        ("interior_kinds", all(s.kind in ("type2", "type3") for s, _ in _runs(strips[1:-1]))),
    )
    return StripDecomposition(
        word=curve.word,
        variant=variant,
        granularity=granularity,
        strips=strips,
        validation=checks,
    )
