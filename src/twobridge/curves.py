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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .conway import ConwayWord
from .errors import (
    OddTwistError,
    SmoothingDisconnectError,
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


def build_plat_diagram(word: ConwayWord) -> PlatDiagram:
    """Lay out the word's twist regions left to right as a capped 4-plat."""
    crossings = []
    for region, entry in enumerate(word.entries):
        horizontal = region % 2 == 0
        strands = A_STRANDS if horizontal else B_STRANDS
        sign = 1 if entry > 0 else -1
        braid_sign = sign if horizontal else -sign
        for slot in range(abs(entry)):
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


def _closed_components_after_smoothing(columns: tuple[Column, ...]) -> int:
    """Components of the leftover curve: top strands 1,2 joined by caps,
    swapped once per surviving double point."""
    swaps = sum(1 for c in columns if c.kind == "crossing")
    # Strand ends: L1,L2,R1,R2 with caps L1-L2 and R1-R2.
    strand_image = {1: 1, 2: 2} if swaps % 2 == 0 else {1: 2, 2: 1}
    parent = {("L", 1): ("L", 1), ("L", 2): ("L", 2), ("R", 1): ("R", 1), ("R", 2): ("R", 2)}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        parent[find(a)] = find(b)

    union(("L", 1), ("L", 2))
    union(("R", 1), ("R", 2))
    for s in (1, 2):
        union(("L", s), ("R", strand_image[s]))
    return len({find(x) for x in parent})


def outer_smooth(d: PlatDiagram) -> ImmersedCurve:
    """Smooth every crossing adjacent to the outer region, drop the
    outermost circle, and forget the remaining crossing information."""
    columns = tuple(
        Column(
            kind="pass" if x.outer_adjacent else "crossing",
            region=x.region,
            sign=x.entry_sign,
        )
        for x in d.crossings
    )
    components = _closed_components_after_smoothing(columns)
    if components != 1:
        raise SmoothingDisconnectError(
            f"{components} closed curves remain after removing the outermost circle"
        )
    return ImmersedCurve(word=d.word, variant="f2", columns=columns, removed_circles=1)


def bigon_reduce(c: ImmersedCurve) -> ImmersedCurve:
    """Replace each vertical twist region's double points pairwise by
    self-tangencies; requires every b_i even."""
    if c.variant != "f2":
        raise VariantMismatchError("bigon_reduce expects a pre-reduction curve")
    out: list[Column] = []
    i = 0
    cols = c.columns
    while i < len(cols):
        col = cols[i]
        if col.kind != "crossing":
            out.append(col)
            i += 1
            continue
        j = i
        while j < len(cols) and cols[j].kind == "crossing" and cols[j].region == col.region:
            j += 1
        run = j - i
        if run % 2 != 0:
            raise OddTwistError(
                f"region {col.region} has {run} double points; pairing impossible"
            )
        out.extend(Column("tangency", col.region, col.sign) for _ in range(run // 2))
        i = j
    return ImmersedCurve(
        word=c.word, variant="f3", columns=tuple(out), removed_circles=c.removed_circles
    )


def _pass_strips(run: list[Column], granularity: str) -> list[Strip]:
    if granularity == "region":
        return [Strip("type3", tuple(run), param=run[0].sign * len(run))]
    return [Strip("type3", (col,), param=col.sign) for col in run]


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
    cols = curve.columns
    i = 0
    while i < len(cols):
        col = cols[i]
        j = i
        while j < len(cols) and cols[j].kind == col.kind and cols[j].region == col.region:
            j += 1
        run = list(cols[i:j])
        if col.kind == "pass":
            interior.extend(_pass_strips(run, granularity))
        elif col.kind == "crossing":
            expected = abs(curve.word.entries[col.region])
            if len(run) != expected:
                raise UnsliceableShapeError(
                    f"region {col.region}: {len(run)} double points in one slice, "
                    f"expected the full twist region of {expected}"
                )
            interior.append(Strip("type2", tuple(run), param=col.sign * len(run)))
        elif col.kind == "tangency":
            interior.extend(Strip("type2", (c,), param=c.sign) for c in run)
        else:
            raise UnsliceableShapeError(f"unknown tile kind {col.kind!r}")
        i = j

    if granularity == "fine":
        spaced: list[Strip] = []
        for strip in interior:
            spaced.append(strip)
            spaced.append(Strip("type3", (), param=0))
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
        ("type2_count", decomposition.type2_count == decomposition.expected_type2),
        ("interior_kinds", all(s.kind in ("type2", "type3") for s in strips[1:-1])),
    )
    return StripDecomposition(
        word=curve.word,
        variant=variant,
        granularity=granularity,
        strips=strips,
        validation=checks,
    )
